"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Everything here is exact arithmetic; evaluated modes use fixed safe rational
parameters and the eta = 2 results are double-checked along two independent
routes.
"""

import json
import random
from fractions import Fraction

from matsuo.algebra import critical_values, radical_dim
from matsuo.axial import (
    check_fusion,
    jordan_law,
    miyamoto_point_map,
    monster_law,
    tau_composition_identity,
)
from matsuo.classify import (
    KNOWN_CONNECTED_DIMS,
    classify,
    disconnected_configs_are_direct_sums,
    enumerate_configs,
)
from matsuo.cli import main as cli_main
from matsuo.closure import ScalarMode, close, evaluate_vec, reclose, specialized_dimension
from matsuo.fischer import build_named_space, is_space_automorphism, third_point
from matsuo.flips import (
    FIXED_DIM_FORMULA,
    FLIP_FAMILIES,
    ORBIT_COUNT_FORMULA,
    classify_orbits,
    flip_subalgebra,
    standard_flip,
)
from oracles import third_point_by_conjugation

SYM = ScalarMode.symbolic()
ONE = SYM.one()

_FLIP_CACHE: dict = {}


def get_flip(family, k):
    key = (family, k)
    if key not in _FLIP_CACHE:
        _FLIP_CACHE[key] = standard_flip(family, k)
    return _FLIP_CACHE[key]


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def test_criterion_1_point_counts_and_degrees():
    checks = 0
    for n in (2, 3, 4):
        sp = build_named_space("W3A", n)
        assert len(sp.points) == 3 * n * (n - 1) // 2
        checks += 1
        sp = build_named_space("W2D", n)
        assert len(sp.points) == 2 * n * (n - 1)
        assert {sp.degree(p) for p in range(len(sp.points))} == {4 * (n - 2)}
        checks += 2
        sp = build_named_space("W3D", n)
        assert len(sp.points) == 3 * n * (n - 1)
        assert {sp.degree(p) for p in range(len(sp.points))} == {6 * (n - 2) + 1}
        checks += 2
        sp = build_named_space("WrA4", n)
        assert len(sp.points) == 6 * n * (n - 1)
        assert {sp.degree(p) for p in range(len(sp.points))} == {12 * n - 20}
        checks += 2
        sp = build_named_space("Wr3p2", n)
        assert len(sp.points) == 27 * n * (n - 1) // 2
        checks += 1
    report(1, f"point counts and degree formulas hold for n in 2..4 ({checks} checks)")


def test_criterion_2_third_point_oracle_equivalence():
    spaces = []
    for family in ("A", "W2A", "W3A", "W2D", "W3D", "WrA4", "Wr3x3", "Wr3p2"):
        for n in (2, 3, 4, 5):
            if family == "A" and n < 3:
                continue
            sp = build_named_space(family, n)
            if len(sp.points) <= 60:
                spaces.append(sp)
    pairs = 0
    for sp in spaces:
        for a in sp.points:
            for b in sp.points:
                if a != b:
                    want = third_point_by_conjugation(sp, a, b)
                    assert third_point(sp, a, b) == want
                    pairs += 1
    report(2, f"third-point table equals wreath conjugation"
              f" on {pairs} ordered pairs across {len(spaces)} spaces")


def test_criterion_3_fusion_suites():
    # J(eta) for 20 sampled single axes across families, inside the full
    # Matsuo algebra of each space
    rng = random.Random(1729)
    sampled = 0
    for family, n, count in [
        ("A", 4, 2), ("A", 5, 2), ("W2A", 3, 2), ("W2A", 4, 2),
        ("W3A", 3, 2), ("W3A", 4, 2), ("W2D", 3, 2), ("W3D", 2, 2),
        ("WrA4", 2, 2), ("Wr3x3", 2, 1), ("Wr3p2", 2, 1),
    ]:
        sp = build_named_space(family, n)
        full = close(sp, [{p: ONE} for p in range(len(sp.points))], SYM)
        for p in rng.sample(range(len(sp.points)), count):
            rep = check_fusion(full, {p: ONE}, jordan_law(SYM))
            assert rep.passed, f"J violation for {sp.labels[p]} in {family}:{n}"
            sampled += 1
    assert sampled == 20
    # M(2eta, eta) for all doubles of the three flips, inside the flip algebra
    doubles_checked = 0
    for family in ("W2A", "W3A", "W2D"):
        tau = get_flip(family, 2)
        sp = tau.space
        dec = classify_orbits(sp, tau)
        alg = flip_subalgebra(sp, tau, SYM)
        for pair in dec.doubles:
            x = {pair[0]: ONE, pair[1]: ONE}
            rep = check_fusion(alg, x, monster_law(SYM))
            assert rep.passed, f"M violation for double {pair} in {family}"
            doubles_checked += 1
    report(3, f"J(eta) passed for {sampled} single axes;"
              f" M(2eta,eta) passed for {doubles_checked} doubles, zero violations")


def test_criterion_4_miyamoto():
    spaces = []
    for family in ("A", "W2A", "W3A", "W2D", "W3D", "WrA4", "Wr3x3"):
        for n in (2, 3, 4, 5):
            if family == "A" and n < 3:
                continue
            sp = build_named_space(family, n)
            if len(sp.points) <= 20:
                spaces.append(sp)
    pairs = 0
    maps = 0
    for sp in spaces:
        npts = len(sp.points)
        for p in range(npts):
            perm = miyamoto_point_map(sp, p)
            assert is_space_automorphism(sp, perm)
            maps += 1
        for a in range(npts):
            for b in range(a + 1, npts):
                if not sp.collinear(a, b):
                    assert tau_composition_identity(sp, a, b)
                    pairs += 1
    report(4, f"tau(a+b) = tau(a)tau(b) for {pairs} double axes;"
              f" {maps} Miyamoto point maps are automorphisms")


def test_criterion_5_fixed_subalgebra_dimensions():
    checked = 0
    for family in FLIP_FAMILIES:
        singles_f, doubles_f, extras_f = ORBIT_COUNT_FORMULA[family]
        for k in (1, 2, 3):
            tau = get_flip(family, k)
            dec = classify_orbits(tau.space, tau)
            assert dec.counts() == (singles_f(k), doubles_f(k), extras_f(k)), (
                family, k, dec.counts())
            assert dec.orbit_count() == FIXED_DIM_FORMULA[family](k)
            checked += 1
    tau = get_flip("Wr3p2", 2)
    assert classify_orbits(tau.space, tau).counts() == (18, 54, 18)
    report(5, f"fixed dimensions and orbit counts match for"
              f" {checked} (family, k) pairs, incl. Wr3p2 k=2 = 18/54/18")


def test_criterion_6_flip_dimensions():
    results = {}
    for family, expected_sym, eta2_expected in [
        ("W2A", 8, None),
        ("W2D", 14, None),
        ("WrA4o", 42, None),
        ("W3A", 9, None),
        ("Wr3x3", 30, 29),
        ("Wr3p2", 90, 89),
    ]:
        tau = get_flip(family, 2)
        sp = tau.space
        fixed_dim = classify_orbits(sp, tau).orbit_count()
        sym = flip_subalgebra(sp, tau, SYM)
        assert sym.dimension == expected_sym, (family, sym.dimension)
        if family in ("W2A", "W2D", "WrA4o"):
            assert sym.dimension == fixed_dim
        if family == "W3A":
            assert sym.dimension == fixed_dim - 1
        if eta2_expected is not None:
            ev = flip_subalgebra(sp, tau, ScalarMode.evaluated(2))
            assert ev.dimension == eta2_expected, (family, ev.dimension)
            spec = specialized_dimension(sym, 2)
            assert spec == eta2_expected, (family, spec)
        results[family] = sym.dimension
    # the CLI route for the 162-point case agrees
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["flip", "--family", "Wr3p2", "--k", "2", "--eta", "2"])
    assert code == 0
    data = json.loads(buf.getvalue())
    assert data["flip_dim_symbolic"] == 90 and data["flip_dims_at"] == {"2": 89}
    report(6, f"flip dimensions {results}; eta=2 drops 30->29 and 90->89"
              " via evaluated closures and specialize-last double entry")


def test_criterion_6_flip_dimensions_k3():
    # the families under 200 points at k = 3; each flip algebra is its whole
    # fixed subalgebra, W3A included (at k = 2 it is one short)
    results = {}
    for family, expected in [
        ("W2A", 18), ("W3A", 24), ("W2D", 33),
        ("WrA4", 96), ("WrA4o", 99), ("Wr3x3", 72),
    ]:
        tau = get_flip(family, 3)
        sym = flip_subalgebra(tau.space, tau, SYM)
        assert sym.dimension == expected, (family, sym.dimension)
        assert sym.dimension == classify_orbits(tau.space, tau).orbit_count()
        results[family] = sym.dimension
    report(6, f"k = 3 flip dimensions {results} equal the fixed dimensions")


def test_criterion_7_critical_values():
    sp = build_named_space("A", 3)
    assert critical_values(sp).roots == frozenset({Fraction(-1), Fraction(2)})
    drops = []
    for family in ("Wr3x3", "Wr3p2"):
        amb = build_named_space(family, 4)
        cv = critical_values(amb)
        assert Fraction(2) in cv.roots, family
        assert radical_dim(amb, 2) > 0
        drops.append(family)
    report(7, "critical values of A:3 are {-1, 2}; eta=2 is critical for"
              f" {drops} where the eta=2 flip dimension drops")


def test_criterion_8_classification_census():
    summaries = []
    for family, n in [("W3A", 4), ("WrA4", 2)]:
        sp = build_named_space(family, n)
        rep = classify(sp)  # evaluated at a safe eta, symbolic re-certification
        # (a) disconnected diagrams decompose
        disconnected = [
            c for c in enumerate_configs(sp) if not c.diagram(sp).is_connected()
        ]
        assert disconnected_configs_are_direct_sums(sp, rep.mode, disconnected)
        # (b) connected primitive-only dims lie in the known set or the
        # bucket is logged as a D8/D9 candidate
        for bucket in rep.buckets.values():
            if not bucket["connected"]:
                continue
            prim_dims = set(bucket["primitive_dims"])
            if prim_dims <= KNOWN_CONNECTED_DIMS:
                assert bucket["classification"] == "classified"
            else:
                assert bucket["classification"] == "unclassified_d8_d9_candidate"
            assert all(bucket["certified"].values()), "symbolic re-certification"
        summaries.append(
            (family, n, sum(b["examined"] for b in rep.buckets.values()))
        )
    # (a) again where generators do split: W2D:4 with the first point fixed
    # (no disconnected configuration of W3A:4 or WrA4:2 splits)
    sp = build_named_space("W2D", 4)
    disconnected = [
        c for c in enumerate_configs(sp, first_point=0) if not c.diagram(sp).is_connected()
    ]
    split = sum(len(c.generator_partition(sp)) > 1 for c in disconnected)
    assert split > 0
    assert disconnected_configs_are_direct_sums(sp, ScalarMode.evaluated(7), disconnected)
    # (c) dimension 9 is realized in a connected bucket
    rep = classify(build_named_space("W3A", 4))
    assert any(
        b["connected"] and 9 in b["primitive_dims"] for b in rep.buckets.values()
    )
    report(8, f"census over {summaries}: disconnected => direct sum ({split} of"
              f" {len(disconnected)} W2D:4 configurations split), connected"
              " primitive dims classified or flagged, dimension 9 realized")


def test_criterion_9_closure_operator_properties():
    cases = []
    line_space = build_named_space("A", 3)
    cases.append(("line", line_space, [{p: ONE} for p in range(3)]))
    for family in ("W2A", "W3A", "W2D", "Wr3x3"):
        tau = get_flip(family, 2)
        dec = classify_orbits(tau.space, tau)
        gens = [{s: ONE} for s in dec.singles]
        gens += [{p: ONE, q: ONE} for p, q in dec.doubles]
        cases.append((family, tau.space, gens))
    rng = random.Random(99)
    for name, sp, gens in cases:
        sym = close(sp, gens, SYM)
        # idempotence
        again = reclose(sym)
        assert again.dimension == sym.dimension
        assert again.basis.canonical_rows() == sym.basis.canonical_rows()
        # generator-order invariance
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert close(sp, shuffled, SYM).basis.canonical_rows() == sym.basis.canonical_rows()
        # symbolic vs evaluated agreement at three safe etas
        etas = []
        probe = Fraction(3)
        forbidden = {Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1)}
        crit = critical_values(sp).roots
        while len(etas) < 3:
            if probe not in forbidden and probe not in crit:
                etas.append(probe)
            probe += 2
        for eta0 in etas:
            ev = close(sp, [evaluate_vec(g, eta0) for g in gens],
                       ScalarMode.evaluated(eta0))
            assert ev.dimension == sym.dimension, (name, eta0)
    # the 162-point flip generators, evaluated modes only for the heavy part
    tau = get_flip("Wr3p2", 2)
    dec = classify_orbits(tau.space, tau)
    gens = [{s: ONE} for s in dec.singles] + [
        {p: ONE, q: ONE} for p, q in dec.doubles
    ]
    sym_dim = flip_subalgebra(tau.space, tau, SYM).dimension
    for eta0 in (Fraction(3), Fraction(5), Fraction(7)):
        ev = close(tau.space, [evaluate_vec(g, eta0) for g in gens],
                   ScalarMode.evaluated(eta0))
        assert ev.dimension == sym_dim
    ev7 = close(tau.space, [evaluate_vec(g, 7) for g in gens], ScalarMode.evaluated(7))
    re7 = reclose(ev7)
    assert re7.dimension == ev7.dimension == sym_dim
    report(9, f"closure is idempotent and order-invariant on {len(cases)} generator"
              " sets; symbolic = evaluated dimension at 3 safe etas each,"
              " including the 162-point flip generators")
