"""Type-D configuration enumeration and the classification census."""

import importlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from matsuo.classify import (
    KNOWN_CONNECTED_DIMS,
    TypeDConfig,
    classify,
    disconnected_configs_are_direct_sums,
    enumerate_configs,
    evaluate_config,
    orbit_leaders,
    orthogonal_pairs,
    worker_count,
)
from matsuo.cli import main as cli_main
from matsuo.closure import ScalarMode
from matsuo.fischer import (
    FischerSpace,
    build_named_space,
    canonical_diagram,
    parse_space_spec,
    point_orbits,
    verified_reflection,
)
from oracles import census_closing_each, generator_partition, naive_config_count

EV7 = ScalarMode.evaluated(7)


class TestConfigs:
    def test_canonical_ordering(self):
        cfg = TypeDConfig.canonical(0, (5, 3), (2, 1))
        assert cfg.bc == (1, 2) and cfg.de == (3, 5)
        with pytest.raises(ValueError):
            TypeDConfig(0, (3, 5), (1, 2))

    def test_five_distinct_points(self):
        with pytest.raises(ValueError):
            TypeDConfig(0, (0, 1), (2, 3))

    def test_generators(self):
        cfg = TypeDConfig(0, (1, 2), (3, 4))
        gens = cfg.generators(EV7)
        assert gens[0] == {0: Fraction(1)}
        assert gens[1] == {1: Fraction(1), 2: Fraction(1)}


class TestEnumeration:
    def test_no_orthogonal_pairs_gives_empty_stream(self):
        sp = build_named_space("A", 3)
        assert orthogonal_pairs(sp) == []
        assert list(enumerate_configs(sp)) == []

    def test_family_a_configs_exist(self):
        sp = build_named_space("A", 4)
        assert len(list(enumerate_configs(sp))) > 0

    @pytest.mark.parametrize("family,n", [("W3A", 4), ("WrA4", 2)])
    def test_count_matches_naive_loop(self, family, n):
        sp = build_named_space(family, n)
        assert len(list(enumerate_configs(sp))) == naive_config_count(sp) // 8

    def test_oversized_space_refused(self):
        sp = build_named_space("Wr3x3", 4)
        with pytest.raises(ValueError):
            list(enumerate_configs(sp))

    def test_sampling_reproducible(self):
        sp = build_named_space("Wr3x3", 4)
        first = list(enumerate_configs(sp, sampling=(25, 42)))
        second = list(enumerate_configs(sp, sampling=(25, 42)))
        assert first == second and len(first) == 25

    def test_symmetry_soundness(self):
        sp = build_named_space("W3A", 4)
        cfgs = list(enumerate_configs(sp))[:10]
        for cfg in cfgs:
            base = evaluate_config(sp, cfg, EV7)["dim"]
            code = canonical_diagram(cfg.diagram(sp))
            for variant in (
                TypeDConfig.canonical(cfg.a, cfg.bc[::-1], cfg.de),
                TypeDConfig.canonical(cfg.a, cfg.de, cfg.bc),
            ):
                assert evaluate_config(sp, variant, EV7)["dim"] == base
                assert canonical_diagram(variant.diagram(sp)) == code


@pytest.fixture(scope="module")
def w3a4_report():
    return classify(build_named_space("W3A", 4))


class TestClassify:
    def test_buckets_partition_configs(self, w3a4_report):
        examined = sum(b["examined"] for b in w3a4_report.buckets.values())
        sp = w3a4_report.space
        with_fixed_a = sum(1 for c in enumerate_configs(sp, first_point=0))
        assert examined == with_fixed_a

    def test_connected_bucket_realizes_dimension_nine(self, w3a4_report):
        assert any(
            b["connected"] and 9 in b["primitive_dims"]
            for b in w3a4_report.buckets.values()
        )

    def test_dims_within_known_set_or_flagged(self, w3a4_report):
        for b in w3a4_report.buckets.values():
            if not b["connected"]:
                assert b["classification"] == "disconnected"
            elif set(b["primitive_dims"]) <= KNOWN_CONNECTED_DIMS:
                assert b["classification"] == "classified"
            else:
                assert b["classification"] == "unclassified_d8_d9_candidate"

    def test_symbolic_recertification(self, w3a4_report):
        for b in w3a4_report.buckets.values():
            assert set(b["certified"]) == set(b["dims"])
            assert all(b["certified"].values())

    def test_deterministic_reports(self):
        sp = build_named_space("WrA4", 2)
        assert classify(sp).export() == classify(sp).export()

    def test_export_schema(self, w3a4_report):
        data = w3a4_report.export()
        assert set(data) == {"ambient", "mode", "seed", "first_point_fixed", "buckets"}
        for bucket in data["buckets"]:
            assert {"diagram_code", "adjacency", "connected", "examined",
                    "classification", "dims"} <= set(bucket)
        # JSON-serializable and stable
        json.dumps(data)
        assert w3a4_report.csv().startswith("diagram_code,")

    def test_disconnected_configs_split(self):
        # W3A:4's disconnected configurations keep their generators in one
        # part; in W2A:5 and W2D:4 some split, so is_direct_sum is reached
        for family, n, first_point in (("W3A", 4, None), ("W2A", 5, 0), ("W2D", 4, 0)):
            sp = build_named_space(family, n)
            disconnected = [
                c for c in enumerate_configs(sp, first_point=first_point)
                if not c.diagram(sp).is_connected()
            ]
            assert disconnected, f"expected disconnected configurations in {family}:{n}"
            assert disconnected_configs_are_direct_sums(sp, EV7, disconnected)
            if family != "W3A":
                assert any(len(c.generator_partition(sp)) > 1 for c in disconnected)

    def test_a_split_that_is_not_direct_fails(self, monkeypatch):
        # with is_direct_sum refusing every split, W2D:4 (first point fixed)
        # has a disconnected configuration whose generators split, so the
        # census check answers False
        sp = build_named_space("W2D", 4)
        configs = list(enumerate_configs(sp, first_point=0))
        module = importlib.import_module("matsuo.classify")  # the package exports classify()
        monkeypatch.setattr(module, "is_direct_sum", lambda algebra, partition: False)
        assert not disconnected_configs_are_direct_sums(sp, EV7, configs)

    def test_generator_partition_matches_oracle(self):
        # every configuration of A:5, and with the first point fixed of W3A:4
        # and of W2A:5 and W2D:4, where the generators split three ways
        shapes = set()
        for family, n, first_point in (
            ("A", 5, None), ("W3A", 4, 0), ("W2A", 5, 0), ("W2D", 4, 0)
        ):
            sp = build_named_space(family, n)
            for cfg in enumerate_configs(sp, first_point=first_point):
                parts = cfg.generator_partition(sp)
                assert parts == generator_partition(sp, cfg), cfg
                shapes.add(str(parts))
        assert shapes == {"[[0, 1, 2]]", "[[0], [1, 2]]", "[[0, 1], [2]]", "[[0], [1], [2]]"}

    def test_ambient_automorphism_soundness(self):
        from matsuo.axial import miyamoto_point_map

        sp = build_named_space("W3A", 4)
        cfgs = list(enumerate_configs(sp))[:6]
        perm = miyamoto_point_map(sp, 0)
        for cfg in cfgs:
            moved = TypeDConfig.canonical(
                perm[cfg.a],
                (perm[cfg.bc[0]], perm[cfg.bc[1]]),
                (perm[cfg.de[0]], perm[cfg.de[1]]),
            )
            assert (
                evaluate_config(sp, moved, EV7)["dim"]
                == evaluate_config(sp, cfg, EV7)["dim"]
            )
            assert canonical_diagram(moved.diagram(sp)) == canonical_diagram(
                cfg.diagram(sp)
            )

    def test_point_transitivity_loses_nothing(self):
        # A:5 is point-transitive, so fixing the first point divides every
        # (bucket, dim) count and primitive count of the full sweep by n
        sp = build_named_space("A", 5)
        n = len(sp.points)
        fixed = classify(sp)
        assert fixed.first_point_fixed
        # the full sweep, bucketed as classify buckets it
        full: dict = {}
        for cfg in enumerate_configs(sp):
            data = evaluate_config(sp, cfg, fixed.mode)
            bucket = full.setdefault(
                canonical_diagram(cfg.diagram(sp)),
                {"examined": 0, "dims": Counter(), "primitive_dims": Counter()},
            )
            bucket["examined"] += 1
            bucket["dims"][data["dim"]] += 1
            if data["primitive"]:
                bucket["primitive_dims"][data["dim"]] += 1
        assert fixed.buckets.keys() == full.keys()
        for code, bucket in full.items():
            assert bucket["examined"] == n * fixed.buckets[code]["examined"]
            for key in ("dims", "primitive_dims"):
                expected = {dim: n * c for dim, c in fixed.buckets[code][key].items()}
                assert bucket[key] == expected

    def test_unsafe_mode_rejected(self):
        sp = build_named_space("W3A", 4)
        with pytest.raises(ValueError):
            classify(sp, mode=ScalarMode.evaluated(2))

    def test_sampled_census_on_large_ambient(self):
        sp = build_named_space("Wr3p2", 4)
        rep = classify(sp, sampling=(3, 11))
        assert rep.seed == 11 and not rep.first_point_fixed
        assert sum(b["examined"] for b in rep.buckets.values()) == 3
        for b in rep.buckets.values():
            assert all(b["certified"].values())


def spy_on_closures(monkeypatch) -> list:
    """Record the configurations classify closes, through evaluate_config."""
    module = importlib.import_module("matsuo.classify")  # the package exports classify()
    closed = []

    def spy(sp, cfg, mode):
        closed.append(cfg)
        return evaluate_config(sp, cfg, mode)

    monkeypatch.setattr(module, "evaluate_config", spy)
    return closed


class TestCensusByOrbits:
    # W3D:2 has two point orbits, so its sweep fixes no first point and its
    # orbits come from every verified reflection
    @pytest.mark.parametrize("spec,orbits", [
        ("A:5", 6), ("A:6", 19), ("W2A:4", 21), ("W3A:4", 28), ("W3D:3", 28),
        ("W2D:3", 21), ("WrA4:2", 21), ("W3D:2", 2),
    ])
    def test_report_equals_closing_each(self, spec, orbits, monkeypatch):
        sp = parse_space_spec(spec)
        expected = census_closing_each(sp, EV7).export()
        closed = spy_on_closures(monkeypatch)
        assert classify(sp, EV7).export() == expected
        # one closure per orbit, of the orbit's first configuration
        first_point = 0 if expected["first_point_fixed"] else None
        configs = list(enumerate_configs(sp, first_point=first_point))
        leaders = orbit_leaders(sp, configs, first_point)
        assert closed == [configs[i] for i in sorted(set(leaders))]
        assert len(closed) == orbits

    def test_symbolic_report_equals_closing_each(self):
        sp = build_named_space("W3A", 4)
        symbolic = ScalarMode.symbolic()
        assert classify(sp, symbolic).export() == census_closing_each(sp, symbolic).export()

    def test_sampled_sweep_closes_every_draw(self, monkeypatch):
        sp = build_named_space("W3A", 4)
        expected = census_closing_each(sp, sampling=(30, 1)).export()
        closed = spy_on_closures(monkeypatch)
        assert classify(sp, sampling=(30, 1)).export() == expected
        assert closed == list(enumerate_configs(sp, sampling=(30, 1)))

    @pytest.mark.parametrize("spec,orbits", [("W3A:4", 28), ("W2D:4", 364)])
    def test_one_diagram_per_representative(self, spec, orbits, monkeypatch):
        # closing each configuration would take 231 and 2485 diagrams
        sp = parse_space_spec(spec)
        drawn = []
        diagram = TypeDConfig.diagram

        def spy(cfg, space):
            drawn.append(cfg)
            return diagram(cfg, space)

        monkeypatch.setattr(TypeDConfig, "diagram", spy)
        closed = spy_on_closures(monkeypatch)
        classify(sp, EV7)
        assert drawn == closed and len(drawn) == orbits

    @pytest.mark.parametrize("spec", ["A:5", "W2A:4"])
    def test_weights_add_up_to_the_sweep(self, spec):
        # both are point-transitive: the first point is fixed
        sp = parse_space_spec(spec)
        report = classify(sp, EV7)
        assert report.first_point_fixed
        examined = sum(b["examined"] for b in report.buckets.values())
        assert examined == naive_config_count(sp) // (8 * len(sp.points))

    @pytest.mark.parametrize("family,n,orbits", [("W2D", 4, 364), ("W2A", 5, 41)])
    def test_orbit_counts(self, family, n, orbits):
        sp = build_named_space(family, n)
        configs = list(enumerate_configs(sp, first_point=0))
        leaders = orbit_leaders(sp, configs, 0)
        assert len(set(leaders)) == orbits
        # each leader is the first member of its orbit, and every reflection
        # fixing the first point keeps each configuration in its orbit
        assert all(leaders[leader] == leader <= i for i, leader in enumerate(leaders))
        index = {cfg: i for i, cfg in enumerate(configs)}
        for c in range(len(sp.points)):
            if sp.collinear(c, 0):
                continue
            g = verified_reflection(sp, c)
            for cfg, leader in zip(configs, leaders):
                image = TypeDConfig.canonical(
                    g[cfg.a], (g[cfg.bc[0]], g[cfg.bc[1]]), (g[cfg.de[0]], g[cfg.de[1]])
                )
                assert leaders[index[image]] == leader

    def test_non_automorphism_reflection_raises(self, monkeypatch):
        import matsuo.fischer as fischer_mod

        def bad_reflection(space, c):
            # swaps c with one collinear point only, breaking the other
            # lines through c
            q = next(x for x, r in enumerate(space.third[c]) if r >= 0)
            perm = list(range(len(space.points)))
            perm[c], perm[q] = q, c
            return tuple(perm)

        sp = build_named_space("W3A", 4)
        point_orbits(sp)  # cached with the true reflections
        closed = spy_on_closures(monkeypatch)
        monkeypatch.setattr(fischer_mod, "reflection_map", bad_reflection)
        with pytest.raises(ValueError, match="automorphism check"):
            classify(sp)
        assert not closed


def test_worker_count_does_not_change_the_report(capsys, monkeypatch):
    # A:5 closes 6 orbit representatives in 6 buckets and W3A:4 closes 28,
    # so two workers share real work
    for ambient in ("A:5", "W3A:4"):
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MATSUO_WORKERS", workers)
            assert cli_main(["classify", "--ambient", ambient]) == 0
            reports.append(capsys.readouterr().out)
        assert json.loads(reports[0])["buckets"]
        assert reports[0] == reports[1]


def test_pool_pickles_the_space_once_per_chunk(monkeypatch):
    # the 28 representatives of W3A:4 go to two workers in at most 8 chunks
    pickled = []
    original = FischerSpace.__reduce_ex__

    def counted(space, protocol):
        pickled.append(space)
        return original(space, protocol)

    monkeypatch.setattr(FischerSpace, "__reduce_ex__", counted)
    monkeypatch.setenv("MATSUO_WORKERS", "2")
    sp = build_named_space("W3A", 4)
    assert classify(sp).export() == census_closing_each(sp).export()
    assert 1 <= len(pickled) <= 8


def test_worker_count_reads_the_environment(monkeypatch):
    monkeypatch.delenv("MATSUO_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("MATSUO_WORKERS", "3")
    assert worker_count() == 3
    for bad in ("abc", "0", "-2", ""):
        monkeypatch.setenv("MATSUO_WORKERS", bad)
        with pytest.raises(ValueError, match="MATSUO_WORKERS"):
            worker_count()
