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
    orthogonal_pairs,
    worker_count,
)
from matsuo.cli import main as cli_main
from matsuo.closure import ScalarMode
from matsuo.fischer import build_named_space, canonical_diagram
from oracles import generator_partition, naive_config_count

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


def test_worker_count_does_not_change_the_report(capsys, monkeypatch):
    # A:5 has 45 configurations in 6 buckets, so two workers share real work
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("MATSUO_WORKERS", workers)
        assert cli_main(["classify", "--ambient", "A:5"]) == 0
        reports.append(capsys.readouterr().out)
    assert json.loads(reports[0])["buckets"]
    assert reports[0] == reports[1]


def test_worker_count_reads_the_environment(monkeypatch):
    monkeypatch.delenv("MATSUO_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("MATSUO_WORKERS", "3")
    assert worker_count() == 3
    for bad in ("abc", "0", "-2", ""):
        monkeypatch.setenv("MATSUO_WORKERS", bad)
        with pytest.raises(ValueError, match="MATSUO_WORKERS"):
            worker_count()
