"""The summary of tools/bench_pairs.py on canned run records, and its import
size probe on a tiny package; no benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 1},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refuse(*args):
    raise AssertionError("a benchmark run was started")


@pytest.fixture
def bench_pairs(monkeypatch):
    module = load_tool()
    monkeypatch.setattr(module, "run_once", refuse)
    monkeypatch.setattr(module.subprocess, "run", refuse)
    return module


def record(workload, pair, side, wall, rss, rate, failed=0):
    metrics = {"wall_s": wall, "peak_rss_mb": rss, "rate": rate}
    return {
        "workload": workload,
        "pair": pair,
        "side": side,
        "result": {
            "correct": not failed,
            "attempted": 4,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
        },
    }


def test_summary_of_canned_runs(bench_pairs):
    runs = []
    walls = {"parent": [0.20, 0.22, 0.19, 0.25, 0.21], "change": [0.10, 0.12, 0.20, 0.09, 0.11]}
    for pair in range(5):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            rss = 25.0 if side == "parent" else 25.0 + (pair == 3) * 0.1
            rate = 10 + (side == "change") * (1 if pair else -1)
            runs.append(record("fusion", pair, side, walls[side][pair], rss, rate))
    runs.append(record("census", 0, "parent", 0.7, 24.0, 1, failed=1))
    runs.append(record("census", 0, "change", 0.7, 24.0, 1))
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["fusion", "census"]
    fusion = summary["fusion"]
    assert fusion["parent"]["runs"] == fusion["change"]["runs"] == 5
    assert fusion["parent"]["attempted"] == 20 and fusion["parent"]["failed"] == 0
    assert fusion["parent"]["wall_s"] == {
        "median": 0.21, "q1": 0.2, "q3": 0.22, "min": 0.19, "max": 0.25
    }
    assert fusion["change"]["wall_s"]["median"] == 0.11
    # the change reads lower in four pairs and higher in one (pair 2)
    assert fusion["wall_s_change_lower_pairs"] == "4 of 5 (higher in 1)"
    assert fusion["wall_s_change_won_pairs"] == 4
    assert fusion["wall_s_median_change_minus_parent"] == -0.1
    # ties count for neither side
    assert fusion["peak_rss_mb_change_lower_pairs"] == "0 of 5 (higher in 1)"
    assert fusion["peak_rss_mb_change_won_pairs"] == 0
    # a metric where higher is better is won by the higher reading
    assert fusion["rate_change_lower_pairs"] == "1 of 5 (higher in 4)"
    assert fusion["rate_change_won_pairs"] == 4
    census = summary["census"]
    assert census["parent"]["failed"] == 1 and census["change"]["failed"] == 0
    assert census["wall_s_change_lower_pairs"] == "0 of 1 (higher in 0)"


def test_a_pair_with_one_side_is_not_counted(bench_pairs):
    runs = [
        record("spectrum", 0, "parent", 0.2, 27.0, 1),
        record("spectrum", 0, "change", 0.1, 27.0, 1),
        record("spectrum", 1, "parent", 0.3, 27.0, 1),
    ]
    spectrum = bench_pairs.summarize(runs, METRICS)["spectrum"]
    assert spectrum["parent"]["runs"] == 2 and spectrum["change"]["runs"] == 1
    assert spectrum["wall_s_change_lower_pairs"] == "1 of 1 (higher in 0)"


def test_import_size_of_a_tiny_package(tmp_path, monkeypatch):
    # the package keeps 100 KB and its cli module drops 300 KB more, so the
    # probe must import both, from the given root, and report the peak
    module = load_tool()
    monkeypatch.setattr(module, "run_once", refuse)
    package = tmp_path / "src" / "matsuo"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("KEPT = bytearray(100 * 1024)\n")
    (package / "cli.py").write_text("DROPPED = bytearray(300 * 1024)\ndel DROPPED\n")
    size = module.import_size(tmp_path)
    assert set(size) == {"retained_kb", "peak_kb"}
    assert 100 <= size["retained_kb"] < 200
    assert size["peak_kb"] - size["retained_kb"] >= 300
    assert not list(tmp_path.rglob("*.pyc"))


def test_src_lines_of_a_tiny_package(tmp_path, bench_pairs):
    # only the package's own modules count: not its subpackages, not other
    # files in it and not the tests beside it
    package = tmp_path / "src" / "matsuo"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("A = 1\nB = 2\n")
    (package / "cli.py").write_text("\n\nC = 3")
    (package / "notes.txt").write_text("x\n" * 50)
    (package / "sub" / "deep.py").write_text("D = 4\n" * 20)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("E = 5\n" * 30)
    assert bench_pairs.src_lines(tmp_path) == 5


def test_pass_peak_of_a_toy_workload(tmp_path, monkeypatch):
    # the import keeps 400 KB before tracing starts, and the pass allocates
    # 300 KB at its peak; one operation answers wrong and one raises
    module = load_tool()
    monkeypatch.setattr(module, "run_once", refuse)
    package = tmp_path / "src" / "matsuo"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("KEPT = bytearray(400 * 1024)\n")
    (package / "cli.py").write_text("")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "workloads.py").write_text(
        "from types import SimpleNamespace\n"
        "def run(m, seed, op):\n"
        "    op('imported', lambda: len(m.package.KEPT), lambda r: r == 400 * 1024)\n"
        "    op('pass', lambda: len(bytearray(seed * 1024)), lambda r: r == seed * 1024)\n"
        "    op('wrong', lambda: 1, lambda r: r == 2)\n"
        "    op('raises', lambda: 1 / 0, lambda r: True)\n"
        "    assert m.cli.__name__ == 'matsuo.cli'\n"
        "WORKLOADS = {'toy': SimpleNamespace(run=run)}\n"
    )
    peak = module.pass_peak(tmp_path, "toy", 300)
    assert peak["attempted"] == 4 and peak["failed"] == 2
    assert 300 <= peak["peak_kb"] < 400
    assert not list(tmp_path.rglob("*.pyc"))
