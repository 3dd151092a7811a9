"""Paired benchmark runs of a parent commit against the working tree.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent REF --tag TAG --workloads fusion census \
        --pairs 10 --seed 1

The parent is exported with ``git archive REF`` into a temporary directory,
and the working tree is copied there (without .git), so edits made while
the runs go on change neither side.  For each workload, each pair runs
``perfbench/run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once
in each copy, the parent first in even pairs and the working tree first in
odd ones.  Every run's last line (the JSON result) is kept, with the digest
of the sources it ran.  The summary gives, per workload and side, the
median, quartiles, minimum and maximum of each end-to-end metric of
BENCHMARK.json, and the pairs the change won on each metric, ties counting
for neither side; it is printed and written, with the runs, to
BENCH_<TAG>.json in the schema of the earlier BENCH files.  The record also
gives each side's import size: the tracemalloc retained size and peak of
``import matsuo, matsuo.cli`` in a fresh interpreter that writes no
bytecode, which ``peak_rss_mb`` follows, and the tracemalloc peak of one
pass of each workload's operations (``run`` in perfbench/workloads.py),
taken after that import in a fresh interpreter: the memory the engine's
work needs, without the import's compile peak.  Each side's line count of
``src/matsuo/*.py`` is kept too, so a change's line delta is on record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
IMPORT_PROBE = (
    "import tracemalloc; tracemalloc.start(); import matsuo, matsuo.cli;"
    " print(*tracemalloc.get_traced_memory())"
)

PASS_PROBE = """
import sys, tracemalloc, types
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
import matsuo, matsuo.cli
m = types.SimpleNamespace(package=matsuo, **{name[len("matsuo."):]: module
    for name, module in sys.modules.items() if name.startswith("matsuo.")})
ops, failed = [], []
def op(label, compute, check):
    ops.append(label)
    try:
        result = compute()
        if check(result):
            return result
    except Exception:
        pass
    failed.append(label)
tracemalloc.start()
WORKLOADS[sys.argv[1]].run(m, int(sys.argv[2]), op)
print(tracemalloc.get_traced_memory()[1], len(ops), len(failed))
"""


def git(*args: str) -> str:
    """The output of a git command run at the root of the checkout."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds) -> dict:
    """One ``perfbench/run.py`` run in root: its JSON result line, with the
    source digest of its run record."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} in {root} exited {done.returncode}: {done.stderr}")
    *_, record, result = done.stdout.strip().splitlines()
    return {**json.loads(result), "source_sha256": json.loads(record)["record"]["source_sha256"]}


def import_size(root: Path) -> dict:
    """The tracemalloc retained size and peak, in KB, of importing matsuo
    and matsuo.cli from root/src in a fresh interpreter that writes no
    bytecode, so that every module is compiled."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    retained, peak = map(int, done.stdout.split())
    return {"retained_kb": round(retained / 1024, 1), "peak_kb": round(peak / 1024, 1)}


def src_lines(root: Path) -> int:
    """The number of lines of the package's modules, root/src/matsuo/*.py."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src" / "matsuo").glob("*.py"))


def pass_peak(root: Path, workload: str, seed: int) -> dict:
    """The tracemalloc peak, in KB, of one pass of a workload's operations,
    run from root in a fresh interpreter after matsuo is imported, with the
    pass's operation and failure counts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", PASS_PROBE, workload, str(seed)], cwd=root,
                          env=env, capture_output=True, text=True, check=True)
    peak, attempted, failed = map(int, done.stdout.split())
    return {"peak_kb": round(peak / 1024, 1), "attempted": attempted, "failed": failed}


def spread(values: list[float]) -> dict:
    """Median, quartiles and extremes; one value is all five."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "min": round(min(values), 4),
        "max": round(max(values), 4),
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each side's runs, failures, attempts and the spread of
    each metric, and for each metric the pairs where the change read lower
    and higher, the pairs it won (ties count for neither side) and the
    difference of the medians.  A run is {"workload", "pair", "side",
    "result"}, its result the last line of ``perfbench/run.py``; metrics are
    BENCHMARK.json's end-to-end entries, each with its better direction."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        out = {}
        for side in SIDES:
            results = [r["result"] for r in mine if r["side"] == side]
            out[side] = {
                "runs": len(results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                **{m["name"]: spread([r["metrics"][m["name"]]["value"] for r in results])
                   for m in metrics},
            }
        pairs = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        complete = [p for p in pairs.values() if len(p) == 2]
        for m in metrics:
            name = m["name"]
            deltas = [p["change"][name]["value"] - p["parent"][name]["value"] for p in complete]
            lower, higher = sum(d < 0 for d in deltas), sum(d > 0 for d in deltas)
            out[f"{name}_change_lower_pairs"] = f"{lower} of {len(complete)} (higher in {higher})"
            out[f"{name}_change_won_pairs"] = lower if m["better"] == "lower" else higher
            out[f"{name}_median_change_minus_parent"] = round(
                out["change"][name]["median"] - out["parent"][name]["median"], 4
            )
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_sha = git("rev-parse", "--short", args.parent)
    head_sha = git("rev-parse", "--short", "HEAD")
    edited = ", with uncommitted edits" if git("status", "--porcelain", "-uno") else ""
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = Path(tmp) / "parent.tar"
        git("archive", "-o", str(archive), args.parent)
        parent = Path(tmp) / "parent"
        with tarfile.open(archive) as tar:
            tar.extractall(parent)
        change = Path(tmp) / "change"
        shutil.copytree(ROOT, change, ignore=shutil.ignore_patterns(".git", ".bench_out"))
        roots = {"parent": parent, "change": change}
        imports = {side: import_size(roots[side]) for side in SIDES}
        lines = {side: src_lines(roots[side]) for side in SIDES}
        passes = {side: {w: pass_peak(roots[side], w, args.seed) for w in args.workloads}
                  for side in SIDES}
        for workload in args.workloads:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(roots[side], workload, args.seed, spec["run_seconds"])
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} {side}: wall_s {wall:.4f}", flush=True)
    summary = summarize(runs, spec["end_to_end"])
    record = {
        "tag": args.tag,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed}"
                   f" --seconds {spec['run_seconds']} --trace 0, run from the root of each tree",
        "sides": {"parent": parent_sha, "change": f"{head_sha}, copied from the working tree{edited}"},
        "protocol": f"tools/bench_pairs.py: {args.pairs} pairs per workload in the order"
                    f" {', '.join(args.workloads)}; parent first in even pairs, change first"
                    " in odd ones; parent from a git archive, change from a copy of the"
                    " working tree without .git; PYTHONDONTWRITEBYTECODE=1.",
        "machine": {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0))},
        "import_size": imports,
        "src_lines": lines,
        "pass_peak": passes,
        "summary": summary,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, s in summary.items():
        won = ", ".join(f"{m['name']} {s[m['name'] + '_change_won_pairs']}"
                        for m in spec["end_to_end"])
        print(f"{workload}: pairs won by the change of {args.pairs}: {won}")
    for side, size in imports.items():
        print(f"{side} import: retained {size['retained_kb']} KB, peak {size['peak_kb']} KB")
    print(f"src/matsuo lines: parent {lines['parent']}, change {lines['change']}")
    for side, peaks in passes.items():
        print(f"{side} pass peak:", ", ".join(f"{w} {p['peak_kb']} KB" for w, p in peaks.items()))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
