"""The benchmark's workloads: their set-up, operations and exact answers.

Each workload has
  - ``setup(m)``: imports are done; build the pass's Fischer spaces and flips
  - ``run(m, seed, op)``: the pass's operations, each checked through ``op``
  - ``replays(sub)``: which traced ``close`` results the closure replay redoes.
``m`` holds freshly imported matsuo modules.  Reference answers were
recorded from the engine at the commit that added this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

FLIP_ANSWER = {
    "singles": 18,
    "doubles": 54,
    "extras": 18,
    "fixed_dim": 90,
    "flip_dim_symbolic": 90,
    "flip_dims_at": {"2": 89},
}
FUSION_EIGEN_DIMS = {"1": 1, "0": 10, "2*eta": 6, "eta": 13}
FUSION_AXIS = "1.(1,3) + 1.(2,4)"

# The sampled Wr3p2:4 census keeps the CLI's default seed.  Its cost follows
# how many of the 10 sampled configurations close to dimension 90 (about
# 1.3 s each against 0.05 s for the small ones), which moved its time from
# 11 s to 19 s across seeds 1-3.  The benchmark seed drives a 100-configuration
# sample of W3A:4 instead, whose cost does not depend on the draw.
CENSUS_FIXED_SAMPLE = "classify --ambient Wr3p2:4 --sample 10 --seed 0"
CENSUS_SEEDED_SAMPLE = 100


def run_cli(m, command: str) -> dict:
    """One in-process CLI command; its parsed JSON report.  A nonzero exit
    code raises, so the operation counts as failed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = m.cli.main(command.split())
    if code != 0:
        raise RuntimeError(f"{command!r} exited with code {code}")
    return json.loads(out.getvalue())


def _reference(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


def _examined(report: dict) -> int:
    return sum(b["examined"] for b in report["buckets"])


def _all_certified(report: dict) -> bool:
    return all(d["symbolic_certified"] for b in report["buckets"] for d in b["dims"])


def _dims_within(sample: dict, full: dict) -> bool:
    """Every (diagram, dimension) of a sample appears in the full census."""
    known = {
        b["diagram_code"]: (b["connected"], {d["dim"] for d in b["dims"]})
        for b in full["buckets"]
    }
    return all(
        b["diagram_code"] in known
        and known[b["diagram_code"]][0] == b["connected"]
        and {d["dim"] for d in b["dims"]} <= known[b["diagram_code"]][1]
        for b in sample["buckets"]
    )


# -- flip-knife-edge -----------------------------------------------------------

def _flip_setup(m) -> None:
    m.flips.standard_flip("Wr3p2", 2)


def _flip_run(m, seed, op) -> None:
    op(
        "flip --family Wr3p2 --k 2 --eta 2",
        lambda: run_cli(m, "flip --family Wr3p2 --k 2 --eta 2"),
        lambda r: {k: r[k] for k in FLIP_ANSWER} == FLIP_ANSWER,
    )


# -- census --------------------------------------------------------------------

def _census_setup(m) -> None:
    m.fischer.build_named_space("W3A", 4)
    m.fischer.build_named_space("Wr3p2", 4)


def _census_run(m, seed, op) -> None:
    ref = _reference("census.json")
    full = ref["classify --ambient W3A:4"]
    op(
        "classify --ambient W3A:4",
        lambda: run_cli(m, "classify --ambient W3A:4"),
        lambda r: r == full and _examined(r) == 231 and _all_certified(r),
    )
    op(
        CENSUS_FIXED_SAMPLE,
        lambda: run_cli(m, CENSUS_FIXED_SAMPLE),
        lambda r: r == ref[CENSUS_FIXED_SAMPLE] and _examined(r) == 10 and _all_certified(r),
    )
    seeded = f"classify --ambient W3A:4 --sample {CENSUS_SEEDED_SAMPLE} --seed {seed}"
    op(
        seeded,
        lambda: run_cli(m, seeded),
        lambda r: _examined(r) == CENSUS_SEEDED_SAMPLE
        and _all_certified(r)
        and _dims_within(r, full),
    )


# -- spectrum ------------------------------------------------------------------

SPECTRUM_COMMANDS = ("gram Wr3x3:4", "gram Wr3p2:4", "gram Wr3p2:6 --critical")


def _spectrum_setup(m) -> None:
    for spec in ("Wr3x3:4", "Wr3p2:4", "Wr3p2:6"):
        m.fischer.parse_space_spec(spec)


def _spectrum_run(m, seed, op) -> None:
    ref = _reference("spectrum.json")
    for command in SPECTRUM_COMMANDS:
        op(command, lambda: run_cli(m, command), lambda r: r == ref[command])


# -- fusion --------------------------------------------------------------------

def _fusion_setup(m) -> None:
    m.flips.standard_flip("Wr3x3", 2)


def _fusion_run(m, seed, op) -> None:
    symbolic = m.closure.ScalarMode.symbolic()
    tau = m.flips.standard_flip("Wr3x3", 2)
    algebra = op(
        "flip_subalgebra Wr3x3 k=2",
        lambda: m.flips.flip_subalgebra(tau.space, tau, symbolic),
        lambda a: a.dimension == 30,
    )
    p, q = m.flips.classify_orbits(tau.space, tau).doubles[0]
    axis = {p: symbolic.one(), q: symbolic.one()}
    law = m.axial.monster_law(symbolic)
    op(
        "check_fusion M",
        lambda: m.axial.check_fusion(algebra, axis, law),
        lambda r: r.passed
        and r.export()["eigen_dims"] == FUSION_EIGEN_DIMS
        and r.export()["axis"] == FUSION_AXIS,
    )
    op(
        "miyamoto_algebra_map",
        lambda: m.axial.miyamoto_algebra_map(algebra, axis, law),
        lambda t: t.is_involution(),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    replays: Callable = lambda sub: False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flip-knife-edge", _flip_setup, _flip_run,
                 lambda sub: sub.mode.is_symbolic),
        Workload("census", _census_setup, _census_run,
                 lambda sub: not sub.mode.is_symbolic and sub.dimension == 90),
        Workload("spectrum", _spectrum_setup, _spectrum_run),
        Workload("fusion", _fusion_setup, _fusion_run),
    )
}
