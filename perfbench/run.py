"""Benchmark of the matsuo engine: exact-answer workloads, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times whole passes and prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it times one untraced and one traced pass
and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The line before it
is the run record (machine, code, samples per timing, failures).  A traced
run also writes its spans to .bench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from spans import Tracer, replay_close
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("scalars", "groups", "fischer", "algebra", "closure", "axial", "flips",
           "classify", "cli")
LAYERS = ("cli", "fischer", "flips", "closure", "algebra", "axial", "classify")
SETUP_REPEATS = 3  # set-up repetitions before and after the passes: at least
SETUP_SECONDS = 2.0  # this many and this long each time, as one takes 0.1-2 s
SCALAR_PAIRS = 400
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept out of tuning: confirm a claim made on other seeds


def fresh_import() -> types.SimpleNamespace:
    """Import matsuo anew, so no module global or per-space cache survives
    from an earlier pass."""
    for key in [k for k in sys.modules if k == "matsuo" or k.startswith("matsuo.")]:
        del sys.modules[key]
    package = importlib.import_module("matsuo")
    if Path(package.__file__).resolve().parent != SRC / "matsuo":
        raise ImportError(f"matsuo imported from {package.__file__}, not from {SRC}")
    importlib.import_module("matsuo.cli")
    return types.SimpleNamespace(
        package=package, **{name: sys.modules["matsuo." + name] for name in MODULES}
    )


class Operations:
    """Counts operations; one fails if it raises or its answer is wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, label, compute, check):
        self.attempted += 1
        try:
            result = compute()
            if check(result):
                return result
            self.failures.append(f"{label}: answer differs from the reference")
        except Exception as exc:  # the run goes on; the failure is counted
            self.failures.append(f"{label}: {exc!r}")
        return None


def timed_setup(workload) -> float:
    gc.collect()
    start = perf_counter()
    workload.setup(fresh_import())
    return perf_counter() - start


def timed_pass(workload, seed, ops, tracer=None):
    """Seconds from the start of a pass (import included) to its checked
    answers, and the modules it used."""
    gc.collect()
    start = perf_counter()
    m = fresh_import()
    if tracer is not None:
        tracer.instrument(m)
        tracer.root.start = start
    workload.run(m, seed, ops)
    end = perf_counter()
    if tracer is not None:
        tracer.root.end = end
    return end - start, m


def setup_times(workload) -> list[float]:
    times: list[float] = []
    stop = perf_counter() + SETUP_SECONDS
    while len(times) < SETUP_REPEATS or perf_counter() < stop:
        times.append(timed_setup(workload))
    return times


def end_to_end(workload, seed, seconds, ops):
    # set-up is timed on both sides of the passes, so that its median spans
    # more than one stretch of the machine's speed
    setups = setup_times(workload)
    # Passes repeat while another one, as long as the longest so far, still
    # ends within the measuring window; there is always at least one.
    walls: list[float] = []
    start = perf_counter()
    while not walls or perf_counter() - start + max(walls) <= seconds:
        walls.append(timed_pass(workload, seed, ops)[0])
    setups += setup_times(workload)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024,
    }
    samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": 1}
    return values, samples, {"pass_s": walls, "setup_s": setups}


# -- per-layer metrics ---------------------------------------------------------

def generator_rank(m, sub) -> int:
    """Basis rows a closure's generators give before any product."""
    basis = m.closure.EchelonBasis(sub.mode)
    return sum(basis.insert(dict(g)) for g, _ in sub.generators)


def symbolic_coefficients(tracer, closes) -> set:
    """Nonzero Q(eta) values the pass returned: symbolic closure rows,
    eigenvector coordinates and Miyamoto matrices."""
    values = set()
    for span in closes:
        if span.result.mode.is_symbolic:
            for row in span.result.basis.rows:
                values.update(row.values())
    for span in tracer.spans:
        if not span.name.startswith("axial.") or not span.args[0].mode.is_symbolic:
            continue
        if span.name == "axial.fusion":
            for part in span.result.decomposition.parts:
                for vec in part:
                    values.update(vec)
        elif span.name == "axial.miyamoto":
            for row in span.result.matrix:
                values.update(row)
    return values


def coefficient_growth(values) -> tuple[int, int]:
    """Largest eta-degree and coefficient bit length among Q(eta) values."""
    degree = bits = 0
    for c in values:
        for poly in (c.num, c.den):
            degree = max(degree, poly.degree)
            for q in poly.coeffs:
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return degree, bits


def eta_op_times(values, seed) -> tuple[float, float, int]:
    """Median microseconds of EtaScalar add and mul on operand pairs drawn
    from the given values."""
    if not values:
        return 0.0, 0.0, 0
    pool = sorted(values, key=str)
    rng = random.Random(seed)
    add, mul = [], []
    for _ in range(SCALAR_PAIRS):
        a, b = rng.choice(pool), rng.choice(pool)
        t0 = perf_counter()
        a + b
        t1 = perf_counter()
        a * b
        t2 = perf_counter()
        add.append(t1 - t0)
        mul.append(t2 - t1)
    return statistics.median(add) * 1e6, statistics.median(mul) * 1e6, SCALAR_PAIRS


def replay_parity(m, workload, closes, ops, seen) -> tuple[float, float, int]:
    """Replay the workload's chosen closures; each must match close() exactly.
    Coefficients of symbolic products are added to ``seen``."""
    t_prod = t_insert = 0.0
    count = 0
    for span in closes:
        sub = span.result
        if not workload.replays(sub):
            continue
        gens = [g for g, _ in sub.generators]
        products_seen = seen if sub.mode.is_symbolic else set()
        basis, products, dp, di = replay_close(m, span.args[0], gens, sub.mode, products_seen)
        t_prod += dp
        t_insert += di
        count += 1
        ops(
            f"replay of {span.name} (dim {sub.dimension})",
            lambda: (products, basis.canonical_rows()),
            lambda r: r == (sub.products_computed, sub.basis.canonical_rows()),
        )
    return t_prod, t_insert, count


# metric -> (span name, timing): "total" sums span durations, "self" sums
# self times (a span minus its child spans)
SPAN_TIMINGS = {
    "fischer.build_s": ("fischer.build", "total"),
    "flips.standard_flip_s": ("flips.standard_flip", "self"),
    "closure.close_symbolic_s": ("closure.close_symbolic", "total"),
    "closure.close_evaluated_s": ("closure.close_evaluated", "total"),
    "closure.specialize_s": ("closure.specialize", "total"),
    "algebra.minpoly_s": ("algebra.minpoly", "total"),
    "algebra.int_rank_s": ("algebra.int_rank", "total"),
    "algebra.bareiss_s": ("algebra.bareiss", "total"),
    "axial.primitive_s": ("axial.primitive", "total"),
    "axial.fusion_s": ("axial.fusion", "total"),
    "axial.miyamoto_s": ("axial.miyamoto", "self"),
    "classify.enumerate_s": ("classify.enumerate", "total"),
}


def per_layer(workload, seed, ops):
    """Per-layer metrics and their sample counts from one traced pass."""
    untraced, _ = timed_pass(workload, seed, ops)
    tracer = Tracer(f"{workload.name}/seed{seed}")
    traced, m = timed_pass(workload, seed, ops, tracer)
    own = tracer.self_durations()
    values: dict = {}
    samples: dict = {}
    for metric, (name, timing) in SPAN_TIMINGS.items():
        found = tracer.named(name)
        values[metric] = sum(own[s.id] if timing == "self" else s.duration for s in found)
        samples[metric] = len(found)

    spaces = [s.result for s in tracer.named("fischer.build")]
    closes = [s for s in tracer.spans if s.name.startswith("closure.close_")]
    products = sum(s.result.products_computed for s in closes)
    gained = sum(s.result.dimension - generator_rank(m, s.result) for s in closes)
    classify_ids = {s.id for s in tracer.named("classify.classify")}
    recertify = [s.duration for s in tracer.named("closure.close_symbolic")
                 if s.parent in classify_ids]
    config_ms = [s.duration * 1e3 for s in tracer.named("classify.config")]
    axial_dims = [s.args[0].dimension for s in tracer.spans if s.name.startswith("axial.")]
    coefficients = symbolic_coefficients(tracer, closes)
    t_prod, t_insert, replays = replay_parity(m, workload, closes, ops, coefficients)
    coefficients = {c for c in coefficients if c}
    degree, bits = coefficient_growth(coefficients)
    add_us, mul_us, pairs = eta_op_times(coefficients, seed)
    layer_own = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(tracer.spans[1:], own[1:]):
        layer_own[span.name.split(".")[0]] += t

    values.update({
        "fischer.points": sum(len(sp.points) for sp in spaces),
        "fischer.lines": sum(sp.line_count() for sp in spaces),
        "closure.close_calls": len(closes),
        "closure.products": products,
        "closure.yield": gained / products if products else 0.0,
        "closure.insert_s": t_insert,
        "algebra.vec_product_s": t_prod,
        "algebra.int_rank_calls": samples["algebra.int_rank_s"],
        "axial.primitive_calls": samples["axial.primitive_s"],
        "axial.matrix_dim": max(axial_dims, default=0),
        "classify.configs": len(config_ms),
        "classify.config_ms.p50": statistics.median(config_ms) if config_ms else 0.0,
        "classify.config_ms.p95": (
            statistics.quantiles(config_ms, n=20)[18] if len(config_ms) > 1 else 0.0
        ),
        "classify.recertify_s": sum(recertify),
        "scalars.coef_degree_max": degree,
        "scalars.coef_bits_max": bits,
        "scalars.eta_add_us": add_us,
        "scalars.eta_mul_us": mul_us,
        **{f"{layer}.self_s": t for layer, t in layer_own.items()},
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.unattributed_s": own[0],
    })
    samples.update({
        "closure.insert_s": replays,
        "algebra.vec_product_s": replays,
        "classify.config_ms.p50": len(config_ms),
        "classify.config_ms.p95": len(config_ms),
        "classify.recertify_s": len(recertify),
        "scalars.eta_add_us": pairs,
        "scalars.eta_mul_us": pairs,
        **{f"{layer}.self_s": 1 for layer in LAYERS},
        "trace.wall_s": 1,
        "trace.overhead_s": 1,
        "trace.unattributed_s": 1,
    })
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"spans": tracer.export()}) + "\n", encoding="utf-8")
    return values, samples, {"pass_s": [untraced, traced], "spans_file": str(trace_file)}


# -- run record ----------------------------------------------------------------

def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "matsuo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matsuo" / "__init__.py").is_file():
        print(f"error: no matsuo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # the census runs serially, so its timings do not depend on the core count
    os.environ["MATSUO_WORKERS"] = "1"

    workload = WORKLOADS[args.workload]
    ops = Operations()
    if args.trace:
        values, samples, times = per_layer(workload, args.seed, ops)
    else:
        values, samples, times = end_to_end(workload, args.seed, args.seconds, ops)
    if set(values) != {d["name"] for d in declared}:
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    failed = len(ops.failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "matsuo_workers": os.environ["MATSUO_WORKERS"],
        "error_rate": failed / ops.attempted,
        "failures": ops.failures,
        "samples": samples,
        "times": times,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
