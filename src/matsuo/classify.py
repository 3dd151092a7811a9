"""Type-D configurations: one single axis and two double axes.

Configurations are enumerated up to the order-8 relabelling symmetry
(swap within either orthogonal pair, swap the pairs), bucketed by canonical
diagram code, and closed to get dimension censuses.  The default search runs
in evaluated mode at a fixed safe eta; each distinct dimension found is then
re-certified symbolically on one representative configuration.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import Vec
from .axial import check_primitive
from .closure import DEFAULT_SEARCH_ETA, ScalarMode, close, is_direct_sum
from .fischer import Diagram, FischerSpace, canonical_diagram, diagram_of, point_orbits

FULL_ENUMERATION_LIMIT = 40


@dataclass(frozen=True, order=True)
class TypeDConfig:
    """Support of a single axis a and double axes b+c, d+e.

    Pairs are stored sorted and the two pairs in lexicographic order, which
    is the canonical representative of the order-8 symmetry class.
    """

    a: int
    bc: tuple[int, int]
    de: tuple[int, int]

    def __post_init__(self):
        support = {self.a, *self.bc, *self.de}
        if len(support) != 5:
            raise ValueError("configuration needs five distinct points")
        if self.bc[0] > self.bc[1] or self.de[0] > self.de[1] or self.bc > self.de:
            raise ValueError("configuration is not in canonical pair order")

    @classmethod
    def canonical(cls, a: int, bc: Sequence[int], de: Sequence[int]) -> "TypeDConfig":
        p1 = tuple(sorted(bc))
        p2 = tuple(sorted(de))
        if p1 > p2:
            p1, p2 = p2, p1
        return cls(a, p1, p2)  # type: ignore[arg-type]

    def generators(self, mode: ScalarMode) -> list[Vec]:
        one = mode.one()
        return [
            {self.a: one},
            {self.bc[0]: one, self.bc[1]: one},
            {self.de[0]: one, self.de[1]: one},
        ]

    def diagram(self, sp: FischerSpace) -> Diagram:
        return diagram_of(sp, self.a, self.bc, self.de)

    def generator_partition(self, sp: FischerSpace) -> list[list[int]]:
        """Generator groups induced by the connected components of the
        diagram: generators whose supports touch fall in the same part."""
        supports = [(self.a,), self.bc, self.de]
        adjacency = [[False] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                if any(sp.collinear(p, q) for p in supports[i] for q in supports[j]):
                    adjacency[i][j] = adjacency[j][i] = True
        part_of = [-1, -1, -1]
        parts: list[list[int]] = []
        for i in range(3):
            if part_of[i] >= 0:
                continue
            comp = [i]
            part_of[i] = len(parts)
            stack = [i]
            while stack:
                v = stack.pop()
                for w in range(3):
                    if adjacency[v][w] and part_of[w] < 0:
                        part_of[w] = len(parts)
                        comp.append(w)
                        stack.append(w)
            parts.append(sorted(comp))
        return parts


def orthogonal_pairs(sp: FischerSpace) -> list[tuple[int, int]]:
    """All non-collinear point pairs, sorted."""
    n = len(sp.points)
    return [
        (p, q) for p in range(n) for q in range(p + 1, n) if not sp.collinear(p, q)
    ]


def enumerate_configs(
    sp: FischerSpace,
    sampling: Optional[tuple[int, int]] = None,
    first_point: Optional[int] = None,
) -> Iterator[TypeDConfig]:
    """Configurations up to the order-8 symmetry, in deterministic order.

    sampling = (count, seed) draws reproducible representatives instead of a
    full sweep; full enumeration is refused on spaces above the size cap.
    """
    n = len(sp.points)
    if sampling is None:
        if n > FULL_ENUMERATION_LIMIT:
            raise ValueError(
                f"full enumeration refused on {n} points;"
                f" cap is {FULL_ENUMERATION_LIMIT}, use sampling"
            )
        pairs = orthogonal_pairs(sp)
        a_range = range(n) if first_point is None else (first_point,)
        for a in a_range:
            for idx1, bc in enumerate(pairs):
                if a in bc:
                    continue
                for de in pairs[idx1 + 1 :]:
                    if a in de or bc[0] in de or bc[1] in de:
                        continue
                    yield TypeDConfig(a, bc, de)
        return
    count, seed = sampling
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    rng = random.Random(seed)
    pairs = orthogonal_pairs(sp)
    if not pairs:
        return
    seen: set[TypeDConfig] = set()
    attempts = 0
    max_attempts = 200 * count + 1000
    while len(seen) < count and attempts < max_attempts:
        attempts += 1
        a = first_point if first_point is not None else rng.randrange(n)
        bc = pairs[rng.randrange(len(pairs))]
        de = pairs[rng.randrange(len(pairs))]
        if a in bc or a in de:
            continue
        if set(bc) & set(de):
            continue
        cfg = TypeDConfig.canonical(a, bc, de)
        if cfg in seen:
            continue
        seen.add(cfg)
        yield cfg


def naive_config_count(sp: FischerSpace) -> int:
    """Independent five-loop count of ordered tuples; 8 per configuration."""
    n = len(sp.points)
    count = 0
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            for c in range(n):
                if c in (a, b) or sp.collinear(b, c):
                    continue
                for d in range(n):
                    if d in (a, b, c):
                        continue
                    for e in range(n):
                        if e in (a, b, c, d) or sp.collinear(d, e):
                            continue
                        count += 1
    return count


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

KNOWN_CONNECTED_DIMS = frozenset({7, 9, 12, 13, 20, 29, 30, 39, 42, 89, 90})


def _config_json(sp: FischerSpace, cfg: TypeDConfig) -> dict:
    return {
        "a": sp.labels[cfg.a],
        "bc": [sp.labels[cfg.bc[0]], sp.labels[cfg.bc[1]]],
        "de": [sp.labels[cfg.de[0]], sp.labels[cfg.de[1]]],
    }


def evaluate_config(sp: FischerSpace, cfg: TypeDConfig, mode: ScalarMode) -> dict:
    """Closure dimension and primitivity verdict for one configuration."""
    gens = cfg.generators(mode)
    algebra = close(sp, gens, mode, roles=["single", "double", "double"])
    primitive = all(check_primitive(algebra, g) for g in gens)
    return {"dim": algebra.dimension, "primitive": primitive}


def worker_count() -> int:
    """MATSUO_WORKERS as an integer >= 1; unset means 1."""
    text = os.environ.get("MATSUO_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"MATSUO_WORKERS must be an integer >= 1, got {text!r}")
    return workers


@dataclass
class ClassificationReport:
    space: FischerSpace
    mode: ScalarMode
    seed: Optional[int]
    first_point_fixed: bool
    buckets: dict  # canonical code -> bucket dict

    def export(self) -> dict:
        from .fischer import diagram_code_edges

        bucket_list = []
        for code in sorted(self.buckets):
            b = self.buckets[code]
            bucket_list.append(
                {
                    "diagram_code": code,
                    "adjacency": diagram_code_edges(code),
                    "connected": b["connected"],
                    "examined": b["examined"],
                    "classification": b["classification"],
                    "dims": [
                        {
                            "dim": dim,
                            "count": b["dims"][dim],
                            "primitive_count": b["primitive_dims"].get(dim, 0),
                            "sample_config": b["samples"][dim],
                            "symbolic_certified": b["certified"].get(dim, False),
                        }
                        for dim in sorted(b["dims"])
                    ],
                }
            )
        return {
            "ambient": self.space.describe(),
            "mode": self.mode.describe(),
            "seed": self.seed,
            "first_point_fixed": self.first_point_fixed,
            "buckets": bucket_list,
        }

    def to_json(self) -> str:
        return json.dumps(self.export(), indent=2, sort_keys=True)

    def csv(self) -> str:
        lines = ["diagram_code,connected,classification,dim,count,primitive_count"]
        for code in sorted(self.buckets):
            b = self.buckets[code]
            for dim in sorted(b["dims"]):
                lines.append(
                    f"{code},{b['connected']},{b['classification']},{dim},"
                    f"{b['dims'][dim]},{b['primitive_dims'].get(dim, 0)}"
                )
        return "\n".join(lines) + "\n"


def classify(
    sp: FischerSpace,
    mode: Optional[ScalarMode] = None,
    sampling: Optional[tuple[int, int]] = None,
    use_transitivity: bool = True,
    recertify_symbolic: bool = True,
) -> ClassificationReport:
    """Bucket configurations by canonical diagram and record dimensions.

    When verified reflections make the automorphism group transitive on the
    points (point_orbits finds a single orbit), the first point is fixed,
    shrinking the sweep without losing dimension values.
    A configuration counts as primitive when all three generators are
    primitive in the closed subalgebra.
    """
    workers = worker_count()
    if mode is None:
        eta = DEFAULT_SEARCH_ETA
        candidate = ScalarMode.evaluated(eta)
        while not candidate.is_safe_for(sp):
            eta += 1
            candidate = ScalarMode.evaluated(eta)
        mode = candidate
    if not mode.is_safe_for(sp):
        raise ValueError(f"search mode {mode.describe()} is unsafe for this space")
    first_point: Optional[int] = None
    if use_transitivity and sampling is None and len(point_orbits(sp)) == 1:
        first_point = 0
    configs = list(
        enumerate_configs(sp, sampling=sampling, first_point=first_point)
    )
    buckets: dict[int, dict] = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            evals = list(pool.map(_evaluate_for_pool, [(sp, c, mode) for c in configs]))
    else:
        evals = [evaluate_config(sp, c, mode) for c in configs]
    samples: dict[tuple[int, int], TypeDConfig] = {}  # (code, dim) -> first config
    for cfg, data in zip(configs, evals):
        diagram = cfg.diagram(sp)
        code = canonical_diagram(diagram)
        bucket = buckets.get(code)
        if bucket is None:
            bucket = buckets[code] = {
                "connected": diagram.is_connected(),
                "examined": 0,
                "dims": {},
                "primitive_dims": {},
                "samples": {},
                "certified": {},
            }
        bucket["examined"] += 1
        dim = data["dim"]
        bucket["dims"][dim] = bucket["dims"].get(dim, 0) + 1
        if data["primitive"]:
            bucket["primitive_dims"][dim] = bucket["primitive_dims"].get(dim, 0) + 1
        if dim not in bucket["samples"]:
            bucket["samples"][dim] = _config_json(sp, cfg)
            samples[code, dim] = cfg
    if recertify_symbolic:
        sym_mode = ScalarMode.symbolic()
        for (code, dim), cfg in samples.items():
            sym = close(sp, cfg.generators(sym_mode), sym_mode)
            buckets[code]["certified"][dim] = sym.dimension == dim
    for bucket in buckets.values():
        if not bucket["connected"]:
            bucket["classification"] = "disconnected"
        else:
            prim_dims = set(bucket["primitive_dims"])
            if prim_dims <= KNOWN_CONNECTED_DIMS:
                bucket["classification"] = "classified"
            else:
                bucket["classification"] = "unclassified_d8_d9_candidate"
    seed = sampling[1] if sampling else None
    return ClassificationReport(sp, mode, seed, first_point is not None, buckets)


def _evaluate_for_pool(args):
    sp, cfg, mode = args
    return evaluate_config(sp, cfg, mode)


def disconnected_configs_are_direct_sums(
    sp: FischerSpace, mode: ScalarMode, configs: Iterable[TypeDConfig]
) -> bool:
    """Every disconnected-diagram configuration splits as a direct sum of the
    closures of its diagram-component generator groups."""
    for cfg in configs:
        if cfg.diagram(sp).is_connected():
            continue
        algebra = close(sp, cfg.generators(mode), mode)
        partition = cfg.generator_partition(sp)
        if len(partition) > 1 and not is_direct_sum(algebra, partition):
            return False
    return True
