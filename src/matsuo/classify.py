"""Type-D configurations: one single axis and two double axes.

Configurations are enumerated up to the order-8 relabelling symmetry
(swap within either orthogonal pair, swap the pairs), bucketed by canonical
diagram code, and closed to get dimension censuses, one representative per
orbit weighted by its size on an exhaustive sweep (see classify).  The
default search runs in evaluated mode at a fixed safe eta; each distinct
dimension found is then re-certified symbolically on one sample configuration.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import Vec
from .axial import check_primitive
from .closure import DEFAULT_SEARCH_ETA, ScalarMode, close, is_direct_sum
from .fischer import (
    Diagram,
    FischerSpace,
    canonical_diagram,
    components,
    diagram_code_edges,
    diagram_of,
    point_orbits,
    verified_reflection,
)

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
        return components(3, lambda i, j: any(
            sp.collinear(p, q) for p in supports[i] for q in supports[j]
        ))


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


def orbit_leaders(
    sp: FischerSpace, configs: Sequence[TypeDConfig], first_point: Optional[int]
) -> list[int]:
    """For each configuration of an exhaustive list, the index of the first
    one in its orbit under the verified reflections that fix first_point (all
    of them when it is None), by union-find."""
    gens = [verified_reflection(sp, c) for c in range(len(sp.points))
            if first_point is None or not sp.collinear(c, first_point)]
    # keyed by plain (a, bc, de) tuples, each image canonicalized inline:
    # a TypeDConfig built per image cost most of the union-find
    keys = [(cfg.a, cfg.bc, cfg.de) for cfg in configs]
    index = {key: i for i, key in enumerate(keys)}
    leader = list(range(len(configs)))

    def find(i: int) -> int:
        while leader[i] != i:
            leader[i] = leader[leader[i]]
            i = leader[i]
        return i

    for g in gens:
        for i, (a, (b, c), (d, e)) in enumerate(keys):
            b, c = g[b], g[c]
            d, e = g[d], g[e]
            bc = (b, c) if b < c else (c, b)
            de = (d, e) if d < e else (e, d)
            j = index[(g[a], bc, de) if bc < de else (g[a], de, bc)]
            root, other = sorted((find(i), find(j)))
            leader[other] = root
    return [find(i) for i in range(len(configs))]


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
                            "sample_config": _config_json(self.space, b["samples"][dim]),
                            "symbolic_certified": b["certified"][dim],
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
) -> ClassificationReport:
    """Bucket configurations by canonical diagram and record dimensions.

    When verified reflections make the automorphism group transitive on the
    points (point_orbits finds a single orbit), the first point is fixed,
    shrinking the sweep without losing dimension values.
    A configuration counts as primitive when all three generators are
    primitive in the closed subalgebra.

    An exhaustive sweep closes the first configuration of each orbit
    (orbit_leaders) only, weighted by the orbit's size, and takes its
    diagram once; a sampled sweep takes each draw with weight 1.  For a
    generator g and the closure B(C) of a configuration C: g passes
    is_space_automorphism, so its map of the Matsuo algebra preserves the
    product over Q(eta) and at every eta0; g maps singles to singles and
    doubles to doubles, so B(gC) = g B(C), of the same dimension, and x is
    primitive in B(C) iff gx is primitive in B(gC); g fixes the first point,
    or no point is fixed, so TypeDConfig.canonical(gC) is again in the list.
    g preserves collinearity and canonical applies one of the 8 symmetries
    that canonical_diagram minimizes over, so the diagram code is an orbit
    invariant too.  A leader is its orbit's least index, so the first
    configuration of each bucket, and of each (bucket, dim), the sample
    re-certified, is a leader.  The pool closes the representatives only.
    """
    workers = worker_count()
    if mode is None:
        eta = DEFAULT_SEARCH_ETA
        mode = ScalarMode.evaluated(eta)
        while not mode.is_safe_for(sp):
            eta += 1
            mode = ScalarMode.evaluated(eta)
    elif not mode.is_safe_for(sp):
        raise ValueError(f"search mode {mode.describe()} is unsafe for this space")
    first_point: Optional[int] = None
    if sampling is None and len(point_orbits(sp)) == 1:
        first_point = 0
    configs = list(
        enumerate_configs(sp, sampling=sampling, first_point=first_point)
    )
    if sampling is None:
        leaders = orbit_leaders(sp, configs, first_point)
    else:
        leaders = range(len(configs))
    weights = Counter(leaders)  # leader index -> orbit size, in list order
    reps = [configs[i] for i in weights]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # pickle's memo writes the space once into each chunk's message
        chunk = max(1, -(-len(reps) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            evals = list(
                pool.map(evaluate_config, repeat(sp), reps, repeat(mode), chunksize=chunk)
            )
    else:
        evals = [evaluate_config(sp, cfg, mode) for cfg in reps]
    buckets: dict[int, dict] = {}
    for cfg, weight, data in zip(reps, weights.values(), evals):
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
        bucket["examined"] += weight
        dim = data["dim"]
        bucket["dims"][dim] = bucket["dims"].get(dim, 0) + weight
        if data["primitive"]:
            bucket["primitive_dims"][dim] = bucket["primitive_dims"].get(dim, 0) + weight
        bucket["samples"].setdefault(dim, cfg)
    sym_mode = ScalarMode.symbolic()
    for bucket in buckets.values():
        for dim, cfg in bucket["samples"].items():
            sym = close(sp, cfg.generators(sym_mode), sym_mode)
            bucket["certified"][dim] = sym.dimension == dim
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
