"""Spans recorded from outside the engine, and the closure replay.

A traced pass wraps the public functions of each matsuo module in the
namespaces that call them, so every call into a layer opens a span with its
name, start, end, parent and pass id.  Spans stay in memory until the
benchmark writes them out.  Inner loops (``vec_product`` and
``EchelonBasis.insert`` inside ``close``) are not wrapped; the replay below
times them by driving the same worklist through those two public names.
"""

from __future__ import annotations

import functools
from time import perf_counter


def _close_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return "closure.close_symbolic" if mode.is_symbolic else "closure.close_evaluated"


# (module, public function, span name or a function of the call's arguments)
TRACED = (
    ("cli", "main", "cli.main"),
    ("fischer", "build_named_space", "fischer.build"),
    ("flips", "standard_flip", "flips.standard_flip"),
    ("flips", "flip_report", "flips.flip_report"),
    ("flips", "flip_subalgebra", "flips.flip_subalgebra"),
    ("closure", "close", _close_name),
    ("closure", "specialized_dimension", "closure.specialize"),
    ("algebra", "gram_det", "algebra.gram_det"),
    ("algebra", "critical_values", "algebra.critical_values"),
    ("algebra", "adjacency_minimal_polynomial", "algebra.minpoly"),
    ("algebra", "eigenvalue_multiplicity", "algebra.int_rank"),
    ("algebra", "bareiss_det_int_poly", "algebra.bareiss"),
    ("axial", "check_primitive", "axial.primitive"),
    ("axial", "check_fusion", "axial.fusion"),
    ("axial", "miyamoto_algebra_map", "axial.miyamoto"),
    ("classify", "classify", "classify.classify"),
    ("classify", "enumerate_configs", "classify.enumerate"),
    ("classify", "evaluate_config", "classify.config"),
)

# generator functions: the span covers the whole iteration
_MATERIALIZE = {"classify.enumerate"}


class Span:
    __slots__ = ("id", "name", "parent", "pass_id", "start", "end", "args", "result")

    def __init__(self, sid, name, parent, pass_id, args):
        self.id, self.name, self.parent, self.pass_id = sid, name, parent, pass_id
        self.args, self.result = args, None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def export(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "pass": self.pass_id,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """In-memory span recorder for one pass; span 0 is the pass itself."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.root = Span(0, "pass", None, pass_id, ())
        self.spans = [self.root]
        self._stack = [0]

    def _wrap(self, fn, name):
        materialize = name in _MATERIALIZE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(len(self.spans), label, self._stack[-1], self.pass_id, args)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.result = result
            return result

        return traced

    def instrument(self, m) -> None:
        """Replace each traced function in every matsuo namespace that holds it.

        ``m`` maps module names (and ``package``) to freshly imported modules.
        """
        modules = list(vars(m).values())
        for modname, fname, name in TRACED:
            original = getattr(getattr(m, modname), fname)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_durations(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [s.duration for s in self.spans]
        for s in self.spans[1:]:
            own[s.parent] -= s.duration
        return own

    def export(self) -> list[dict]:
        return [s.export() for s in self.spans]


def replay_close(m, sp, gens, mode, seen: set):
    """Drive close()'s worklist through vec_product and EchelonBasis.insert.

    Returns the basis, the product count, and the seconds spent in each of
    the two calls; the products' coefficients are added to ``seen``.  The
    loop mirrors matsuo.closure.close step for step, so the product count and
    canonical rows must equal the traced close call's.
    """
    vec_product, basis = m.algebra.vec_product, m.closure.EchelonBasis(mode)
    half = mode.half_eta()
    t_prod = t_insert = 0.0
    for g in gens:
        t0 = perf_counter()
        basis.insert(dict(g))
        t_insert += perf_counter() - t0
    products = 0
    cursor = 0
    while cursor < len(basis.rows):
        new_row = basis.rows[cursor]
        for j in range(len(basis.rows)):
            t0 = perf_counter()
            prod = vec_product(sp, new_row, basis.rows[j], half)
            t1 = perf_counter()
            products += 1
            if prod:
                basis.insert(prod)
                t_insert += perf_counter() - t1
                seen.update(prod.values())
            t_prod += t1 - t0
        cursor += 1
    return basis, products, t_prod, t_insert
