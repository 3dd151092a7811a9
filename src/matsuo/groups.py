"""Finite base groups for wreath constructions.

Built-in catalog, Cayley-table ingestion with full axiom validation, element
orders, and validated automorphisms.  Groups are tiny (order <= 27), so the
load-time associativity check is the full cubic loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence


class GroupTableError(ValueError):
    """A multiplication table that fails the group axioms."""


class CatalogError(ValueError):
    """Unknown built-in group name."""


class FiniteGroup:
    """Finite group on indices 0..order-1 with identity at index 0."""

    __slots__ = ("name", "labels", "table", "inv", "_order_cache")

    def __init__(self, name: str, labels: Sequence[str], table: Sequence[Sequence[int]]):
        self.name = name
        self.labels = tuple(str(x) for x in labels)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self._validate()
        self.inv = tuple(self._find_inverse(x) for x in range(self.order))
        self._order_cache: dict[int, int] = {}

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise GroupTableError("empty group")
        if len(set(self.labels)) != n:
            raise GroupTableError("duplicate element labels")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise GroupTableError("multiplication table is not square")
        for row in self.table:
            for x in row:
                if not 0 <= x < n:
                    raise GroupTableError(f"table entry {x} out of range")
        for x in range(n):
            if self.table[0][x] != x or self.table[x][0] != x:
                raise GroupTableError("element 0 is not a two-sided identity")
        for x in range(n):
            if 0 not in self.table[x]:
                raise GroupTableError(f"element {self.labels[x]} has no inverse")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupTableError(
                            "associativity fails at "
                            f"({self.labels[a]}, {self.labels[b]}, {self.labels[c]})"
                        )

    def _find_inverse(self, x: int) -> int:
        return self.table[x].index(0)

    # -- queries ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def element_order(self, x: int) -> int:
        """Least n >= 1 with x^n = identity."""
        cached = self._order_cache.get(x)
        if cached is not None:
            return cached
        n = 1
        acc = x
        while acc != 0:
            acc = self.table[acc][x]
            n += 1
        self._order_cache[x] = n
        return n

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def validate_orders(group: FiniteGroup) -> bool:
    """True iff every element has order 1, 2, or 3."""
    return all(group.element_order(x) <= 3 for x in range(group.order))


element_order = FiniteGroup.element_order


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

def _group_from_objects(
    name: str,
    elements: Sequence,
    multiply: Callable,
    label: Callable,
) -> FiniteGroup:
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[multiply(a, b)] for b in elements] for a in elements]
    return FiniteGroup(name, [label(e) for e in elements], table)


def _cyclic(name: str, n: int) -> FiniteGroup:
    labels = ["1"] + [f"g{'' if i == 1 else i}" for i in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(name, labels, table)


def _klein_four() -> FiniteGroup:
    # bit pairs (e, f); the letter names match the wreath point labels
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    labels = {(0, 0): "1", (1, 0): "e", (0, 1): "f", (1, 1): "ef"}
    return _group_from_objects(
        "V4", elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2), labels.get
    )


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # apply a first, then b
    return tuple(b[a[i]] for i in range(len(a)))


def _cycle_label(p: tuple[int, ...]) -> str:
    n = len(p)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + ",".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "()"


def _symmetric_3() -> FiniteGroup:
    # generators e (order 2) and f (order 3) with e^2 = f^3 = (ef)^2 = 1
    ident = (0, 1, 2)
    e = (1, 0, 2)
    f = (1, 2, 0)
    f2 = _perm_mul(f, f)
    elems = [ident, f, f2, e, _perm_mul(f, e), _perm_mul(f2, e)]
    labels = ["1", "f", "f^2", "e", "f*e", "f^2*e"]
    index = {p: labels[i] for i, p in enumerate(elems)}
    return _group_from_objects("S3", elems, _perm_mul, index.get)


def _alternating_4() -> FiniteGroup:
    elems = [p for p in permutations(range(4)) if _perm_parity(p) == 0]
    elems.sort(key=lambda p: (p != (0, 1, 2, 3), p))
    return _group_from_objects("A4", elems, _perm_mul, _cycle_label)


def _perm_parity(p: Sequence[int]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def _three_by_three() -> FiniteGroup:
    elems = [(r, s) for r in range(3) for s in range(3)]

    def label(e):
        r, s = e
        parts = []
        if r:
            parts.append("u" if r == 1 else "u^2")
        if s:
            parts.append("v" if s == 1 else "v^2")
        return "*".join(parts) if parts else "1"

    return _group_from_objects(
        "C3xC3", elems, lambda a, b: ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3), label
    )


def e27_mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Normal-form product of u^r v^s w^t triples.

    Uses v*u = u*v*w^-1, with w = [u, v] central of order three, so
    (u^r1 v^s1 w^t1)(u^r2 v^s2 w^t2) = u^(r1+r2) v^(s1+s2) w^(t1+t2-r2*s1).
    """
    r1, s1, t1 = a
    r2, s2, t2 = b
    return ((r1 + r2) % 3, (s1 + s2) % 3, (t1 + t2 - r2 * s1) % 3)


def _extraspecial_27() -> FiniteGroup:
    elems = [(r, s, t) for r in range(3) for s in range(3) for t in range(3)]

    def label(e):
        r, s, t = e
        parts = []
        for sym, exp in (("u", r), ("v", s), ("w", t)):
            if exp:
                parts.append(sym if exp == 1 else f"{sym}^2")
        return "*".join(parts) if parts else "1"

    return _group_from_objects("E27", elems, e27_mul, label)


_BUILTIN_BUILDERS: dict[str, Callable[[], FiniteGroup]] = {
    "C1": lambda: _cyclic("C1", 1),
    "C2": lambda: _cyclic("C2", 2),
    "C3": lambda: _cyclic("C3", 3),
    "V4": _klein_four,
    "S3": _symmetric_3,
    "C3xC3": _three_by_three,
    "A4": _alternating_4,
    "E27": _extraspecial_27,
}

_BUILTIN_CACHE: dict[str, FiniteGroup] = {}


def builtin_group(name: str) -> FiniteGroup:
    """Catalog lookup for the wreath base groups.

    Generator labels: S3 is generated by e, f with e^2 = f^3 = (e*f)^2 = 1;
    V4 carries letters e, f, ef matching the point labels of its wreath
    space; C3xC3 is generated by u, v; E27 by u, v with the central
    commutator w = [u, v], elements written in the normal form u^r v^s w^t;
    A4 elements are labelled by their cycle notation.
    """
    try:
        builder = _BUILTIN_BUILDERS[name]
    except KeyError:
        raise CatalogError(
            f"unknown group {name!r}; choose from {sorted(_BUILTIN_BUILDERS)}"
        ) from None
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = builder()
    return _BUILTIN_CACHE[name]


# ---------------------------------------------------------------------------
# Cayley-table text format
# ---------------------------------------------------------------------------

def load_cayley_table(text: str, name: str = "custom") -> FiniteGroup:
    """Parse the plain-text Cayley format and validate the group axioms.

    Line 1 is "order N", line 2 the N element labels (identity first), then
    N lines of N labels giving the row*column products.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("order"):
        raise GroupTableError('first line must be "order N"')
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GroupTableError('first line must be "order N"') from None
    if len(lines) != n + 2:
        raise GroupTableError(f"expected {n + 2} lines, got {len(lines)}")
    labels = lines[1].split()
    if len(labels) != n:
        raise GroupTableError(f"expected {n} labels, got {len(labels)}")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != n:
        raise GroupTableError("duplicate element labels")
    table = []
    for ln in lines[2:]:
        row = ln.split()
        if len(row) != n:
            raise GroupTableError("table row of wrong length")
        try:
            table.append([index[lab] for lab in row])
        except KeyError as exc:
            raise GroupTableError(f"unknown label {exc.args[0]!r} in table") from None
    return FiniteGroup(name, labels, table)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupAutomorphism:
    """Permutation of element indices respecting the group law."""

    group: FiniteGroup
    image: tuple[int, ...]

    def __post_init__(self):
        n = self.group.order
        if sorted(self.image) != list(range(n)):
            raise ValueError("automorphism image is not a permutation")
        if self.image[0] != 0:
            raise ValueError("automorphism must fix the identity")
        for a in range(n):
            for b in range(n):
                if self.image[self.group.mul(a, b)] != self.group.mul(
                    self.image[a], self.image[b]
                ):
                    raise ValueError(
                        "map is not a homomorphism at "
                        f"({self.group.labels[a]}, {self.group.labels[b]})"
                    )

    def __call__(self, x: int) -> int:
        return self.image[x]

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self followed by other."""
        if other.group is not self.group:
            raise ValueError("automorphisms of different groups")
        return GroupAutomorphism(
            self.group, tuple(other.image[self.image[x]] for x in range(self.group.order))
        )

    def is_involution(self) -> bool:
        n = self.group.order
        return all(self.image[self.image[x]] == x for x in range(n))


def automorphism_by_images(group: FiniteGroup, images: dict[str, str]) -> GroupAutomorphism:
    """The automorphism sending each generator label to its image label.

    The images are extended along words in the generators, breadth first
    from the identity.  ValueError unless the generators reach every element
    and keep their given images; GroupAutomorphism then rejects a map that
    is not a bijective homomorphism.  An unknown label raises KeyError.
    """
    gens = [(group.index_of(g), group.index_of(x)) for g, x in images.items()]
    image = {0: 0}
    reached = [0]
    for x in reached:  # grows while iterating
        for g, gx in gens:
            y = group.mul(x, g)
            if y not in image:
                image[y] = group.mul(image[x], gx)
                reached.append(y)
    if len(image) < group.order:
        raise ValueError(f"generators {sorted(images)} do not generate {group.name}")
    if any(image[g] != gx for g, gx in gens):
        raise ValueError(f"images {images} do not extend to a homomorphism of {group.name}")
    return GroupAutomorphism(group, tuple(image[x] for x in range(group.order)))
