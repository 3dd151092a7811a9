"""Fischer spaces: counts, lines, the third-point table and its oracles,
diagrams and their canonical codes, automorphism checks."""

from itertools import permutations

import pytest

from matsuo.algebra import critical_values
from matsuo.closure import ScalarMode, close, consistency_check
from matsuo.fischer import (
    NAMED_FAMILIES,
    Diagram,
    FischerSpace,
    InvalidConfigurationError,
    Point,
    ThreeTranspositionError,
    build_named_space,
    build_wreath_space,
    canonical_diagram,
    components,
    diagram_of,
    is_space_automorphism,
    make_point,
    point_orbits,
    subspace,
    third_point,
)
from matsuo.flips import FLIP_FAMILIES, FlipInvolution, flip_subalgebra, standard_flip
from matsuo.groups import builtin_group, load_cayley_table
from oracles import dump_cayley_table, third_point_by_conjugation

SYM = ScalarMode.symbolic()


def named_spaces_under(limit):
    """(family, n) of every named space with fewer than limit points."""
    for family in NAMED_FAMILIES:
        order = len(build_named_space(family, 3).points) // 3
        n = 3 if family == "A" else 2
        while order * n * (n - 1) // 2 < limit:
            yield family, n
            n += 1


SMALL_SPACES = [
    ("A", 4), ("A", 5), ("W2A", 3), ("W2A", 4), ("W3A", 3), ("W3A", 4),
    ("W2D", 2), ("W2D", 3), ("W3D", 2), ("W3D", 3), ("WrA4", 2),
    ("Wr3x3", 2), ("Wr3p2", 2),
]


@pytest.mark.parametrize("family,n,expected", [
    ("W3A", 3, 9),
    ("WrA4", 2, 12),
    ("W2A", 3, 6),
    ("A", 4, 6),
    ("W2D", 3, 12),
    ("W3D", 3, 18),
])
def test_point_counts(family, n, expected):
    assert len(build_named_space(family, n).points) == expected


@pytest.mark.parametrize("family,n", SMALL_SPACES)
def test_point_count_formula(family, n):
    sp = build_named_space(family, n)
    assert len(sp.points) == sp.base.order * n * (n - 1) // 2


def test_w2a_line_counts():
    # computed, never read off a formula: 4 per position triple
    for n in (3, 4, 5):
        sp = build_named_space("W2A", n)
        assert sp.line_count() == 4 * (n * (n - 1) * (n - 2) // 6)


def test_family_a_lines():
    sp = build_named_space("A", 4)
    assert len(sp.points) == 6 and sp.line_count() == 4


@pytest.mark.parametrize("family,n,degree", [
    ("W2D", 4, 8), ("W2D", 3, 4), ("W2D", 2, 0),
    ("WrA4", 2, 4), ("WrA4", 3, 16),
    ("W3D", 3, 7), ("W3D", 2, 1),
])
def test_degree_formulas(family, n, degree):
    sp = build_named_space(family, n)
    degrees = {sp.degree(p) for p in range(len(sp.points))}
    assert degrees == {degree}


def test_rejects_bad_base_group():
    c4 = load_cayley_table(
        "\n".join(["order 4", "1 a b c", "1 a b c", "a b c 1", "b c 1 a", "c 1 a b"]),
        name="C4",
    )
    with pytest.raises(ThreeTranspositionError):
        build_wreath_space(c4, 3)


class TestThirdPoint:
    def test_disjoint_supports_commute(self):
        sp = build_named_space("A", 4)
        b12 = sp.points[sp.point_of_label("b(1,2)")]
        b34 = sp.points[sp.point_of_label("b(3,4)")]
        assert third_point(sp, b12, b34) is None

    def test_w3a_same_pair_line(self):
        sp = build_named_space("W3A", 3)
        b = sp.points[sp.point_of_label("b(1,2)")]
        c = sp.points[sp.point_of_label("c(1,2)")]
        r = third_point(sp, b, c)
        assert r is not None and sp.labels[sp.index[r]] == "c(2,1)"

    def test_w3d_table_rows(self):
        # third points across overlapping position pairs in the S3 family
        sp = build_named_space("W3D", 3)

        def tp(x, y):
            r = third_point(sp, sp.points[sp.point_of_label(x)], sp.points[sp.point_of_label(y)])
            return sp.labels[sp.index[r]]

        assert tp("b(1,2)", "b(2,3)") == "b(1,3)"
        assert tp("c(1,2)", "b(2,3)") == "c(1,3)"
        # c and e over a shared position give the g point, stored as d(k,i)
        assert tp("c(1,2)", "e(2,3)") == "d(3,1)"
        assert tp("d(1,2)", "d(2,3)") == "d(3,1)"
        assert tp("e(1,2)", "e(2,3)") == "b(1,3)"
        assert tp("f(1,2)", "f(2,3)") == "b(1,3)"

    def test_symmetry_and_line_closure(self):
        sp = build_named_space("W3A", 4)
        n = len(sp.points)
        for p in range(n):
            for q in range(p + 1, n):
                r = sp.third[p][q]
                assert r == sp.third[q][p]
                if r >= 0:
                    assert sp.third[p][r] == q and sp.third[q][r] == p

    @pytest.mark.parametrize("family,n", SMALL_SPACES + [
        ("W3D", 4), ("WrA4", 3), ("Wr3x3", 4),
    ])
    def test_formula_oracle_matches_conjugation(self, family, n):
        assert_third_points_match_conjugation(build_named_space(family, n))

    def test_shuffled_group_indices_match_conjugation(self):
        # S3 with its non-identity elements indexed out of the catalog order,
        # so inverses and block orientations land on other indices
        s3 = builtin_group("S3")
        order = [s3.index_of(x) for x in ("1", "f^2*e", "f", "e", "f^2", "f*e")]
        text = "\n".join(
            ["order 6", " ".join(s3.labels[a] for a in order)]
            + [" ".join(s3.labels[s3.mul(a, b)] for b in order) for a in order]
        )
        shuffled = load_cayley_table(text, name="S3-shuffled")
        assert shuffled.inv != s3.inv
        sp = build_wreath_space(shuffled, 4)
        assert sp.line_count() == build_named_space("W3D", 4).line_count()
        assert_third_points_match_conjugation(sp)

    def test_line_check_rejects_misoriented_table(self):
        # a wrong inverse map misorients the blocks; the line check catches it
        s3 = load_cayley_table(dump_cayley_table(builtin_group("S3")), name="S3")
        s3.inv = tuple(range(s3.order))
        with pytest.raises(ThreeTranspositionError, match="not a line set"):
            build_wreath_space(s3, 3)


def assert_third_points_match_conjugation(sp):
    """The table, filled from the closed formulas, equals literal conjugation."""
    for a in sp.points:
        for b in sp.points:
            if a != b:
                want = third_point_by_conjugation(sp, a, b)
                assert third_point(sp, a, b) == want, (a, b)


def line_table(npts, lines):
    """A hand-written third-point table with the given lines."""
    third = [[-1] * npts for _ in range(npts)]
    for line in lines:
        for p, q, r in permutations(line):
            third[p][q] = r
    return third


def table_space(third):
    points = [Point(1, 2, t) for t in range(len(third))]
    return FischerSpace(third, points, [f"p{t}" for t in range(len(third))], builtin_group("C1"), 2)


class TestTableConstructor:
    @pytest.mark.parametrize("lines,degrees,connected", [
        ([(0, 1, 2)], [1, 1, 1], True),
        ([(0, 1, 2), (0, 3, 4)], [2, 1, 1, 1, 1], True),
        ([(0, 1, 2), (3, 4, 5)], [1] * 6, False),
    ])
    def test_hand_written_tables(self, lines, degrees, connected):
        sp = table_space(line_table(len(degrees), lines))
        assert sp.lines == tuple(lines) and sp.line_count() == len(lines)
        assert [sp.degree(p) for p in range(len(sp))] == degrees
        assert sp.is_connected() == connected
        assert sp.point_of_label("p1") == 1 and sp.derived == {}

    def test_one_line_is_the_space_of_a3(self):
        a3 = build_named_space("A", 3)
        sp = FischerSpace(line_table(3, [(0, 1, 2)]), a3.points, a3.labels, a3.base, 3, "A")
        assert sp.third == a3.third and sp.export() == a3.export()

    def test_asymmetric_table_is_not_a_line_set(self):
        third = line_table(3, [])
        third[0][1] = 2
        with pytest.raises(ThreeTranspositionError, match="not a line set"):
            table_space(third)

    def test_table_shape_must_match_the_points(self):
        with pytest.raises(ValueError, match="one label"):
            table_space(line_table(3, [(0, 1, 2)])[:2])
        with pytest.raises(ValueError, match="one label"):
            FischerSpace(line_table(3, []), [Point(1, 2, t) for t in range(3)], ["p0"],
                         builtin_group("C1"), 2)


def position_support(sp, positions):
    """The points of sp with both positions in the set."""
    return [k for k, p in enumerate(sp.points) if {p.i, p.j} <= positions]


class TestSubspace:
    def test_position_subsets_keep_the_lines_inside(self):
        # every named space under 200 points, on two position subsets
        for family, n in named_spaces_under(200):
            sp = build_named_space(family, n)
            for positions in (set(range(1, n)), set(range(2, n + 1))):
                sub, embedding = subspace(sp, position_support(sp, positions))
                inside = [line for line in sp.lines if set(line) <= set(embedding)]
                assert [tuple(embedding[p] for p in line) for line in sub.lines] == inside
                assert sub.points == tuple(sp.points[p] for p in embedding)
                assert sub.labels == tuple(sp.labels[p] for p in embedding)
                assert (sub.base, sub.n, sub.family) == (sp.base, sp.n, sp.family)

    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    def test_first_blocks_are_the_smaller_flip_space(self, family):
        # the points on the first k0 position pairs of the k space are the
        # k0 space, and the flip restricts to its flip
        order = len(standard_flip(family, 1).space)  # one point per element
        for k0, k in ((1, 2), (2, 3)):
            if order * k * (2 * k - 1) >= 200:
                continue
            small, tau = standard_flip(family, k0), standard_flip(family, k)
            sub, embedding = subspace(tau.space, position_support(tau.space, set(range(1, 2 * k0 + 1))))
            assert sub.points == small.space.points
            assert sub.third == small.space.third
            assert sub.labels == small.space.labels
            local = {p: q for q, p in enumerate(embedding)}
            assert tuple(local[tau.perm[p]] for p in embedding) == small.perm

    def test_refuses_a_set_that_is_not_closed(self):
        sp = build_named_space("A", 4)
        b12, b13, b23 = (sp.point_of_label(f"b({i},{j})") for i, j in ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(ValueError, match="not closed under third points"):
            subspace(sp, [b12, b13])
        line, embedding = subspace(sp, [b23, b12, b13, b12])
        assert embedding == (b12, b13, b23) and line.lines == ((0, 1, 2),)
        with pytest.raises(ValueError, match="outside the space"):
            subspace(sp, [b12, len(sp)])

    def test_keeps_label_aliases(self):
        sp = build_named_space("W3D", 3)
        sub, embedding = subspace(sp, position_support(sp, {1, 2}))
        assert embedding[sub.point_of_label("g(2,1)")] == sp.point_of_label("d(1,2)")

    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    def test_flip_closures_on_the_subspace(self, family):
        # the k = 1 flip generators close to one dimension in the subspace Y
        # on the first block of the k = 2 space, in the k = 1 space, and in
        # the k = 2 space itself; Y keeps its own cache
        small, tau = standard_flip(family, 1), standard_flip(family, 2)
        Y, embedding = subspace(tau.space, position_support(tau.space, {1, 2}))
        tau_Y = FlipInvolution(Y, small.perm, {})
        for mode in (SYM, ScalarMode.evaluated(7)):
            in_Y = flip_subalgebra(Y, tau_Y, mode)
            assert in_Y.dimension == flip_subalgebra(small.space, small, mode).dimension
            gens = [g for g, _ in in_Y.generators]
            embedded = [{embedding[p]: c for p, c in g.items()} for g in gens]
            assert close(tau.space, embedded, mode).dimension == in_Y.dimension
            if mode is SYM:
                assert consistency_check(Y, gens, 7)
        assert "critical_values" in Y.derived and "critical_values" not in tau.space.derived
        assert critical_values(Y) == critical_values(small.space)


def test_make_point_normalizes():
    g = builtin_group("C3")
    assert make_point(g, 1, 3, 2) == Point(2, 3, 2)
    with pytest.raises(ValueError):
        make_point(g, 1, 2, 2)


def test_point_degree_api():
    sp = build_named_space("W2D", 4)
    assert sp.degree(0) == 8


def test_named_space_validation():
    with pytest.raises(ValueError):
        build_named_space("A", 2)
    with pytest.raises(ValueError):
        build_named_space("XX", 3)


def test_w3d_g_alias_names_d_with_positions_swapped():
    sp = build_named_space("W3D", 3)
    d_labels = [lab for lab in sp.labels if lab.startswith("d(")]
    assert len(d_labels) == 6
    for lab in d_labels:
        i, j = lab[2:-1].split(",")
        assert sp.point_of_label(f"g({j},{i})") == sp.point_of_label(lab)


def test_connectivity():
    assert build_named_space("W3A", 4).is_connected()
    assert build_named_space("WrA4", 2).is_connected()
    # two disjoint lines: the S3-case space at n = 2
    assert not build_named_space("W3D", 2).is_connected()
    # two points and no lines
    assert not build_named_space("W2A", 2).is_connected()


class TestComponents:
    @staticmethod
    def graph(edges):
        return lambda v, w: (v, w) in edges or (w, v) in edges

    def test_empty_graph(self):
        assert components(0, self.graph(set())) == []

    def test_isolated_vertices(self):
        assert components(3, self.graph(set())) == [[0], [1], [2]]

    def test_path(self):
        # 3 - 0 - 4 - 1 - 2, met from the root 0 out of vertex order
        path = self.graph({(3, 0), (0, 4), (4, 1), (1, 2)})
        assert components(5, path) == [[0, 1, 2, 3, 4]]

    def test_components_ordered_by_least_vertex(self):
        graph = self.graph({(0, 4), (1, 3), (3, 5)})
        assert components(7, graph) == [[0, 4], [1, 3, 5], [2], [6]]


def test_lazy_line_streaming():
    sp = build_named_space("W3A", 3)
    streamed = list(sp.iter_lines())
    assert len(streamed) == sp.line_count() == 12
    p, q, r = streamed[0]
    assert sp.has_line((p, q, r))
    s = next(x for x in range(len(sp.points)) if x not in (p, q, r))
    assert not sp.has_line((p, q, s))
    # the stored lines are the sorted set of sorted triples of the third map
    npts = len(sp.points)
    triples = {
        tuple(sorted((a, b, sp.third[a][b])))
        for a in range(npts)
        for b in range(npts)
        if sp.third[a][b] >= 0
    }
    assert tuple(streamed) == sp.lines == tuple(sorted(triples))


def test_export_schema():
    sp = build_named_space("W2A", 3)
    data = sp.export()
    assert data["family"] == "W2A" and data["n"] == 3
    assert len(data["points"]) == 6 and len(data["lines"]) == 4
    assert set(data["points"][0]) == {"label", "t", "i", "j"}


class TestAutomorphismCheck:
    def test_identity(self):
        sp = build_named_space("W3A", 3)
        assert is_space_automorphism(sp, tuple(range(len(sp.points))))

    def test_miyamoto_maps_are_automorphisms(self):
        from matsuo.axial import miyamoto_point_map

        sp = build_named_space("W3A", 3)
        for p in range(len(sp.points)):
            perm = miyamoto_point_map(sp, p)
            assert is_space_automorphism(sp, perm)

    def test_collinear_transposition_breaks_lines(self):
        # exchanging two collinear points while fixing the rest is only an
        # automorphism if every line through them survives; brute force finds
        # a broken one in W3A:3
        sp = build_named_space("W3A", 3)
        found_broken = False
        for p in range(len(sp.points)):
            for q in range(p + 1, len(sp.points)):
                if not sp.collinear(p, q):
                    continue
                perm = list(range(len(sp.points)))
                perm[p], perm[q] = q, p
                if not is_space_automorphism(sp, perm):
                    found_broken = True
                    break
            if found_broken:
                break
        assert found_broken

    def test_non_bijection_rejected(self):
        sp = build_named_space("A", 3)
        assert not is_space_automorphism(sp, (0, 0, 1))


class TestPointOrbits:
    def test_transitive_on_connected_named_spaces(self):
        # every named space under 200 points: one orbit exactly when connected
        for family, n in named_spaces_under(200):
            sp = build_named_space(family, n)
            single = point_orbits(sp) == (tuple(range(len(sp.points))),)
            assert single == sp.is_connected(), (family, n)

    def test_disconnected_spaces_split_into_components(self):
        for family in ("W2A", "W2D"):
            sp = build_named_space(family, 2)
            assert point_orbits(sp) == tuple((p,) for p in range(len(sp.points)))
        # two disjoint lines
        sp = build_named_space("W3D", 2)
        assert point_orbits(sp) == tuple(sp.lines)

    def test_non_automorphism_reflection_raises(self, monkeypatch):
        import matsuo.fischer as fischer_mod
        from matsuo.algebra import adjacency_spectrum

        def bad_reflection(space, c):
            # swaps c with one collinear point only, breaking the other
            # lines through c
            q = next(x for x, r in enumerate(space.third[c]) if r >= 0)
            perm = list(range(len(space.points)))
            perm[c], perm[q] = q, c
            return tuple(perm)

        monkeypatch.setattr(fischer_mod, "reflection_map", bad_reflection)
        sp = build_named_space("W3A", 3)
        with pytest.raises(ValueError, match="automorphism check"):
            point_orbits(sp)
        with pytest.raises(ValueError, match="automorphism check"):
            adjacency_spectrum(sp)
        assert not sp.derived
        # the identity is an automorphism, but it moves no point into the orbit
        monkeypatch.setattr(
            fischer_mod, "reflection_map", lambda space, c: tuple(range(len(space.points)))
        )
        with pytest.raises(ValueError, match="does not swap"):
            point_orbits(sp)


class TestDiagrams:
    def _space(self):
        return build_named_space("W3A", 4)

    def test_requires_orthogonal_pairs(self):
        sp = self._space()
        b12 = sp.point_of_label("b(1,2)")
        b13 = sp.point_of_label("b(1,3)")
        b23 = sp.point_of_label("b(2,3)")
        b14 = sp.point_of_label("b(1,4)")
        b34 = sp.point_of_label("b(3,4)")
        with pytest.raises(InvalidConfigurationError):
            diagram_of(sp, b14, (b12, b13), (b23, b34))

    def test_empty_and_single_edge(self):
        sp = build_named_space("A", 10)

        def pt(i, j):
            return sp.point_of_label(f"b({i},{j})")

        empty = diagram_of(sp, pt(1, 2), (pt(3, 4), pt(5, 6)), (pt(7, 8), pt(9, 10)))
        assert empty.edges() == []
        one_edge = diagram_of(sp, pt(1, 2), (pt(2, 3), pt(4, 5)), (pt(6, 7), pt(8, 9)))
        assert one_edge.edges() == [(0, 1)]

    def test_edges_follow_collinearity(self):
        sp = self._space()
        a = sp.point_of_label("b(1,2)")
        bc = (sp.point_of_label("b(3,4)"), sp.point_of_label("c(1,2)"))
        de = (sp.point_of_label("c(3,4)"), sp.point_of_label("c(2,1)"))
        d = diagram_of(sp, a, bc, de)
        support = (a, *bc, *de)
        for v in range(5):
            for w in range(v + 1, 5):
                assert d.adjacency[v][w] == sp.collinear(support[v], support[w])


class TestCanonicalDiagram:
    @staticmethod
    def _diagram(edges):
        adj = [[False] * 5 for _ in range(5)]
        for v, w in edges:
            adj[v][w] = adj[w][v] = True
        return Diagram(tuple(tuple(row) for row in adj))

    def test_empty_graph_fixed_by_symmetries(self):
        assert canonical_diagram(self._diagram([])) == 0

    def test_b_c_swap(self):
        ab = canonical_diagram(self._diagram([(0, 1)]))
        ac = canonical_diagram(self._diagram([(0, 2)]))
        assert ab == ac

    def test_pair_swap_composition(self):
        one = canonical_diagram(self._diagram([(0, 1), (0, 3)]))
        other = canonical_diagram(self._diagram([(0, 2), (0, 4)]))
        assert one == other

    def test_forbidden_edges_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            self._diagram([(1, 2)])
        with pytest.raises(InvalidConfigurationError):
            self._diagram([(3, 4)])
