"""Group catalog, Cayley ingestion, orders, automorphisms."""

import random
import re

import pytest

from matsuo.groups import (
    CatalogError,
    GroupAutomorphism,
    GroupTableError,
    automorphism_by_images,
    builtin_group,
    element_order,
    load_cayley_table,
    validate_orders,
)
from oracles import dump_cayley_table, identity_automorphism

ALL_BUILTINS = ("C1", "C2", "C3", "V4", "S3", "C3xC3", "A4", "E27")


@pytest.mark.parametrize(
    "name,order", [("C1", 1), ("C2", 2), ("C3", 3), ("V4", 4), ("S3", 6),
                   ("C3xC3", 9), ("A4", 12), ("E27", 27)]
)
def test_builtin_orders(name, order):
    assert builtin_group(name).order == order


def test_unknown_name():
    with pytest.raises(CatalogError):
        builtin_group("M11")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_all_builtins_are_legal_wreath_bases(name):
    assert validate_orders(builtin_group(name))


def test_e27_exponent_three():
    g = builtin_group("E27")
    assert all(element_order(g, x) in (1, 3) for x in range(27))
    u, v = g.index_of("u"), g.index_of("v")
    w = g.index_of("w")
    # w = [u, v]
    comm = g.mul(g.mul(g.inverse(u), g.inverse(v)), g.mul(u, v))
    assert comm == w
    assert g.mul(g.mul(u, v), w) == g.mul(u, g.mul(v, w))


def test_a4_element_orders():
    g = builtin_group("A4")
    assert sum(1 for x in range(12) if element_order(g, x) == 3) == 8
    assert element_order(g, g.index_of("(1,2)(3,4)")) == 2
    assert element_order(g, 0) == 1


def test_v4_all_involutions():
    g = builtin_group("V4")
    assert all(element_order(g, x) == 2 for x in range(1, 4))


def test_s3_presentation():
    g = builtin_group("S3")
    e, f = g.index_of("e"), g.index_of("f")
    assert element_order(g, e) == 2
    assert element_order(g, f) == 3
    assert element_order(g, g.mul(e, f)) == 2


def _c4_text():
    return "\n".join(
        [
            "order 4",
            "1 a b c",
            "1 a b c",
            "a b c 1",
            "b c 1 a",
            "c 1 a b",
        ]
    )


class TestCayleyIngestion:
    def test_c4_loads_but_fails_order_check(self):
        g = load_cayley_table(_c4_text(), name="C4")
        assert g.order == 4
        assert not validate_orders(g)

    def test_round_trip(self):
        g = builtin_group("S3")
        again = load_cayley_table(dump_cayley_table(g), name="S3")
        assert again.table == g.table

    def test_identity_must_come_first(self):
        bad = "\n".join(["order 2", "x 1", "1 x", "x 1"])
        with pytest.raises(GroupTableError):
            load_cayley_table(bad)

    def test_missing_header(self):
        with pytest.raises(GroupTableError):
            load_cayley_table("2\n1 a\n1 a\na 1")

    @pytest.mark.parametrize("lines,message", [
        (["order 2", "1 a", "1 a"], "expected 4 lines, got 3"),
        (["order 2", "1 a b", "1 a", "a 1"], "expected 2 labels, got 3"),
        (["order 2", "1 1", "1 1", "1 1"], "duplicate element labels"),
        (["order 2", "1 a", "1 a", "a"], "table row of wrong length"),
        (["order 2", "1 a", "1 a", "a z"], "unknown label 'z' in table"),
    ])
    def test_malformed_text_refused(self, lines, message):
        with pytest.raises(GroupTableError, match=re.escape(message)):
            load_cayley_table("\n".join(lines))

    def test_malformed_tables_rejected(self):
        rng = random.Random(20240917)
        rejected = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            labels = ["1"] + [f"x{i}" for i in range(1, n)]
            rows = []
            for r in range(n):
                rows.append(" ".join(rng.choice(labels) for _ in range(n)))
            text = "\n".join([f"order {n}", " ".join(labels)] + rows)
            try:
                load_cayley_table(text)
            except GroupTableError:
                rejected += 1
        assert rejected >= 39  # a random table is essentially never a group

    def test_broken_associativity_rejected(self):
        # identity row/column fine, but x*x = x breaks inverses
        bad = "\n".join(["order 2", "1 x", "1 x", "x x"])
        with pytest.raises(GroupTableError):
            load_cayley_table(bad)


class TestAutomorphisms:
    def test_identity(self):
        g = builtin_group("A4")
        aut = identity_automorphism(g)
        assert aut.is_involution()

    def test_non_homomorphism_rejected(self):
        g = builtin_group("C3")
        with pytest.raises(ValueError):
            GroupAutomorphism(g, (0, 1, 1))
        with pytest.raises(ValueError):
            GroupAutomorphism(g, (1, 0, 2))

    def test_composition_closes(self):
        g = builtin_group("C3xC3")
        swap = GroupAutomorphism(g, tuple((t % 3) * 3 + t // 3 for t in range(9)))
        inv = GroupAutomorphism(g, tuple(g.inverse(t) for t in range(9)))
        composed = swap.compose(inv)  # validated on construction
        assert isinstance(composed, GroupAutomorphism)
        assert swap.compose(swap).image == identity_automorphism(g).image


class TestAutomorphismByImages:
    def test_swap_of_c3xc3(self):
        g = builtin_group("C3xC3")
        swap = automorphism_by_images(g, {"u": "v", "v": "u"})
        assert swap.image == tuple((t % 3) * 3 + t // 3 for t in range(9))

    def test_a4_inner_images_are_conjugation(self):
        g = builtin_group("A4")
        sigma = g.index_of("(1,2)(3,4)")
        aut = automorphism_by_images(g, {"(1,2,3)": "(1,4,2)", "(1,2)(3,4)": "(1,2)(3,4)"})
        assert aut.image == tuple(g.mul(g.mul(sigma, t), sigma) for t in range(g.order))

    def test_images_must_generate(self):
        with pytest.raises(ValueError, match="do not generate"):
            automorphism_by_images(builtin_group("C3xC3"), {"u": "u"})

    def test_images_must_give_a_homomorphism(self):
        with pytest.raises(ValueError):
            automorphism_by_images(builtin_group("C3"), {"g": "1"})
        # the identity cannot be sent anywhere else
        with pytest.raises(ValueError, match="homomorphism"):
            automorphism_by_images(builtin_group("C3"), {"1": "g", "g": "g"})

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            automorphism_by_images(builtin_group("C3"), {"h": "g"})
        with pytest.raises(KeyError):
            automorphism_by_images(builtin_group("C3"), {"g": "h"})
