"""Partitions, tableaux, standard enumeration, hook-length counts, and the
column normal form of one- and two-row tableaux."""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from spechtideals.specht import specht_poly, tableau_to_class
from spechtideals.tableaux import (
    INVERSE,
    NATURAL,
    Partition,
    Tableau,
    count_standard_tableaux,
    enumerate_partitions,
    enumerate_standard_tableaux,
)


class TestPartition:
    def test_basic(self):
        p = Partition((4, 2, 1))
        assert p.n == 7 and p.length == 3
        assert p.conjugate().parts == (3, 2, 1, 1)
        assert Partition.from_text("4,2,1") == p
        assert p.text() == "4,2,1"

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition(())

    def test_trivial_flag(self):
        assert Partition((5,)).is_trivial
        assert not Partition((4, 1)).is_trivial

    def test_enumerate_small(self):
        assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]
        assert len(enumerate_partitions(7)) == 15

    def test_enumerate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)


class TestStandardTableaux:
    def test_counts_small(self):
        assert len(enumerate_standard_tableaux(Partition((2, 2)))) == 2
        assert len(enumerate_standard_tableaux(Partition((2, 1)))) == 2
        assert len(enumerate_standard_tableaux(Partition((3, 3)))) == 5
        assert count_standard_tableaux(Partition((1, 1, 1))) == 1
        assert count_standard_tableaux(Partition((2, 2, 1))) == 5

    def test_catalan_four_four(self):
        # C_4 via the closed form (1/(2n+1)) * binom(2n+1, n)
        from math import comb

        c4 = comb(9, 4) // 9
        assert c4 == 14
        assert count_standard_tableaux(Partition((4, 4))) == 14

    def test_all_standard(self):
        for t in enumerate_standard_tableaux(Partition((3, 2))):
            assert t.is_standard(NATURAL)
        for t in enumerate_standard_tableaux(Partition((3, 2)), INVERSE):
            assert t.is_standard(INVERSE)
            assert not t.is_standard(NATURAL) or t.n == 1

    def test_inverse_form_has_n_in_corner(self):
        # with the inverse order the letter n occupies the (1,1) box
        for t in enumerate_standard_tableaux(Partition((3, 2)), INVERSE):
            assert t.rows[0][0] == t.n

    def test_counts_independent_of_order(self):
        for n in range(2, 8):
            for shape in enumerate_partitions(n):
                nat = enumerate_standard_tableaux(shape, NATURAL)
                inv = enumerate_standard_tableaux(shape, INVERSE)
                assert len(nat) == len(inv) == count_standard_tableaux(shape)

    def test_rsk_identity(self):
        for n in range(1, 8):
            total = sum(
                count_standard_tableaux(p) ** 2 for p in enumerate_partitions(n)
            )
            assert total == factorial(n)


class TestTableau:
    def test_parse_and_text(self):
        t = Tableau.from_text("3,5,1,7/6,2/4")
        assert t.shape.parts == (4, 2, 1)
        assert t.text() == "3,5,1,7/6,2/4"
        assert t.columns()[0] == (3, 6, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau(((1, 2), (2,)))
        with pytest.raises(ValueError):
            Tableau(((1,), (2, 3)))


def canonical_tableau(cls):
    """The tableau whose columns are the pairs of cls, then its singletons."""
    tops = tuple(lo for lo, _ in cls.pairs) + cls.singletons
    bottoms = tuple(hi for _, hi in cls.pairs)
    return Tableau((tops, bottoms) if bottoms else (tops,))


class TestNormalForm:
    """``specht.tableau_to_class``, the normal form that ``straighten`` and
    the replay intake use: f_class = sign * specht_poly(t)."""

    def test_already_normal(self):
        t = Tableau.from_text("1,3/2")
        cls, sign = tableau_to_class(t)
        assert canonical_tableau(cls) == t and sign == 1

    def test_column_swap_negates(self):
        t = Tableau.from_text("2,3/1")
        cls, sign = tableau_to_class(t)
        assert sign == -1
        assert cls.f() == specht_poly(t).scale(-1)

    def test_column_reorder_sign_free(self):
        a = Tableau.from_text("1,3/2,4")
        b = Tableau.from_text("3,1/4,2")
        assert tableau_to_class(a) == tableau_to_class(b)
        assert tableau_to_class(a)[1] == 1
        assert specht_poly(a) == specht_poly(b)

    def test_idempotent(self):
        cls, _ = tableau_to_class(Tableau.from_text("5,2,3/4,1"))
        assert tableau_to_class(canonical_tableau(cls)) == (cls, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sign_consistency_random(self, data):
        shapes = [(3,), (2, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3)]
        parts = data.draw(st.sampled_from(shapes))
        shape = Partition(parts)
        perm = data.draw(st.permutations(range(1, shape.n + 1)))
        rows, idx = [], 0
        for width in parts:
            rows.append(tuple(perm[idx : idx + width]))
            idx += width
        t = Tableau(tuple(rows))
        cls, sign = tableau_to_class(t)
        assert cls.f() == specht_poly(t).scale(sign)
        # equivalence invariance: the class's own tableau maps to it, sign 1
        assert tableau_to_class(canonical_tableau(cls)) == (cls, 1)
