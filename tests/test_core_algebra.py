"""Field arithmetic, polynomials, substitution, and graded linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spechtideals.fields import QQ, field_of
from spechtideals.linalg import echelon_span, intersect_spans
from spechtideals.poly import Polynomial, monomials_of_degree
from spechtideals.specht import specht_poly
from spechtideals.tableaux import Partition, enumerate_standard_tableaux


def x(i, nvars, fld=QQ):
    return Polynomial.variable(nvars, i - 1, fld)


def dense_rank(polys, d):
    """Independent oracle: textbook Gaussian elimination on a dense matrix."""
    monos = list(monomials_of_degree(polys[0].nvars, d)) if polys else []
    rows = [[Fraction(p.terms.get(m, 0)) for m in monos] for p in polys]
    rank = 0
    for col in range(len(monos)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestFields:
    def test_characteristic_validation(self):
        field_of(0)
        field_of(2)
        field_of(32003)
        with pytest.raises(ValueError):
            field_of(4)
        with pytest.raises(ValueError):
            field_of(1)

    def test_gf_arithmetic(self):
        f5 = field_of(5)
        assert f5.add(3, 4) == 2
        assert f5.mul(3, 4) == 2
        assert f5.inv(2) == 3
        assert f5.of(Fraction(1, 2)) == 3

    def test_gf_denominator_vanishes(self):
        with pytest.raises(ZeroDivisionError):
            field_of(2).of(Fraction(1, 2))

    @pytest.mark.parametrize("p", [0, 2, 5, 32003])
    def test_of_coerces_every_input_kind(self, p):
        # ints take a fast path ahead of the Fraction test; residues and
        # types must be those of the general rule
        fld = field_of(p)
        for value in (0, 1, 7, -1, -32004, 10**20 + 3, True, False):
            got = fld.of(value)
            want = value if p == 0 else int(value) % p
            assert got == want and type(got) is type(want), (p, value)
        for value in (Fraction(3, 4), Fraction(-7, 3), Fraction(6, 3)):
            if p and value.denominator % p == 0:
                with pytest.raises(ZeroDivisionError):
                    fld.of(value)
                continue
            got = fld.of(value)
            if p == 0:
                assert got == value
            else:
                assert got * value.denominator % p == value.numerator % p
                assert 0 <= got < p and type(got) is int


class TestSubstitute:
    def test_collapse_difference(self):
        p = x(1, 2) - x(2, 2)
        assert p.substitute({1: x(1, 2)}).is_zero()

    def test_identity_under_difference_change(self):
        # x1 - x3 is unchanged by x_i -> x_i - x_3 (it is already a
        # polynomial in the differences)
        p = x(1, 3) - x(3, 3)
        shifted = p.substitute(
            {i: x(i + 1, 3) - x(3, 3) for i in range(3)}
        )
        assert shifted == p

    def test_worked_product_vanishes_on_equality(self):
        # (x3-x6)(x3-x4)(x6-x4)(x5-x2) dies when x2 = x5
        n = 7
        f = (x(3, n) - x(6, n)) * (x(3, n) - x(4, n)) * (x(6, n) - x(4, n)) * (
            x(5, n) - x(2, n)
        )
        assert f.substitute({4: x(2, n)}).is_zero()

    def test_ring_dimension_mismatch(self):
        p = x(1, 3) - x(2, 3)
        with pytest.raises(ValueError):
            p.substitute({0: x(1, 2)})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_respects_products(self, data):
        nvars = 3
        fld = QQ

        def rand_poly():
            terms = {}
            for _ in range(data.draw(st.integers(0, 4))):
                m = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
                terms[m] = data.draw(st.integers(-3, 3))
            return Polynomial(nvars, fld, terms)

        images = {
            i: sum(
                (x(j + 1, nvars).scale(data.draw(st.integers(-2, 2))) for j in range(nvars)),
                Polynomial.zero(nvars),
            )
            for i in range(nvars)
        }
        p, q = rand_poly(), rand_poly()
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


class TestEchelonSpan:
    def test_dependent_triple(self):
        polys = [x(1, 3) - x(2, 3), x(2, 3) - x(3, 3), x(1, 3) - x(3, 3)]
        assert echelon_span(polys, 1).dimension == 2

    def test_empty(self):
        basis = echelon_span([], 1, field=QQ, nvars=3)
        assert basis.dimension == 0

    def test_specht_two_two_span(self):
        shape = Partition((2, 2))
        polys = [specht_poly(t) for t in enumerate_standard_tableaux(shape)]
        basis = echelon_span(polys, 2)
        assert basis.dimension == dense_rank(polys, 2) == 2

    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            echelon_span([x(1, 2), x(1, 2) * x(2, 2)], 1)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            echelon_span([x(1, 2) + x(1, 2) * x(2, 2)], 2)

    def test_rejects_mixed_rings(self):
        with pytest.raises(ValueError):
            echelon_span([x(1, 2), x(1, 3)], 1)

    def test_idempotent(self):
        polys = [
            x(1, 3) * x(1, 3) - x(2, 3) * x(3, 3),
            x(1, 3) * x(2, 3) + x(3, 3) * x(3, 3).scale(2),
            x(2, 3) * x(2, 3),
        ]
        basis = echelon_span(polys, 2)
        again = echelon_span(basis.vectors(), 2)
        assert basis == again

    def test_rank_agrees_with_large_prime(self):
        for parts in ((2, 2), (3, 2), (2, 2, 1), (3, 3)):
            shape = Partition(parts)
            tabs = enumerate_standard_tableaux(shape)
            d = specht_poly(tabs[0]).homogeneous_degree()
            over_q = echelon_span([specht_poly(t) for t in tabs], d).dimension
            fp = field_of(32003)
            over_p = echelon_span([specht_poly(t, fp) for t in tabs], d).dimension
            assert over_q == over_p

    def test_leading_monomials_strictly_decreasing(self):
        polys = [specht_poly(t) for t in enumerate_standard_tableaux(Partition((3, 2)))]
        basis = echelon_span(polys, 2)
        vectors = basis.vectors()
        leads = [v.leading_monomial() for v in vectors]
        keys = [(sum(m), m) for m in leads]
        assert keys == sorted(keys, reverse=True)
        # each leading monomial appears in exactly one vector
        for i, lead in enumerate(leads):
            for j, other in enumerate(vectors):
                if i != j:
                    assert lead not in other.terms


def dense_rref(rows, ncols, fld):
    """Textbook reduced row echelon form oracle; rows of Fractions or GF ints."""
    mat = [[fld.of(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    pivots = {}
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = fld.inv(mat[rank][col])
        mat[rank] = [fld.mul(v, inv) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [
                    fld.sub(a, fld.mul(f, b)) for a, b in zip(mat[r], mat[rank])
                ]
        pivots[col] = rank
        rank += 1
    out = {}
    for col, r in pivots.items():
        out[col] = {c: mat[r][c] for c in range(ncols) if mat[r][c] != 0}
    return rank, out


def check_against_oracle(rows, ncols, probes=()):
    """Echelon's rank, monic rows and span membership against dense_rref."""
    from spechtideals.linalg import Echelon

    for fld in (QQ, field_of(5)):
        ech = Echelon(fld)
        for row in rows:
            ech.insert(dict(row))
        rank, oracle = dense_rref(rows, ncols, fld)
        assert ech.rank == rank
        got = ech.monic_rows()
        normalized = {
            piv: {c: fld.of(v) for c, v in row.items()}
            for piv, row in got.items()
        }
        assert normalized == oracle
        for probe in probes:
            in_span = dense_rref(rows + [probe], ncols, fld)[0] == rank
            assert ech.contains(dict(probe)) == in_span


class TestEchelonDifferential:
    """The incremental engine against the dense oracle, both fields."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_dense_rref(self, data):
        ncols = data.draw(st.integers(1, 6))
        nrows = data.draw(st.integers(1, 8))
        rows = []
        for _ in range(nrows):
            row = {}
            for c in range(ncols):
                v = data.draw(st.integers(-4, 4))
                if v:
                    row[c] = v
            rows.append(row)
        check_against_oracle(rows, ncols)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_wide_sparse_draws(self, data):
        ncols = data.draw(st.integers(1, 12))
        sparse_row = st.dictionaries(
            st.integers(0, ncols - 1), st.integers(-4, 4).filter(bool), max_size=4
        )
        rows = data.draw(st.lists(sparse_row, min_size=1, max_size=16))
        # a combination of the rows lies in their span; a drawn row may not
        combo: dict = {}
        for row in rows[:3]:
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + 2 * v
        combo = {c: v for c, v in combo.items() if v}
        check_against_oracle(rows, ncols, probes=[combo, data.draw(sparse_row)])

    def test_stale_index_entry(self):
        from spechtideals.linalg import Echelon

        # row 0 is filed under column 3; the pivot-2 row cancels that entry
        # from it, and column 3 then becomes a pivot with the entry gone
        rows = [{0: 1, 2: 1, 3: 1}, {2: 1, 3: 1}, {3: 2, 4: 1}]
        for fld in (QQ, field_of(5)):
            ech = Echelon(fld)
            for row in rows[:2]:
                ech.insert(dict(row))
            assert 3 not in ech.rows[0] and 0 in ech.touch[3]
            ech.insert(dict(rows[2]))
            assert 3 not in ech.rows[0]
        check_against_oracle(rows, 5, probes=[{0: 1, 4: 1}, {2: 2, 4: -1}])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kernel_combinations_vanish(self, data):
        from spechtideals.linalg import span_and_kernel

        ncols = data.draw(st.integers(1, 5))
        nrows = data.draw(st.integers(1, 7))
        rows = []
        for _ in range(nrows):
            row = {}
            for c in range(ncols):
                v = data.draw(st.integers(-3, 3))
                if v:
                    row[c] = v
            rows.append(row)
        ech, kernel = span_and_kernel(rows, QQ, ncols)
        assert len(kernel) == nrows - ech.rank
        for combo in kernel:
            total = {}
            for i, coeff in combo.items():
                for c, v in rows[i].items():
                    total[c] = total.get(c, 0) + coeff * v
            assert all(v == 0 for v in total.values())


class TestIntersectSpans:
    def test_single_basis_identity(self):
        basis = echelon_span([x(1, 3), x(2, 3)], 1)
        assert intersect_spans([basis]) == basis

    def test_two_planes(self):
        b1 = echelon_span([x(1, 3), x(2, 3)], 1)
        b2 = echelon_span([x(2, 3), x(3, 3)], 1)
        got = intersect_spans([b1, b2])
        assert got.dimension == 1
        assert got.vectors()[0] == x(2, 3)

    def test_clique_kernels_give_specht_component(self):
        # intersection of (P_F)_2 over all 3-subsets of [4] has dimension 2
        from spechtideals.ideals import clique_ideal
        from itertools import combinations

        bases = [
            clique_ideal(4, F).component(2) for F in combinations(range(1, 5), 3)
        ]
        meet = intersect_spans(bases)
        assert meet.dimension == 2
        shape = Partition((2, 2))
        sp = echelon_span(
            [specht_poly(t) for t in enumerate_standard_tableaux(shape)], 2
        )
        assert meet == sp

    def test_degree_mismatch_rejected(self):
        b1 = echelon_span([x(1, 3)], 1)
        b2 = echelon_span([x(1, 3) * x(1, 3)], 2)
        with pytest.raises(ValueError):
            intersect_spans([b1, b2])
