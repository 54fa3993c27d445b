"""GF(p^k): field axioms, identity and coercion, and the sparse-row update.

Elements of GF(p^k) are int codes below p^k whose base-p digits are the
coefficients of a polynomial in x; the prime subfield is 0 .. p-1.
``ExtensionField.add_scaled`` updates rows on the field's log tables, and
every row builder calls the field's ``add_scaled``: ``Echelon``,
``koszul_betti``, ``mult_injective`` and ``intersect_spans`` answer over
GF(p^k) as over GF(p), and so does ``IntersectionInk.contains``, which
sums its fibers with the field's addition.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from spechtideals import betti, fields
from spechtideals.betti import default_j_max, koszul_betti
from spechtideals.fields import ExtensionField, draw_field, field_of
from spechtideals.ideals import (
    GeneratedIdeal,
    IntersectionInk,
    SquarefreeDegreeIdeal,
    mult_injective,
    specht_ideal,
    sum_ideal,
)
from spechtideals.linalg import Echelon, GradedBasis, intersect_spans, rank_sparse
from spechtideals.poly import Polynomial, monomials_of_degree
from spechtideals.tableaux import Partition

EXTENSIONS = [(2, 2), (2, 3), (2, 8), (3, 2), (3, 3), (3, 5), (5, 2), (7, 3)]


def _digit_sum(p, k, a, b):
    """a + b in GF(p^k): digit by digit mod p, without carries."""
    return sum(((a // p**j + b // p**j) % p) * p**j for j in range(k))


class TestArithmetic:
    @pytest.mark.parametrize("p, k", EXTENSIONS)
    def test_field_axioms_on_random_triples(self, p, k):
        fld, q = field_of(p, k), p**k
        rng = random.Random(p * 100 + k)
        for _ in range(500):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert fld.add(a, b) == fld.add(b, a) == _digit_sum(p, k, a, b)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.add(a, fld.add(b, c)) == fld.add(fld.add(a, b), c)
            assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.add(a, 0) == fld.mul(a, 1) == a and fld.mul(a, 0) == 0
            assert fld.add(a, fld.neg(a)) == 0
            assert fld.sub(a, b) == fld.add(a, fld.neg(b))
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            fld.inv(0)

    @pytest.mark.parametrize("p, k", EXTENSIONS)
    def test_x_generates_the_multiplicative_group(self, p, k):
        fld, q = field_of(p, k), p**k
        powers, y = set(), 1
        for _ in range(q - 1):
            powers.add(y)
            y = fld.mul(y, p)  # the code p is x
        assert y == 1 and powers == set(range(1, q))

    @pytest.mark.parametrize("p, k", EXTENSIONS)
    def test_prime_subfield_is_gf_p(self, p, k):
        fld = field_of(p, k)
        for a, b in product(range(p), repeat=2):
            assert fld.add(a, b) == (a + b) % p
            assert fld.mul(a, b) == a * b % p
            assert fld.neg(a) == -a % p

    def test_frobenius_fixes_exactly_the_prime_subfield(self):
        fld = field_of(3, 5)
        fixed = [a for a in range(243) if fld.mul(fld.mul(a, a), a) == a]
        assert fixed == [0, 1, 2]


class TestIdentity:
    def test_gf4_is_not_gf2(self):
        gf2, gf4 = field_of(2), field_of(2, 2)
        assert gf2 != gf4 and not gf2 == gf4
        assert hash(gf2) != hash(gf4)
        assert (repr(gf2), repr(gf4)) == ("GF(2)", "GF(2^2)")
        assert len({gf2, gf4, field_of(2, 3)}) == 3
        assert field_of(2, 2) is gf4 and field_of(2, 2) == ExtensionField(2, 2)

    def test_repr_and_order(self):
        assert [repr(draw_field(p)) for p in (2, 3, 5, 7, 211)] == [
            "GF(2^8)", "GF(3^5)", "GF(5^4)", "GF(7^3)", "GF(211)",
        ]
        assert [draw_field(p).order for p in (2, 3)] == [256, 243]
        assert draw_field(0) == field_of(32003)
        for bad in (1, 4):
            with pytest.raises(ValueError):
                draw_field(bad)

    def test_extension_needs_a_prime_and_degree_two(self):
        for p, k in [(4, 2), (0, 2), (2, 1)]:
            with pytest.raises(ValueError):
                ExtensionField(p, k)

    @pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (0, 2), (5, 0)])
    def test_a_plain_field_has_degree_one(self, p, k):
        # Field(2, 3) would equal and hash like GF(2^3) with the arithmetic
        # of GF(2), so the ring checks could not tell the two apart
        with pytest.raises(ValueError, match="degree 1 only"):
            fields.Field(p, k)
        assert fields.Field(2) == field_of(2) and field_of(2, 3).mul(2, 2) == 4

    def test_polynomials_over_different_fields_do_not_mix(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0, field_of(2)) + Polynomial.variable(2, 0, field_of(2, 2))


class TestCoercion:
    def test_an_int_is_an_element_code(self):
        # in GF(4) the code 2 is x, not the integer 1 + 1 = 0; the integer
        # enters as a Fraction, into the prime subfield
        gf4 = field_of(2, 2)
        assert [gf4.of(c) for c in range(4)] == [0, 1, 2, 3]
        assert gf4.of(Fraction(2)) == 0 and gf4.of(Fraction(3)) == 1
        assert gf4.mul(gf4.of(2), gf4.of(2)) == 3  # x^2 = x + 1
        assert gf4.add(1, 1) == 0

    def test_codes_below_p_are_the_integers(self):
        gf9 = field_of(3, 2)
        for n in range(-7, 8):
            ones = 0
            for _ in range(abs(n)):
                ones = gf9.add(ones, 1)
            expected = ones if n >= 0 else gf9.neg(ones)
            assert gf9.of(Fraction(n)) == expected == n % 3
        assert gf9.of(Fraction(1, 2)) == 2  # 2 * 2 = 1 mod 3

    @pytest.mark.parametrize("bad", [-1, 4, 17])
    def test_no_int_outside_the_codes(self, bad):
        with pytest.raises(ValueError):
            field_of(2, 2).of(bad)

    def test_polynomial_coefficients_stay_codes(self):
        gf4 = field_of(2, 2)
        f = Polynomial(2, gf4, {(1, 0): 2, (0, 1): 3})
        assert f.terms == {(1, 0): 2, (0, 1): 3}
        assert (f * f).terms == {(2, 0): 3, (0, 2): 2}  # x^2 = x + 1, (x + 1)^2 = x
        with pytest.raises(ZeroDivisionError):
            gf4.of(Fraction(1, 2))


BASE_CHANGES = [(2, 2), (2, 8), (3, 5)]


def _over(poly, fld):
    """The polynomial with the same coefficient codes over fld: prime-subfield
    coefficients are the same elements of GF(p) and GF(p^k)."""
    return Polynomial(poly.nvars, fld, poly.terms)


class TestBaseChange:
    """The operations that build rows with ``Field.add_scaled`` answer over
    GF(p^k), and on inputs with prime-subfield coefficients they agree with
    the same call over GF(p): a rank, a span and an intersection do not
    change under a field extension."""

    @pytest.mark.parametrize("p, k", BASE_CHANGES)
    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_injectivity_on_the_socle_probe_ideals(self, parts, p, k):
        shape = Partition(parts)
        n = shape.n
        reports = []
        for fld in (field_of(p), field_of(p, k)):
            ideal = sum_ideal(specht_ideal(shape, fld), SquarefreeDegreeIdeal(n, 3, fld))
            xs = [Polynomial.variable(n, i, fld) for i in range(n)]
            e1 = sum(xs, Polynomial.zero(n, fld))
            # a second form with every prime-subfield coefficient in turn
            other = sum((x.scale(fld.of(i % p)) for i, x in enumerate(xs)), Polynomial.zero(n, fld))
            reports.append([mult_injective(f, ideal, d) for f in (e1, other) for d in range(4)])
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("p, k", BASE_CHANGES)
    def test_intersect_spans(self, p, k):
        fields = field_of(p), field_of(p, k)
        rng = random.Random(p * 10 + k)
        for _ in range(20):
            nvars, d = rng.randrange(2, 4), rng.randrange(1, 3)
            ncols = len(monomials_of_degree(nvars, d))
            bases = [], []
            for _ in range(rng.randrange(2, 4)):
                rows = _random_rows(rng, rng.randrange(1, ncols + 1), ncols, range(p), density=0.6)
                for fld, family in zip(fields, bases):
                    ech = Echelon(fld)
                    for r in rows:
                        ech.insert(r)
                    family.append(GradedBasis.from_echelon(ech, nvars, d))
            prime, extension = (intersect_spans(family) for family in bases)
            assert extension.rows == prime.rows and extension.field == fields[1]
            for vec in extension.vectors():
                assert all(b.contains(vec) for b in bases[1])

    @staticmethod
    def _combination(rng, vectors, fld, nvars):
        out = Polynomial.zero(nvars, fld)
        for v in vectors:
            out = out + v.scale(rng.randrange(fld.order))
        return out

    @pytest.mark.parametrize("p, k", BASE_CHANGES)
    @pytest.mark.parametrize("n, kk", [(3, 2), (4, 3), (4, 2)])
    def test_intersection_membership(self, n, kk, p, k):
        small, big = field_of(p), field_of(p, k)
        prime, extension = IntersectionInk(n, kk, small), IntersectionInk(n, kk, big)
        rng = random.Random(n * 100 + kk * 10 + p + k)
        for d in range(1, 4):
            monos = monomials_of_degree(n, d)
            members = extension.component(d).vectors()
            assert extension.dim(d) == prime.dim(d) == len(members)
            for trial in range(12):
                # over GF(p^k): a random element of the component, or a
                # random binomial, most often outside it
                if trial % 2:
                    poly = self._combination(rng, members, big, n)
                else:
                    poly = Polynomial(n, big, {m: rng.randrange(big.order) for m in rng.sample(monos, 2)})
                assert extension.contains(poly) == extension.component(d).contains(poly)
                # the same codes over both fields
                if trial % 2:
                    digits = self._combination(rng, prime.component(d).vectors(), small, n)
                else:
                    digits = Polynomial(n, small, {m: rng.randrange(p) for m in monos})
                assert extension.contains(_over(digits, big)) == prime.contains(digits)


class TestKoszulRows:
    """``koszul_betti`` builds its rows with the field's ``add_scaled``, on
    the log tables over GF(p^k)."""

    @pytest.mark.parametrize("parts, p, k", [
        ((3, 3), 2, 2),  # ranked in 4 variables: d_3 and d_4 are built
        ((3, 3), 2, 8),
        ((2, 2, 1), 3, 2),
        ((3, 1, 1), 3, 5),
        ((3, 2), 5, 2),
    ])
    def test_same_table_over_gf_p_and_gf_p_k(self, parts, p, k):
        # the x_n -> 0 image of I^Sp has prime-field coefficients, which are
        # the same codes in GF(p^k); base change keeps every Betti number,
        # and the regular reduction draws the same forms over both fields
        shape = Partition(parts)
        gens = specht_ideal(shape, field_of(p)).translation_reduction().generator_list()
        j_max = default_j_max(shape)
        tables = []
        for fld in (field_of(p), field_of(p, k)):
            ideal = GeneratedIdeal(shape.n - 1, fld, [Polynomial(g.nvars, fld, g.terms) for g in gens])
            tables.append(koszul_betti(ideal, j_max))
        prime, extension = tables
        assert extension.entries == prime.entries and extension.reduced == prime.reduced
        assert extension.closed_off == prime.closed_off
        assert extension.characteristic == p

    def test_artinian_rows_are_ranked_sparse(self, monkeypatch):
        # an Artinian quotient's large matrices take the dense rank over
        # GF(p), which computes in prime fields only
        def no_dense(*args):
            raise AssertionError("a GF(p^k) matrix was ranked densely")

        monkeypatch.setattr(betti, "rank_dense_mod_p", no_dense)
        monkeypatch.setattr(betti, "_DENSE_CELLS", 0)
        fld = field_of(3, 2)
        xs = [Polynomial.variable(4, i, fld) for i in range(4)]
        ideal = GeneratedIdeal(4, fld, [x * x for x in xs])
        table = koszul_betti(ideal, 8)
        assert table.artinian_end == 8 and table.entry(4, 8) == 1
        assert table.entries[1, 2] == 4 and table.totals() == [1, 4, 6, 4, 1]


def _random_rows(rng, nrows, ncols, values, density=0.5):
    return [
        {c: v for c in range(ncols) if rng.random() < density and (v := rng.choice(values))}
        for _ in range(nrows)
    ]


class TestEchelon:
    @pytest.mark.parametrize("p, k", [(2, 2), (2, 8), (3, 2), (3, 5), (5, 2)])
    def test_prime_field_entries_rank_alike(self, p, k):
        # a rank does not change under a field extension
        rng = random.Random(k * 10 + p)
        small, big = field_of(p), field_of(p, k)
        for trial in range(60):
            nrows, ncols = rng.randrange(1, 12), rng.randrange(1, 12)
            rows = _random_rows(rng, nrows, ncols, range(p), density=rng.choice([0.2, 0.5, 0.9]))
            if trial % 3 == 0:  # force dependencies
                rows += [{c: (2 * v) % p for c, v in r.items() if (2 * v) % p} for r in rows[:3]]
            assert rank_sparse(rows, big) == rank_sparse(rows, small)

    @staticmethod
    def _span(rows, fld):
        """Every combination of the rows, by enumeration."""
        vecs = set()
        ncols = 1 + max((c for r in rows for c in r), default=0)
        for coeffs in product(range(fld.order), repeat=len(rows)):
            v = [0] * ncols
            for c, r in zip(coeffs, rows):
                for col, val in r.items():
                    v[col] = fld.add(v[col], fld.mul(c, val))
            vecs.add(tuple(v))
        return vecs, ncols

    @pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2)])
    def test_against_enumerated_spans(self, p, k):
        fld = field_of(p, k)
        q = fld.order
        rng = random.Random(q)
        for _ in range(25):
            nrows = rng.randrange(1, 4)
            rows = _random_rows(rng, nrows, rng.randrange(1, 4), range(q), density=0.7)
            if nrows == 3 and rng.random() < 0.5:  # a combination of the other two
                c0, c1 = rng.randrange(1, q), rng.randrange(1, q)
                cols = set(rows[0]) | set(rows[1])
                combo = {c: fld.add(fld.mul(c0, rows[0].get(c, 0)), fld.mul(c1, rows[1].get(c, 0)))
                         for c in cols}
                rows[2] = {c: v for c, v in combo.items() if v}
            span, ncols = self._span(rows, fld)
            ech = Echelon(fld)
            for r in rows:
                ech.insert(r)
            assert q**ech.rank == len(span)
            # the reduced rows are monic, lie in the span and reduce to 0
            for piv, r in ech.monic_rows().items():
                assert r[piv] == 1 and all(c == piv or c not in ech.rows for c in r)
                assert tuple(r.get(c, 0) for c in range(ncols)) in span
            # membership agrees with the enumeration
            for v in product(range(q), repeat=ncols):
                row = {c: x for c, x in enumerate(v) if x}
                assert ech.contains(row) == (v in span)


def test_known_primitive_polynomials_need_no_search(monkeypatch):
    # the draw fields of characteristics 2 and 3 start from a known
    # primitive polynomial, so building their tables tries one candidate
    calls = []
    real = fields._powers_of_x

    def spy(p, k, tail):
        calls.append((p, k, tail))
        return real(p, k, tail)

    monkeypatch.setattr(fields, "_powers_of_x", spy)
    ExtensionField(2, 8)
    ExtensionField(3, 5)
    assert calls == [(2, 8, 0b11101), (3, 5, 7)]
