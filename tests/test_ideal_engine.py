"""Ideal components, Hilbert functions, equality, specialization, socle."""

import hashlib
import json
import random
from itertools import combinations
from math import comb

import pytest

from spechtideals import betti, cli, ideals
from spechtideals.fields import QQ, field_of
from spechtideals.ideals import (
    GeneratedIdeal,
    IntersectionInk,
    PartitionIdealK,
    QuotientRing,
    SquarefreeDegreeIdeal,
    SumIdealGeneric,
    _mult_table,
    clique_ideal,
    equal_up_to_degree,
    hilbert_function,
    mult_injective,
    series_expand,
    socle,
    specht_ideal,
    specialize_component,
    specialize_xn,
    sum_ideal,
)
from spechtideals.linalg import Echelon, GradedBasis, intersect_spans, null_space
from spechtideals.poly import Polynomial, dim_degree, monomials_of_degree, poly_to_row
from spechtideals.specht import AA1FrJ, SpechtSystem, TwoRowFrJ
from spechtideals.tableaux import Partition, enumerate_partitions


def x(i, nvars, fld=QQ):
    return Polynomial.variable(nvars, i - 1, fld)


class TestComponents:
    def test_clique_degree_one(self):
        c = clique_ideal(2, (1, 2))
        basis = c.component(1)
        assert basis.dimension == 1
        assert basis.vectors()[0] == x(1, 2) - x(2, 2)

    def test_intersection_small(self):
        ink = IntersectionInk(4, 3, QQ)
        assert ink.component(2).dimension == 2
        assert ink.dim(2) == 2

    def test_squarefree_component(self):
        ideal = SquarefreeDegreeIdeal(3, 2, QQ)
        basis = ideal.component(2)
        assert basis.dimension == 3
        monos = {v.leading_monomial() for v in basis.vectors()}
        assert monos == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert ideal.dim(4) == basis_dim_oracle(3, 2, 4)

    def test_quotient_component_invariant(self):
        ideal = specht_ideal(Partition((2, 2)))
        q = QuotientRing(ideal)
        for d in range(5):
            assert q.quotient_dim(d) + ideal.component(d).dimension == dim_degree(4, d)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: specht_ideal(Partition((2, 2))),
            lambda: clique_ideal(4, (1, 2, 3)),
            lambda: IntersectionInk(4, 3, QQ),
            lambda: SquarefreeDegreeIdeal(4, 2, QQ),
            lambda: SumIdealGeneric([specht_ideal(Partition((2, 2))), IntersectionInk(4, 3, QQ)]),
        ],
        ids=["generated", "partition", "intersection", "squarefree", "sum"],
    )
    def test_component_cached_per_degree(self, make):
        ideal = make()
        assert ideal.component(3) is ideal.component(3)

    @pytest.mark.parametrize(
        "n,k,d_max",
        [(5, 3, 4), (6, 4, 5)] + [(n, k, 6) for n in range(2, 7) for k in range(2, n + 1)],
    )
    def test_sparse_collapse_rank_matches_dense(self, n, k, d_max):
        gf = field_of(32003)
        dense = [IntersectionInk(n, k, gf).dim(d) for d in range(d_max + 1)]
        assert dense == [IntersectionInk(n, k, gf).component(d).dimension for d in range(d_max + 1)]
        for fld in (gf, QQ):
            ink = IntersectionInk(n, k, fld)
            assert [ink.dim(d) for d in range(d_max + 1)] == dense
        for fld in (QQ, field_of(2), field_of(3)):
            # the n-1 variable ranks against the full n-variable null space
            ink = IntersectionInk(n, k, fld)
            assert [ink.dim(d) for d in range(d_max + 1)] == [
                ink.component(d).dimension for d in range(d_max + 1)
            ]

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(2, 8) for k in range(2, n + 1)], ids=str
    )
    def test_collapse_against_clique_ideals(self, n, k):
        # dim, component and contains of I_{n,k} against the clique ideals
        # P_F alone; k >= n - 1 leaves no letter outside F in n - 1
        # variables, and every degree e <= n - k of J is pinned
        rng = random.Random(10 * n + k)
        for fld in (QQ, field_of(2), field_of(3)):
            ink = IntersectionInk(n, k, fld)
            cliques = [clique_ideal(n, F, fld) for F in combinations(range(1, n + 1), k)]
            for d in range(6):
                want = _clique_reference(cliques, d)
                assert ink.dim(d) == want.dimension, (fld, d)
                assert ink.component(d).rows == want.rows, (fld, d)
                monos = monomials_of_degree(n, d)
                vectors = want.vectors()
                polys = vectors + [v + Polynomial(n, fld, {monos[-1]: 1}) for v in vectors[:3]]
                for _ in range(4):
                    support = rng.sample(monos, min(3, len(monos)))
                    polys.append(Polynomial(n, fld, {m: rng.randint(-2, 2) for m in support}))
                for p in polys:
                    assert ink.contains(p) == all(c.contains(p) for c in cliques), (fld, d, p)
                assert all(ink.contains(v) for v in vectors)

    @pytest.mark.parametrize("p", [0, 2, 3, 32003])
    def test_collapse_dims_closed_forms(self, p):
        # I_{n,2} is principal on the Vandermonde product, of degree C(n,2),
        # and I_{n,n} is the ideal of all differences, with quotient K[t]
        fld = field_of(p)
        for n in range(2, 7):
            vandermonde, diagonal = IntersectionInk(n, 2, fld), IntersectionInk(n, n, fld)
            for d in range(8):
                assert vandermonde.dim(d) == dim_degree(n, d - comb(n, 2))
                assert diagonal.quotient_dim(d) == 1

    @pytest.mark.parametrize(
        "ideal,normal_forms",
        [
            (
                IntersectionInk(4, 3, QQ),
                ["x1*x4^2 + x2*x3^2 + x2*x3*x4 - x2*x4^2 - x3^2*x4", "x1^2*x4 - x2*x3*x4",
                 "x1*x4 + x2*x3 - x3*x4"],
            ),
            (clique_ideal(4, (1, 2, 3)), ["x3^3", "0", "x3^2"]),
            (
                SumIdealGeneric([specht_ideal(Partition((2, 2))), SquarefreeDegreeIdeal(4, 3, QQ)]),
                ["0", "x1^2*x4", "x1*x4 + x2*x3 - x3*x4"],
            ),
            (IntersectionInk(5, 3, field_of(3)), ["x1*x2*x3", "x1^2*x4 + 2*x2*x3*x4", "x1*x2"]),
        ],
        ids=["intersection-QQ", "partition", "sum", "intersection-GF3"],
    )
    def test_normal_forms(self, ideal, normal_forms):
        fld, m = ideal.field, ideal.nvars
        polys = [
            x(1, m, fld) * x(2, m, fld) * x(3, m, fld),
            x(1, m, fld) ** 2 * x(4, m, fld) - x(2, m, fld) * x(3, m, fld) * x(4, m, fld),
            x(1, m, fld) * x(2, m, fld),
        ]
        q = QuotientRing(ideal)
        assert [str(q.normal_form(p)) for p in polys] == normal_forms

    def test_generated_membership(self):
        ideal = specht_ideal(Partition((2, 2)))
        gen = ideal.gens[0]
        assert ideal.contains(gen * x(1, 4))
        assert not ideal.contains(x(1, 4) * x(2, 4))


def _clique_reference(cliques, d):
    """The degree-d component of the intersection of the clique ideals: the
    vectors whose coefficients sum to zero on every collapse fiber of every
    P_F, with the fibers read off ``PartitionIdealK.collapse_monomial``."""
    first = cliques[0]
    rows = [dict.fromkeys(group, 1) for c in cliques for group in c._fibers(d)]
    ech = Echelon(first.field)
    for v in null_space(rows, first.field, dim_degree(first.nvars, d)):
        ech.insert(v)
    return GradedBasis.from_echelon(ech, first.nvars, d)


def basis_dim_oracle(nvars, m, d):
    """Independent count of degree-d monomials with >= m distinct variables."""
    from itertools import product

    count = 0
    for exps in product(range(d + 1), repeat=nvars):
        if sum(exps) == d and sum(1 for e in exps if e) >= m:
            count += 1
    return count


_SPECHT_CASES = [
    (shape, p)
    for n in range(2, 7)
    for shape in enumerate_partitions(n)
    if not shape.is_trivial
    for p in (0, 2, 3)
]


def _case_id(val):
    return val.text() if isinstance(val, Partition) else f"char{val}"


class TestHilbert:
    def test_two_row_series(self):
        for n in (4, 5):
            ideal = specht_ideal(Partition((n - 2, 2)))
            dims = hilbert_function(ideal, 6)
            assert dims == series_expand([1, n - 2, 1], 2, 6)

    def test_zero_ideal(self):
        ideal = GeneratedIdeal(3, QQ, [])
        dims = hilbert_function(ideal, 4)
        assert dims == [dim_degree(3, d) for d in range(5)]

    @pytest.mark.parametrize("shape,p", _SPECHT_CASES, ids=_case_id)
    def test_reduction_chain_matches_direct(self, shape, p):
        # the regular-element shortcut agrees with raw elimination
        ideal = specht_ideal(shape, field_of(p))
        top = shape.parts[0] + 3
        chained = hilbert_function(ideal, top)
        direct = [
            dim_degree(shape.n, d) - ideal.component(d).dimension for d in range(top + 1)
        ]
        assert chained == direct

    def test_translation_invariance_detection(self):
        assert specht_ideal(Partition((2, 2))).translation_reduction() is not None
        gens = [x(1, 3) * x(2, 3)]
        assert GeneratedIdeal(3, QQ, gens).translation_reduction() is None

    @pytest.mark.parametrize("shape,p", _SPECHT_CASES, ids=_case_id)
    def test_generators_lose_xn_under_shift(self, shape, p):
        # every Specht generator is a polynomial in the x_i - x_n: expanding
        # g(x_1 + x_n, ..., x_{n-1} + x_n, x_n) leaves no x_n, which is the
        # fact the carried x_n -> 0 image rests on
        fld = field_of(p)
        n = shape.n
        xn = x(n, n, fld)
        shift = {i: x(i + 1, n, fld) + xn for i in range(n - 1)}
        for g in specht_ideal(shape, fld).gens:
            assert n - 1 not in g.substitute(shift).variables(), g

    @pytest.mark.parametrize("shape,p", _SPECHT_CASES, ids=_case_id)
    def test_carried_image_is_specialize_xn(self, shape, p):
        ideal = specht_ideal(shape, field_of(p))
        image = ideal.translation_reduction()
        assert image is ideal.translation_reduction()  # built once
        want = specialize_xn(ideal)
        assert (image.nvars, image.field) == (want.nvars, want.field)
        assert image.gens == want.gens


class TestEquality:
    def test_specht_vs_intersection_small(self):
        rep = equal_up_to_degree(Partition((2, 2)), QQ, 6)
        assert rep.equal and rep.first_disagreement is None
        assert rep.dims_left == rep.dims_right == [IntersectionInk(4, 3, QQ).dim(d) for d in range(7)]

    def test_unequal_with_witness(self):
        rep = equal_up_to_degree(Partition((3, 2, 1)), QQ, 4)
        assert not rep.equal
        assert rep.first_disagreement == 3
        sep = rep.separating
        assert sep is not None and sep.homogeneous_degree() == 3
        # the separating polynomial lies in the intersection only
        assert IntersectionInk(6, 4, QQ).contains(sep)
        assert not specht_ideal(Partition((3, 2, 1))).contains(sep)

    def test_pigeonhole_inclusion(self):
        # every Specht generator lies in I_{n,k} exactly when k > lambda_1:
        # two of any k letters then share a column of its tableau
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                if lam.is_trivial:
                    continue
                gens = specht_ideal(lam).gens
                for k in range(2, n + 1):
                    ink = IntersectionInk(n, k, QQ)
                    assert all(ink.contains(g) for g in gens) == (k > lam.parts[0]), (lam, k)


def _all_products(ideal, d_max):
    """Reference echelons of I_0..I_{d_max}: each degree spanned by every
    product x_i b of the previous degree's rows, plus its generators.

    Returns the echelons and the number of inserts that added nothing.
    """
    echs, dependent = [], 0
    for d in range(d_max + 1):
        ech = Echelon(ideal.field)
        rows = [poly_to_row(g, d) for g in ideal.gens if g.homogeneous_degree() == d]
        if d:
            tables = [_mult_table(ideal.nvars, d - 1, i) for i in range(ideal.nvars)]
            rows = [
                {t[c]: v for c, v in row.items()}
                for row in echs[-1].rows.values()
                for t in tables
            ] + rows
        for row in rows:
            dependent += ech.insert(row) is None
        echs.append(ech)
    return echs, dependent


def _assert_matches_all_products(ideal, d_max):
    ref, _ = _all_products(ideal, d_max)
    for d in range(d_max + 1):
        assert ideal._echelon(d).rows == ref[d].rows, d


def _random_ideal(rng, fld, top_degree=3):
    nvars = rng.randint(2, 4)
    gens = []
    for _ in range(rng.randint(1, 4)):
        monos = monomials_of_degree(nvars, rng.randint(1, top_degree))
        support = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        gens.append(Polynomial(nvars, fld, {m: rng.randint(-3, 3) for m in support}))
    return GeneratedIdeal(nvars, fld, [g for g in gens if not g.is_zero()])


class TestPrunedEchelon:
    """``GeneratedIdeal._echelon`` skips the products that Buchberger's chain
    criterion explains; its rows must equal those of all products."""

    @pytest.mark.parametrize(
        "shape",
        [s for n in range(2, 8) for s in enumerate_partitions(n) if not s.is_trivial],
        ids=Partition.text,
    )
    def test_specht_images(self, shape):
        for p in (0, 2, 3, 32003):
            image = specht_ideal(shape, field_of(p)).translation_reduction()
            _assert_matches_all_products(image, 7)

    def test_regular_reduction_quotient(self):
        image = specht_ideal(Partition((3, 3)), field_of(32003)).translation_reduction()
        work, _ = betti.regular_reduction(image, 8)
        assert work.nvars < image.nvars  # at least one form was accepted
        _assert_matches_all_products(work, 8)

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_random_mixed_degrees(self, p):
        rng = random.Random(100 + p)
        for _ in range(60):
            _assert_matches_all_products(_random_ideal(rng, field_of(p)), 6)

    def test_fewer_dependent_inserts(self, monkeypatch):
        # the pruning must stay: fewer than half the all-products
        # build's dependent inserts (the counts repeat exactly)
        d_max = 10
        image = specht_ideal(Partition((3, 3)), field_of(32003)).translation_reduction()
        _, reference = _all_products(image, d_max)
        dependent = 0
        insert = Echelon.insert

        def counting(self, row):
            nonlocal dependent
            pivot = insert(self, row)
            dependent += pivot is None
            return pivot

        monkeypatch.setattr(Echelon, "insert", counting)
        image._echelon(d_max)
        assert dependent < reference / 2, (dependent, reference)


def _ranked_quotient_dims(make, top):
    """dim (S/J)_d = dim S_d - rank J_d for d <= top, from the echelons of a
    fresh instance: the reference the certified count must match."""
    ideal = make()
    return [dim_degree(ideal.nvars, d) - ideal._echelon(d).rank for d in range(top + 1)]


def _assert_certified_dims_match(make, top):
    want = _ranked_quotient_dims(make, top)
    ideal = make()
    assert [ideal.quotient_dim(d) for d in range(top + 1)] == want
    downward = make()  # highest degree first: the count restarts below it
    assert [downward.quotient_dim(d) for d in range(top, -1, -1)] == want[::-1]


def _specht_image(shape, p):
    return lambda: specht_ideal(shape, field_of(p)).translation_reduction()


# the degrees at which the leading monomials of the x_n -> 0 image of
# I^Sp_lambda are certified to generate its initial ideal, the same over
# QQ, GF(2) and GF(32003); None: not by degree 8
_CERTIFIED_DEGREES = {
    (2, 2): 4, (3, 2): 4, (4, 2): 4, (5, 2): 4,
    (4, 1, 1): 5,
    (3, 3): 7, (4, 3): 7, (3, 2, 1): 7, (2, 2, 1): 7,
    (3, 3, 1): 11,
    (4, 4): None,
}


class TestCertifiedBasis:
    """Past the degree where Buchberger's criterion, with the product and
    chain criteria, certifies the leading monomials of a generated ideal,
    ``GeneratedIdeal.quotient_dim`` counts standard monomials instead of
    building I_d; the counts must equal the ranks of the echelons."""

    @pytest.mark.parametrize(
        "shape",
        [s for n in range(2, 8) for s in enumerate_partitions(n) if not s.is_trivial],
        ids=Partition.text,
    )
    def test_specht_images(self, shape):
        top = 9 if shape.n <= 6 else 7
        for p in (0, 2, 3):
            _assert_certified_dims_match(_specht_image(shape, p), top)

    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (4, 2)])
    @pytest.mark.parametrize("p", [0, 2])
    def test_socle_probe_sums(self, parts, p):
        shape, fld = Partition(parts), field_of(p)
        _assert_certified_dims_match(
            lambda: sum_ideal(specht_ideal(shape, fld), SquarefreeDegreeIdeal(shape.n, 3, fld)), 9
        )

    @pytest.mark.parametrize("p", [0, 2, 5])
    def test_random_mixed_degrees(self, p):
        certified = 0
        for seed in range(40):
            make = lambda: _random_ideal(random.Random(1000 * p + seed), field_of(p), 4)
            _assert_certified_dims_match(make, 12)
            certified += make()._certified_degree(12) is not None
        assert certified >= 30  # the count path is exercised

    def test_unit_and_zero_ideal(self):
        for p in (0, 2):
            fld = field_of(p)
            one = Polynomial.monomial(3, (0, 0, 0), 1, fld)
            _assert_certified_dims_match(lambda: GeneratedIdeal(3, fld, [one]), 6)
            _assert_certified_dims_match(lambda: GeneratedIdeal(3, fld, []), 6)
        zero = GeneratedIdeal(3, QQ, [])
        assert [zero.quotient_dim(d) for d in range(7)] == [dim_degree(3, d) for d in range(7)]
        assert zero._certified == 0

    @pytest.mark.parametrize("parts", sorted(_CERTIFIED_DEGREES), ids=str)
    def test_certified_degrees(self, parts):
        want = _CERTIFIED_DEGREES[parts]
        for p in (0, 2, 32003):
            image = _specht_image(Partition(parts), p)()
            image.quotient_dim(8 if want is None else want + 1)
            assert image._certified == want, p

    @pytest.mark.parametrize("parts", [(3, 3), (2, 2, 1), (4, 1, 1)], ids=str)
    def test_higher_echelons_built_first(self, parts):
        # leads past the degree being certified take no part in its pairs
        make = _specht_image(Partition(parts), 2)
        want = _ranked_quotient_dims(make, 10)
        image = make()
        image.component(9)
        assert [image.quotient_dim(d) for d in range(11)] == want
        assert image._certified == _CERTIFIED_DEGREES[parts]

    def test_no_new_lead_is_not_enough(self):
        # (3,3): no leading monomial is new in degree 5, yet one is in
        # degree 6, so the basis is not certified at 5
        image = _specht_image(Partition((3, 3)), 0)()
        hilbert_function(image, 6)
        degrees = {sum(u) for u in image._leads}
        assert 5 not in degrees and 6 in degrees
        assert image._tried == 6 and image._certified is None
        image.quotient_dim(7)
        assert image._certified == 7

    def test_no_echelon_past_the_certified_degree(self):
        ideal = specht_ideal(Partition((5, 2)))
        assert hilbert_function(ideal, 8) == series_expand([1, 5, 1], 2, 8)
        image = ideal.translation_reduction()
        assert image._certified == 4
        assert max(image._ech) == 4

    def test_no_generator_below_degree_three(self):
        fld = field_of(5)
        x1, x2, x3 = (x(i, 3, fld) for i in (1, 2, 3))
        gens = [x1 ** 3 - x2 * x3 ** 2, x2 ** 3 + x1 * x2 * x3, x1 ** 2 * x3 ** 2]
        make = lambda: GeneratedIdeal(3, fld, gens)
        _assert_certified_dims_match(make, 12)
        ideal = make()
        ideal.quotient_dim(12)
        assert ideal._certified is not None


class TestSpecialize:
    def test_hook_collapse(self):
        # phi(I^Sp_(2,1)) = (x1, x2)
        ideal = specht_ideal(Partition((2, 1)))
        phi = specialize_xn(ideal)
        assert phi.nvars == 2
        assert phi.dim(1) == 2

    def test_lemma_varphi_two_row(self):
        # phi(I^Sp_(3,2)) equals the frJ of mu = (3,1), componentwise
        phi = specialize_xn(specht_ideal(Partition((3, 2))))
        frj = GeneratedIdeal(4, QQ, TwoRowFrJ(4, 1, QQ).generator_polynomials())
        for d in range(6):
            assert phi.component(d) == frj.component(d)

    def test_lemma_varphi2_aa1(self):
        # phi(I^Sp_(2,2,1)) equals the x_i x_j f_T ideal of mu = (2,2)
        phi = specialize_xn(specht_ideal(Partition((2, 2, 1))))
        frj = GeneratedIdeal(4, QQ, AA1FrJ(2, QQ).generator_polynomials())
        for d in range(6):
            assert phi.component(d) == frj.component(d)

    def test_rejects_non_generated(self):
        with pytest.raises(ValueError):
            specialize_xn(IntersectionInk(4, 3, QQ))


class TestRadicalOfFrJ:
    @pytest.mark.parametrize(
        "n,lam1,mu_n,sqf_deg,dmax",
        [
            (4, 2, 3, 2, 6),  # lambda=(2,2):   phi(I_{4,3}) = I_{3,3} cap I_<2>
            (5, 2, 4, 3, 6),  # lambda=(2,2,1): phi(I_{5,3}) = I_{4,3} cap I_<3>
            (6, 3, 5, 3, 6),  # lambda=(3,3):   phi(I_{6,4}) = I_{5,4} cap I_<3>
            (7, 3, 6, 4, 6),  # lambda=(3,3,1): phi(I_{7,4}) = I_{6,4} cap I_<4>
        ],
    )
    def test_specialized_intersection(self, n, lam1, mu_n, sqf_deg, dmax):
        J = IntersectionInk(n, lam1 + 1, QQ)
        rhs_ink = IntersectionInk(n - 1, lam1 + 1, QQ)
        rhs_sqf = SquarefreeDegreeIdeal(n - 1, sqf_deg, QQ)
        for d in range(dmax + 1):
            lhs = specialize_component(J, d)
            rhs = intersect_spans(
                [rhs_ink.component(d), rhs_sqf.component(d)]
            )
            assert lhs == rhs, f"degree {d}"


class TestSocleAndMult:
    def build_A(self, n, ch):
        fld = QQ if ch == 0 else field_of(ch)
        m = n - 1
        return (
            sum_ideal(
                specht_ideal(Partition((n - 3, 2)), fld),
                SquarefreeDegreeIdeal(m, 3, fld),
            ),
            fld,
            m,
        )

    def test_socle_trivial_example(self):
        # K[x]/(x^2): the socle in degree 1 is spanned by x
        ideal = GeneratedIdeal(1, QQ, [x(1, 1) * x(1, 1)])
        basis = socle(ideal, 1)
        assert basis.dimension == 1
        assert basis.vectors()[0] == x(1, 1)

    def test_char2_socle_witness(self):
        for n in (5, 6):
            A, fld, m = self.build_A(n, 2)
            soc = socle(A, 2)
            assert soc.dimension >= 1
            wit = x(1, m, fld) * x(2, m, fld) + x(2, m, fld) * x(3, m, fld) + x(
                3, m, fld
            ) * x(1, m, fld)
            nf = QuotientRing(A).normal_form(wit)
            assert soc.contains(nf)

    @pytest.mark.parametrize(
        "n,ch,socle_basis,normal_forms",
        [
            (5, 2, ["x2*x3 + x2*x4 + x3*x4"], ["x2*x3 + x2*x4 + x3*x4", "x1^2 + x2*x4"]),
            (5, 0, [], ["2*x1*x4 + 3*x2*x3 - x2*x4 - x3*x4", "x1^2 - x2*x4"]),
            (6, 3, [], ["2*x1*x5 + 2*x2*x5 + 2*x3*x5", "x1^2 + 2*x2*x5 + 2*x3*x4 + x3*x5"]),
        ],
    )
    def test_socle_and_normal_forms(self, n, ch, socle_basis, normal_forms):
        A, fld, m = self.build_A(n, ch)
        assert [str(v) for v in socle(A, 2).vectors()] == socle_basis
        wit = x(1, m, fld) * x(2, m, fld) + x(2, m, fld) * x(3, m, fld) + x(
            3, m, fld
        ) * x(1, m, fld)
        other = x(1, m, fld) * x(1, m, fld) - x(4, m, fld) * x(2, m, fld)
        q = QuotientRing(A)
        assert [str(q.normal_form(p)) for p in (wit, other)] == normal_forms

    def test_char0_socle_vanishes(self):
        for n in (5, 6):
            A, _, _ = self.build_A(n, 0)
            assert socle(A, 2).dimension == 0

    def test_mult_injective_examples(self):
        # x on K[x]/(x^3) in degree 1
        ideal = GeneratedIdeal(1, QQ, [x(1, 1) ** 3])
        rep = mult_injective(x(1, 1), ideal, 1)
        assert rep.injective

        # e1 on A for n = 6, char 0, degree 2: bijective with dims 10 -> 10
        A, fld, m = self.build_A(6, 0)
        e1 = sum((x(i, m, fld) for i in range(2, m + 1)), x(1, m, fld))
        rep = mult_injective(e1, A, 2)
        assert rep.bijective and rep.dim_source == rep.dim_target == 10

        # same over characteristic 2: not injective
        A2, fld2, m2 = self.build_A(6, 2)
        e1 = sum((x(i, m2, fld2) for i in range(2, m2 + 1)), x(1, m2, fld2))
        rep2 = mult_injective(e1, A2, 2)
        assert not rep2.injective

    def test_dims_2n_minus_2(self):
        for n in (5, 6, 7):
            for ch in (0, 2):
                A, _, _ = self.build_A(n, ch)
                for m_deg in (3, 4, 5):
                    assert A.quotient_dim(m_deg) == 2 * (n - 1)


class TestSumIdeal:
    def test_flattens_generated(self):
        a = specht_ideal(Partition((2, 2)))
        b = SquarefreeDegreeIdeal(4, 3, QQ)
        s = sum_ideal(a, b)
        assert isinstance(s, GeneratedIdeal)

    def test_generic_sum_matches_flatten(self):
        a = specht_ideal(Partition((2, 2)))
        b = SquarefreeDegreeIdeal(4, 3, QQ)
        flat = sum_ideal(a, b)
        from spechtideals.ideals import SumIdealGeneric

        generic = SumIdealGeneric([a, b])
        for d in range(5):
            assert flat.component(d) == generic.component(d)

    def test_partition_ideal_gens(self):
        # partition ideals expose their difference generators, so sums flatten
        p = PartitionIdealK(3, QQ, [(1, 2), (3,)])
        s = sum_ideal(p, SquarefreeDegreeIdeal(3, 2, QQ))
        assert isinstance(s, GeneratedIdeal)
        assert s.component(1).dimension == 1
        # the kernel realization and the generator realization agree
        g = GeneratedIdeal(3, QQ, p.generator_list())
        for d in range(4):
            assert g.component(d) == p.component(d)


# ---------------------------------------------------------------------------
# Forced columns: pinned multiples of monomial generators, normal forms read
# off reduced rows, the support cut of I_{n,k}, and no I^Sp below its degree


def _monomial_multiples(ideal, d):
    """The degree-d columns that a monomial generator of lower degree divides."""
    gens = [m for g in ideal.gens if len(g.terms) == 1 for m in g.terms if sum(m) < d]
    return {
        j
        for j, mono in enumerate(monomials_of_degree(ideal.nvars, d))
        if any(all(a >= b for a, b in zip(mono, g)) for g in gens)
    }


def _product_ranks(ideal, d_max):
    """mu_d for d <= d_max from echelons of all the products x_i b: the
    rank the degree-d generators add to them."""
    echs, mu = _all_products(ideal, d_max)[0], []
    for d in range(d_max + 1):
        ech = Echelon(ideal.field)
        if d:
            tables = [_mult_table(ideal.nvars, d - 1, i) for i in range(ideal.nvars)]
            for row in echs[d - 1].rows.values():
                for t in tables:
                    ech.insert({t[c]: v for c, v in row.items()})
        mu.append(echs[d].rank - ech.rank)
    return mu


_PROBE_SUMS = [(n - 2, 2) for n in range(4, 8)] + [(n - 3, 3) for n in range(6, 8)]


class TestPinnedColumns:
    """``GeneratedIdeal._echelon`` sets the multiples of lower-degree
    monomial generators as rows {u: 1} and drops their columns from every
    row it inserts; the echelons must be those of every product, and
    mu_d the rank the degree-d generators add beyond the products."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("p", [0, 2, 3])
    @pytest.mark.parametrize("parts", _PROBE_SUMS, ids=str)
    def test_socle_probe_sum_matches_generic(self, parts, p, m):
        shape, fld = Partition(parts), field_of(p)
        flat = sum_ideal(specht_ideal(shape, fld), SquarefreeDegreeIdeal(shape.n, m, fld))
        generic = SumIdealGeneric([specht_ideal(shape, fld), SquarefreeDegreeIdeal(shape.n, m, fld)])
        for d in range(7):
            assert flat.component(d) == generic.component(d), d

    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("p", [0, 2])
    def test_pinned_columns_reach_no_insert(self, monkeypatch, parts, p):
        shape, fld = Partition(parts), field_of(p)
        ideal = sum_ideal(specht_ideal(shape, fld), SquarefreeDegreeIdeal(shape.n, 3, fld))
        inserted = []
        real = Echelon.insert
        monkeypatch.setattr(Echelon, "insert", lambda self, row: inserted.append(dict(row)) or real(self, row))
        for d in range(7):
            inserted.clear()
            ech = ideal._echelon(d)  # the lower degrees are built already
            pinned = _monomial_multiples(ideal, d)
            assert all(ech.rows[u] == {u: 1} for u in pinned), d
            assert all(row and not pinned & row.keys() for row in inserted), d
            assert bool(pinned) == (d > 3), d

    @pytest.mark.parametrize("p", [0, 2, 5])
    def test_random_ideals_with_monomial_generators(self, p):
        fld = field_of(p)
        for seed in range(30):
            rng = random.Random(500 * p + seed)
            base = _random_ideal(rng, fld)
            n = base.nvars
            monos = [rng.choice(monomials_of_degree(n, rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
            ideal = GeneratedIdeal(n, fld, list(base.gens) + [Polynomial(n, fld, {m: 1}) for m in monos])
            _assert_matches_all_products(ideal, 5)
            assert [ideal.minimal_generators(d) for d in range(6)] == _product_ranks(ideal, 5), seed


def _artinian_quotients():
    """Every Artinian image of I^Sp with n <= 6, over QQ, GF(2), GF(3^5) and
    GF(32003): integer forms drawn over GF(32003) serve QQ, GF(2) and
    GF(32003), and GF(3^5) draws its own."""
    out = []
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            if shape.is_trivial:
                continue
            for draw in (field_of(32003), field_of(3, 5)):
                drawn = betti.artinian_draw(shape, draw, [])
                if drawn is None:
                    continue
                images, _, h = drawn
                targets = [draw] if draw.degree > 1 else [QQ, field_of(2), draw]
                for fld in targets:
                    out.append((shape, fld, betti.artinian_ideal(shape, images, fld), len(h)))
    return out


def _assert_maps_are_normal_forms(ideal, top):
    q = ideal.quotient_ring()
    for t in range(top + 1):
        cols = q.basis_columns(t)
        for i in range(ideal.nvars):
            table = _mult_table(ideal.nvars, t, i)
            want = [q.reduce_row({table[j]: 1}, t + 1) for j in cols]
            assert q.mult_map(i, t) == want, (t, i)


class TestMultMapNormalForms:
    """``QuotientRing.mult_map`` reads each normal form off the reduced rows
    of I_{d+1}; it must equal ``reduce_row`` of the monomial."""

    def test_artinian_quotients(self):
        cases = _artinian_quotients()
        assert len(cases) > 40
        for shape, fld, ideal, top in cases:
            _assert_maps_are_normal_forms(ideal, top)

    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_socle_probe_ideals(self, parts, p):
        shape, fld = Partition(parts), field_of(p)
        ideal = sum_ideal(specht_ideal(shape, fld), SquarefreeDegreeIdeal(shape.n, 3, fld))
        _assert_maps_are_normal_forms(ideal, 4)


def _full_incidence(ink, d):
    """Reference for ``IntersectionInk.component``: the null space of one 0/1
    row per collapse fiber of each k-subset on every degree-d monomial of
    all n variables, no column pinned.  The fibers are the monomials that
    agree outside F."""
    monos = monomials_of_degree(ink.nvars, d)
    rows = []
    for F in combinations(range(ink.nvars), ink.k):
        fibers = {}
        for j, mono in enumerate(monos):
            fibers.setdefault(tuple(e for i, e in enumerate(mono) if i not in F), []).append(j)
        rows += [dict.fromkeys(group, 1) for group in fibers.values()]
    ech = Echelon(ink.field)
    for v in null_space(rows, ink.field, len(monos)):
        ech.insert(v)
    return GradedBasis.from_echelon(ech, ink.nvars, d)


class TestIntersectionSupportCut:
    """``IntersectionInk.component`` solves only on the monomials with more
    than n - k letters; the rest have coefficient 0 in every element."""

    @pytest.mark.parametrize("fld", [QQ, field_of(2), field_of(3), field_of(2, 2)], ids=repr)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_component_equals_full_incidence(self, fld, n):
        for k in range(2, n + 1):
            ink = IntersectionInk(n, k, fld)
            for d in range(4 if n == 7 else 5):
                assert ink.component(d).rows == _full_incidence(ink, d).rows, (k, d)
                assert ink.component(d).dimension == ink.dim(d), (k, d)

    @pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (6, 4), (6, 2)])
    def test_only_monomials_past_n_minus_k_letters_are_solved(self, monkeypatch, n, k):
        seen = []
        real = ideals.null_space
        monkeypatch.setattr(ideals, "null_space", lambda rows, fld, ncols: seen.append(ncols) or real(rows, fld, ncols))
        ink = IntersectionInk(n, k, QQ)
        for d in range(5):
            ink.component(d)
        free = [sum(1 for mono in monomials_of_degree(n, d) if n - mono.count(0) > n - k) for d in range(5)]
        assert seen == free


class TestNoSpechtBelowItsDegree:
    """``equal_up_to_degree`` reads dim I^Sp_d as 0 below the generator
    degree and builds the Specht ideal only when it reaches that degree."""

    @pytest.mark.parametrize("parts, bound", [((3, 2, 1), 7), ((4, 2, 1), 6)])
    @pytest.mark.parametrize("char", ["0", "2", "3"])
    def test_non_radical_shapes_build_no_specht_system(self, monkeypatch, parts, bound, char):
        def no_build(*args):
            raise AssertionError("SpechtSystem.build was called")

        monkeypatch.setattr(SpechtSystem, "build", no_build)
        shape = ",".join(map(str, parts))
        report, code = cli.run(["radical-check", "--shape", shape, "--max-deg", str(bound), "--char", char])
        verdicts = {v["name"]: v["value"] for v in report.to_jsonable()["verdicts"]}
        assert code == 1 and verdicts["first_disagreeing_degree"] == 3

    def test_reports_unchanged(self):
        # sha256 of the rendered reports, as the bounded comparison gave them
        # when it built I^Sp from degree 0
        out = []
        for shape, bound in [("3,2,1", "7"), ("4,2,1", "6")]:
            for char in "023":
                argv = ["radical-check", "--shape", shape, "--max-deg", bound, "--char", char]
                report, code = cli.run(argv)
                out.append([argv, code, report.render(report.config.output_format)])
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == "61e5fc070cede41d57693bdedf965966b8934ef9d2c0aa4ed57eeea5f1c3d712"

    def test_equal_shapes_build_it_at_the_generator_degree(self, monkeypatch):
        built = []
        real = SpechtSystem.build
        monkeypatch.setattr(SpechtSystem, "build", lambda shape, fld: built.append(shape) or real(shape, fld))
        rep = equal_up_to_degree(Partition((3, 3)), QQ, 5)
        assert rep.equal and rep.dims_left[:3] == [0, 0, 0] and built == [Partition((3, 3))]
