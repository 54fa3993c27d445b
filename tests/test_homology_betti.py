"""Koszul Betti tables, Euler-characteristic consistency, CM verdicts."""

import random
import sys
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from conftest import perfbench_module

from spechtideals import betti, varieties
from spechtideals.betti import (
    PROXY_PRIMES,
    artinian_field,
    artinian_ideal,
    artinian_reduction,
    cm_verdict,
    default_j_max,
    flat_refusal,
    koszul_betti,
)
from spechtideals.fields import QQ, field_of
from spechtideals.ideals import GeneratedIdeal, QuotientRing, hilbert_function, mult_injective, specht_ideal
from spechtideals.linalg import echelon_span, rank_sparse
from spechtideals.poly import Polynomial, poly_to_row
from spechtideals.specht import specht_poly_degree
from spechtideals.tableaux import Partition
from spechtideals.varieties import ResourceLimitError, SelfCheckError, minimal_primes

F = field_of(32003)


def is_system_of_parameters(images, primes, fld):
    """Reference: whether the ring map x_a -> images[a-1] leaves only the
    origin of the vanishing locus, i.e. its linear forms are a system of
    parameters, by one rank per minimal prime.

    images[a-1] is the coefficient vector of the linear form x_a maps to.
    The preimage of the component V_pi is cut out by the differences
    images[a-1] - images[b-1] over the letters a, b of one block, so it is
    the origin exactly when those rows have full rank.
    """
    nfree = len(images[0])
    for pi in primes:
        rows = []
        for block in pi.blocks:
            base = images[block[0] - 1]
            for a in block[1:]:
                rows.append({
                    i: c - b for i, (c, b) in enumerate(zip(images[a - 1], base)) if c != b
                })
        if rank_sparse(rows, fld) < nfree:
            return False
    return True


def _hilbert_decides(shape, images, fld):
    """The decision ``artinian_reduction`` makes: the quotient by the image
    vanishes in degree lambda_1 (D - 1) + 1."""
    top = shape.parts[0] * (specht_poly_degree(shape) - 1)
    return hilbert_function(artinian_ideal(shape, images, fld), top + 1)[-1] == 0


def _refuse_listing(monkeypatch):
    """Make every binding of ``varieties.minimal_primes`` in the package raise."""
    real = varieties.minimal_primes

    def refuse(shape):
        raise AssertionError("the minimal primes were listed")

    for name, mod in list(sys.modules.items()):
        if name.startswith("spechtideals") and getattr(mod, "minimal_primes", None) is real:
            monkeypatch.setattr(mod, "minimal_primes", refuse)


def maximal_ideal(n, fld=F):
    return GeneratedIdeal(n, fld, [Polynomial.variable(n, i, fld) for i in range(n)])


class TestKoszul:
    def test_residue_field(self):
        for n in (3, 4):
            table = koszul_betti(maximal_ideal(n), n + 1)
            assert table.entries == {(i, i): comb(n, i) for i in range(n + 1)}

    def test_zero_quotient(self):
        # R/I = 0, as for the trivial shape: an empty table, not a crash
        table = koszul_betti(GeneratedIdeal(2, F, [Polynomial.constant(2, 1, F)]), 3)
        assert table.entries == {} and table.artinian_end is None

    def test_three_three_char_zero_proxy(self):
        tables = []
        for p in PROXY_PRIMES:
            t = koszul_betti(specht_ideal(Partition((3, 3)), field_of(p)), 8)
            tables.append(t)
        assert tables[0].entries == tables[1].entries
        assert tables[0].entries == {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5}
        assert tables[0].totals() == [1, 5, 9, 5]

    def test_three_three_char_two(self):
        t = koszul_betti(specht_ideal(Partition((3, 3)), field_of(2)), 8)
        assert t.entries == {
            (0, 0): 1,
            (1, 3): 5,
            (2, 5): 9,
            (3, 6): 5,
            (3, 7): 1,
            (4, 7): 1,
        }
        assert t.totals() == [1, 5, 9, 6, 1]

    def test_m2_diagram_layout(self):
        t = koszul_betti(specht_ideal(Partition((3, 3)), field_of(2)), 8)
        lines = t.m2_lines()
        assert lines[0] == "total: 1 5 9 6 1"
        assert [ln.strip() for ln in lines[1:]] == [
            "0: 1 . . . .",
            "1: . . . . .",
            "2: . 5 . . .",
            "3: . . 9 5 1",
            "4: . . . 1 .",
        ]

    def test_beta_zero_and_one(self):
        # beta_0 is 1 at degree 0 only; beta_1 totals the generator count
        for parts, mu_count in (((2, 2), 2), ((3, 3), 5)):
            t = koszul_betti(specht_ideal(Partition(parts), F), 8)
            assert t.entry(0, 0) == 1
            assert sum(v for (i, j), v in t.entries.items() if i == 0) == 1
            assert sum(v for (i, j), v in t.entries.items() if i == 1) == mu_count

    def test_euler_characteristic_per_degree(self):
        # alternating sums of chain and homology dimensions agree
        ideal = specht_ideal(Partition((2, 2)), F)
        j_max = 6
        table = koszul_betti(ideal, j_max)
        work = ideal.translation_reduction()
        q = QuotientRing(work)
        m = work.nvars
        for j in range(j_max + 1):
            chain = sum(
                (-1) ** i * comb(m, i) * q.quotient_dim(j - i)
                for i in range(min(m, j) + 1)
                if j - i >= 0
            )
            homology = sum(
                (-1) ** i * v for (i, jj), v in table.entries.items() if jj == j
            )
            assert chain == homology

    def test_rational_exact_matches_proxy(self):
        t_exact = koszul_betti(specht_ideal(Partition((2, 2)), QQ), 6)
        t_proxy = koszul_betti(specht_ideal(Partition((2, 2)), F), 6)
        assert t_exact.entries == t_proxy.entries

    def test_column_cap(self, monkeypatch):
        monkeypatch.setattr(betti, "_COLUMN_CAP", 10)
        with pytest.raises(ResourceLimitError):
            koszul_betti(specht_ideal(Partition((3, 3)), F), 8)

    @pytest.mark.parametrize("p, cap", [(32003, 10), (2, 10), (2, 40), (3, 20)])
    def test_column_cap_fires_before_any_matrix(self, monkeypatch, p, cap):
        # every chain dimension is known from the Hilbert function, so the
        # cap names the first oversized matrix without building one
        def no_matrix(*args):
            raise AssertionError("a Koszul matrix was built")

        monkeypatch.setattr(QuotientRing, "mult_map", no_matrix)
        monkeypatch.setattr(betti, "_COLUMN_CAP", cap)
        ideal = specht_ideal(Partition((3, 3)), field_of(p))
        work, qdim = betti.regular_reduction(ideal.translation_reduction(), 8)
        m = work.nvars
        first = next(
            (i, j, comb(m, i - 1) * qdim[j - i + 1])
            for j in range(9) for i in range(1, min(m, j) + 1)
            if qdim[j - i] and comb(m, i - 1) * qdim[j - i + 1] > cap
        )
        with pytest.raises(ResourceLimitError) as exc:
            koszul_betti(ideal, 8)
        i, j, cols = first
        assert str(exc.value) == (
            f"Koszul matrix at (i={i}, j={j}) has {cols} columns; cap is {cap}"
        )


# Koszul tables at the default j_max as computed by ranking the complex of
# the x_n -> 0 image in all n - 1 variables, before the regular reduction;
# every case here took under 1 s that way.
GOLDEN_TABLES = {
    ((1, 1), 2): {(0, 0): 1, (1, 1): 1},
    ((1, 1), 3): {(0, 0): 1, (1, 1): 1},
    ((1, 1), 5): {(0, 0): 1, (1, 1): 1},
    ((1, 1), 32003): {(0, 0): 1, (1, 1): 1},
    ((2, 1), 2): {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    ((2, 1), 3): {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    ((2, 1), 5): {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    ((2, 1), 32003): {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    ((1, 1, 1), 2): {(0, 0): 1, (1, 3): 1},
    ((1, 1, 1), 3): {(0, 0): 1, (1, 3): 1},
    ((1, 1, 1), 5): {(0, 0): 1, (1, 3): 1},
    ((1, 1, 1), 32003): {(0, 0): 1, (1, 3): 1},
    ((3, 1), 2): {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1},
    ((3, 1), 3): {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1},
    ((3, 1), 5): {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1},
    ((3, 1), 32003): {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1},
    ((2, 2), 2): {(0, 0): 1, (1, 2): 2, (2, 4): 1},
    ((2, 2), 3): {(0, 0): 1, (1, 2): 2, (2, 4): 1},
    ((2, 2), 5): {(0, 0): 1, (1, 2): 2, (2, 4): 1},
    ((2, 2), 32003): {(0, 0): 1, (1, 2): 2, (2, 4): 1},
    ((2, 1, 1), 2): {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1},
    ((2, 1, 1), 3): {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1},
    ((2, 1, 1), 5): {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1},
    ((2, 1, 1), 32003): {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1},
    ((1, 1, 1, 1), 2): {(0, 0): 1, (1, 6): 1},
    ((1, 1, 1, 1), 3): {(0, 0): 1, (1, 6): 1},
    ((1, 1, 1, 1), 5): {(0, 0): 1, (1, 6): 1},
    ((1, 1, 1, 1), 32003): {(0, 0): 1, (1, 6): 1},
    ((4, 1), 2): {(0, 0): 1, (1, 1): 4, (2, 2): 6, (3, 3): 4, (4, 4): 1},
    ((4, 1), 3): {(0, 0): 1, (1, 1): 4, (2, 2): 6, (3, 3): 4, (4, 4): 1},
    ((4, 1), 5): {(0, 0): 1, (1, 1): 4, (2, 2): 6, (3, 3): 4, (4, 4): 1},
    ((4, 1), 32003): {(0, 0): 1, (1, 1): 4, (2, 2): 6, (3, 3): 4, (4, 4): 1},
    ((3, 2), 2): {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1},
    ((3, 2), 3): {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1},
    ((3, 2), 5): {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1},
    ((3, 2), 32003): {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1},
    ((3, 1, 1), 2): {
        (0, 0): 1, (1, 3): 6, (2, 4): 4, (2, 5): 4, (3, 5): 1, (3, 6): 1, (3, 7): 1,
    },
    ((3, 1, 1), 3): {
        (0, 0): 1, (1, 3): 6, (2, 4): 4, (2, 5): 4, (3, 5): 1, (3, 6): 1, (3, 7): 1,
    },
    ((3, 1, 1), 5): {
        (0, 0): 1, (1, 3): 6, (2, 4): 4, (2, 5): 4, (3, 5): 1, (3, 6): 1, (3, 7): 1,
    },
    ((3, 1, 1), 32003): {
        (0, 0): 1, (1, 3): 6, (2, 4): 4, (2, 5): 4, (3, 5): 1, (3, 6): 1, (3, 7): 1,
    },
    ((2, 2, 1), 2): {(0, 0): 1, (1, 4): 5, (2, 5): 4, (2, 6): 1, (3, 6): 1},
    ((2, 2, 1), 3): {(0, 0): 1, (1, 4): 5, (2, 5): 4},
    ((2, 2, 1), 5): {(0, 0): 1, (1, 4): 5, (2, 5): 4},
    ((2, 2, 1), 32003): {(0, 0): 1, (1, 4): 5, (2, 5): 4},
    ((2, 1, 1, 1), 2): {(0, 0): 1, (1, 6): 4, (2, 7): 1, (2, 8): 1, (2, 9): 1},
    ((2, 1, 1, 1), 3): {(0, 0): 1, (1, 6): 4, (2, 7): 1, (2, 8): 1, (2, 9): 1},
    ((2, 1, 1, 1), 5): {(0, 0): 1, (1, 6): 4, (2, 7): 1, (2, 8): 1, (2, 9): 1},
    ((2, 1, 1, 1), 32003): {(0, 0): 1, (1, 6): 4, (2, 7): 1, (2, 8): 1, (2, 9): 1},
    ((5, 1), 2): {(0, 0): 1, (1, 1): 5, (2, 2): 10, (3, 3): 10, (4, 4): 5, (5, 5): 1},
    ((5, 1), 3): {(0, 0): 1, (1, 1): 5, (2, 2): 10, (3, 3): 10, (4, 4): 5, (5, 5): 1},
    ((5, 1), 5): {(0, 0): 1, (1, 1): 5, (2, 2): 10, (3, 3): 10, (4, 4): 5, (5, 5): 1},
    ((5, 1), 32003): {(0, 0): 1, (1, 1): 5, (2, 2): 10, (3, 3): 10, (4, 4): 5, (5, 5): 1},
    ((4, 2), 2): {(0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1},
    ((4, 2), 3): {(0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1},
    ((4, 2), 5): {(0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1},
    ((4, 2), 32003): {(0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1},
    ((4, 1, 1), 2): {
        (0, 0): 1, (1, 3): 10, (2, 4): 10, (2, 5): 10, (3, 5): 5, (3, 6): 5, (3, 7): 5,
        (4, 6): 1, (4, 7): 1, (4, 8): 1,
    },
    ((4, 1, 1), 3): {
        (0, 0): 1, (1, 3): 10, (2, 4): 10, (2, 5): 10, (3, 5): 5, (3, 6): 5, (3, 7): 5,
        (4, 6): 1, (4, 7): 1, (4, 8): 1,
    },
    ((4, 1, 1), 5): {
        (0, 0): 1, (1, 3): 10, (2, 4): 10, (2, 5): 10, (3, 5): 5, (3, 6): 5, (3, 7): 5,
        (4, 6): 1, (4, 7): 1, (4, 8): 1,
    },
    ((4, 1, 1), 32003): {
        (0, 0): 1, (1, 3): 10, (2, 4): 10, (2, 5): 10, (3, 5): 5, (3, 6): 5, (3, 7): 5,
        (4, 6): 1, (4, 7): 1, (4, 8): 1,
    },
    ((3, 3), 2): {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5, (3, 7): 1, (4, 7): 1},
    ((3, 3), 3): {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5},
    ((3, 3), 5): {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5},
    ((3, 3), 32003): {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5},
    ((3, 2, 1), 2): {(0, 0): 1, (1, 4): 16, (2, 5): 24, (3, 6): 5, (3, 7): 5, (4, 9): 1},
    ((3, 2, 1), 3): {
        (0, 0): 1, (1, 4): 16, (2, 5): 24, (3, 6): 5, (3, 7): 6, (3, 8): 1, (4, 7): 1,
        (4, 8): 1, (4, 9): 1,
    },
}


class TestRegularReduction:
    @pytest.mark.parametrize("parts, p", sorted(GOLDEN_TABLES))
    def test_golden_table(self, parts, p):
        # beta_{i,j} does not depend on the bound, so a smaller bound must
        # give the golden table cut at that degree; a form accepted without
        # its check at degree j_max itself breaks the top strand
        shape = Partition(parts)
        ideal = specht_ideal(shape, field_of(p))
        golden = GOLDEN_TABLES[parts, p]
        for j_max in range(specht_poly_degree(shape), default_j_max(shape) + 1):
            table = koszul_betti(ideal, j_max)
            assert table.entries == {key: v for key, v in golden.items() if key[1] <= j_max}

    @pytest.mark.parametrize("parts, p, reduced", [
        ((3, 3), 2, (5, 4)),  # every GF(2) form lies in a minimal prime
        ((3, 3), 32003, (5, 3)),  # down to an Artinian quotient
        ((5, 2), 3, (6, 5)),
        ((4, 1, 1), 2, (5, 5)),  # some block always has coefficient sum 0
        ((2, 2, 1), 3, (4, 3)),
    ])
    def test_accepted_forms_are_injective_below_j_max(self, monkeypatch, parts, p, reduced):
        shape = Partition(parts)
        j_max = default_j_max(shape)
        steps = []
        real = betti._divide_by_form

        def spy(ideal, coeffs):
            image = real(ideal, coeffs)
            steps.append((ideal, coeffs, image))
            return image

        monkeypatch.setattr(betti, "_divide_by_form", spy)
        start = specht_ideal(shape, field_of(p)).translation_reduction()
        work, qdim = betti.regular_reduction(start, j_max)
        assert (start.nvars, work.nvars) == reduced
        assert qdim == [work.quotient_dim(t) for t in range(j_max + 1)]
        accepted = [s for s in steps if any(t[0] is s[2] for t in steps) or s[2] is work]
        assert len(accepted) == start.nvars - work.nvars
        for ideal, coeffs, image in accepted:
            # the quotient's Hilbert function is the first difference ...
            h = [ideal.quotient_dim(t) for t in range(j_max + 1)]
            assert [image.quotient_dim(t) for t in range(j_max + 1)] == [
                h[t] - (h[t - 1] if t else 0) for t in range(j_max + 1)
            ]
            # ... exactly because the form is injective below j_max
            k = ideal.nvars
            form = Polynomial.variable(k, k - 1, ideal.field)
            for a, c in enumerate(coeffs):
                form = form + Polynomial.variable(k, a, ideal.field).scale(c)
            for t in range(j_max):
                assert mult_injective(form, ideal, t).injective

    @pytest.mark.parametrize("parts, tried", [((3, 3), 2), ((4, 1, 1), 1)])
    def test_gf2_divides_by_each_candidate_once(self, monkeypatch, parts, tried):
        # over GF(2) every nonzero coefficient is 1, so each seeded draw
        # repeats the all-ones form: a step tries it once
        calls = []
        real = betti._divide_by_form

        def spy(ideal, coeffs):
            calls.append((ideal, coeffs))
            return real(ideal, coeffs)

        monkeypatch.setattr(betti, "_divide_by_form", spy)
        shape = Partition(parts)
        start = specht_ideal(shape, field_of(2)).translation_reduction()
        betti.regular_reduction(start, default_j_max(shape))
        for k, (ideal, coeffs) in enumerate(calls):
            assert not any(i is ideal and c == coeffs for i, c in calls[:k]), (k, coeffs)
        assert len(calls) == tried

    def test_artinian_quotient_is_not_reduced(self):
        # the Artinian reduction's quotient is zero in degree j_max already
        table = koszul_betti(maximal_ideal(4), 5)
        assert table.reduced == (4, 4)


class TestCmVerdict:
    def test_two_row_gorenstein(self):
        for parts in ((2, 2), (3, 2), (4, 2)):
            v = cm_verdict(Partition(parts), 0)
            assert v.is_cm and v.is_gorenstein
            assert v.depth == v.dim == 2
            assert v.table.totals()[-1] == 1

    def test_three_three_char_sensitivity(self):
        v0 = cm_verdict(Partition((3, 3)), 0)
        assert v0.is_cm and not v0.is_gorenstein
        assert v0.pd == 3 and v0.depth == 3 == v0.dim
        v2 = cm_verdict(Partition((3, 3)), 2)
        assert not v2.is_cm
        assert v2.pd == 4 and v2.depth == 2 < v2.dim

    def test_char0_cm_spot_checks(self):
        # characteristic 0: two-row and (a,a,1) quotients are Cohen-Macaulay
        v = cm_verdict(Partition((4, 2)), 0)
        assert v.is_cm
        v = cm_verdict(Partition((2, 2, 1)), 0)
        assert v.is_cm

    def test_depth_equals_dim_for_cm(self):
        for parts in ((2, 2), (3, 2), (2, 2, 1)):
            v = cm_verdict(Partition(parts), 0)
            assert v.is_cm
            assert v.depth == v.dim == Partition(parts).n - Partition(parts).parts[0]

    def test_exact_rational_flag(self):
        v = cm_verdict(Partition((2, 2)), 0, exact_rational=True)
        assert v.is_cm and any("exact rational" in t for t in v.trace)
        assert v.certificate.kind == "artinian-length"
        assert v.certificate.fields == ("GF(32003)", "QQ")

    def test_exact_rational_needs_characteristic_zero(self):
        with pytest.raises(ValueError, match="characteristic 0"):
            cm_verdict(Partition((2, 2)), 2, exact_rational=True)

    def test_refusal_names_the_last_bound(self, monkeypatch):
        # the strands are tried at j_max, j_max + 2 and j_max + 4
        # (3,3) over GF(2) is not CM, so it takes the Koszul path
        monkeypatch.setattr(betti.BettiTable, "closed_off", property(lambda self: False))
        shape = Partition((3, 3))
        with pytest.raises(ResourceLimitError) as exc:
            cm_verdict(shape, 2)
        assert str(exc.value) == (
            f"Betti strands of {shape} not closed off by j_max={default_j_max(shape) + 4}"
        )

    def test_closed_off_reported(self):
        v = cm_verdict(Partition((3, 3)), 2)
        assert v.table.closed_off

    @pytest.mark.parametrize("p", [3, 7])
    def test_artinian_socle_past_the_bound_is_not_closed_off(self, p):
        # (6,2) over GF(p) reduces to an Artinian quotient in m = 6
        # variables with top degree s = 2; its socle gives beta_{6,8} at
        # m + s = 8, past the default j_max 7, so the bound is extended
        table = koszul_betti(specht_ideal(Partition((6, 2)), field_of(p)), 7)
        assert table.artinian_end == 8 and not table.closed_off
        v = cm_verdict(Partition((6, 2)), p)
        assert v.is_cm and v.pd == 6
        assert v.table.entry(6, 8) == 1 and v.table.closed_off

    def test_trace_names_the_regular_reduction(self):
        v = cm_verdict(Partition((3, 3)), 2)
        assert v.trace == [
            "length 16 over GF(2^8) exceeds e(V) = 15",
            "Koszul ranks over GF(2): 1 linear form(s) divided out, 5 -> 4 variables",
        ]
        v = cm_verdict(Partition((3, 3)), 0, j_max=8)
        assert v.trace == [
            f"Koszul ranks over GF({p}): 2 linear form(s) divided out, 5 -> 3 variables"
            for p in PROXY_PRIMES
        ]

    def test_default_j_max_covers_fixture(self):
        assert default_j_max(Partition((3, 3))) >= 8

    def test_k_polynomial_matches_hilbert(self):
        # alternating Betti sums give the Hilbert numerator: strong
        # cross-check between the Koszul ranks and the component dimensions
        from spechtideals.ideals import series_expand
        from spechtideals.betti import default_j_max

        for parts, ch in (((2, 2), 0), ((3, 3), 2), ((2, 2, 1), 0)):
            shape = Partition(parts)
            n = shape.n
            fld = field_of(32003) if ch == 0 else field_of(ch)
            table = koszul_betti(specht_ideal(shape, fld), default_j_max(shape))
            assert table.closed_off
            numerator: dict[int, int] = {}
            for (i, j), v in table.entries.items():
                numerator[j] = numerator.get(j, 0) + (-1) ** i * v
            j_top = 8
            coeffs = [numerator.get(j, 0) for j in range(j_top + 1)]
            expected = series_expand(coeffs, n, j_top)
            assert hilbert_function(specht_ideal(shape, fld), j_top) == expected

    def test_dim_matches_enumerated_height(self):
        # the Krull dimension used by the verdict equals n minus the height
        # found by minimal-prime enumeration
        from spechtideals.varieties import height_and_purity

        for parts in ((2, 2), (3, 2), (2, 2, 1)):
            shape = Partition(parts)
            v = cm_verdict(shape, 0)
            rep = height_and_purity(shape)
            assert v.dim == shape.n - rep.height


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _cm_in_char0(parts):
    """The paper's classification: (a,1,...,1), (a,b) and (a,a,1)."""
    return len(parts) > 1 and (
        parts[1] == 1
        or len(parts) == 2
        or (len(parts) == 3 and parts[0] == parts[1] and parts[2] == 1)
    )


CM_CHAR0_UP_TO_6 = [p for n in range(2, 7) for p in _partitions(n) if _cm_in_char0(p)]
# hooks with a long leg: their Koszul table takes 8-23 s, or exceeds the
# column cap, so the Hilbert series checks them instead
LONG_LEGS = [(3, 1, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]


def _closed_koszul(shape):
    """The Koszul table over GF(32003), its bound raised until it closes."""
    j_max = default_j_max(shape)
    while True:
        table = koszul_betti(specht_ideal(shape, F), j_max)
        if table.closed_off:
            return table
        j_max += 2


class TestArtinianReduction:
    @pytest.mark.parametrize(
        "parts", [p for p in CM_CHAR0_UP_TO_6 if p not in LONG_LEGS]
    )
    def test_table_equals_the_koszul_table(self, parts):
        shape = Partition(parts)
        v = cm_verdict(shape, 0)
        assert v.certificate.kind == "artinian-length"
        assert v.is_cm and v.table.closed_off and v.pd == parts[0]
        assert v.table.n == shape.n
        assert v.table.entries == _closed_koszul(shape).entries

    @pytest.mark.parametrize("parts", LONG_LEGS)
    def test_table_gives_the_hilbert_series(self, parts):
        # sum_i (-1)^i beta_{i,j} t^j / (1-t)^n is the Hilbert series of R/I
        from spechtideals.ideals import series_expand

        shape = Partition(parts)
        v = cm_verdict(shape, 0)
        assert v.certificate.kind == "artinian-length"
        assert v.is_cm and v.table.closed_off and v.pd == parts[0]
        numerator: dict[int, int] = {}
        for (i, j), beta in v.table.entries.items():
            numerator[j] = numerator.get(j, 0) + (-1) ** i * beta
        top = max(numerator) + 1
        expected = series_expand([numerator.get(j, 0) for j in range(top + 1)], shape.n, top)
        assert hilbert_function(specht_ideal(shape, F), top) == expected
        if len(parts) == shape.n:  # one column: the principal Vandermonde ideal
            assert v.table.entries == {(0, 0): 1, (1, comb(shape.n, 2)): 1}

    def test_three_three_one_frontier(self):
        v = cm_verdict(Partition((3, 3, 1)), 0)
        cert = v.certificate
        assert (cert.kind, cert.length, cert.multiplicity) == ("artinian-length", 35, 35)
        assert cert.h_vector == (1, 3, 6, 10, 15)
        assert v.table.entries == {(0, 0): 1, (1, 5): 21, (2, 6): 35, (3, 7): 15}
        assert v.is_cm and not v.is_gorenstein

    def test_two_row_strand_after_a_gap(self):
        # (6,2): beta_{6,8} = 1 sits two degrees past beta_{5,6}, beyond
        # the Koszul path's default bound, which reads pd 5 and non-CM
        v = cm_verdict(Partition((6, 2)), 0)
        assert v.certificate.kind == "artinian-length"
        assert v.pd == 6 and v.is_cm and v.is_gorenstein
        assert v.table.entry(6, 8) == 1

    def test_non_cm_length_exceeds_multiplicity(self, monkeypatch):
        # (3,2,1): L = 20 > e(V) = 15, so the forms are not a regular sequence
        seen = []
        real = betti.artinian_ideal

        def spy(shape, images, fld):
            seen.append(fld)
            return real(shape, images, fld)

        monkeypatch.setattr(betti, "artinian_ideal", spy)
        fields = [field_of(p) for p in PROXY_PRIMES]
        tables, measured = artinian_reduction(Partition((3, 2, 1)), fields)
        assert tables is None
        assert (measured["length"], measured["multiplicity"]) == (20, 15)
        assert seen == fields[:1]  # the second prime is never tried

    def test_large_koszul_complex_skipped(self):
        # (5,1,1,1): e(V) 2^5 = 30912 basis elements exceed the column cap
        trace = []
        tables, measured = artinian_reduction(Partition((5, 1, 1, 1)), [F], trace)
        assert tables is None and measured == {"multiplicity": 966}
        assert "exceeds the column cap" in trace[-1]

    @pytest.mark.parametrize("parts", [(5, 1, 1, 1), (9, 9)])
    def test_column_cap_gate_before_any_listing(self, monkeypatch, parts):
        # e(V) comes from the profile counts: the gate fires before anything
        # is listed ((9,9) has 43,758 minimal primes)
        _refuse_listing(monkeypatch)
        trace = []
        tables, _ = artinian_reduction(Partition(parts), [F], trace)
        assert tables is None
        assert trace[-1].startswith("no Artinian reduction: e(V) 2^lambda_1 = ")
        assert trace[-1].endswith("exceeds the column cap")

    def test_certified_without_any_listing(self, monkeypatch):
        # every characteristic-0 cm-check shape of the cm-grid workload is
        # certified with the minimal primes never listed
        _refuse_listing(monkeypatch)
        wl = perfbench_module("workloads").WORKLOADS["cm-grid"]
        shapes = sorted({
            q["argv"][2] for q in wl.once + wl.fixed
            if q["kind"] == "cli" and q["argv"][0] == "cm-check" and q["argv"][4] == "0"
        })
        assert "3,3,1" in shapes and len(shapes) >= 10
        for text in shapes:
            v = cm_verdict(Partition.from_text(text), 0)
            assert v.certificate.kind == "artinian-length", text

    def test_degenerate_draw_refused(self):
        shape = Partition((3, 3))
        primes = minimal_primes(shape)
        units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        # x_4 -> x_1 keeps the line of every component joining 1 and 4
        images = units + [[1, 0, 0], [2, 3, 5]] + [[0, 0, 0]]
        assert not is_system_of_parameters(images, primes, F)
        assert not _hilbert_decides(shape, images, F)
        assert artinian_ideal(shape, images, F).quotient_dim(12) > 0

    def test_refused_draws_fall_back_to_koszul(self, monkeypatch):
        # the zero ideal's quotient never vanishes, so every draw misses
        monkeypatch.setattr(
            betti, "artinian_ideal", lambda shape, images, fld: GeneratedIdeal(len(images[0]), fld, [])
        )
        v = cm_verdict(Partition((2, 2)), 0)
        assert v.certificate.kind == "heuristic"
        assert v.certificate.length is None and v.certificate.multiplicity == 4
        assert sum("not a system of parameters" in t for t in v.trace) == betti._SOP_DRAWS
        assert v.is_cm and v.table.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_rank_test_agrees_with_hilbert_function(self):
        # degenerate and full-range draws on every shape with n <= 6 that
        # needs forms, over a small, a middle and the proxy characteristic
        rng = random.Random(1)
        seen = set()
        for n in range(3, 7):
            for parts in _partitions(n):
                shape = Partition(parts)
                lam1, d = parts[0], n - 1 - parts[0]
                if d <= 0:
                    continue
                primes = minimal_primes(shape)
                units = [[int(i == a) for i in range(lam1)] for a in range(lam1)]
                for p in (2, 5, 32003):
                    fld = field_of(p)
                    for top in (2, 4, p):
                        for _ in range(5):
                            forms = [[rng.randrange(top) for _ in range(lam1)] for _ in range(d)]
                            images = units + forms + [[0] * lam1]
                            sop = is_system_of_parameters(images, primes, fld)
                            assert _hilbert_decides(shape, images, fld) == sop, (parts, p, forms)
                            seen.add(sop)
        assert seen == {True, False}

    def test_no_forms_needed_for_hooks_with_one_leg(self):
        # (a,1): the translation sequence alone leaves the residue field
        v = cm_verdict(Partition((4, 1)), 0)
        cert = v.certificate
        assert (cert.kind, cert.multiplicity, cert.length) == ("artinian-length", None, 1)
        assert v.table.entries == {(i, i): comb(4, i) for i in range(5)}

    def test_certified_past_n9(self):
        # (8,2): the minimal primes at n = 10 give e(V) = C(10, 9)
        v = cm_verdict(Partition((8, 2)), 0)
        cert = v.certificate
        assert (cert.kind, cert.length, cert.multiplicity) == ("artinian-length", 10, comb(10, 9))
        assert v.is_cm and v.pd == 8

    def test_degree_bound_keeps_the_koszul_path(self):
        v = cm_verdict(Partition((3, 3)), 0, j_max=8)
        assert v.certificate.kind == "heuristic" and v.table.j_max == 8
        assert v.certificate.length is None


NONTRIVIAL_UP_TO_7 = [p for n in range(2, 8) for p in _partitions(n) if len(p) > 1]


def _long_hook(parts):
    """(a,1^k) with a >= 3 and k >= 2: the hooks the flat rule leaves to
    the second proxy prime."""
    return parts[0] >= 3 and len(parts) >= 3 and parts[1] == 1


class TestFlatRule:
    """Characteristic 0 on one prime: a certified GF(32003) table with
    L = e(V) and at most one entry in each internal degree is the rational
    table (``betti.flat_refusal``); other certified tables are ranked over
    the second proxy prime too."""

    def test_one_field_tables_are_the_rational_ones(self):
        # every certified shape with n <= 7 lists one field but the long
        # hooks; its table is the GF(1000003) table of that prime's own
        # forms and, for n <= 6, the exact rational one
        proxies = [field_of(p) for p in PROXY_PRIMES]
        pinned, both = [], []
        for parts in NONTRIVIAL_UP_TO_7:
            shape = Partition(parts)
            if artinian_reduction(shape, proxies[:1])[0] is None:
                continue  # not CM: the Koszul path, on both primes
            v = cm_verdict(shape, 0)
            assert v.certificate.kind == "artinian-length", parts
            if v.certificate.fields != ("GF(32003)",):
                assert v.certificate.fields == ("GF(32003)", "GF(1000003)"), parts
                both.append(parts)
                continue
            pinned.append(parts)
            assert v.trace[-1] == "pinned over GF(32003) by flatness"
            over = proxies + ([QQ] if shape.n <= 6 else [])
            tables, _ = artinian_reduction(shape, over)
            for fld, table in zip(over, tables):
                assert table.entries == v.table.entries, (parts, fld)
        assert both == [p for p in NONTRIVIAL_UP_TO_7 if _long_hook(p)]
        assert len(pinned) == 23

    @pytest.mark.parametrize("parts, degrees", [
        ((3, 1, 1), "degree 5 holds"),
        ((4, 1, 1), "degrees 5, 6, 7 hold"),
        ((3, 1, 1, 1), "degrees 8, 9 hold"),
    ])
    def test_two_entries_in_one_degree_take_the_second_prime(self, parts, degrees):
        shape = Partition(parts)
        (table,), measured = artinian_reduction(shape, [F])
        reason = f"{degrees} more than one entry"
        assert flat_refusal(table, measured["length"], measured["multiplicity"]) == reason
        v = cm_verdict(shape, 0)
        assert v.trace == [f"second prime: {reason}"]
        assert v.certificate.fields == ("GF(32003)", "GF(1000003)")
        assert v.certificate.length == measured["length"]

    def test_length_above_e_v_is_refused(self):
        (table,), _ = artinian_reduction(Partition((2, 2)), [F])
        assert flat_refusal(table, 4, 4) is None
        assert flat_refusal(table, 5, 4) == "length 5 is not e(V) = 4"

    def test_no_forms_still_compare_the_length(self, monkeypatch):
        # (3,1) needs no forms, so its length 1 is checked against e(V) by
        # the rule alone: an e(V) of 2 sends it to the second prime
        monkeypatch.setattr(
            betti, "height_and_purity", lambda shape: varieties.PurityReport(
                shape=shape, height=3, pure=True, heights_seen=(3,),
                closed_form_pure=True, top_primes=2,
            )
        )
        v = cm_verdict(Partition((3, 1)), 0)
        assert v.trace == ["second prime: length 1 is not e(V) = 2"]
        assert v.certificate.fields == ("GF(32003)", "GF(1000003)")

    def test_second_prime_disagreement_raises(self, monkeypatch):
        # the long hooks' two tables must agree
        real = betti.artinian_reduction

        def skewed(shape, fields, trace=None):
            tables, measured = real(shape, fields, trace)
            if tables is not None and fields[0].characteristic == PROXY_PRIMES[1]:
                tables = [replace(t, entries={**t.entries, (2, 6): 1}) for t in tables]
            return tables, measured

        monkeypatch.setattr(betti, "artinian_reduction", skewed)
        assert cm_verdict(Partition((2, 2)), 0).certificate.fields == ("GF(32003)",)
        with pytest.raises(betti.ProxyDisagreement, match="GF\\(1000003\\)"):
            cm_verdict(Partition((4, 1, 1)), 0)

    def test_table_reports_characteristic_zero(self):
        for parts in [(2, 2), (4, 1, 1)]:
            assert cm_verdict(Partition(parts), 0).table.characteristic == 0
        assert cm_verdict(Partition((3, 3)), 0, j_max=8).table.characteristic == 0
# the pairs (shape, p), n <= 7 and p in (2, 3, 5), whose Artinian reduction
# over ``artinian_field`` does not certify; every other pair is proved CM
NOT_CERTIFIED = {
    # L > e(V): not CM in these characteristics
    (2, 2, 1): (2,),
    (3, 3): (2,),
    (4, 3): (2,),
    (3, 3, 1): (2, 3),
    (3, 2, 1): (2, 3, 5),
    (2, 2, 2): (2, 3, 5),
    (2, 2, 1, 1): (2, 3, 5),
    (4, 2, 1): (2, 3, 5),
    (3, 2, 2): (2, 3, 5),
    (3, 2, 1, 1): (2, 3, 5),
    (2, 2, 2, 1): (2, 3, 5),
    (2, 2, 1, 1, 1): (2, 3, 5),
    # no system of parameters in _SOP_DRAWS draws over GF(2^8) and GF(5^4)
    (4, 1, 1, 1): (2,),
    (3, 1, 1, 1, 1): (5,),
}
# Koszul tables at the default j_max that take more than a second to
# compute (up to three minutes), as ``betti --char p`` printed them before
# the certified table took their place
_HOOK_2_1_1_1_1 = {(0, 0): 1, (1, 10): 5, (2, 11): 1, (2, 12): 1, (2, 13): 1, (2, 14): 1}
SLOW_KOSZUL = {
    ((3, 1, 1, 1), 2): {
        (0, 0): 1, (1, 6): 10, (2, 7): 5, (2, 8): 5, (2, 9): 5, (3, 8): 1, (3, 9): 1,
        (3, 10): 2, (3, 11): 1, (3, 12): 1,
    },
    ((4, 1, 1, 1), 5): {
        (0, 0): 1, (1, 6): 20, (2, 7): 15, (2, 8): 15, (2, 9): 15, (3, 8): 6, (3, 9): 6,
        (3, 10): 12, (3, 11): 6, (3, 12): 6, (4, 9): 1, (4, 10): 1, (4, 11): 2, (4, 12): 2,
    },
    ((3, 3, 1), 5): {(0, 0): 1, (1, 5): 21, (2, 6): 35, (3, 7): 15},
    ((2, 1, 1, 1, 1), 2): _HOOK_2_1_1_1_1,
    ((2, 1, 1, 1, 1), 3): _HOOK_2_1_1_1_1,
    ((2, 1, 1, 1, 1), 5): _HOOK_2_1_1_1_1,
    ((1,) * 6, 2): {(0, 0): 1, (1, 15): 1},
    ((1,) * 7, 3): {(0, 0): 1, (1, 21): 1},
    ((1,) * 7, 5): {(0, 0): 1, (1, 21): 1},
}
# pairs whose Koszul table at the default j_max exceeds the column cap
# (``betti`` exited 3) or ran for more than two minutes: the Hilbert series
# checks their certified table instead
UNFINISHED = [
    ((4, 1, 1, 1), 3),
    ((3, 1, 1, 1, 1), 2),
    ((3, 1, 1, 1, 1), 3),
    ((2, 1, 1, 1, 1, 1), 2),
    ((2, 1, 1, 1, 1, 1), 3),
    ((2, 1, 1, 1, 1, 1), 5),
    ((1,) * 7, 2),
]


class TestPositiveCharacteristic:
    """In characteristic p, ``cm_verdict`` and ``betti`` first try the
    Artinian reduction over ``artinian_field``; L = e(V) there proves CM
    over GF(p) and gives the complete Betti table."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("parts", NONTRIVIAL_UP_TO_7, ids=str)
    def test_certified_table_is_the_koszul_table(self, parts, p):
        shape = Partition(parts)
        fld = artinian_field(shape, p)
        if p in NOT_CERTIFIED.get(parts, ()):
            # the Koszul path, as before: cm_verdict and betti fall back
            tables, _ = artinian_reduction(shape, [fld])
            assert tables is None
            return
        v = cm_verdict(shape, p)
        assert v.certificate.kind == "artinian-length"
        assert v.certificate.fields == (repr(fld),)
        # the Koszul path gave CM, exit code 0, on every such pair
        assert v.is_cm and v.table.closed_off and v.pd == parts[0]
        j_max = default_j_max(shape)
        cut = {key: beta for key, beta in v.table.entries.items() if key[1] <= j_max}
        if (parts, p) in UNFINISHED:
            from spechtideals.ideals import series_expand

            numerator: dict[int, int] = {}
            for (i, j), beta in v.table.entries.items():
                numerator[j] = numerator.get(j, 0) + (-1) ** i * beta
            top = max(numerator) + 1
            expected = series_expand([numerator.get(j, 0) for j in range(top + 1)], shape.n, top)
            assert hilbert_function(specht_ideal(shape, field_of(p)), top) == expected
            return
        koszul = SLOW_KOSZUL.get((parts, p))
        if koszul is None:
            koszul = koszul_betti(specht_ideal(shape, field_of(p)), j_max).entries
        assert cut == koszul

    @pytest.mark.parametrize("parts, p, fld, h_vector", [
        ((2, 2, 1), 3, "GF(3^5)", (1, 2, 3, 4)),
        ((3, 3), 3, "GF(3^5)", (1, 3, 6, 5)),
        ((5, 3), 3, "GF(3^5)", (1, 5, 15, 7)),
        ((3, 3, 1), 5, "GF(5^4)", (1, 3, 6, 10, 15)),
        ((4, 1), 2, "GF(2)", (1,)),  # no forms: GF(p) itself
    ])
    def test_certified_cases(self, parts, p, fld, h_vector):
        v = cm_verdict(Partition(parts), p)
        cert = v.certificate
        assert (cert.kind, cert.fields, cert.h_vector) == ("artinian-length", (fld,), h_vector)
        assert cert.length == sum(h_vector) and v.is_cm
        assert cert.multiplicity == (None if len(h_vector) == 1 else sum(h_vector))

    @pytest.mark.parametrize("parts", [(3, 3), (2, 2, 1)])
    def test_still_heuristic_over_gf2(self, parts):
        v = cm_verdict(Partition(parts), 2)
        cert = v.certificate
        assert (cert.kind, cert.fields) == ("heuristic", ("GF(2)",))
        assert cert.length is cert.multiplicity is cert.h_vector is None
        assert not v.is_cm and "exceeds e(V)" in v.trace[0]

    def test_refused_draws_leave_no_trace(self, monkeypatch):
        # the zero ideal's quotient never vanishes, so every draw misses
        monkeypatch.setattr(
            betti, "artinian_ideal", lambda shape, images, fld: GeneratedIdeal(len(images[0]), fld, [])
        )
        v = cm_verdict(Partition((2, 2)), 3)
        assert v.certificate == betti.Certificate(
            "heuristic", "betti.koszul_betti(I^Sp_(2,2), j_max=7)", ("GF(3)",), 7
        )
        assert sum("not a system of parameters" in t for t in v.trace) == betti._SOP_DRAWS
        assert v.is_cm and v.table.entries == GOLDEN_TABLES[(2, 2), 3]

    def test_skipped_attempt_leaves_no_trace(self, monkeypatch):
        # e(V) 2^lambda_1 = 16 columns past a cap of 15; the Koszul path
        # of (2,2) ends in two variables, within it
        monkeypatch.setattr(betti, "_COLUMN_CAP", 15)
        v = cm_verdict(Partition((2, 2)), 3)
        assert "exceeds the column cap" in v.trace[0]
        assert v.certificate.kind == "heuristic"
        assert v.certificate.length is v.certificate.multiplicity is None
        assert v.table.entries == GOLDEN_TABLES[(2, 2), 3]

    @pytest.mark.parametrize("parts, p", [((6, 2), 3), ((5, 2), 3), ((4, 1, 1), 2)])
    def test_betti_reads_the_certified_table_up_to_the_bound(self, parts, p):
        # the complete table's socle lies at or past the default bound: the
        # cut is not closed off, as the Koszul table up to the bound was not
        shape = Partition(parts)
        j_max = default_j_max(shape)
        (table,), _ = artinian_reduction(shape, [artinian_field(shape, p)])
        cut = table.up_to(j_max)
        assert table.artinian_end >= j_max and not cut.closed_off
        koszul = koszul_betti(specht_ideal(shape, field_of(p)), j_max)
        assert (cut.entries, cut.j_max, cut.closed_off) == (koszul.entries, j_max, koszul.closed_off)


def _ranked_table(ideal, j_max):
    """The Betti table with every Koszul map d_i, d_1 and d_2 included,
    built from ``QuotientRing.mult_map`` and ranked by ``rank_sparse``, on
    the reduced ideal ``koszul_betti`` ranks."""
    start = ideal.translation_reduction() or ideal
    work, qdim = betti.regular_reduction(start, j_max)
    m, fld = work.nvars, work.field
    q = QuotientRing(work)

    def chain_dim(i, j):
        return comb(m, i) * qdim[j - i] if 0 <= i <= m and 0 <= j - i <= j_max else 0

    faces = {i: {s: k for k, s in enumerate(combinations(range(m), i))} for i in range(m + 1)}
    ranks = {}
    for j in range(1, j_max + 1):
        for i in range(1, min(m, j) + 1):
            t = j - i
            if not (chain_dim(i, j) and chain_dim(i - 1, j)):
                continue
            rows = []
            for subset in faces[i]:
                for src in range(qdim[t]):
                    row = {}
                    for pos, s in enumerate(subset):
                        col = faces[i - 1][subset[:pos] + subset[pos + 1:]] * qdim[t + 1]
                        sign = fld.neg(1) if pos % 2 else 1
                        fld.add_scaled(row, sign, q.mult_map(s, t)[src], col)
                    rows.append(row)
            ranks[i, j] = rank_sparse(rows, fld)
    entries = {}
    for j in range(j_max + 1):
        for i in range(min(m, j) + 1):
            beta = chain_dim(i, j) - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if beta:
                entries[i, j] = beta
    return entries


NONTRIVIAL_UP_TO_6 = [p for n in range(2, 7) for p in _partitions(n) if len(p) > 1]


def _brute_minimal_generators(gens, nvars, fld, top):
    """mu_d for d <= top: the rank the degree-d generators add to all the
    products x_i b, b a basis of I_{d-1}, with no product skipped."""
    xs = [Polynomial.variable(nvars, i, fld) for i in range(nvars)]
    basis, mu = [], []
    for d in range(top + 1):
        products = [x * b for b in basis for x in xs]
        new = [g for g in gens if g.homogeneous_degree() == d]
        span = rank_sparse([poly_to_row(p, d) for p in products], fld)
        full = echelon_span(products + new, d, field=fld, nvars=nvars)
        mu.append(full.dimension - span)
        basis = full.vectors()
    return mu


class TestDerivedRanks:
    """``koszul_betti`` reads rank d_1 = q_j and rank d_2 = m q_{j-1} - q_j
    - mu_j instead of ranking those maps."""

    @pytest.mark.parametrize("p", [2, 3, 32003])
    @pytest.mark.parametrize("parts", NONTRIVIAL_UP_TO_6, ids=str)
    def test_table_equals_every_map_ranked(self, parts, p):
        shape = Partition(parts)
        ideal = specht_ideal(shape, field_of(p))
        j_max = specht_poly_degree(shape) + 3
        assert koszul_betti(ideal, j_max).entries == _ranked_table(ideal, j_max)

    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (2, 2, 1)])
    def test_table_equals_every_map_ranked_over_qq(self, parts):
        ideal = specht_ideal(Partition(parts), QQ)
        j_max = default_j_max(Partition(parts))
        assert koszul_betti(ideal, j_max).entries == _ranked_table(ideal, j_max)

    @pytest.mark.parametrize("fld", [QQ, field_of(2), F], ids=repr)
    def test_minimal_generators_match_brute_force(self, fld):
        x, y, z = (Polynomial.variable(3, i, fld) for i in range(3))
        gens = [
            x * y - z * z,
            x * z,
            y ** 3,
            x * x * z + y * y * z,
            z * (x * z),  # a multiple of x z: no minimal generator
            x ** 4 - y ** 4,
        ]
        ideal = GeneratedIdeal(3, fld, gens)
        top = 6
        mu = _brute_minimal_generators(gens, 3, fld, top)
        assert [ideal.minimal_generators(d) for d in range(top + 1)] == mu
        assert mu[3] == 2  # y^3 and x^2 z + y^2 z; z (x z) is redundant
        assert sum(mu) == 5

    @pytest.mark.parametrize("fld", [QQ, field_of(2), F], ids=repr)
    def test_monomial_generator_in_the_products(self, fld):
        # x1^3 lies in S_1 I_2 although no lower-degree monomial divides it,
        # so it adds no minimal generator, while x1 x2 is pinned in degree 3
        x1, x2 = (Polynomial.variable(2, i, fld) for i in range(2))
        gens = [x1 * x1 - x1 * x2, x1 * x2, x1 ** 3]
        ideal = GeneratedIdeal(2, fld, gens)
        mu = _brute_minimal_generators(gens, 2, fld, 5)
        assert [ideal.minimal_generators(d) for d in range(6)] == mu
        assert ideal.minimal_generators(3) == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_one_variable_artinian_tables(self, k, p):
        # (1^k) has lambda_1 = 1: its Artinian image lies in one variable,
        # every generator is a multiple of y^D, D = C(k, 2), the echelons
        # above D are all pinned, and the table is that of K[y]/(y^D)
        shape, degree = Partition((1,) * k), comb(k, 2)
        _, art, h = betti.artinian_draw(shape, artinian_field(shape, p), [])
        assert art.nvars == 1 and all(len(g.terms) == 1 for g in art.gens)
        assert h == [1] * degree
        table = koszul_betti(art, degree + 2)
        assert table.entries == _ranked_table(art, degree + 2) == {(0, 0): 1, (1, degree): 1}

    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_two_variables_build_no_matrix(self, monkeypatch, p):
        # (2,2) reduces to two variables, where d_1 and d_2 are every map
        def no_matrix(*args):
            raise AssertionError("a Koszul matrix was built")

        monkeypatch.setattr(QuotientRing, "mult_map", no_matrix)
        table = koszul_betti(specht_ideal(Partition((2, 2)), field_of(p)), 7)
        assert table.reduced[1] <= 2
        assert table.entries == GOLDEN_TABLES[(2, 2), p]

    @pytest.mark.parametrize("parts, p", [((2, 2), 2), ((2, 2), 3), ((2, 2, 1), 32003)])
    def test_two_variables_build_no_echelon_past_the_certificate(self, monkeypatch, parts, p):
        # mu_j is 0 without J_j where no generator has degree j, and the
        # Hilbert function is counted past the certified degree, so a table
        # that ends in two variables builds no echelon above both
        works = []
        reduce = betti.regular_reduction

        def spy(ideal, j_max):
            out = reduce(ideal, j_max)
            works.append(out[0])
            return out

        monkeypatch.setattr(betti, "regular_reduction", spy)
        shape = Partition(parts)
        table = koszul_betti(specht_ideal(shape, field_of(p)), default_j_max(shape))
        (work,) = works
        assert table.reduced[1] == work.nvars <= 2
        assert table.entries == GOLDEN_TABLES[parts, p]
        assert work._certified is not None
        assert max(work._ech) <= max(work._certified, max(work._by_degree))
        assert max(work._ech) < table.j_max

    def test_certified_verdict_builds_no_matrix(self, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("a Koszul matrix was built")

        monkeypatch.setattr(QuotientRing, "mult_map", no_matrix)
        v = cm_verdict(Partition((2, 2)), 0)
        assert v.certificate.kind == "artinian-length"
        assert v.table.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_derived_rank_out_of_range_is_a_self_check_error(self, monkeypatch):
        # a generator count that makes rank d_2 negative must not print
        monkeypatch.setattr(GeneratedIdeal, "minimal_generators", lambda self, d: 10**6)
        with pytest.raises(SelfCheckError, match=r"Koszul rank -\d+ at \(i=2"):
            koszul_betti(specht_ideal(Partition((3, 3)), F), 8)
