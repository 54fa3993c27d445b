"""Specht polynomials, the support set, straightening, and reduction replay."""

import hashlib
import json
import random
from itertools import combinations

import pytest
from conftest import perfbench_module

from spechtideals.fields import QQ, field_of
from spechtideals.linalg import echelon_span, span_and_kernel
from spechtideals.poly import Polynomial, mono_mul, mono_support
from spechtideals.specht import (
    AA1FrJ,
    MembershipCertificate,
    SelfCheckError,
    SpechtSystem,
    TwoRowClass,
    TwoRowFrJ,
    _RANK_TERM_CAP,
    _three_term,
    aa1_h_and_bar,
    all_two_row_classes,
    h_poly,
    in_X,
    in_Y,
    in_Z,
    independence_rank,
    make_class,
    replay_aa1_reduction,
    replay_radical_reduction,
    sigma_reduce,
    specht_poly,
    specht_poly_degree,
    straighten_quasi_h,
    supp,
    tableau_to_class,
)
from spechtideals.tableaux import (
    Partition,
    Tableau,
    count_standard_tableaux,
    enumerate_standard_tableaux,
)
from spechtideals.varieties import ResourceLimitError


def x(i, nvars, fld=QQ):
    return Polynomial.variable(nvars, i - 1, fld)


def sqf(letters, nvars):
    e = [0] * nvars
    for i in letters:
        e[i - 1] = 1
    return tuple(e)


class TestSpechtPoly:
    def test_worked_example(self):
        t = Tableau.from_text("3,5,1,7/6,2/4")
        n = 7
        expected = (
            (x(3, n) - x(6, n))
            * (x(3, n) - x(4, n))
            * (x(6, n) - x(4, n))
            * (x(5, n) - x(2, n))
        )
        assert specht_poly(t) == expected

    def test_single_column_pair(self):
        t = Tableau(((1,), (2,)))
        assert specht_poly(t) == x(1, 2) - x(2, 2)

    def test_swap_negates(self):
        a = Tableau.from_text("1,3/2,4")
        b = Tableau.from_text("2,3/1,4")
        assert specht_poly(b) == specht_poly(a).scale(-1)

    def test_two_row_terms_squarefree(self):
        for parts in ((3, 2), (4, 3), (3, 3)):
            for t in enumerate_standard_tableaux(Partition(parts)):
                f = specht_poly(t)
                assert all(all(e <= 1 for e in m) for m in f.terms)

    def test_degree_formula(self):
        assert specht_poly_degree(Partition((4, 2, 1))) == 4
        assert specht_poly_degree(Partition((3, 3))) == 3
        assert specht_poly_degree(Partition((1, 1, 1, 1))) == 6

    def test_system_invariant(self):
        sys = SpechtSystem.build(Partition((3, 2)), QQ)
        assert len(sys.generators) == 5
        for t, f in sys.generators:
            assert f == specht_poly(t, QQ)
            assert f.homogeneous_degree() == 2


class TestSupp:
    def test_paper_example(self):
        p = x(1, 3) * x(2, 3) ** 3 - (x(2, 3) * x(3, 3)) ** 2 * 3
        got = supp(p)
        expected = {
            sqf((), 3),
            sqf((1,), 3),
            sqf((2,), 3),
            sqf((3,), 3),
            sqf((1, 2), 3),
            sqf((2, 3), 3),
        }
        assert got == expected

    def test_zero(self):
        assert supp(Polynomial.zero(3)) == set()

    def test_difference(self):
        p = x(1, 2) - x(2, 2)
        assert supp(p) == {sqf((), 2), sqf((1,), 2), sqf((2,), 2)}

    @pytest.mark.parametrize("nvars,npairs", [(4, 1), (5, 2), (6, 2), (7, 3), (6, 3)])
    def test_free_letters_are_the_two_row_frj_letters(self, nvars, npairs):
        # x_i lies outside supp(f_T) exactly for the singletons i of T
        gens = TwoRowFrJ(nvars, npairs, QQ).gens
        for cls in all_two_row_classes(nvars, npairs):
            s = supp(cls.f())
            free = {(i,) for i in range(1, nvars + 1) if sqf((i,), nvars) not in s}
            assert free == {(i,) for i in cls.singletons}
            assert free == {L for L, c in gens if c == cls}

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_free_pairs_are_the_aa1_frj_letters(self, a):
        # x_i x_j lies outside supp(f_T) exactly for the columns (i, j) of T
        nvars = 2 * a
        gens = AA1FrJ(a, QQ).gens
        for cls in all_two_row_classes(nvars, a):
            s = supp(cls.f())
            free = {
                p
                for p in combinations(range(1, nvars + 1), 2)
                if sqf(p, nvars) not in s
            }
            assert free == set(cls.pairs)
            assert free == {L for L, c in gens if c == cls}


class TestThreeTermSplit:
    """``_three_term``: f_T = sign1 f_T1 + sign2 f_T2 for a column (i, j)
    and a singleton s of T, by (x_i - x_j) = (x_i - x_s) - (x_j - x_s)."""

    def test_telescoping(self):
        cls, sign = tableau_to_class(Tableau.from_text("1,3/2"))
        terms = _three_term(cls, (1, 2), 3)
        assert sign == 1
        assert terms == [
            (1, TwoRowClass(3, ((1, 3),), (2,))),
            (-1, TwoRowClass(3, ((2, 3),), (1,))),
        ]
        assert cls.f() == x(1, 3) - x(2, 3)
        assert cls.f() == sum((c.f().scale(sg) for sg, c in terms), Polynomial.zero(3))

    def test_random_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            t = Tableau((tuple(perm[:3]), tuple(perm[3:])))
            cls, sign = tableau_to_class(t)
            terms = _three_term(cls, cls.pairs[rng.randrange(2)], cls.singletons[0])
            rec = sum((c.f().scale(sg) for sg, c in terms), Polynomial.zero(5))
            assert rec == specht_poly(t).scale(sign)

    @pytest.mark.parametrize("nvars,npairs", [(5, 2), (6, 2), (7, 3)])
    def test_identity_on_every_class(self, nvars, npairs):
        for cls in all_two_row_classes(nvars, npairs):
            for i, j in cls.pairs:
                for s in cls.singletons:
                    (s1, c1), (s2, c2) = _three_term(cls, (i, j), s)
                    # first the term that frees j, then the one that frees i
                    assert j in c1.singletons and i in c2.singletons
                    rec = c1.f().scale(s1) + c2.f().scale(s2)
                    assert rec == cls.f()

    def test_double_application_recombines(self):
        cls, sign = tableau_to_class(Tableau.from_text("1,4,5/3,2"))
        (s1, t1), (s2, t2) = _three_term(cls, (1, 3), 5)
        (s1a, t1a), (s1b, t1b) = _three_term(t1, (1, 5), 3)
        total = (
            t1a.f().scale(s1 * s1a) + t1b.f().scale(s1 * s1b) + t2.f().scale(s2)
        )
        assert total == cls.f()
        assert total == specht_poly(Tableau.from_text("1,4,5/3,2")).scale(sign)


def random_x_member(rng, nvars, npairs, k):
    """A uniform-ish random class in X(k) on all letters 1..nvars."""
    rest = list(range(k + 1, nvars + 1))
    rng.shuffle(rest)
    bots = rest[:k]
    pairs = [(l + 1, bots[l]) for l in range(k)]
    tail = rest[k:]
    extra = npairs - k
    mid = []
    for _ in range(extra):
        a = tail.pop(rng.randrange(len(tail)))
        b = tail.pop(rng.randrange(len(tail)))
        mid.append((min(a, b), max(a, b)))
    cls, sign = make_class(nvars, pairs + mid, tail)
    assert sign == 1
    return cls


class TestStraighten:
    def test_already_quasi_standard(self):
        cls, _ = make_class(5, [(1, 5), (2, 4)], [3])
        assert in_Y(cls, 1)
        assert straighten_quasi_h(cls, 1) == [(1, cls)]

    def test_smallest_bottom_inversion(self):
        # mu = (4,3) on 7 letters, k=1: one inverted bottom pair, both
        # rewrite outputs already quasi-h-standard, so exactly two terms
        cls, _ = make_class(7, [(1, 4), (2, 6), (3, 5)], [7])
        assert in_X(cls, 1) and not in_Y(cls, 1)
        out = straighten_quasi_h(cls, 1)
        assert len(out) == 2
        assert all(in_Y(t, 1) for _, t in out)
        rec = sum((t.f().scale(c) for c, t in out), Polynomial.zero(7))
        assert rec == cls.f()

    def test_tc_td_case(self):
        # bottoms sorted but the last mid top exceeds the least singleton
        cls, _ = make_class(5, [(1, 2), (4, 5)], [3])
        assert in_X(cls, 1) and not in_Y(cls, 1)
        out = straighten_quasi_h(cls, 1)
        rec = sum((t.f().scale(c) for c, t in out), Polynomial.zero(5))
        assert rec == cls.f()
        assert all(in_Y(t, 1) for _, t in out)

    @pytest.mark.parametrize("nvars,npairs", [(4, 1), (5, 2), (6, 2), (7, 3)])
    def test_random_straightening(self, nvars, npairs):
        rng = random.Random(nvars * 100 + npairs)
        for _ in range(30):
            k = rng.randint(1, npairs)
            cls = random_x_member(rng, nvars, npairs, k)
            out = straighten_quasi_h(cls, k)
            rec = Polynomial.zero(nvars)
            for c, t in out:
                assert c in (1, -1)
                assert in_Y(t, k)
                # the prefix is untouched
                assert t.pairs[:k] == cls.pairs[:k]
                # coordinate-wise domination of the singleton tuple
                assert all(a <= b for a, b in zip(cls.singletons, t.singletons))
                rec = rec + t.f().scale(c)
            assert rec == cls.f()

    def test_straighten_over_f2(self):
        # identity also holds with coefficients reduced mod 2
        cls, _ = make_class(7, [(1, 4), (2, 7), (3, 6)], [5])
        f2 = field_of(2)
        out = straighten_quasi_h(cls, 1)
        rec = sum((t.f(f2).scale(c) for c, t in out), Polynomial.zero(7, f2))
        assert rec == cls.f(f2)


class TestSigmaReduce:
    def test_identity_on_Z(self):
        cls, _ = make_class(5, [(1, 4)], [2, 3])
        # letters {2,3} as singletons precede the bottom 4: h-standard
        cls = TwoRowClass(5, ((1, 4),), (2, 3, 5))
        if in_Z(cls, 1):
            sigma, out = sigma_reduce(cls, 1)
            assert sigma == {} and out == cls

    def test_sorts_combined_set(self):
        # n=6, d=2, k=1: singletons larger than the prefix bottom
        cls, _ = make_class(5, [(1, 2)], [3, 4, 5])
        assert in_Y(cls, 1) and not in_Z(cls, 1)
        sigma, out = sigma_reduce(cls, 1)
        assert out.pairs[0] == (1, 5)
        assert out.singletons == (2, 3, 4)
        assert sigma
        assert in_Z(out, 1)

    def test_idempotent(self):
        cls, _ = make_class(5, [(1, 2)], [3, 4, 5])
        _, once = sigma_reduce(cls, 1)
        sigma2, twice = sigma_reduce(once, 1)
        assert sigma2 == {} and twice == once

    def test_monotone_multiset(self):
        # op-2 raises the sorted prefix-bottom multiset, or lands in Z
        rng = random.Random(3)
        for _ in range(100):
            k = rng.randint(1, 3)
            cls = random_x_member(rng, 7, 3, k)
            if not in_Y(cls, k):
                continue
            old = sorted(hi for _, hi in cls.pairs[:k])
            sigma, out = sigma_reduce(cls, k)
            new = sorted(hi for _, hi in out.pairs[:k])
            assert all(a <= b for a, b in zip(old, new))
            if sigma:
                assert new > old or in_Z(out, k)


def membership_kernel(nvars, npairs, k, d, fld=QQ):
    """Coefficient vectors on X with x^a * sum c f_T in I_<d>."""
    letters = tuple(range(1, k + 1))
    xa = sqf(letters, nvars)
    Xk = [c for c in all_two_row_classes(nvars, npairs) if in_X(c, k)]
    rows, bad = [], {}
    for c in Xk:
        row = {}
        for m, cf in c.f(fld).terms.items():
            mm = mono_mul(m, xa)
            if len(mono_support(mm)) < d:
                j = bad.setdefault(mm, len(bad))
                row[j] = cf
        rows.append(row)
    _, kernel = span_and_kernel(rows, fld, len(bad))
    return Xk, kernel


class TestReplay:
    def test_empty_input(self):
        cert = replay_radical_reduction(Partition((3, 2)), 1, {}, QQ)
        assert cert.combination == [] and cert.verify()

    def test_single_generator_case(self):
        classes = all_two_row_classes(4, 1)
        outside = [c for c in classes if not in_X(c, 1)]
        cert = replay_radical_reduction(Partition((3, 2)), 1, {outside[0]: 1}, QQ)
        assert cert.verify()
        assert 1 <= len(cert.combination) <= 2

    def test_precondition_rejected(self):
        classes = [c for c in all_two_row_classes(4, 1) if in_X(c, 1)]
        with pytest.raises(ValueError):
            replay_radical_reduction(Partition((3, 2)), 1, {classes[0]: 1}, QQ)

    @pytest.mark.parametrize("prefix", [1, sqf((2,), 4)], ids=["x1", "relabelled"])
    @pytest.mark.parametrize(
        "combo",
        [
            {TwoRowClass(4, ((1, 2), (3, 4)), ()): 0},
            {TwoRowClass(4, ((1, 2), (3, 4)), ()): 1, Tableau(((1, 3), (2, 4))): -1},
        ],
        ids=["zero", "cancels"],
    )
    def test_malformed_key_rejected_whatever_its_coefficient(self, prefix, combo):
        # two pairs where mu = (3, 1) has one
        with pytest.raises(ValueError):
            replay_radical_reduction(Partition((3, 2)), prefix, combo, QQ)

    @pytest.mark.parametrize(
        "parts,k", [((3, 2), 1), ((4, 2), 1), ((3, 3), 1), ((3, 3), 2)]
    )
    def test_random_replays(self, parts, k):
        shape = Partition(parts)
        n, d = shape.n, shape.parts[1]
        rng = random.Random(n * 10 + d + k)
        Xk, kernel = membership_kernel(n - 1, d - 1, k, d)
        assert kernel, "membership kernel unexpectedly trivial"
        for _ in range(10):
            combo = {}
            for kv in rng.sample(kernel, min(3, len(kernel))):
                scale = rng.randint(-4, 4)
                for i, v in kv.items():
                    combo[Xk[i]] = combo.get(Xk[i], 0) + scale * v
            cert = replay_radical_reduction(shape, k, combo, QQ)
            assert cert.verify()

    def test_replay_larger_frame(self):
        # lambda = (4,4): n = 8, mu = (4,3) on seven letters, prefix k = 2
        shape = Partition((4, 4))
        rng = random.Random(83)
        xk, kernel = membership_kernel(7, 3, 2, 4)
        assert kernel
        for kv in rng.sample(kernel, 5):
            combo = {xk[i]: v for i, v in kv.items()}
            cert = replay_radical_reduction(shape, 2, combo, QQ)
            assert cert.verify()

    def test_replay_over_f3(self):
        shape = Partition((3, 3))
        f3 = field_of(3)
        Xk, kernel = membership_kernel(5, 2, 1, 3, f3)
        combo = {Xk[i]: v for i, v in kernel[0].items()}
        cert = replay_radical_reduction(shape, 1, combo, f3)
        assert cert.verify()

    def test_general_prefix_relabelled(self):
        # prefix x_2 x_4 instead of x_1 x_2; handled by conjugation
        shape = Partition((3, 3))
        nvars, npairs, d = 5, 2, 3
        Xk, kernel = membership_kernel(nvars, npairs, 2, d)
        perm = {1: 2, 2: 4, 3: 1, 4: 3, 5: 5}
        moved = {}
        for i, v in kernel[0].items():
            cls = Xk[i]
            pairs = [(perm[a], perm[b]) for a, b in cls.pairs]
            singles = [perm[s] for s in cls.singletons]
            cls2, sgn = make_class(nvars, pairs, singles)
            moved[cls2] = moved.get(cls2, 0) + sgn * v
        prefix = sqf((2, 4), nvars)
        cert = replay_radical_reduction(shape, prefix, moved, QQ)
        assert cert.verify()

    def test_trace_mentions_operations(self):
        shape = Partition((3, 3))
        Xk, kernel = membership_kernel(5, 2, 1, 3)
        combo = {Xk[i]: v for i, v in kernel[2].items()}
        cert = replay_radical_reduction(shape, 1, combo, QQ)
        text = "\n".join(cert.trace)
        assert "op1" in text and "h-relation ok" in text

    def test_failed_verification_is_a_self_check(self, monkeypatch):
        # a certificate whose identity does not hold is an internal fault
        monkeypatch.setattr(MembershipCertificate, "verify", lambda self: False)
        with pytest.raises(SelfCheckError, match="symbolic verification"):
            replay_radical_reduction(Partition((3, 2)), 1, {}, QQ)


class TestHStandardIndependence:
    def test_h_polys_independent_on_Z(self):
        # whenever coefficients are supported on Z and sum c h = 0, all c = 0
        for nvars, npairs, k in ((5, 2, 1), (6, 2, 1), (7, 3, 2)):
            Z = [
                c
                for c in all_two_row_classes(nvars, npairs)
                if in_X(c, k) and in_Z(c, k)
            ]
            polys = [h_poly(c, k) for c in Z]
            d = npairs - k
            if d == 0:
                continue
            basis = echelon_span(polys, d, field=QQ, nvars=nvars)
            assert basis.dimension == len(Z)


class TestTwoRowFrame:
    """The X / Y / Z sets for lambda = (n-d, d) and the prefix x_1..x_k, on
    the classes of mu = (n-d, d-1) over the letters 1..n-1."""

    def test_nesting(self):
        for n, d, k in ((6, 3, 1), (6, 3, 2), (8, 4, 2)):
            classes = all_two_row_classes(n - 1, d - 1)
            X = [c for c in classes if in_X(c, k)]
            Y = [c for c in X if in_Y(c, k)]
            Z = [c for c in X if in_Z(c, k)]
            assert Z and set(Z) <= set(Y) <= set(X) < set(classes)
            # sigma is the identity exactly on Z
            for c in Y:
                sigma, _ = sigma_reduce(c, k)
                assert (not sigma) == in_Z(c, k)


class TestIndependenceRank:
    def test_refused_past_the_term_cap(self):
        # C_n 2^n terms: (7,7) stays under the cap, (8,8) is refused at once
        assert count_standard_tableaux(Partition((7, 7))) * 2**7 <= _RANK_TERM_CAP
        with pytest.raises(ResourceLimitError):
            independence_rank(Partition((8, 8)))

    def test_examples(self):
        assert independence_rank(Partition((2, 2))) == 2
        assert independence_rank(Partition((3, 3)), field_of(2)) == 5
        assert independence_rank(Partition((1, 1, 1))) == 1

    def test_characteristic_free(self):
        for parts in ((2, 2), (3, 2), (2, 2, 1), (3, 3, 1)):
            shape = Partition(parts)
            expected = len(enumerate_standard_tableaux(shape))
            for ch in (0, 2, 3):
                fld = QQ if ch == 0 else field_of(ch)
                assert independence_rank(shape, fld) == expected

    def test_standard_span_all_tableaux(self):
        # the standard Specht polynomials span every Specht polynomial
        import itertools

        for parts in ((2, 2), (3, 2)):
            shape = Partition(parts)
            n = shape.n
            d = specht_poly_degree(shape)
            for ch in (0, 2, 3):
                fld = QQ if ch == 0 else field_of(ch)
                standard = echelon_span(
                    [specht_poly(t, fld) for t in enumerate_standard_tableaux(shape)],
                    d,
                )
                for perm in itertools.permutations(range(1, n + 1)):
                    rows = []
                    idx = 0
                    for width in parts:
                        rows.append(tuple(perm[idx : idx + width]))
                        idx += width
                    f = specht_poly(Tableau(tuple(rows)), fld)
                    assert standard.contains(f)


class TestAA1:
    def test_malformed_key_rejected_with_zero_coefficient(self):
        # one pair where mu = (2, 2) has two
        with pytest.raises(ValueError):
            replay_aa1_reduction(2, 1, {TwoRowClass(4, ((1, 2),), (3, 4)): 0}, QQ)

    def test_h_bar_sign(self):
        # the sign relating h_T and the reversed frame is (-1)^(a-k)
        for a, k in ((2, 1), (3, 1), (3, 2)):
            classes = [
                c for c in all_two_row_classes(2 * a, a) if in_X(c, k)
            ]
            for cls in classes[:5]:
                h, bar, sign = aa1_h_and_bar(cls, k)
                assert h == bar.scale(sign)
                assert sign == (1 if (a - k) % 2 == 0 else -1)

    def test_w_independence(self):
        # h polynomials over the W set are linearly independent
        for a, k in ((2, 1), (3, 1), (3, 2)):
            W = [
                c
                for c in all_two_row_classes(2 * a, a)
                if in_X(c, k)
                and all(
                    c.pairs[i][1] < c.pairs[i + 1][1] for i in range(len(c.pairs) - 1)
                )
            ]
            polys = [h_poly(c, k) for c in W]
            basis = echelon_span(polys, a - k, field=QQ, nvars=2 * a)
            assert basis.dimension == len(W)

    def test_replay(self):
        aa = all_two_row_classes(4, 2)
        rows, bad = [], {}
        xa = sqf((1,), 4)
        for c in aa:
            row = {}
            for m, cf in c.f().terms.items():
                mm = mono_mul(m, xa)
                if len(mono_support(mm)) < 3:
                    j = bad.setdefault(mm, len(bad))
                    row[j] = cf
            rows.append(row)
        _, kernel = span_and_kernel(rows, QQ, len(bad))
        assert kernel
        for kv in kernel:
            combo = {aa[i]: v for i, v in kv.items()}
            cert = replay_aa1_reduction(2, 1, combo, QQ)
            assert cert.verify()

    def test_replay_a3(self):
        aa = all_two_row_classes(6, 3)
        rows, bad = [], {}
        xa = sqf((1, 2), 6)
        for c in aa:
            row = {}
            for m, cf in c.f().terms.items():
                mm = mono_mul(m, xa)
                if len(mono_support(mm)) < 4:
                    j = bad.setdefault(mm, len(bad))
                    row[j] = cf
            rows.append(row)
        _, kernel = span_and_kernel(rows, QQ, len(bad))
        assert kernel
        for kv in kernel[:5]:
            combo = {aa[i]: v for i, v in kv.items()}
            cert = replay_aa1_reduction(3, 2, combo, QQ)
            assert cert.verify()


def _classes(nvars, entries):
    """{class: coefficient} from (pairs, singletons, coefficient) entries."""
    return {TwoRowClass(nvars, pairs, singles): c for pairs, singles, c in entries}


class TestPinnedCertificates:
    """Certificates and generator orders pinned from an earlier release, so
    that a refactor of the replay calculus keeps them byte-identical."""

    def test_radical_prefix_x1_x2(self):
        # (3,3), prefix x_1 x_2: a kernel combination on X plus two classes
        # outside X (one via the three-term relation, one direct)
        combo = _classes(5, [
            (((1, 5), (2, 4)), (3,), 1),
            (((1, 3), (2, 4)), (5,), -1),
            (((1, 2), (3, 4)), (5,), 2),
            (((1, 3), (4, 5)), (2,), -1),
        ])
        cert = replay_radical_reduction(Partition((3, 3)), 2, combo, QQ)
        assert cert.combination == [
            (2, (1, 0, 0, 0, 0), 11), (-2, (0, 1, 0, 0, 0), 14), (-1, (1, 0, 0, 0, 0), 9),
            (1, (1, 0, 0, 0, 0), 11), (1, (0, 1, 0, 0, 0), 12), (-1, (1, 0, 0, 0, 0), 10),
            (1, (1, 0, 0, 0, 0), 9), (1, (0, 1, 0, 0, 0), 14),
        ]
        assert cert.trace == [
            "target shape=(3,3) prefix=x_1..x_2",
            "phase0 three-term [1:2 3:4 | 5] -> +[1:5 3:4 | 2] -[2:5 3:4 | 1] via singleton 5 coeff=2",
            "phase0 direct x_2 free in [1:3 4:5 | 2] coeff=-1",
            "round 1 op1 support=2",
            "round 1 h-relation ok",
            "round 1 op2 [1:5 2:4 | 3] jvec [4, 5]->[4, 5] coeff=1 -> [1:4 2:5 | 3]",
            "round 1 op2 [1:3 2:4 | 5] jvec [3, 4]->[4, 5] coeff=-1 -> [1:4 2:5 | 3]",
        ]

    def test_radical_relabelled_prefix(self):
        # (3,3), prefix x_2 x_4: replayed on x_1 x_2 and mapped back
        combo = _classes(5, [
            (((1, 2), (4, 5)), (3,), -1),
            (((1, 2), (3, 4)), (5,), -1),
            (((1, 3), (2, 4)), (5,), 3),
        ])
        cert = replay_radical_reduction(Partition((3, 3)), sqf((2, 4), 5), combo, QQ)
        assert cert.combination == [
            (3, (0, 1, 0, 0, 0), 4), (-3, (0, 0, 0, 1, 0), 9), (-1, (0, 0, 0, 1, 0), 9),
            (-1, (0, 1, 0, 0, 0), 3), (1, (0, 0, 0, 1, 0), 9),
        ]
        assert cert.trace == [
            "target shape=(3,3) prefix=x_1..x_2",
            "phase0 three-term [1:2 3:4 | 5] -> +[1:5 3:4 | 2] -[2:5 3:4 | 1] via singleton 5 coeff=3",
            "round 1 op1 support=2",
            "round 1 h-relation ok",
            "round 1 op2 [1:3 2:5 | 4] jvec [3, 5]->[4, 5] coeff=1 -> [1:4 2:5 | 3]",
            "round 1 op2 [1:3 2:4 | 5] jvec [3, 4]->[4, 5] coeff=-1 -> [1:4 2:5 | 3]",
            "relabelled prefix (2, 4)",
        ]

    def test_aa1(self):
        # (3,3,1), prefix x_1 x_2 x_3
        combo = _classes(6, [
            (((1, 2), (3, 4), (5, 6)), (), 1), (((1, 2), (3, 5), (4, 6)), (), 2),
            (((1, 2), (3, 6), (4, 5)), (), 3), (((1, 3), (2, 4), (5, 6)), (), 1),
            (((1, 3), (2, 5), (4, 6)), (), 2), (((1, 3), (2, 6), (4, 5)), (), 3),
            (((1, 4), (2, 3), (5, 6)), (), 1), (((1, 4), (2, 6), (3, 5)), (), 2),
            (((1, 4), (2, 5), (3, 6)), (), -8), (((1, 5), (2, 3), (4, 6)), (), 3),
            (((1, 5), (2, 4), (3, 6)), (), 1), (((1, 5), (2, 6), (3, 4)), (), 2),
            (((1, 6), (2, 3), (4, 5)), (), 3), (((1, 6), (2, 4), (3, 5)), (), 1),
            (((1, 6), (2, 5), (3, 4)), (), 2),
        ])
        cert = replay_aa1_reduction(3, 3, combo, QQ)
        assert cert.combination == [
            (-3, (0, 0, 1, 0, 0, 0), 3), (-7, (0, 1, 0, 0, 0, 0), 9),
            (7, (0, 1, 0, 0, 0, 0), 12), (6, (0, 0, 1, 0, 0, 0), 0),
        ]
        assert cert.trace == [
            "aa1 replay a=3 k=3",
            "straightened to 4 standard classes",
            "W-restriction [1:2 3:5 4:6 | ] via column (1,2)",
            "W-restriction [1:3 2:4 5:6 | ] via column (1,3)",
            "W-restriction [1:3 2:5 4:6 | ] via column (1,3)",
            "W-restriction [1:2 3:4 5:6 | ] via column (1,2)",
        ]

    def test_seeded_replays_digest(self):
        # two seeded inputs per shape and k, at seeds 0-7: 480 certificates,
        # built as the benchmark builds its replay inputs
        build = perfbench_module("replays").build
        specs = [
            {"family": "radical", "shape": [n - d, d], "k": [k], "count": 2}
            for n, d in ((5, 2), (6, 2), (6, 3), (7, 3), (8, 4), (8, 3), (9, 4))
            for k in range(d)
        ] + [
            {"family": "aa1", "shape": [a, a, 1], "k": [k], "count": 2}
            for a in (2, 3, 4) for k in range(1, a + 1)
        ]
        out = []
        for seed in range(8):
            for item in build(specs, random.Random(seed)):
                if item.family == "radical":
                    cert = replay_radical_reduction(item.shape, item.k, item.combo, QQ)
                else:
                    cert = replay_aa1_reduction(item.shape.parts[0], item.k, item.combo, QQ)
                combination = [[str(c), list(m), idx] for c, m, idx in cert.combination]
                out.append([item.label, combination, cert.trace])
        assert len(out) == 480
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == "915b4f5faeafafc86c1d1e5b22fe9c6a6ba19ea7e588e83fc164daec8be32726"

    def test_two_row_frj_first_generators(self):
        ctx = TwoRowFrJ(5, 2, QQ)
        assert len(ctx.gens) == 15
        assert [(ctx.gens[i][1].text(), str(ctx.gen_poly(i))) for i in range(4)] == [
            ("[1:2 3:4 | 5]", "x1*x3*x5 - x1*x4*x5 - x2*x3*x5 + x2*x4*x5"),
            ("[1:3 2:4 | 5]", "x1*x2*x5 - x1*x4*x5 - x2*x3*x5 + x3*x4*x5"),
            ("[1:4 2:3 | 5]", "x1*x2*x5 - x1*x3*x5 - x2*x4*x5 + x3*x4*x5"),
            ("[1:2 3:5 | 4]", "x1*x3*x4 - x1*x4*x5 - x2*x3*x4 + x2*x4*x5"),
        ]
        # several singletons per class: generators follow the singleton order
        ctx = TwoRowFrJ(5, 1, QQ)
        assert len(ctx.gens) == 30
        assert [(ctx.gens[i][1].text(), str(ctx.gen_poly(i))) for i in range(4)] == [
            ("[1:2 | 3,4,5]", "x1*x3 - x2*x3"),
            ("[1:2 | 3,4,5]", "x1*x4 - x2*x4"),
            ("[1:2 | 3,4,5]", "x1*x5 - x2*x5"),
            ("[1:3 | 2,4,5]", "x1*x2 - x2*x3"),
        ]

    def test_aa1_frj_first_generators(self):
        ctx = AA1FrJ(2, QQ)
        assert len(ctx.gens) == 6
        assert [(ctx.gens[i][1].text(), str(ctx.gen_poly(i))) for i in range(4)] == [
            ("[1:2 3:4 | ]", "x1^2*x2*x3 - x1^2*x2*x4 - x1*x2^2*x3 + x1*x2^2*x4"),
            ("[1:2 3:4 | ]", "x1*x3^2*x4 - x1*x3*x4^2 - x2*x3^2*x4 + x2*x3*x4^2"),
            ("[1:3 2:4 | ]", "x1^2*x2*x3 - x1^2*x3*x4 - x1*x2*x3^2 + x1*x3^2*x4"),
            ("[1:3 2:4 | ]", "x1*x2^2*x4 - x1*x2*x4^2 - x2^2*x3*x4 + x2*x3*x4^2"),
        ]
