"""Acceptance criteria, one test each, exact arithmetic throughout.

Every criterion prints one line `ACCEPTANCE <k> PASS|FAIL (<seconds>)`;
run with `pytest tests/test_acceptance.py -s` to see them stream.  Values
are asserted exactly (tolerance zero); the stated time budgets are
targets, printed for inspection.
"""

import random
import time
from contextlib import contextmanager
from math import comb

from spechtideals.betti import PROXY_PRIMES, cm_verdict, koszul_betti
from spechtideals.fields import QQ, field_of
from spechtideals.ideals import (
    QuotientRing,
    SquarefreeDegreeIdeal,
    equal_up_to_degree,
    hilbert_function,
    mult_injective,
    series_expand,
    socle,
    specht_ideal,
    sum_ideal,
)
from spechtideals.linalg import span_and_kernel
from spechtideals.poly import Polynomial, mono_mul, mono_support
from spechtideals.specht import (
    all_two_row_classes,
    in_X,
    in_Y,
    independence_rank,
    replay_radical_reduction,
    specht_poly,
    straighten_quasi_h,
)
from spechtideals.tableaux import Partition, Tableau, enumerate_partitions
from spechtideals.varieties import (
    condition_star,
    evaluation_oracle,
    expected_minimal_primes,
    height_and_purity,
    minimal_primes,
    set_partitions,
)


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL ({time.monotonic() - start:.2f}s) {description}")
        raise
    print(f"ACCEPTANCE {number} PASS ({time.monotonic() - start:.2f}s) {description}")


def x(i, nvars, fld=QQ):
    return Polynomial.variable(nvars, i - 1, fld)


def test_criterion_01_specht_worked_example():
    with criterion(1, "Specht polynomial of the worked tableau"):
        t = Tableau.from_text("3,5,1,7/6,2/4")
        n = 7
        expected = (
            (x(3, n) - x(6, n))
            * (x(3, n) - x(4, n))
            * (x(6, n) - x(4, n))
            * (x(5, n) - x(2, n))
        )
        assert specht_poly(t) == expected


def test_criterion_02_catalan_generator_counts():
    with criterion(2, "Catalan generator counts for n = 1..5"):
        for n in range(1, 6):
            cn = comb(2 * n + 1, n) // (2 * n + 1)
            assert independence_rank(Partition((n, n))) == cn
            if n >= 2:
                assert independence_rank(Partition((n, n - 1))) == cn


_PURITY_CACHE: dict = {}


def purity_reports():
    """Shared enumeration for criteria 3, 4, and 14 (computed once)."""
    if not _PURITY_CACHE:
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                if lam.is_trivial:
                    continue
                _PURITY_CACHE[lam.parts] = height_and_purity(lam)
    return _PURITY_CACHE


def test_criterion_03_heights():
    with criterion(3, "height = lambda_1 for every shape of n <= 7"):
        for parts, rep in purity_reports().items():
            assert rep.height == parts[0], parts


def test_criterion_04_purity_trichotomy():
    with criterion(4, "purity iff lambda_{l-1} = lambda_1 or lambda_2 = 1"):
        for parts, rep in purity_reports().items():
            expected = parts[-2] == parts[0] or parts[1] == 1
            assert rep.pure == expected, parts


def test_criterion_05_radicalness_up_to_degree():
    fixtures = [
        ((2, 2), 6),
        ((3, 2), 6),
        ((4, 2), 6),
        ((3, 3), 7),
        ((4, 3), 7),
        ((2, 2, 1), 6),
        ((3, 3, 1), 7),
    ]
    with criterion(5, "I^Sp = I_{n,l1+1} up to degree, chars 0, 2, 3"):
        for parts, bound in fixtures:
            lam = Partition(parts)
            for ch in (0, 2, 3):
                fld = QQ if ch == 0 else field_of(ch)
                rep = equal_up_to_degree(lam, fld, bound)
                assert rep.equal, (parts, ch, rep.first_disagreement)


def test_criterion_06_hilbert_series():
    with criterion(6, "Hilbert function of R/I^Sp_(n-2,2), n = 4..7, d <= 8"):
        for n in range(4, 8):
            ideal = specht_ideal(Partition((n - 2, 2)))
            assert hilbert_function(ideal, 8) == series_expand([1, n - 2, 1], 2, 8)


def test_criterion_07_betti_diagrams():
    with criterion(7, "Betti diagrams of R/I^Sp_(3,3), both characteristics"):
        char0 = {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5}
        tables = []
        for p in PROXY_PRIMES:
            t = koszul_betti(specht_ideal(Partition((3, 3)), field_of(p)), 8)
            tables.append(t)
            assert t.entries == char0
            assert t.totals() == [1, 5, 9, 5]
        assert tables[0].entries == tables[1].entries
        t2 = koszul_betti(specht_ideal(Partition((3, 3)), field_of(2)), 8)
        assert t2.totals() == [1, 5, 9, 6, 1]
        assert t2.entries == {
            (0, 0): 1,
            (1, 3): 5,
            (2, 5): 9,
            (3, 6): 5,
            (3, 7): 1,
            (4, 7): 1,
        }
        # row placement in the diagram layout
        assert [ln.strip() for ln in tables[0].m2_lines()] == [
            "total: 1 5 9 5",
            "0: 1 . . .",
            "1: . . . .",
            "2: . 5 . .",
            "3: . . 9 5",
        ]
        assert [ln.strip() for ln in t2.m2_lines()] == [
            "total: 1 5 9 6 1",
            "0: 1 . . . .",
            "1: . . . . .",
            "2: . 5 . . .",
            "3: . . 9 5 1",
            "4: . . . 1 .",
        ]


def _quotient_A(n, ch):
    fld = QQ if ch == 0 else field_of(ch)
    m = n - 1
    ideal = sum_ideal(
        specht_ideal(Partition((n - 3, 2)), fld),
        SquarefreeDegreeIdeal(m, 3, fld),
    )
    return ideal, fld, m


def test_criterion_08_char2_socle_and_char0_bijectivity():
    with criterion(8, "char-2 socle witness and char-0 e1 bijectivity"):
        for n in (5, 6, 7):
            ideal2, fld2, m = _quotient_A(n, 2)
            soc = socle(ideal2, 2)
            assert soc.dimension > 0
            wit = (
                x(1, m, fld2) * x(2, m, fld2)
                + x(2, m, fld2) * x(3, m, fld2)
                + x(3, m, fld2) * x(1, m, fld2)
            )
            assert soc.contains(QuotientRing(ideal2).normal_form(wit))

            ideal0, fld0, m = _quotient_A(n, 0)
            e1 = sum((x(i, m, fld0) for i in range(2, m + 1)), x(1, m, fld0))
            rep = mult_injective(e1, ideal0, 2)
            assert rep.bijective
            assert rep.dim_source == rep.dim_target == 2 * n - 2


def test_criterion_09_dims_2n_minus_2():
    with criterion(9, "dim A_m = 2(n-1) for m = 3,4,5 and n = 5,6,7"):
        for n in (5, 6, 7):
            for ch in (0, 2):
                ideal, _, _ = _quotient_A(n, ch)
                for m_deg in (3, 4, 5):
                    assert ideal.quotient_dim(m_deg) == 2 * (n - 1), (n, ch, m_deg)


def test_criterion_10_gorenstein():
    with criterion(10, "Gorenstein verdicts for (2,2), (3,2), (4,2)"):
        for parts in ((2, 2), (3, 2), (4, 2)):
            verdict = cm_verdict(Partition(parts), 0)
            assert verdict.is_gorenstein, parts


def _random_x_member(rng, nvars, npairs, k):
    rest = list(range(k + 1, nvars + 1))
    rng.shuffle(rest)
    bots = rest[:k]
    pairs = [(l + 1, bots[l]) for l in range(k)]
    tail = rest[k:]
    mid = []
    for _ in range(npairs - k):
        a = tail.pop(rng.randrange(len(tail)))
        b = tail.pop(rng.randrange(len(tail)))
        mid.append((min(a, b), max(a, b)))
    from spechtideals.specht import make_class

    cls, sign = make_class(nvars, pairs + mid, tail)
    assert sign == 1
    return cls


def test_criterion_11_straightening_soundness():
    frames = {(3, 1): 4, (3, 2): 5, (4, 2): 6, (4, 3): 7}
    with criterion(11, "200 random straightenings per two-row frame"):
        for (w, p), nvars in frames.items():
            npairs = p
            rng = random.Random(1000 * w + p)
            for _ in range(200):
                k = rng.randint(1, npairs)
                cls = _random_x_member(rng, nvars, npairs, k)
                out = straighten_quasi_h(cls, k)
                rec = Polynomial.zero(nvars)
                for c, t in out:
                    assert c in (1, -1)
                    assert in_Y(t, k)
                    assert t.pairs[:k] == cls.pairs[:k]
                    assert all(
                        a <= b for a, b in zip(cls.singletons, t.singletons)
                    )
                    rec = rec + t.f().scale(c)
                assert rec == cls.f()


def _membership_kernel(nvars, npairs, k, d):
    letters = tuple(range(1, k + 1))
    e = [0] * nvars
    for i in letters:
        e[i - 1] = 1
    xa = tuple(e)
    xk = [c for c in all_two_row_classes(nvars, npairs) if in_X(c, k)]
    rows, bad = [], {}
    for c in xk:
        row = {}
        for m, cf in c.f().terms.items():
            mm = mono_mul(m, xa)
            if len(mono_support(mm)) < d:
                j = bad.setdefault(mm, len(bad))
                row[j] = cf
        rows.append(row)
    _, kernel = span_and_kernel(rows, QQ, len(bad))
    return xk, kernel


def test_criterion_12_reduction_replay():
    shapes = [(3, 2), (4, 2), (3, 3)]
    with criterion(12, "50 reduction replays per two-row shape"):
        for parts in shapes:
            lam = Partition(parts)
            n, d = lam.n, lam.parts[1]
            rng = random.Random(lam.n * 31 + d)
            pools = {
                k: _membership_kernel(n - 1, d - 1, k, d) for k in range(1, d)
            }
            for trial in range(50):
                k = 1 + trial % (d - 1)
                xk, kernel = pools[k]
                assert kernel
                combo = {}
                for kv in rng.sample(kernel, min(3, len(kernel))):
                    scale = rng.randint(-4, 4)
                    for i, v in kv.items():
                        combo[xk[i]] = combo.get(xk[i], 0) + scale * v
                cert = replay_radical_reduction(lam, k, combo, QQ)
                assert cert.verify()


def test_criterion_13_oracle_equivalence():
    with criterion(13, "coloring = flow = brute force = evaluation, n <= 6"):
        for n in range(1, 7):
            pis = list(set_partitions(n))
            for lam in enumerate_partitions(n):
                if lam.is_trivial:
                    continue
                for pi in pis:
                    a = condition_star(pi, lam, "dominance")
                    assert a == condition_star(pi, lam, "flow")
                    assert a == condition_star(pi, lam, "brute")
                    assert a == evaluation_oracle(pi, lam)


def test_criterion_14_minimal_primes():
    with criterion(14, "minimal prime families and the (3,2,1) witness"):
        reports = purity_reports()
        for parts in reports:
            if parts[-2] == parts[0]:
                got = {p.text() for p in minimal_primes(Partition(parts))}
                exp = {
                    p.text() for p in expected_minimal_primes(Partition(parts))
                }
                assert got == exp, parts
        witnesses = {p.text(): p.height for p in minimal_primes(Partition((3, 2, 1)))}
        assert witnesses.get("1,2,3|4,5,6") == 4
