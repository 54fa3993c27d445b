"""Specht polynomials, generator systems, and the two-row reduction calculus.

A Specht polynomial is the product over columns of the Vandermonde
difference product of the column's variables.  For two-row shapes the
column-equivalence classes are (pairs, singletons) structures; this module
implements the three-term relation, quasi-h-standard straightening, the
sorting permutation reduction, and the full membership replay that
rewrites x^a * (combination of Specht polynomials) lying in the squarefree
ideal I_<d> as an explicit combination of frJ generators, with a
machine-checked certificate.

The relation (x_i - x_j) = (x_i - x_s) - (x_j - x_s) has one implementation,
``_three_term`` on column classes, which every trade of a two-box column for
a singleton (straightening, the support lemma, the sigma moves) applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import factorial, prod

from .fields import Field, QQ
from .linalg import echelon_span
from .poly import Monomial, Polynomial, mono_support
from .tableaux import Partition, Tableau, count_standard_tableaux, enumerate_standard_tableaux
from .varieties import ResourceLimitError, SelfCheckError


# ---------------------------------------------------------------------------
# Specht polynomials of general tableaux


def difference_product(nvars: int, pairs, fld: Field = QQ) -> Polynomial:
    """Product of (x_a - x_b) over the letter pairs (a, b), in nvars variables."""
    out = Polynomial.constant(nvars, 1, fld)
    for a, b in pairs:
        out = out * (
            Polynomial.variable(nvars, a - 1, fld) - Polynomial.variable(nvars, b - 1, fld)
        )
    return out


def column_pairs(t: Tableau) -> list[tuple[int, int]]:
    """The letter pairs (a, b), a above b, within each column of t."""
    return [pair for col in t.columns() for pair in combinations(col, 2)]


def specht_poly(t: Tableau, fld: Field = QQ) -> Polynomial:
    """Product over columns of the difference product, in t.n variables.

    Single-box columns contribute the factor 1.
    """
    return difference_product(t.n, column_pairs(t), fld)


def specht_poly_degree(shape: Partition) -> int:
    """Common degree of all Specht polynomials of the shape: one factor per
    pair of cells in a column, sum C(lambda'_j, 2), which equals
    n(lambda) = sum (i - 1) lambda_i, read off the rows without building
    the conjugate."""
    return sum(i * part for i, part in enumerate(shape.parts))


def supp(p: Polynomial) -> set:
    """Squarefree monomials dividing some nonzero term (the empty product 1
    included); supp(0) is empty by convention."""
    out: set = set()
    seen: set = set()
    for m in p.terms:
        s = mono_support(m)
        if s in seen:
            continue
        seen.add(s)
        vars_ = sorted(s)
        for r in range(len(vars_) + 1):
            for sub in combinations(vars_, r):
                e = [0] * p.nvars
                for i in sub:
                    e[i] = 1
                out.add(tuple(e))
    return out


_RANK_TERM_CAP = 100_000  # terms of the Specht polynomials one rank builds


def independence_rank(shape: Partition, fld: Field = QQ) -> int:
    """Rank of the standard Specht polynomials: the standard tableau count in
    every characteristic.  Refused before any is built past ``_RANK_TERM_CAP``
    terms, prod(c!) each over the column lengths c ((8,8) has 366,080)."""
    terms = count_standard_tableaux(shape) * prod(map(factorial, shape.conjugate()))
    if terms > _RANK_TERM_CAP:
        raise ResourceLimitError(f"{shape}: {terms} Specht polynomial terms, past the cap of {_RANK_TERM_CAP}")
    polys = [specht_poly(t, fld) for t in enumerate_standard_tableaux(shape)]
    return echelon_span(polys, specht_poly_degree(shape)).dimension


@dataclass(frozen=True)
class SpechtSystem:
    """Generator system of a Specht ideal: standard tableaux with their
    polynomials, all homogeneous of the common column degree."""

    shape: Partition
    field: Field
    generators: tuple[tuple[Tableau, Polynomial], ...]

    @staticmethod
    def build(shape: Partition, fld: Field = QQ) -> "SpechtSystem":
        gens = []
        d = specht_poly_degree(shape)
        for t in enumerate_standard_tableaux(shape):
            f = specht_poly(t, fld)
            if f.homogeneous_degree() != d:
                raise AssertionError("Specht polynomial with unexpected degree")
            gens.append((t, f))
        return SpechtSystem(shape, fld, tuple(gens))


# ---------------------------------------------------------------------------
# Two-row column-equivalence classes


@dataclass(frozen=True)
class TwoRowClass:
    """Column-equivalence class of a two-row tableau.

    ``pairs`` are the two-box columns as (lo, hi), sorted by lo;
    ``singletons`` are the one-box column letters, sorted.  This is the
    canonical representative: its Specht polynomial is the product of
    (x_lo - x_hi) over the pairs.
    """

    nvars: int
    pairs: tuple[tuple[int, int], ...]
    singletons: tuple[int, ...]

    def __post_init__(self):
        letters = [v for p in self.pairs for v in p] + list(self.singletons)
        if len(set(letters)) != len(letters):
            raise ValueError(f"repeated letters in {self.pairs} / {self.singletons}")
        if letters and not (1 <= min(letters) and max(letters) <= self.nvars):
            raise ValueError("letters out of range")
        if any(lo >= hi for lo, hi in self.pairs):
            raise ValueError("pairs must be (lo, hi) with lo < hi")
        if any(
            self.pairs[i][0] >= self.pairs[i + 1][0] for i in range(len(self.pairs) - 1)
        ):
            raise ValueError("pairs must be sorted by lo")
        if any(
            self.singletons[i] >= self.singletons[i + 1]
            for i in range(len(self.singletons) - 1)
        ):
            raise ValueError("singletons must be sorted")

    def f(self, fld: Field = QQ) -> Polynomial:
        return difference_product(self.nvars, self.pairs, fld)

    def text(self) -> str:
        pairs = " ".join(f"{lo}:{hi}" for lo, hi in self.pairs)
        singles = ",".join(str(s) for s in self.singletons)
        return f"[{pairs} | {singles}]"


def make_class(nvars: int, pairs, singletons) -> tuple[TwoRowClass, int]:
    """Canonicalize raw (top, bottom) pairs; returns (class, sign)."""
    sign = 1
    norm = []
    for a, b in pairs:
        if a > b:
            a, b = b, a
            sign = -sign
        norm.append((a, b))
    norm.sort()
    return TwoRowClass(nvars, tuple(norm), tuple(sorted(singletons))), sign


def tableau_to_class(t: Tableau) -> tuple[TwoRowClass, int]:
    """Column class of a one- or two-row tableau, with the sign of the
    in-column normalization."""
    if len(t.rows) > 2:
        raise ValueError("two-row machinery needs a one- or two-row tableau")
    row1 = t.rows[0]
    row2 = t.rows[1] if len(t.rows) > 1 else ()
    pairs = [(row1[j], row2[j]) for j in range(len(row2))]
    singles = row1[len(row2) :]
    return make_class(t.n, pairs, singles)


def all_two_row_classes(nvars: int, npairs: int) -> list[TwoRowClass]:
    """All column classes of two-row tableaux with the given pair count,
    using every letter 1..nvars."""
    letters = tuple(range(1, nvars + 1))
    out = []
    for pair_support in combinations(letters, 2 * npairs):
        singles = tuple(v for v in letters if v not in set(pair_support))
        for pairs in _matchings(pair_support):
            out.append(TwoRowClass(nvars, pairs, singles))
    return out


def _matchings(letters: tuple[int, ...]):
    if not letters:
        yield ()
        return
    a = letters[0]
    for i in range(1, len(letters)):
        b = letters[i]
        rest = letters[1:i] + letters[i + 1 :]
        for sub in _matchings(rest):
            yield ((a, b),) + sub


# ---------------------------------------------------------------------------
# The X / Y / Z frame for the prefix monomial x^a = x_1 ... x_k


def in_X(cls: TwoRowClass, k: int) -> bool:
    """x_1...x_k divides a term of f, i.e. 1..k sit in k distinct pairs
    (no class is in X for a negative k)."""
    if k < 0 or k > len(cls.pairs):
        return False
    return all(cls.pairs[l][0] == l + 1 for l in range(k))


def frame_parts(cls: TwoRowClass, k: int):
    """(prefix bottoms j_1..j_k, mid pairs, singletons) of an X-member."""
    if not in_X(cls, k):
        raise ValueError(f"{cls.text()} is not in X for prefix k={k}")
    bots = tuple(hi for _, hi in cls.pairs[:k])
    return bots, cls.pairs[k:], cls.singletons


def h_poly(cls: TwoRowClass, k: int, fld: Field = QQ) -> Polynomial:
    """Product of (x_i - x_j) over the non-prefix pairs."""
    return difference_product(cls.nvars, frame_parts(cls, k)[1], fld)


def in_Y(cls: TwoRowClass, k: int) -> bool:
    """Quasi-h-standard: the tableau on (mid pairs, singletons) is standard."""
    _, mid, singles = frame_parts(cls, k)
    bots = [hi for _, hi in mid]
    if any(bots[i] >= bots[i + 1] for i in range(len(bots) - 1)):
        return False
    if mid and singles and mid[-1][0] > singles[0]:
        return False
    return True


def in_Z(cls: TwoRowClass, k: int) -> bool:
    """h-standard: additionally every singleton precedes the sorted prefix
    bottoms."""
    if not in_Y(cls, k):
        return False
    bots, _, singles = frame_parts(cls, k)
    if any(bots[i] >= bots[i + 1] for i in range(len(bots) - 1)):
        return False
    if singles and bots and singles[-1] > bots[0]:
        return False
    return True


# ---------------------------------------------------------------------------
# Three-term relation and straightening


def _three_term(cls: TwoRowClass, pair: tuple[int, int], s: int) -> list[tuple[int, TwoRowClass]]:
    """The two (sign, class) terms with f_cls = sum sign * f_class, by
    (x_i - x_j) = (x_i - x_s) - (x_j - x_s) for the column pair = (i, j) of
    cls and its singleton s: first the class with column (i, s) and singleton
    j, then the one with column (j, s) and singleton i, both canonical."""
    i, j = pair
    others = [p for p in cls.pairs if p != pair]
    rest = [v for v in cls.singletons if v != s]
    c1, sign1 = make_class(cls.nvars, others + [(i, s)], rest + [j])
    c2, sign2 = make_class(cls.nvars, others + [(j, s)], rest + [i])
    return [(sign1, c1), (-sign2, c2)]


def _merge(acc: dict, cls: TwoRowClass, coeff, fld: Field = QQ):
    """Add coeff to acc[cls] over fld, dropping the entry when it cancels."""
    c = fld.add(acc.get(cls, 0), coeff)
    if c:
        acc[cls] = c
    else:
        acc.pop(cls, None)


def straighten_quasi_h(cls: TwoRowClass, k: int) -> list[tuple[int, TwoRowClass]]:
    """Rewrite f_T as a +/-1 combination of quasi-h-standard classes.

    The prefix (tops 1..k and their bottoms) is left untouched; every output
    singleton tuple dominates the input's coordinate-wise.
    """
    acc: dict = {}
    _straighten(cls, k, 1, acc, 0)
    return [(c, t) for t, c in acc.items()]


_MAX_STRAIGHTEN_DEPTH = 10_000


def _straighten(cls: TwoRowClass, k: int, coeff: int, acc: dict, depth: int):
    if depth > _MAX_STRAIGHTEN_DEPTH:
        raise SelfCheckError("straightening recursion exceeded its depth bound")
    bots_pref, mid, singles = frame_parts(cls, k)
    mid_bots = [hi for _, hi in mid]
    for idx in range(1, len(mid)):
        if mid_bots[idx - 1] > mid_bots[idx]:
            (i1, j1), (i2, j2) = mid[idx - 1], mid[idx]
            # f = f_a - f_b with bottoms swapped / tops and bottoms regrouped
            pa = mid[: idx - 1] + ((i1, j2), (i2, j1)) + mid[idx + 1 :]
            pb = mid[: idx - 1] + ((i1, i2), (j2, j1)) + mid[idx + 1 :]
            ta = TwoRowClass(cls.nvars, cls.pairs[:k] + pa, singles)
            tb = TwoRowClass(
                cls.nvars, cls.pairs[:k] + tuple(sorted(pb)), singles
            )
            _straighten(ta, k, coeff, acc, depth + 1)
            _straighten(tb, k, -coeff, acc, depth + 1)
            return
    if mid and singles and mid[-1][0] > singles[0]:
        # the class with column (v, j) first, v = singles[0] < i < j
        for sign, term in reversed(_three_term(cls, mid[-1], singles[0])):
            _straighten(term, k, sign * coeff, acc, depth + 1)
        return
    _merge(acc, cls, coeff)


def sigma_reduce(cls: TwoRowClass, k: int) -> tuple[dict, TwoRowClass]:
    """The sorting permutation on singletons and prefix bottoms.

    Returns (sigma as a value map, the relabeled class).  sigma is the
    identity exactly when the class is h-standard.
    """
    bots, mid, singles = frame_parts(cls, k)
    values = sorted(singles + bots)
    new_singles = tuple(values[: len(singles)])
    new_bots = tuple(values[len(singles) :])
    sigma = {}
    for old, new in zip(singles + bots, new_singles + new_bots):
        if old != new:
            sigma[old] = new
    prefix = tuple((l + 1, new_bots[l]) for l in range(k))
    out = TwoRowClass(cls.nvars, prefix + mid, new_singles)
    return sigma, out


# ---------------------------------------------------------------------------
# frJ generator contexts and membership certificates


class FrJ:
    """A frJ-style ideal: one generator x^L f_T for each class T with
    ``npairs`` pairs on the letters 1..nvars and each letter tuple L in
    ``letters_of(T)``, indexed canonically by (L, T)."""

    def __init__(self, nvars: int, npairs: int, fld: Field, letters_of):
        self.nvars = nvars
        self.field = fld
        classes = all_two_row_classes(nvars, npairs)
        self.gens = [(L, cls) for cls in classes for L in letters_of(cls)]
        self.index = {gen: idx for idx, gen in enumerate(self.gens)}

    def gen_poly(self, idx: int) -> Polynomial:
        letters, cls = self.gens[idx]
        xl = _monomial_of_letters(self.nvars, letters)
        return Polynomial.monomial(self.nvars, xl, 1, self.field) * cls.f(self.field)

    def gen_index(self, letters: tuple, cls: TwoRowClass) -> int:
        idx = self.index.get((letters, cls))
        if idx is None:
            xl = " * ".join(f"x_{i}" for i in letters)
            raise KeyError(f"{xl} * f{cls.text()} is not an frJ generator")
        return idx

    def generator_polynomials(self) -> list[Polynomial]:
        return [self.gen_poly(i) for i in range(len(self.gens))]


def TwoRowFrJ(nvars: int, npairs: int, fld: Field) -> FrJ:
    """frJ = (x_i f_T : T in Tab(mu), x_i not in supp f_T) for a two-row mu."""
    return FrJ(nvars, npairs, fld, lambda cls: [(i,) for i in cls.singletons])


def AA1FrJ(a: int, fld: Field) -> FrJ:
    """The §4-style ideal (x_i x_j f_T : T in Tab((a,a)), (i,j) a column)."""
    return FrJ(2 * a, a, fld, lambda cls: cls.pairs)


@dataclass
class MembershipCertificate:
    """An explicit expression of the target in frJ generators.

    ``combination`` entries are (coefficient, monomial, generator index);
    the symbolic identity sum coeff * x^mono * gen == target is verified on
    construction.
    """

    target: Polynomial
    combination: list[tuple[object, Monomial, int]]
    context: FrJ
    trace: list[str] = dc_field(default_factory=list)

    def __post_init__(self):
        if not self.verify():
            raise SelfCheckError("certificate failed symbolic verification")

    def reconstruction(self) -> Polynomial:
        fld, n = self.target.field, self.target.nvars
        total = Polynomial.zero(n, fld)
        for coeff, mono, idx in self.combination:
            total = total + Polynomial(n, fld, {mono: coeff}) * self.context.gen_poly(idx)
        return total

    def verify(self) -> bool:
        return self.reconstruction() == self.target


def _monomial_of_letters(nvars: int, letters) -> Monomial:
    e = [0] * nvars
    for i in letters:
        e[i - 1] = 1
    return tuple(e)


def _intake(coeffs: dict, fld: Field, nvars: int, npairs: int) -> dict:
    """{class or tableau: coefficient} as {class: nonzero field element}.

    A tableau becomes its class, its coefficient times the normalization
    sign.  Every key must have ``npairs`` pairs on the letters 1..nvars,
    whatever its coefficient; zeros and cancelled sums are dropped last.
    """
    out: dict = {}
    for key, c in coeffs.items():
        cls, sgn = tableau_to_class(key) if isinstance(key, Tableau) else (key, 1)
        if (
            cls.nvars != nvars
            or len(cls.pairs) != npairs
            or 2 * npairs + len(cls.singletons) != nvars
        ):
            raise ValueError(
                f"{cls.text()} does not have shape mu=({nvars - npairs}, {npairs})"
            )
        c = fld.mul(fld.of(c), sgn)
        if c:
            out[cls] = fld.add(out.get(cls, 0), c)
    return {cls: c for cls, c in out.items() if c}


def _target(nvars: int, letters, current: dict, fld: Field, d: int) -> Polynomial:
    """x^a * sum c_T f_T for x^a the product of ``letters``; it must lie in
    the squarefree ideal I_<d> of all degree-d squarefree monomials."""
    xa = Polynomial.monomial(nvars, _monomial_of_letters(nvars, letters), 1, fld)
    out = Polynomial.zero(nvars, fld)
    for cls, c in current.items():
        out = out + (xa * cls.f(fld)).scale(c)
    if any(len(mono_support(m)) < d for m in out.terms):
        raise ValueError(f"x^a * sum c_T f_T is not in the squarefree ideal I_<{d}>")
    return out


def _straighten_all(current: dict, k: int, fld: Field) -> dict:
    """sum c_T f_T rewritten on quasi-h-standard classes, merged over fld."""
    out: dict = {}
    for cls, c in current.items():
        for sgn, out_cls in straighten_quasi_h(cls, k):
            _merge(out, out_cls, fld.mul(c, sgn), fld)
    return out


def _support_lemma_terms(cls: TwoRowClass, k: int, coeff, ctx: FrJ, trace: list):
    """Certificate terms for x^a f_T in frJ when x^a is not in supp(f_T)."""
    fld = ctx.field
    prefix = set(range(1, k + 1))
    single_hits = prefix & set(cls.singletons)
    if single_hits:
        i = min(single_hits)
        mono = _monomial_of_letters(cls.nvars, prefix - {i})
        trace.append(f"phase0 direct x_{i} free in {cls.text()} coeff={coeff}")
        return [(coeff, mono, ctx.gen_index((i,), cls))]
    shared = [
        (lo, hi) for lo, hi in cls.pairs if lo in prefix and hi in prefix
    ]
    if not shared:
        raise AssertionError("class unexpectedly lies in X")
    i, j = shared[0]
    s = cls.singletons[0]  # s > k since all of 1..k sit in pairs, so the signs are +, -
    (sign1, c1), (sign2, c2) = _three_term(cls, (i, j), s)
    trace.append(
        f"phase0 three-term {cls.text()} -> +{c1.text()} -{c2.text()} "
        f"via singleton {s} coeff={coeff}"
    )
    return [
        (fld.mul(coeff, sign1), _monomial_of_letters(cls.nvars, prefix - {j}),
         ctx.gen_index((j,), c1)),
        (fld.mul(coeff, sign2), _monomial_of_letters(cls.nvars, prefix - {i}),
         ctx.gen_index((i,), c2)),
    ]


def replay_radical_reduction(
    shape: Partition,
    prefix: Monomial | int,
    coeffs: dict,
    fld: Field = QQ,
) -> MembershipCertificate:
    """Replay the two-operation rewriting for lambda = (n-d, d).

    ``prefix`` is the squarefree monomial x^a over n-1 variables (or the
    integer k for x_1...x_k); ``coeffs`` maps two-row classes (or two-row
    tableaux) of shape mu = (n-d, d-1) on the letters 1..n-1 to field
    elements.  The input phi = x^a * sum c_T f_T must lie in I_<d>; the
    returned certificate expresses phi in frJ generators and is verified
    symbolically.
    """
    if shape.length != 2:
        raise ValueError("replay handles two-row shapes (n-d, d)")
    n = shape.n
    d = shape.parts[1]
    if d < 2:
        raise ValueError("the reduction starts at d >= 2")
    nvars = n - 1
    if isinstance(prefix, int):
        letters = tuple(range(1, prefix + 1))
    else:
        prefix = tuple(prefix)
        if len(prefix) != nvars or any(e not in (0, 1) for e in prefix):
            raise ValueError("prefix must be a squarefree monomial in n-1 variables")
        letters = tuple(i + 1 for i, e in enumerate(prefix) if e)
    k = len(letters)
    if k > d - 1:
        raise ValueError(f"prefix length {k} exceeds d-1 = {d - 1}")
    current = _intake(coeffs, fld, nvars, d - 1)
    phi = _target(nvars, letters, current, fld, d)
    if letters != tuple(range(1, k + 1)):
        return _replay_relabelled(shape, letters, current, phi, fld)

    ctx = TwoRowFrJ(nvars, d - 1, fld)
    trace: list[str] = [f"target shape={shape} prefix=x_1..x_{k}"]
    terms: list = []

    # Phase 0: classes outside X go straight to frJ by the support lemma.
    outside = [cls for cls in current if not in_X(cls, k)]
    for cls in outside:
        terms.extend(_support_lemma_terms(cls, k, current.pop(cls), ctx, trace))

    round_no = 0
    while current:
        round_no += 1
        # Operation 1: straighten onto quasi-h-standard classes.
        current = _straighten_all(current, k, fld)
        trace.append(f"round {round_no} op1 support={len(current)}")
        if not current:
            break
        # Invariant check: sum of coefficients times h_T vanishes.
        h_total = Polynomial.zero(nvars, fld)
        for cls, c in current.items():
            h_total = h_total + h_poly(cls, k, fld).scale(c)
        if not h_total.is_zero():
            raise SelfCheckError("h-relation violated; implementation bug")
        trace.append(f"round {round_no} h-relation ok")
        if all(in_Z(cls, k) for cls in current):
            raise SelfCheckError(
                "nonzero coefficients supported on Z contradict standard "
                "independence; implementation bug"
            )
        # Operation 2: apply the sorting permutation, emitting frJ terms.
        nxt: dict = {}
        for cls, c in current.items():
            sigma, target_cls = sigma_reduce(cls, k)
            if sigma:
                old = sorted(hi for _, hi in cls.pairs[:k])
                new = sorted(hi for _, hi in target_cls.pairs[:k])
                raised = all(a <= b for a, b in zip(old, new)) and (
                    new > old or in_Z(target_cls, k)
                )
                if not raised:
                    raise SelfCheckError(
                        "operation 2 failed to raise the prefix bottoms"
                    )
                trace.append(
                    f"round {round_no} op2 {cls.text()} jvec {old}->{new} "
                    f"coeff={c} -> {target_cls.text()}"
                )
                terms.extend(_sigma_move_terms(cls, k, c, ctx, target_cls))
            _merge(nxt, target_cls, c, fld)
        current = nxt

    return MembershipCertificate(phi, terms, ctx, trace)


def _sigma_move_terms(cls: TwoRowClass, k: int, coeff, ctx: FrJ, target: TwoRowClass):
    """Transposition chain from cls to target = sigma_reduce(cls, k)[1], one
    frJ term per move."""
    bots, mid, singles = frame_parts(cls, k)
    bots, singles = list(bots), list(singles)
    terms = []

    def state() -> TwoRowClass:
        prefix_pairs = tuple((l + 1, bots[l]) for l in range(k))
        return TwoRowClass(cls.nvars, prefix_pairs + mid, tuple(sorted(singles)))

    def swap(s_val: int, l: int):
        """Swap singleton value s_val with the bottom of prefix column l+1.

        f_state = f_moved + sign * f_witness, and x_{l+1} is free in the
        witness, so x^a * sign * f_witness is the move's frJ term."""
        _, (sign, witness) = _three_term(state(), (l + 1, bots[l]), s_val)
        mono = _monomial_of_letters(cls.nvars, set(range(1, k + 1)) - {l + 1})
        terms.append((ctx.field.mul(coeff, sign), mono, ctx.gen_index((l + 1,), witness)))
        singles.remove(s_val)
        singles.append(bots[l])
        bots[l] = s_val

    for l, (_, t) in enumerate(target.pairs[:k]):
        if bots[l] == t:
            continue
        if t not in singles:  # free t through the first singleton in move order
            swap(singles[0], bots.index(t))
        swap(t, l)
    if state() != target:
        raise AssertionError("sigma move chain did not reach the sorted state")
    return terms


def _replay_relabelled(shape: Partition, letters, current: dict, phi: Polynomial, fld: Field):
    """Conjugate a general squarefree prefix to x_1..x_k, replay, map back."""
    nvars = shape.n - 1
    rest = [i for i in range(1, nvars + 1) if i not in set(letters)]
    perm = {letter: pos + 1 for pos, letter in enumerate(list(letters) + rest)}
    inv = {v: u for u, v in perm.items()}

    def relabel(cls: TwoRowClass, mapping) -> tuple[TwoRowClass, int]:
        pairs = [(mapping[a], mapping[b]) for a, b in cls.pairs]
        singles = [mapping[s] for s in cls.singletons]
        return make_class(nvars, pairs, singles)

    moved: dict = {}
    for cls, c in current.items():
        cls2, sgn = relabel(cls, perm)
        moved[cls2] = fld.mul(c, sgn)
    cert = replay_radical_reduction(shape, len(letters), moved, fld)

    ctx = cert.context
    back_terms = []
    for coeff, mono, idx in cert.combination:
        gen_letters, cls = ctx.gens[idx]
        cls_back, sgn = relabel(cls, inv)
        mono_back = _monomial_of_letters(
            nvars, [inv[j + 1] for j, e in enumerate(mono) if e]
        )
        gen_back = tuple(inv[i] for i in gen_letters)
        back_terms.append((fld.mul(coeff, sgn), mono_back, ctx.gen_index(gen_back, cls_back)))
    return MembershipCertificate(
        phi, back_terms, ctx, cert.trace + [f"relabelled prefix {letters}"]
    )


# ---------------------------------------------------------------------------
# The (a, a, 1) variant: W-restriction plus h-independence


def aa1_h_and_bar(cls: TwoRowClass, k: int, fld: Field = QQ) -> tuple[Polynomial, Polynomial, int]:
    """h_T, the reversed-frame Specht polynomial, and the sign relating them.

    For an (a,a) class with prefix k, h_T equals sign * f of the tableau
    whose first row lists the bottoms in reverse and whose second row lists
    the non-prefix tops in reverse.
    """
    _, mid, _ = frame_parts(cls, k)
    h = h_poly(cls, k, fld)
    row1 = [hi for _, hi in reversed(cls.pairs)]
    row2 = [lo for lo, _ in reversed(mid)]
    bar = difference_product(cls.nvars, zip(row1, row2), fld)
    sign = 1 if len(mid) % 2 == 0 else -1
    return h, bar, sign


def replay_aa1_reduction(
    a: int, k: int, coeffs: dict, fld: Field = QQ
) -> MembershipCertificate:
    """W-restriction replay for lambda = (a, a, 1) (surjected to mu = (a, a)).

    psi = x_1..x_k * sum c_T f_T over Tab((a,a)) classes on 2a letters must
    lie in I_<a+1>; the certificate expresses psi in the x_i x_j f_T
    generators.  After straightening, every class outside W contributes a
    single generator term, and no class inside W may keep a nonzero
    coefficient, by the independence of the h polynomials on W.
    """
    nvars = 2 * a
    if not 0 <= k <= a:
        raise ValueError("prefix length must be between 0 and a")
    current = _intake(coeffs, fld, nvars, a)
    prefix = tuple(range(1, k + 1))
    psi = _target(nvars, prefix, current, fld, a + 1)

    ctx = AA1FrJ(a, fld)
    trace = [f"aa1 replay a={a} k={k}"]
    terms: list = []

    # straighten to standard classes (no singletons: only bottom inversions)
    standard = _straighten_all(current, 0, fld)
    trace.append(f"straightened to {len(standard)} standard classes")

    w_supported = False
    prefix_set = set(prefix)
    for cls, c in standard.items():
        if in_X(cls, k):
            w_supported = True
            continue
        shared = [p for p in cls.pairs if p[0] in prefix_set and p[1] in prefix_set]
        if not shared:
            raise AssertionError("standard class outside W lacks a prefix column")
        i, j = shared[0]
        mono = _monomial_of_letters(nvars, prefix_set - {i, j})
        terms.append((c, mono, ctx.gen_index((i, j), cls)))
        trace.append(f"W-restriction {cls.text()} via column ({i},{j})")
    if w_supported:
        raise SelfCheckError(
            "W-supported remainder is nonzero: contradicts h independence"
        )
    return MembershipCertificate(psi, terms, ctx, trace)
