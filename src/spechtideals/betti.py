"""Graded Betti numbers of R/I via Koszul homology, and CM/Gorenstein verdicts.

beta_{i,j} is the degree-j dimension of the i-th homology of the Koszul
complex on all variables tensored with R/I.  For a Specht ideal the last
variable is a regular element on R/I (``ideals.SpechtIdeal``), so the
computation drops to the specialization x_n -> 0 in one fewer variable,
with the same Betti table.

``regular_reduction`` then divides M = S/J (J that image) by linear forms,
one at a time, before any Koszul rank.  A form l = x_m + sum c_i x_i is
accepted when the image J' of J under x_m -> -sum c_i x_i has
dim (S'/J')_t = dim M_t - dim M_{t-1} for every t <= j_max.  Since
dim (M/lM)_t = dim M_t - rank(l: M_{t-1} -> M_t), this says exactly that
l is injective on M_t for t < j_max, i.e. 0 -> M(-1) -> M -> M/lM -> 0 is
exact in degrees <= j_max.  The degree-j strand of a Koszul complex reads
the module only in degrees <= j, so with l as a coordinate, the Koszul
complex of M is the mapping cone of l on that of the other variables, and
for j <= j_max it has the homology of the Koszul complex of M/lM:
beta_{i,j}(M) = beta_{i,j}(M/lM) for every j <= j_max, and the table, its
``closed_off`` flag and every report stay the same.  The form need not be
regular: over GF(2) every linear form lies in a minimal prime of (3,3),
yet one is injective below j_max.  Candidates are the all-ones form, then
draws with nonzero coefficients from a fixed generator, at most
``_SOP_DRAWS`` per step, over every field alike; the reduction stops when
no candidate passes, when the quotient vanishes in degree j_max, or at
one variable.  The Koszul matrices are then ranked in the fewer
variables that remain, and since every chain dimension follows from the
Hilbert function, the column cap is checked before any matrix is built.
The ranks of d_1 and d_2 need no elimination: with q_t = dim (S/J)_t in m
variables, rank d_1 = q_j in internal degree j, since S/J is generated in
degree 1, and rank d_2 = m q_{j-1} - q_j - mu_j, since H_1 = J/mJ has
dimension mu_j, the number of minimal generators of J in degree j, which
``GeneratedIdeal`` counts while it builds J_j (0, with no J_j built,
where no generator has degree j).  Only d_3, ..., d_m are built, so a
reduction that ends in m <= 2 variables builds no Koszul matrix, nor any
J_j past its top generator degree and the degree at which its Groebner
basis is certified (``ideals``); the column cap still covers d_1 and d_2.
When the reduction ends at an Artinian quotient of top degree s in m
variables, its socle gives Koszul homology in degree m + s, so the table
is ``closed_off`` only when m + s <= j_max.

Without an explicit degree bound, ``cm_verdict`` first tries a certified
Artinian reduction (Serre's multiplicity criterion, Bruns-Herzog 4.7), in
``artinian_reduction``.  The translation step sends x_n to 0, and
d = n - 1 - lambda_1 linear forms in the first lambda_1 variables, with
coefficients drawn from all of a field by a fixed generator, replace the
remaining d.  The image of I is then generated in degree D =
``specht_poly_degree`` in lambda_1 variables, and the forms are a system
of parameters exactly when its quotient is Artinian, which its Hilbert
function decides: an Artinian quotient vanishes past lambda_1 (D - 1), so
a draw is accepted when the function reaches 0 by the next degree, and
the same values give the length L.  L is then at least e(V), the number
of minimal primes of height lambda_1 (counted from block-size profiles,
without a listing), and L = e(V) proves R/I Cohen-Macaulay: the forms are
then a regular sequence, so the Artinian quotient has the same Betti
table, finite and complete.  In characteristic 0, L is computed over
GF(p) for integer forms; a GF(p) dimension bounds the rational one from
above, so a GF(p) quotient that vanishes, and L_p = e(V), prove both in
characteristic 0 as well.  In characteristic p the forms are drawn over
``fields.draw_field(p)`` (``artinian_field``), GF(p^k) with at least 200
elements, since a small prime field may have no system of parameters at
all.  L >= e(V) holds in every characteristic, and base change from
GF(p) to GF(p^k) keeps Cohen-Macaulayness and every Betti number, so
L = e(V) over GF(p^k) proves the verdict and the table over GF(p);
``betti --char p`` reads the same complete table up to its degree bound.
When d = 0 the translation step alone leaves an Artinian quotient, over
GF(p) itself, and e(V) is not needed.  A certified quotient has length
e(V), so its Koszul complex has e(V) 2^lambda_1 basis elements; past the
column cap the attempt is skipped before any Hilbert function is computed.
Otherwise (no system of parameters in ``_SOP_DRAWS`` draws, L > e(V), an
explicit degree bound, or a skipped attempt) the Koszul table up to a
degree bound is used, and its certificate is ``heuristic``: the strands
only look closed.  In characteristic p such a certificate keeps none of
the attempt's values, which were measured over another field.

The draw-and-accept loop, ``artinian_draw``, also serves
``radical_by_length``, which proves I^Sp = I_{n,lambda_1+1} in every
degree where the minimal primes are the P_F with |F| = lambda_1 + 1: there
L = e(V) makes R/I CM and reduced (its docstring), over the same field.

A certified characteristic-0 table is computed over one prime p, the
first of ``fields.PROXY_PRIMES``, whenever flatness pins it as the rational
table.  Let the integer forms give L_p = e(V) over GF(p) (for d = 0, where
no forms are drawn, L_p is compared with e(V) as well).  In every degree t,
dim_QQ A_t <= dim_GF(p) A_t, and L_QQ >= e(V) = L_p, so the two Hilbert
functions agree and the Artinian algebra over Z_(p) is flat.  Every Koszul
rank mod p is then at most the rank over QQ between chain groups of the
same dimensions, so beta^QQ <= beta^p entrywise, with the same alternating
sum in every internal degree j.  A GF(p) table with at most one nonzero
entry in each internal degree is therefore the QQ table
(``flat_refusal``).  The hooks (a,1^k) with a >= 3 and k >= 2 have two
entries in some degree, (4,1,1) in degrees 5-7: their table is computed
over the second proxy prime too, and the two tables must agree (a
disagreement raises, never resolves silently).  Each bounds the rational
table entrywise by the same argument; their agreement stands in for a
proof there, and the certificate lists both fields.  Every field draws
and certifies its own reduction (``artinian_reduction``), QQ too, behind
a flag, from the integers that the first prime draws.  A Koszul table in
characteristic 0 is computed over both primes, which must agree
likewise.  ``betti --char 0`` takes the certified tables of both primes
and reads them up to the first bound of ``koszul_bounds`` that closes
them off, as far as the Koszul table they replace would have reached; it
takes that Koszul table only where nothing is certified.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from itertools import combinations
from math import comb

from .fields import PROXY_PRIMES, Field, QQ, draw_field, field_of
from .ideals import GeneratedIdeal, hilbert_function, specht_ideal
from .linalg import rank_dense_mod_p, rank_sparse
from .poly import Polynomial
from .specht import column_pairs, specht_poly_degree
from .tableaux import Partition, enumerate_standard_tableaux
from .varieties import ResourceLimitError, SelfCheckError, _minimal_profiles, height_and_purity

_COLUMN_CAP = 20_000  # columns of one Koszul matrix
_DENSE_CELLS = 4_096  # rows x columns past which a GF(p) Artinian Koszul matrix is ranked densely
_SOP_DRAWS = 3  # linear forms tried per Artinian attempt and per regular-reduction step


class ProxyDisagreement(SelfCheckError):
    """The two large-prime proxies produced different Betti tables."""


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} of R/I up to internal degree j_max."""

    n: int
    characteristic: int
    entries: dict[tuple[int, int], int]
    j_max: int
    # variables of the ring the table was computed in, before and after
    # ``regular_reduction``; not part of the report
    reduced: tuple[int, int] | None = None
    # m + s when that ring's quotient is Artinian with top degree s in m
    # variables: its socle, the last Koszul homology, reaches degree m + s
    artinian_end: int | None = None

    @property
    def pd(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    @property
    def closed_off(self) -> bool:
        """No entry sits on the top computed degree, so the strands ended,
        and an Artinian quotient's socle lies within the computed degrees."""
        return all(j < self.j_max for (_, j) in self.entries) and (
            self.artinian_end is None or self.artinian_end <= self.j_max
        )

    def up_to(self, j_max: int) -> "BettiTable":
        """The table read up to internal degree j_max.  A complete table
        keeps its socle degree, so the cut is ``closed_off`` exactly when
        every entry lies below j_max."""
        entries = {key: v for key, v in self.entries.items() if key[1] <= j_max}
        return replace(self, entries=entries, j_max=j_max)

    def totals(self) -> list[int]:
        out = [0] * (self.pd + 1)
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def max_row(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def m2_lines(self) -> list[str]:
        """The Macaulay2-style diagram: rows are j - i, columns are i."""
        pd = self.pd
        rows = self.max_row()
        cells = [["." for _ in range(pd + 1)] for _ in range(rows + 1)]
        for (i, j), v in self.entries.items():
            cells[j - i][i] = str(v)
        totals = [str(t) for t in self.totals()]
        widths = [
            max(len(totals[i]), max(len(cells[r][i]) for r in range(rows + 1)))
            for i in range(pd + 1)
        ]
        lines = [
            "total: " + " ".join(t.rjust(w) for t, w in zip(totals, widths))
        ]
        for r in range(rows + 1):
            body = " ".join(cells[r][i].rjust(widths[i]) for i in range(pd + 1))
            lines.append(f"{str(r).rjust(5)}: {body}")
        return lines

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "characteristic": self.characteristic,
            "j_max": self.j_max,
            "closed_off": self.closed_off,
            "entries": [
                {"i": i, "j": j, "beta": v}
                for (i, j), v in sorted(self.entries.items())
            ],
            "totals": self.totals(),
        }


def _divide_by_form(ideal: GeneratedIdeal, coeffs: list) -> GeneratedIdeal:
    """The image of J under x_m -> -sum_i coeffs[i] x_i (m the last
    variable): S/J divided by x_m + sum_i coeffs[i] x_i, in one fewer
    variable."""
    k, fld = ideal.nvars - 1, ideal.field
    xs = [Polynomial.variable(k, i, fld) for i in range(k)]
    rest = sum((x.scale(c) for x, c in zip(xs, coeffs)), Polynomial.zero(k, fld))
    assignment = dict(enumerate(xs + [-rest]))
    return GeneratedIdeal(k, fld, [g.substitute(assignment) for g in ideal.generator_list()])


def regular_reduction(ideal: GeneratedIdeal, j_max: int) -> tuple[GeneratedIdeal, list[int]]:
    """Divide S/J by linear forms that are injective on (S/J)_t for every
    t < j_max, one at a time, as long as one is found (module docstring).

    Returns the final ideal and its Hilbert function up to j_max.  A form
    l is accepted exactly when the quotient by l has, in every degree
    t <= j_max, the first difference of the previous Hilbert function as
    its dimension; candidates are the all-ones form, then seeded draws
    with nonzero coefficients, at most ``_SOP_DRAWS`` per step.  A draw
    already tried in the step is skipped: over GF(2) every draw is the
    all-ones form again.
    """
    qdim = hilbert_function(ideal, j_max)
    p = ideal.field.characteristic
    # over QQ the draws are those of the first proxy prime
    top = p or PROXY_PRIMES[0]
    rng = random.Random(0)  # a fixed draw keeps every report reproducible
    while ideal.nvars > 1 and qdim[-1]:
        want = [qdim[0]] + [qdim[t] - qdim[t - 1] for t in range(1, j_max + 1)]
        if min(want) < 0:  # no form is injective where the function falls
            break
        tried = []
        for draw in range(_SOP_DRAWS):
            coeffs = [1 if draw == 0 else rng.randrange(1, top) for _ in range(ideal.nvars - 1)]
            if coeffs in tried:
                continue
            tried.append(coeffs)
            image = _divide_by_form(ideal, coeffs)
            if all(image.quotient_dim(t) == want[t] for t in range(j_max + 1)):
                ideal, qdim = image, want
                break
        else:
            break
    return ideal, qdim


def koszul_betti(ideal: GeneratedIdeal, j_max: int) -> BettiTable:
    """Betti table of R/I for internal degrees <= j_max, computed on the
    ideal's x_n -> 0 image when it carries one, divided by the linear forms
    ``regular_reduction`` finds.

    Only the maps d_i with i >= 3 are built and ranked.  In internal
    degree j, with q_t = dim Q_t for Q = S/J in m variables, d_1 maps
    V (x) Q_{j-1} onto Q_j, since Q is generated in degree 1, so
    rank d_1 = q_j; and H_1 = Tor_1(k, Q) = J/mJ, so beta_{1,j} = mu_j, the
    minimal generators of J in degree j
    (``GeneratedIdeal.minimal_generators``), and
    rank d_2 = m q_{j-1} - q_j - mu_j.  A derived rank outside
    [0, min(rows, columns)] of its matrix raises a SelfCheckError.  The rows
    of d_i, i >= 3, come from ``QuotientRing.map_rows``, one block per i-subset.

    Every chain dimension is known once the Hilbert function is, so a
    Koszul matrix past ``_COLUMN_CAP`` columns raises a ResourceLimitError
    before any matrix is built.  The cap covers every (i, j), d_1 and d_2
    included, though those two are never built.
    """
    start = ideal.translation_reduction() or ideal
    work, qdim = regular_reduction(start, j_max)
    m = work.nvars
    q = work.quotient_ring()

    # an Artinian quotient (the Artinian reduction, or an (n-1, 1) hook)
    # has Koszul matrices with dense rows.  Over GF(p) those past
    # _DENSE_CELLS cells take the dense rank, several times faster there;
    # on smaller ones it saves less than its numpy import costs.  The dense
    # rank computes in prime fields only: GF(p^k) ranks sparse
    fld = work.field
    p = fld.characteristic
    dense = p > 0 and fld.degree == 1 and qdim[-1] == 0
    minus = fld.neg(1)

    def chain_dim(i: int, j: int) -> int:
        t = j - i
        if i < 0 or i > m or t < 0 or t > j_max:
            return 0
        return comb(m, i) * qdim[t]

    matrices = [
        (i, j) for j in range(j_max + 1) for i in range(1, min(m, j) + 1)
        if chain_dim(i, j) and chain_dim(i - 1, j)
    ]
    for i, j in matrices:
        if chain_dim(i - 1, j) > _COLUMN_CAP:
            raise ResourceLimitError(
                f"Koszul matrix at (i={i}, j={j}) has {chain_dim(i - 1, j)} columns; "
                f"cap is {_COLUMN_CAP}"
            )

    subsets = {i: list(combinations(range(m), i)) for i in range(m + 1)}
    subset_pos = {i: {s: k for k, s in enumerate(subsets[i])} for i in range(m + 1)}

    def koszul_rows(i: int, t: int):
        """Rows of the Koszul map K_i -> K_{i-1} in internal degree i + t."""
        tgt_block, pos_of = qdim[t + 1], subset_pos[i - 1]
        for S in subsets[i]:
            yield from q.map_rows(t, [
                (s, minus if pos % 2 else 1, pos_of[S[:pos] + S[pos + 1 :]] * tgt_block)
                for pos, s in enumerate(S)
            ])

    ranks: dict[tuple[int, int], int] = {}
    for i, j in matrices:
        ncols = chain_dim(i - 1, j)
        if i == 1:  # d_1 maps onto Q_j: Q is generated in degree 1
            ranks[(i, j)] = qdim[j]
        elif i == 2:  # H_1 = J/mJ, so beta_{1,j} = mu_j
            ranks[(i, j)] = m * qdim[j - 1] - qdim[j] - work.minimal_generators(j)
        elif dense and chain_dim(i, j) * ncols > _DENSE_CELLS:
            ranks[(i, j)] = rank_dense_mod_p(list(koszul_rows(i, j - i)), ncols, p)
        else:
            ranks[(i, j)] = rank_sparse(koszul_rows(i, j - i), fld)
        if not 0 <= ranks[(i, j)] <= min(chain_dim(i, j), ncols):
            raise SelfCheckError(
                f"Koszul rank {ranks[(i, j)]} at (i={i}, j={j}) outside "
                f"[0, min({chain_dim(i, j)}, {ncols})]"
            )

    entries: dict[tuple[int, int], int] = {}
    for j in range(j_max + 1):
        for i in range(0, min(m, j) + 1):
            beta = (
                chain_dim(i, j)
                - ranks.get((i, j), 0)
                - ranks.get((i + 1, j), 0)
            )
            if beta < 0:
                raise AssertionError(f"negative Betti number at {(i, j)}")
            if beta:
                entries[(i, j)] = beta
    return BettiTable(
        n=ideal.nvars,
        characteristic=p,
        entries=entries,
        j_max=j_max,
        reduced=(start.nvars, m),
        # R/I = 0 has no socle, and its table is empty
        artinian_end=(
            m + max(t for t, v in enumerate(qdim) if v) if qdim[-1] == 0 and any(qdim) else None
        ),
    )


@dataclass(frozen=True)
class Certificate:
    """How a verdict was established, as the report shows it.

    For ``cm-check``: ``artinian-length``, the Artinian reduction proved CM
    over ``fields`` and the table is complete; ``heuristic``, the table is
    a Koszul table up to ``j_max`` whose strands look closed.  In
    characteristic p ``fields`` is one field, that of ``artinian_field``
    or GF(p).  Each field of an ``artinian-length`` certificate drew and
    certified its own reduction.  In characteristic 0 one field,
    GF(``PROXY_PRIMES[0]``), says that flatness pins its table as the
    rational one (``flat_refusal``); both proxy primes say that it does
    not and that their tables agree.  A ``heuristic`` one lists both proxy
    primes.  QQ comes last when the exact-rational table was computed and
    agrees.
    A certificate records only values measured over its own fields: a
    ``heuristic`` one keeps the ``length`` and ``multiplicity`` of an
    Artinian attempt that did not certify, if one ran, in characteristic
    0, and none in characteristic p.

    For ``radical-check``: ``artinian-length``, the equality holds in
    every degree (``radical_by_length``, ``j_max`` None);
    ``bounded-degree``, the components agree up to ``j_max``;
    ``separating-polynomial``, a polynomial of degree <= ``j_max`` lies in
    one ideal and not the other.
    """

    kind: str
    provenance: str  # the module.function that produced the verdict
    fields: tuple[str, ...]
    j_max: int | None  # the degree bound; None when the proof has none
    length: int | None = None  # L of the Artinian quotient over the first field
    multiplicity: int | None = None  # e(V); None when no forms were needed
    h_vector: tuple[int, ...] | None = None

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "fields": list(self.fields),
            "j_max": self.j_max,
            "length": self.length,
            "e_V": self.multiplicity,
            "h_vector": None if self.h_vector is None else list(self.h_vector),
        }


@dataclass
class CmVerdict:
    """Projective dimension, depth, dimension, and CM/Gorenstein flags."""

    shape: Partition
    characteristic: int
    pd: int
    depth: int
    dim: int
    is_cm: bool
    is_gorenstein: bool
    table: BettiTable
    certificate: Certificate
    trace: list[str] = dc_field(default_factory=list)


def artinian_ideal(shape: Partition, images: list[list[int]], fld: Field) -> GeneratedIdeal:
    """The image of I^Sp under x_a -> images[a-1] (a linear form in
    len(images[0]) variables): per standard tableau, the product over its
    column pairs (a, b) of the image of x_a - x_b."""
    k = len(images[0])
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    linear = [Polynomial(k, fld, dict(zip(units, img))) for img in images]
    gens = []
    for t in enumerate_standard_tableaux(shape):
        f = Polynomial.constant(k, 1, fld)
        for a, b in column_pairs(t):
            f = f * (linear[a - 1] - linear[b - 1])
        gens.append(f)
    return GeneratedIdeal(k, fld, gens)


def _artinian_top(shape: Partition) -> int:
    """The degree past which an Artinian image of I^Sp vanishes: an Artinian
    ideal generated in degree D in lambda_1 variables contains, over an
    infinite extension field, a regular sequence of lambda_1 degree-D forms,
    so its quotient vanishes past lambda_1 (D - 1), and the forms are a
    system of parameters exactly when the Hilbert function is 0 one degree
    later."""
    return shape.parts[0] * (specht_poly_degree(shape) - 1)


def artinian_draw(
    shape: Partition, fld: Field, trace: list[str]
) -> tuple[list[list[int]], GeneratedIdeal, list[int]] | None:
    """The first of ``_SOP_DRAWS`` seeded draws of n - 1 - lambda_1 linear
    forms in the first lambda_1 variables, coefficients drawn from all of
    ``fld`` (over QQ the integers below ``PROXY_PRIMES[0]``, the forms
    that prime draws), that is a system of parameters over ``fld`` (module
    docstring): (the images of x_1 .. x_n, the image ideal over ``fld``,
    the Hilbert function of its quotient up to its first zero), or None.
    ``artinian_reduction`` and ``radical_by_length`` both draw here."""
    n, lam1 = shape.n, shape.parts[0]
    units = [[int(i == a) for i in range(lam1)] for a in range(lam1)]
    top = _artinian_top(shape)
    order = fld.order or PROXY_PRIMES[0]
    rng = random.Random(0)  # a fixed draw keeps the report reproducible
    for _ in range(_SOP_DRAWS):
        forms = [[rng.randrange(order) for _ in range(lam1)] for _ in range(n - 1 - lam1)]
        # x_n -> 0 is the translation step: x_n is regular on R/I over every
        # field, as ``ideals.SpechtIdeal`` states
        images = units + forms + [[0] * lam1]
        art = artinian_ideal(shape, images, fld)
        h = hilbert_function(art, top + 1)
        if not h[-1]:
            return images, art, h[: h.index(0)]
        trace.append("drawn forms are not a system of parameters")
    return None


def _length_floor(shape: Partition) -> int:
    """A lower bound on the length L of every Artinian image of I^Sp: the
    image is generated in degree D = ``specht_poly_degree`` in lambda_1
    variables, so every monomial of degree below D survives, and
    L >= C(lambda_1 + D - 1, lambda_1)."""
    lam1 = shape.parts[0]
    return comb(lam1 + specht_poly_degree(shape) - 1, lam1)


def _length_is_e_v(shape: Partition, h: list[int], e_v: int, fld: Field, trace: list[str]) -> bool:
    """Whether the length L = sum(h) equals e(V).  L >= e(R/I) >= e(V)
    always, so a smaller L raises a SelfCheckError; a larger one is traced."""
    if sum(h) < e_v:
        raise SelfCheckError(f"length {sum(h)} below e(V) = {e_v} for {shape} over {fld}")
    if sum(h) > e_v:
        trace.append(f"length {sum(h)} over {fld} exceeds e(V) = {e_v}")
    return sum(h) == e_v


def artinian_field(shape: Partition, characteristic: int) -> Field:
    """The one field that the Artinian reduction runs over in characteristic
    p > 0: ``fields.draw_field(p)`` when forms are drawn, GF(p) when the
    translation step alone leaves an Artinian quotient (n - 1 = lambda_1)."""
    if shape.n - 1 - shape.parts[0]:
        return draw_field(characteristic)
    return field_of(characteristic)


def artinian_reduction(
    shape: Partition, fields: list[Field], trace: list[str] | None = None
) -> tuple[list[BettiTable] | None, dict]:
    """The Artinian reduction of R/I^Sp over each field (module docstring).

    Every field draws and certifies its own reduction: its own draw
    (``artinian_draw``) and its own L = e(V) (``_length_is_e_v``).
    Returns the complete Betti table over each field when each certifies
    (or no forms were needed), else None; and the values measured over the
    first field (length, multiplicity, h_vector) for the certificate.  The
    first field that fails ends the attempt, so a shape that is not CM
    costs one Hilbert function per draw over the first field alone.  e(V)
    comes from ``varieties.height_and_purity``, which lists nothing, so the
    column-cap gate fires before any Hilbert function is computed.
    """
    trace = [] if trace is None else trace
    n, lam1 = shape.n, shape.parts[0]
    measured: dict = {}
    if n - 1 - lam1:
        measured["multiplicity"] = e_v = height_and_purity(shape).top_primes
        if e_v << lam1 > _COLUMN_CAP:
            # a certified quotient has length e(V), so its Koszul complex
            # has e(V) 2^lambda_1 basis elements, past the column cap.  The
            # Koszul path that runs instead computes the regular reduction's
            # Hilbert functions up to j_max before its own cap can fire, and
            # runs for more than 400 s on (5,1,1,1) (ROADMAP, "Caps before the
            # Hilbert functions")
            trace.append(
                f"no Artinian reduction: e(V) 2^lambda_1 = {e_v << lam1} exceeds the column cap"
            )
            return None, measured
    tables = []
    for fld in fields:
        drawn = artinian_draw(shape, fld, trace)
        if drawn is None:
            return None, measured
        _, art, h = drawn
        if not tables:
            measured.update(length=sum(h), h_vector=tuple(h))
        e_v = measured.get("multiplicity")
        if e_v is not None and not _length_is_e_v(shape, h, e_v, fld, trace):
            return None, measured
        # every entry sits at j <= socle degree + lam1, below len(h) + lam1
        tables.append(replace(koszul_betti(art, len(h) + lam1), n=n))
    return tables, measured


def flat_refusal(table: BettiTable, length: int, e_v: int) -> str | None:
    """Why flatness does not pin ``table``, the complete table of a
    certified Artinian reduction of length ``length`` over GF(p) by integer
    forms, as the rational table; None when it does (module docstring).

    L_p = e(V) makes the algebra over Z_(p) flat, and then an internal
    degree with at most one entry holds the same entry over QQ."""
    if length != e_v:
        return f"length {length} is not e(V) = {e_v}"
    per_degree = Counter(j for _, j in table.entries)
    crowded = [str(j) for j in sorted(per_degree) if per_degree[j] > 1]
    if not crowded:
        return None
    if len(crowded) == 1:
        return f"degree {crowded[0]} holds more than one entry"
    return f"degrees {', '.join(crowded)} hold more than one entry"


def agreed_table(shape: Partition, fields: list[Field], tables: list[BettiTable]) -> BettiTable:
    """The first field's table, once every other field's table agrees with
    it; a disagreement raises ProxyDisagreement, never resolves silently."""
    for fld, other in zip(fields[1:], tables[1:]):
        if other.entries != tables[0].entries:
            raise ProxyDisagreement(
                f"the tables over {fields[0]} and {fld} disagree for {shape}: "
                f"{tables[0].entries} vs {other.entries}"
            )
    return tables[0]


def radical_by_length(
    shape: Partition, characteristic: int, trace: list[str] | None = None
) -> Certificate | None:
    """A proof that I^Sp = I_{n,lambda_1+1} in every degree, or None.

    It applies when the minimal primes of I^Sp are exactly the P_F with
    |F| = lambda_1 + 1, that is when ``varieties._minimal_profiles`` yields
    the single profile (lambda_1 + 1, 1^(n - lambda_1 - 1)): every two-row
    and (a,a,1) shape, and (1^n), but also shapes such as (2,2,2), which
    are not CM, so that their length exceeds e(V).  Then
    e(V) = C(n, lambda_1 + 1).  Linear forms are drawn as
    ``artinian_reduction`` draws them (``artinian_draw``), over
    ``fields.draw_field``: in characteristic 0 as integers, over
    GF(``PROXY_PRIMES[0]``); in characteristic p over GF(p^k) with at least
    200 elements, since a small prime field may have no system of
    parameters at all.  Suppose the quotient is Artinian of length
    L = e(V).
    - L >= e(R/I) >= e(V), so equality makes R/I Cohen-Macaulay (Serre's
      criterion, Bruns-Herzog 4.7) and reduced at every top prime.
    - A CM ring is unmixed and V is pure, so R/I is reduced and
      I^Sp = the intersection of the P_F = I_{n,lambda_1+1}.  (One
      inclusion holds for every shape by pigeonhole, as
      ``ideals.equal_up_to_degree`` states.)
    - The forms are then a regular sequence, so HF(R/I) is
      h(t) / (1 - t)^(n - lambda_1), h the Artinian Hilbert function.
    - Over GF(p^k) all of this descends to GF(p): base change keeps the
      dimension of every graded piece.  In characteristic 0 each GF(p)
      dimension bounds the rational one from above (the module
      docstring), so the rational quotient is Artinian too, of a length
      between e(V) and L, that is L, and its Hilbert function is h.
    L < e(V) is impossible and raises a SelfCheckError.  Where the floor of
    ``_length_floor`` already exceeds e(V), as for (2,2,2) (21 > 20) and
    (3,3,2) (84 > 70), no draw is tried.
    """
    trace = [] if trace is None else trace
    n, lam1 = shape.n, shape.parts[0]
    if list(_minimal_profiles(shape)) != [(lam1 + 1,) + (1,) * (n - lam1 - 1)]:
        trace.append("the minimal primes are not exactly the P_F with |F| = lambda_1 + 1")
        return None
    e_v = comb(n, lam1 + 1)
    floor = _length_floor(shape)
    if floor > e_v:  # every draw that passes has L > e(V): none is tried
        trace.append(f"length at least {floor} exceeds e(V) = {e_v}")
        return None
    fld = draw_field(characteristic)
    drawn = artinian_draw(shape, fld, trace)
    if drawn is None:
        return None
    h = drawn[2]
    if not _length_is_e_v(shape, h, e_v, fld, trace):
        return None
    return Certificate(
        "artinian-length",
        f"betti.radical_by_length({shape}, char={characteristic})",
        (repr(fld),),
        None,
        length=sum(h),
        multiplicity=e_v,
        h_vector=tuple(h),
    )


def default_j_max(shape: Partition) -> int:
    return specht_poly_degree(shape) + (shape.n - shape.parts[0]) + 3


def resolve_j_max(shape: Partition, j_max: int | None) -> int:
    """The Koszul degree bound for the shape: ``default_j_max`` when None.

    A bound below the generator degree sees no generator, so its table
    would describe R itself; it is refused rather than reported.
    """
    if j_max is None:
        return default_j_max(shape)
    degree = specht_poly_degree(shape)
    if j_max < degree:
        raise ValueError(
            f"j_max={j_max} is below the generator degree {degree} of {shape}"
        )
    return j_max


def koszul_bounds(j_max: int) -> tuple[int, int, int]:
    """The degree bounds a characteristic-0 Koszul table is tried at in
    turn, each past a strand that the one before leaves open."""
    return (j_max, j_max + 2, j_max + 4)


def cm_verdict(
    shape: Partition,
    characteristic: int,
    j_max: int | None = None,
    exact_rational: bool = False,
) -> CmVerdict:
    """CM and Gorenstein verdicts from the Betti table.

    depth is defined as n - pd (graded Auslander-Buchsbaum); dim R/I is
    n - lambda_1 (the height theorem); CM is their equality; Gorenstein is
    CM with final total Betti number 1.  Without a degree bound each field
    draws and certifies its own ``artinian_reduction``: first that of
    ``artinian_field`` in characteristic p, or the first proxy prime in
    characteristic 0, whose table is the rational one when ``flat_refusal``
    finds nothing against it; then, in one more call, the second proxy
    prime when it does (the trace says which rule fixed the table), and QQ
    when ``exact_rational`` asks for it.  With a degree bound, or where the
    attempt does not certify, the table is the Koszul table up to
    ``j_max``: over both proxy primes, and QQ when asked, in characteristic
    0; in characteristic p the failed attempt leaves nothing in the
    certificate.  Every field's table must agree with the first one's
    (``agreed_table``); the table reports ``characteristic``, not the
    field it was computed over.
    """
    if shape.is_trivial:
        raise ValueError("the trivial shape is excluded")
    if exact_rational and characteristic:
        raise ValueError(f"exact_rational needs characteristic 0, got {characteristic}")
    n = shape.n
    jm = resolve_j_max(shape, j_max)
    trace: list[str] = []
    fields = [field_of(p) for p in (PROXY_PRIMES if characteristic == 0 else (characteristic,))]
    fields += [QQ] if exact_rational else []
    tables, measured = None, {}
    if j_max is None:
        over = [artinian_field(shape, characteristic) if characteristic else fields[0]]
        tables, measured = artinian_reduction(shape, over, trace)
        more = fields[2:]  # QQ when asked for
        if tables is not None and not characteristic:
            e_v = measured.get("multiplicity") or height_and_purity(shape).top_primes
            refusal = flat_refusal(tables[0], measured["length"], e_v)
            if refusal is None:
                trace.append(f"pinned over {over[0]} by flatness")
            else:
                trace.append(f"second prime: {refusal}")
                more = fields[1:]
        if tables is not None and more:  # each further field certifies itself
            over += more
            further, _ = artinian_reduction(shape, more, trace)
            tables = None if further is None else tables + further
        if tables is None and characteristic:  # measured over a field the Koszul table does not use
            measured = {}
    if tables is not None:
        fields = over
        kind, provenance = "artinian-length", f"betti.artinian_reduction({shape})"
    else:
        ideals = [specht_ideal(shape, fld) for fld in fields]
        for bound in koszul_bounds(jm):
            if bound > jm:
                trace.append(f"extending j_max to {bound} (strand not closed)")
            tables = []
            for ideal in ideals:  # the first open strand extends the bound for every field
                tables.append(koszul_betti(ideal, bound))
                if not tables[-1].closed_off:
                    break
            else:
                break
        else:
            raise ResourceLimitError(f"Betti strands of {shape} not closed off by j_max={bound}")
        for fld, t in zip(fields, tables):
            m, m_reduced = t.reduced
            trace.append(
                f"Koszul ranks over {fld}: {m - m_reduced} linear form(s) divided "
                f"out, {m} -> {m_reduced} variables"
            )
        kind, provenance = "heuristic", f"betti.koszul_betti(I^Sp_{shape}, j_max={bound})"
    table = replace(agreed_table(shape, fields, tables), characteristic=characteristic)
    if exact_rational:
        trace.append(f"exact rational table agrees with {' and '.join(map(repr, fields[:-1]))}")

    pd = table.pd
    depth = n - pd
    dim = n - shape.parts[0]
    if kind == "artinian-length" and pd != shape.parts[0]:
        raise SelfCheckError(f"certified CM table of {shape} has pd {pd} != lambda_1")
    is_cm = depth == dim
    totals = table.totals()
    is_gorenstein = is_cm and totals[-1] == 1
    return CmVerdict(
        shape=shape,
        characteristic=characteristic,
        pd=pd,
        depth=depth,
        dim=dim,
        is_cm=is_cm,
        is_gorenstein=is_gorenstein,
        table=table,
        certificate=Certificate(
            kind, provenance, tuple(map(repr, fields)), table.j_max, **measured
        ),
        trace=trace,
    )
