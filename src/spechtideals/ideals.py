"""Degree-by-degree linear algebra on homogeneous ideals.

Ideal kinds: finitely generated (incremental per-degree echelons), partition
ideals P_Pi (collapse kernels), the intersections I_{n,k} of all P_F over
k-subsets, squarefree-monomial-degree ideals I_<m>, and sums.  All values
are exact; components are computed lazily per degree, and every kind's
``component`` goes through one per-degree cache on the ideal instance
(``_per_degree``), so a repeat call returns the same GradedBasis.  All
elimination runs in :mod:`linalg`.

Five structural accelerations, each backed by a standard fact:

* every Specht polynomial is a product of differences x_a - x_b, so a
  polynomial in the x_i - x_n, and x_n is regular on R/I^Sp in every
  characteristic: dim (R/I)_d = sum_{e<=d} dim (S/phi(I))_e for the
  specialization phi: x_n -> 0.  ``specht_ideal`` returns a
  ``SpechtIdeal``, which carries phi(I) by construction; a plain generated
  ideal carries no reduction;
* every P_F is generated by differences, so the same identity holds for
  I_{n,k} in every characteristic (flat base change): its degree-d
  collapse rank is the sum over e <= d of the degree-e incidence ranks of
  phi(I_{n,k}), an intersection of collapse kernels and coordinate ideals
  in n-1 variables, and each of those ranks is computed once per degree;
* a generated ideal builds I_d from the echelon basis of I_{d-1} without
  most of the dependent products (Buchberger's chain criterion,
  Gebauer-Moeller).  Columns are in lex order, so lm(x_i b) = x_i lm(b).
  Let x_i b and x_{i*} b* (i* the largest such index) share the leading
  monomial u, and let c in I_{d-2} have leading monomial
  w = lm(b)/x_{i*} = u/(x_i x_{i*}).  Expanding x_{i*} c and x_i c in the
  basis of I_{d-1}, whose rows have distinct leading monomials, the
  identity x_i (x_{i*} c) = x_{i*} (x_i c) reads
  gamma' x_i b = gamma x_{i*} b* + (products with leading monomial below u),
  with gamma, gamma' nonzero.  By induction on u, x_i b is in the span of
  the inserted products and need not be inserted.  The argument holds
  over any field and for generators in mixed degrees, and the reduced
  echelon rows, being canonical, are those of all the products.
* a generated ideal builds no I_d past the degree D at which its
  Groebner basis is certified complete.  The pivots of I_d are in(I)_d,
  and those that are no x_i times a pivot of I_{d-1} are the degree-d
  minimal generators of in(I), the leads; their echelon rows lie in I.
  Every element of I_e, e <= d, reduces to 0 by the leads of degree <= d,
  since its leading monomial is a pivot of I_e.  So this truncated basis
  reduces every S-polynomial whose lcm has degree <= d; a pair of coprime
  leads needs no reduction (the product criterion), nor does a pair whose
  lcm some lead divides once that lead's pairs with both are settled (the
  chain criterion; Gebauer-Moeller 1988, Cox-Little-O'Shea 2.10).  When
  every pair is settled at a degree D at or past the top generator degree,
  the generators lie in the span of the truncated basis, which is then a
  Groebner basis of I (Buchberger's criterion), so the leads generate
  in(I).  Since HF(S/I) = HF(S/in(I)) (Macaulay), ``quotient_dim`` counts
  the standard monomials past D.  A degree that adds no lead does not end
  the basis: (3,3)'s image gains none in degree 5 and one in degree 6.
* columns whose values are known before any elimination are pinned, not
  eliminated.  A monomial w of I_{d-1} has the reduced row {w: 1}, and
  each x_i w lies in S_1 I_{d-1}, so I_d has the reduced row {x_i w: 1}:
  ``GeneratedIdeal._echelon`` sets these rows directly (``Echelon.pin``),
  forms no product of them, and drops their columns from every other
  product and generator before inserting it.  Dropping a pinned column
  subtracts a multiple of a row already in the span, so the span, and
  with it every reduced row, lead and mu_d, is unchanged; this covers the
  multiples of monomial generators, such as those of I_<m> in
  I^Sp + I_<m>.  ``QuotientRing.mult_map`` reads each normal form off the
  reduced rows of I_{d+1} instead of reducing the monomial.  In
  ``IntersectionInk.component`` a monomial with at most n-k letters is its
  own collapse fiber under some k-subset, hence has coefficient 0 in every
  element, and only the other monomials are solved for.  And
  ``equal_up_to_degree`` reads dim I^Sp_d = 0 below the generator degree
  without building I^Sp.

Collapse ranks of I_{n,k} take one path: ``IntersectionInk.dim`` ranks
the reduced incidence rows by sparse exact elimination over the ideal's
field.  In degree d, P_F collapses two monomials together exactly when
they agree outside F (the exponent sum on F is then d minus the rest), so
``_collapse_fibers`` groups monomials on their exponents outside each
k-subset in one pass, and the reduced rank passes it only the monomials
that no coordinate ideal pins.  ``component``, whose null space the
separating polynomial needs, passes it the monomials of all n variables
with more than n-k letters; ``contains`` sums coefficients over the same
groups and serves only as a test oracle (``equal_up_to_degree`` needs no
membership test: I^Sp lies in I_{n,lambda_1+1} by pigeonhole).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from itertools import combinations
from math import comb
from operator import itemgetter, le

from .fields import Field, QQ
from .linalg import (
    Echelon,
    GradedBasis,
    echelon_span,
    null_space,
    rank_sparse,
    span_and_kernel,
)
from .poly import (
    Polynomial,
    dim_degree,
    mono_support,
    monomial_index,
    monomials_of_degree,
    poly_to_row,
)
from .specht import SpechtSystem, specht_poly_degree
from .tableaux import Partition
from .varieties import SelfCheckError


@lru_cache(maxsize=None)
def _mult_table(nvars: int, d_src: int, i: int) -> tuple:
    """Column map for multiplication by x_i from degree d_src to d_src + 1."""
    src = monomials_of_degree(nvars, d_src)
    dst = monomial_index(nvars, d_src + 1)
    out = []
    for m in src:
        e = list(m)
        e[i] += 1
        out.append(dst[tuple(e)])
    return tuple(out)


def _per_degree(build):
    """Decorate a kind's ``component`` method with the per-degree cache that
    every ideal kind shares: a repeat call returns the same GradedBasis."""

    @wraps(build)
    def component(self, d: int) -> GradedBasis:
        basis = self._components.get(d)
        if basis is None:
            basis = self._components[d] = build(self, d)
        return basis

    return component


class Ideal:
    """Base for homogeneous ideals; concrete kinds fill in components."""

    def __init__(self, nvars: int, fld: Field):
        self.nvars = nvars
        self.field = fld
        self._components: dict[int, GradedBasis] = {}
        self._ring: QuotientRing | None = None

    def component(self, d: int) -> GradedBasis:
        raise NotImplementedError

    def quotient_ring(self) -> "QuotientRing":
        """R/I, one per ideal: every caller shares its bases and the
        reduced x_i maps."""
        if self._ring is None:
            self._ring = QuotientRing(self)
        return self._ring

    def dim(self, d: int) -> int:
        return self.component(d).dimension

    def quotient_dim(self, d: int) -> int:
        return dim_degree(self.nvars, d) - self.dim(d)

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        d = p.homogeneous_degree()
        return self.component(d).contains(p)

    def generator_list(self) -> list[Polynomial] | None:
        """Finite homogeneous generating set, if one is known."""
        return None

    def translation_reduction(self) -> "GeneratedIdeal | None":
        """The image under x_n -> 0 when the ideal carries, from its
        construction, that x_n is regular on R/I (a ``SpechtIdeal``)."""
        return None


class GeneratedIdeal(Ideal):
    """Ideal given by homogeneous generators."""

    def __init__(self, nvars: int, fld: Field, gens):
        super().__init__(nvars, fld)
        clean = []
        for g in gens:
            if g.is_zero():
                continue
            if g.nvars != nvars or g.field != fld:
                raise ValueError("generator in the wrong ring")
            g.homogeneous_degree()  # raises if inhomogeneous
            clean.append(g)
        self.gens = tuple(clean)
        self._by_degree: dict[int, list[Polynomial]] = {}
        for g in self.gens:
            self._by_degree.setdefault(g.homogeneous_degree(), []).append(g)
        self._ech: dict[int, Echelon] = {}
        self._mu: dict[int, int] = {}
        self._qdim: dict[int, int] = {}
        # the Groebner-basis certificate (module docstring)
        self._leads: list[tuple] = []  # minimal generators of in(I), by degree
        self._open: list[tuple] = []  # pairs (i, j, lcm, deg lcm) not yet settled
        self._settled: list[set[int]] = []  # _settled[i]: leads settled with lead i
        self._tried = max(self._by_degree, default=0) - 1
        self._certified: int | None = None
        self._std: tuple[int, list] | None = None  # (degree, standard monomials)

    def generator_list(self):
        return list(self.gens)

    def minimal_generators(self, d: int) -> int:
        """mu_d = dim I_d - dim S_1 I_{d-1}, the number of degree-d elements
        in a minimal generating set, counted while I_d is built.  It is 0,
        and I_d is not built, when no generator has degree d: (I/mI)_d is
        spanned by the degree-d generators."""
        if d not in self._by_degree:
            return 0
        self._echelon(d)
        return self._mu[d]

    # -- incremental echelons -------------------------------------------
    def _echelon(self, d: int) -> Echelon:
        """Reduced echelon basis of I_d, keyed by pivot (leading) column.

        I_d is spanned by the products x_i b, b a row of I_{d-1}, and the
        degree-d generators.  Columns are in lex order, a monomial order,
        so lm(x_i b) = x_i lm(b).  Of the products sharing a leading
        monomial u, the one with the largest i (x_{i*} b*) is inserted;
        another, x_i b, is skipped when lm(b)/x_{i*} is a pivot of
        I_{d-2} (Buchberger's chain criterion, see the module docstring),
        since it then lies in the span of x_{i*} b* and products with
        leading monomial below u.  The span, hence the canonical reduced
        rows, is that of all the products.  So the rank the degree-d
        generators add to it is mu_d, which ``minimal_generators`` reads.
        The products x_i w of the monomials w of I_{d-1} are pinned rows
        {x_i w: 1}, and their columns are dropped from the other products
        and from the generators (module docstring).  Only the rows that are
        no monomial enter ``top`` and ``explained``, so the criterion pairs
        those rows alone; the products below u that its argument uses
        include pinned rows, which lie in the span.  ``explained`` loses no
        skip: lm(b)/x_j is no monomial of I_{d-2} when b is no monomial,
        since x_j times it would be a monomial of I_{d-1}, whose reduced
        row is that monomial alone.  The pivots that are no x_i times a
        pivot of I_{d-1} are the degree-d minimal generators of in(I);
        they join ``_leads``.
        """
        ech = self._ech.get(d)
        if ech is not None:
            return ech
        ech = Echelon(self.field)
        top: dict[int, int] = {}  # empty when I_{d-1} = 0 and is not built
        pinned: set[int] = set()
        if d > 0 and (self._by_degree and min(self._by_degree) < d):
            prev = self._echelon(d - 1)
            n = self.nvars
            tables = [_mult_table(n, d - 1, i) for i in range(n)]
            # pinned columns (module docstring): the monomials w of I_{d-1}
            # have the reduced rows {w: 1}, and their products are in I_d
            pinned = {t[w] for w, row in prev.rows.items() if len(row) == 1 for t in tables}
            ech.pin(pinned)
            free = [(piv, row) for piv, row in prev.rows.items() if len(row) > 1]
            # leading column u -> largest i with u = x_i lm(b) (later i overwrite)
            top = {t[piv]: i for i, t in enumerate(tables) for piv, _ in free}
            # explained[j]: the lm(b) with lm(b)/x_j a leading monomial of I_{d-2}
            low = [w for w, row in self._echelon(d - 2).rows.items() if len(row) > 1] if d >= 2 else []
            explained = [
                {_mult_table(n, d - 2, j)[w] for w in low} for j in range(n)
            ]
            for piv, row in free:
                for i, table in enumerate(tables):
                    j = top[table[piv]]
                    if j != i and piv in explained[j]:
                        continue
                    rest = {u: v for c, v in row.items() if (u := table[c]) not in pinned}
                    if rest:
                        ech.insert(rest)
        products = ech.rank
        for g in self._by_degree.get(d, ()):  # new generators at this degree
            row = {c: v for c, v in poly_to_row(g, d).items() if c not in pinned}
            if row:
                ech.insert(row)
        self._mu[d] = ech.rank - products
        self._ech[d] = ech
        monos = monomials_of_degree(self.nvars, d)
        self._leads += [monos[u] for u in ech.rows if u not in top and u not in pinned]
        return ech

    # -- the Groebner-basis certificate -----------------------------------
    def _certified_degree(self, d: int) -> int | None:
        """The degree D <= d at which the leads were certified to generate
        in(I) (module docstring), or None.  It is tried once per degree from
        the top generator degree on, at each degree that adds no lead."""
        while self._certified is None and self._tried < d:
            e = self._tried = self._tried + 1
            self._echelon(e)  # builds every lower degree the leads need
            degrees = [sum(u) for u in self._leads]
            if e not in degrees and self._settle(e, sum(g < e for g in degrees)):
                self._certified = e
        return self._certified

    def _settle(self, d: int, count: int) -> bool:
        """Whether every pair of the first ``count`` leads (those of degree
        <= d) is settled: the two are coprime, its lcm has degree <= d, or
        a lead divides the lcm and its pairs with both are settled.  A
        pair's lcm degree and coprimality are computed once, when it opens:
        a coprime pair, or one whose lcm has degree <= d, is settled at
        once, and one left open keeps its lcm and the lcm's degree.
        Settled pairs stay settled; the open ones are kept between calls."""
        leads, settled, pending = self._leads, self._settled, self._open
        degrees = [sum(u) for u in leads[:count]]
        for j in range(len(settled), count):
            settled.append(set())
            for i in range(j):
                deg = sum(map(max, leads[i], leads[j]))
                if deg <= d or deg == degrees[i] + degrees[j]:  # the latter: coprime
                    settled[i].add(j)
                    settled[j].add(i)
                else:
                    pending.append((i, j, tuple(map(max, leads[i], leads[j])), deg))
        changed = True
        while pending and changed:
            rest, changed = [], False
            for pair in pending:
                i, j, lcm, deg = pair
                if deg <= d or any(all(map(le, leads[k], lcm)) for k in settled[i] & settled[j]):
                    settled[i].add(j)
                    settled[j].add(i)
                    changed = True
                else:
                    rest.append(pair)
            pending = rest
        self._open = pending
        return not pending

    def _standard(self, d: int) -> list[tuple]:
        """The degree-d monomials outside in(I), for d past the certified
        degree D: those of degree D are the non-pivots of I_D, and past D,
        where no lead has degree d, a monomial u is standard exactly when
        every u/x_i is."""
        if self._std is None or self._std[0] > d:
            e, pivots = self._certified, self._echelon(self._certified).rows
            monos = monomials_of_degree(self.nvars, e)
            self._std = (e, [m for j, m in enumerate(monos) if j not in pivots])
        e, std = self._std
        n = self.nvars
        for e in range(e + 1, d + 1):
            divisors: dict[tuple, int] = {}
            for m in std:
                for i in range(n):
                    u = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    divisors[u] = divisors.get(u, 0) + 1
            std = [u for u, c in divisors.items() if c == n - u.count(0)]
        self._std = (d, std)
        return std

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        return GradedBasis.from_echelon(self._echelon(d), self.nvars, d)

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return dim_degree(self.nvars, d) - self.quotient_dim(d)

    def quotient_dim(self, d: int) -> int:
        """dim (S/I)_d: through the carried x_n -> 0 image when there is one,
        else dim S_d - rank I_d up to the certified degree and the count of
        standard monomials past it (module docstring)."""
        if d < 0:
            return 0
        if d in self._qdim:
            return self._qdim[d]
        red = self.translation_reduction()
        if red is not None:
            val = sum(red.quotient_dim(e) for e in range(d + 1))
        elif self._certified_degree(d) is None or d <= self._certified:
            val = dim_degree(self.nvars, d) - self._echelon(d).rank
        else:  # past the certified degree
            val = len(self._standard(d))
        self._qdim[d] = val
        return val


def specialize_xn(ideal: GeneratedIdeal) -> GeneratedIdeal:
    """Image of a generated ideal under the surjection x_n -> 0.

    Since the surjection is a ring map, the images of any generating set
    generate the image ideal in n-1 variables.
    """
    if not isinstance(ideal, GeneratedIdeal):
        raise ValueError("specialize_xn needs a generated ideal")
    n = ideal.nvars
    images = []
    for g in ideal.gens:
        terms = {}
        for m, c in g.terms.items():
            if m[n - 1] == 0:
                terms[m[: n - 1]] = c
        img = Polynomial(n - 1, ideal.field, terms)
        if not img.is_zero():
            images.append(img)
    return GeneratedIdeal(n - 1, ideal.field, images)


class SpechtIdeal(GeneratedIdeal):
    """I^Sp_lambda.  Its generators are products of differences x_a - x_b,
    hence polynomials in the x_i - x_n, so x_n is regular on R/I in every
    characteristic and R/I = (S/phi(I))[x_n] for phi: x_n -> 0."""

    _image: GeneratedIdeal | None = None

    def __init__(self, shape: Partition, fld: Field, gens):
        super().__init__(shape.n, fld, gens)
        self.shape = shape

    def translation_reduction(self) -> GeneratedIdeal | None:
        if self._image is None and self.nvars > 1:  # no ring in zero variables
            self._image = specialize_xn(self)
        return self._image


def specht_ideal(shape: Partition, fld: Field = QQ) -> SpechtIdeal:
    """The Specht ideal of the shape, generated by the standard Specht
    polynomials (which span all Specht polynomials in any characteristic)."""
    system = SpechtSystem.build(shape, fld)
    return SpechtIdeal(shape, fld, [f for _, f in system.generators])


class PartitionIdealK(Ideal):
    """The prime ideal of differences within the blocks of a set partition;
    realized through the collapse substitution onto block representatives."""

    def __init__(self, nvars: int, fld: Field, blocks):
        super().__init__(nvars, fld)
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        seen = [v for b in blocks for v in b]
        if sorted(seen) != list(range(1, nvars + 1)):
            raise ValueError("blocks must partition 1..n")
        self.blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        rep = list(range(nvars))
        for b in self.blocks:
            r = b[0] - 1
            for v in b:
                rep[v - 1] = r
        self.rep = tuple(rep)

    def collapse_monomial(self, m) -> tuple:
        e = [0] * self.nvars
        for i, x in enumerate(m):
            e[self.rep[i]] += x
        return tuple(e)

    def generator_list(self):
        out = []
        for b in self.blocks:
            for v in b[1:]:
                out.append(
                    Polynomial.variable(self.nvars, b[0] - 1, self.field)
                    - Polynomial.variable(self.nvars, v - 1, self.field)
                )
        return out

    def dim(self, d: int) -> int:
        return dim_degree(self.nvars, d) - dim_degree(len(self.blocks), d)

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        rows = ({group[0]: 1, j: -1} for group in self._fibers(d) for j in group[1:])
        return GradedBasis.from_echelon(Echelon.of_rows(self.field, rows), self.nvars, d)

    def _fibers(self, d: int) -> list[list[int]]:
        """The degree-d monomial indices grouped by their collapsed monomial."""
        out: dict[tuple, list[int]] = {}
        for j, m in enumerate(monomials_of_degree(self.nvars, d)):
            out.setdefault(self.collapse_monomial(m), []).append(j)
        return list(out.values())

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        sums: dict[tuple, object] = {}
        fld = self.field
        for m, c in p.terms.items():
            key = self.collapse_monomial(m)
            sums[key] = fld.add(sums.get(key, 0), fld.of(c))
        return all(v == 0 for v in sums.values())


def clique_ideal(nvars: int, members, fld: Field = QQ) -> PartitionIdealK:
    """P_F: differences within one subset F, all other letters singletons."""
    members = tuple(sorted(members))
    if len(members) < 2:
        raise ValueError("a clique ideal needs at least two members")
    rest = [(v,) for v in range(1, nvars + 1) if v not in set(members)]
    return PartitionIdealK(nvars, fld, [members] + rest)


def _collapse_fibers(nvars: int, k: int, items):
    """The fibers of every k-subset's collapse map, as lists of ``tag``.

    ``items`` holds (tag, monomial) pairs of one degree in ``nvars``
    variables.  The clique ideal P_F collapses the letters of F onto one;
    in a fixed degree the exponent sum on F is determined by the exponents
    outside F, so two monomials share a collapse fiber exactly when they
    agree outside F.  Yields the nonempty groups of tags, F by F in
    ``combinations`` order, each F's groups in order of first appearance.
    """
    items = list(items)
    for F in combinations(range(nvars), k):
        outside = [i for i in range(nvars) if i not in F]
        key = itemgetter(*outside) if outside else (lambda mono: ())
        groups: dict = {}
        for tag, mono in items:
            groups.setdefault(key(mono), []).append(tag)
        yield from groups.values()


class IntersectionInk(Ideal):
    """I_{n,k}: the intersection of P_F over all k-subsets F of [n]."""

    def __init__(self, nvars: int, k: int, fld: Field):
        super().__init__(nvars, fld)
        if not 2 <= k <= nvars:
            raise ValueError("need 2 <= k <= n")
        self.k = k
        self._reduced_ranks: dict[int, int] = {}

    # -- membership -------------------------------------------------------
    def contains(self, p: Polynomial) -> bool:
        """p lies in every P_F exactly when its coefficients sum to zero on
        each collapse fiber of each k-subset F."""
        p.homogeneous_degree()  # the fibers below are those of one degree
        fld = self.field
        terms = [(fld.of(c), m) for m, c in p.terms.items()]
        return all(
            reduce(fld.add, group, 0) == 0
            for group in _collapse_fibers(self.nvars, self.k, terms)
        )

    # -- the collapse matrix -----------------------------------------------
    def _reduced_rank(self, e: int) -> int:
        """Rank of J's degree-e incidence in n-1 variables, J the image of
        I_{n,k} under x_n -> 0.

        A k-subset F without n keeps its collapse fibers; one with n becomes
        the coordinate ideal (x_i : i in F - {n}), one singleton fiber per
        monomial avoiding those letters.  A monomial avoids some k-1 of the
        n-1 letters exactly when at most n-k letters divide it, so those
        columns are pinned.  The rank is the pinned count plus the rank of
        the fibers of the k-subsets of [n-1] on the unpinned monomials; no
        row is built when every monomial is pinned."""
        if e not in self._reduced_ranks:
            m, k = self.nvars - 1, self.k
            monos = monomials_of_degree(m, e)
            # at most n-k letters divide mono <=> at least k-1 of them are zero
            free = [(j, mono) for j, mono in enumerate(monos) if mono.count(0) < k - 1]
            rank = len(monos) - len(free)
            if free:
                rows = (dict.fromkeys(group, 1) for group in _collapse_fibers(m, k, free))
                rank += rank_sparse(rows, self.field)
            self._reduced_ranks[e] = rank
        return self._reduced_ranks[e]

    def dim(self, d: int) -> int:
        """dim (I_{n,k})_d.  R/I_{n,k} is (S/J)[x_n] for S = K[x_1..x_{n-1}],
        so the degree-d collapse rank is the sum of J's ranks in degrees
        e <= d."""
        return dim_degree(self.nvars, d) - sum(self._reduced_rank(e) for e in range(d + 1))

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        """The null space of the collapse fibers on the degree-d monomials.
        A polynomial lies in (I_{n,k})_d exactly when its coefficients sum to
        zero over every fiber.  A monomial with at most n-k letters avoids
        some k-subset F and is its own fiber under F, so it has coefficient
        0 in every element: only the monomials with more than n-k letters
        are solved for, on the fibers restricted to them."""
        n, k = self.nvars, self.k
        monos = monomials_of_degree(n, d)
        free = [j for j, mono in enumerate(monos) if mono.count(0) < k]
        items = ((t, monos[j]) for t, j in enumerate(free))  # tagged by position in free
        rows = [dict.fromkeys(group, 1) for group in _collapse_fibers(n, k, items)]
        null = ({free[t]: c for t, c in v.items()} for v in null_space(rows, self.field, len(free)))
        return GradedBasis.from_echelon(Echelon.of_rows(self.field, null), n, d)


class SquarefreeDegreeIdeal(Ideal):
    """I_<m>: the monomial ideal of all squarefree monomials of degree m."""

    def __init__(self, nvars: int, m: int, fld: Field):
        super().__init__(nvars, fld)
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m

    def generator_list(self):
        out = []
        for sub in combinations(range(self.nvars), self.m):
            e = [0] * self.nvars
            for i in sub:
                e[i] = 1
            out.append(Polynomial.monomial(self.nvars, tuple(e), 1, self.field))
        return out

    def dim(self, d: int) -> int:
        return sum(
            comb(self.nvars, s) * comb(d - 1, s - 1)
            for s in range(self.m, min(self.nvars, d) + 1)
        )

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        rows = {}
        for j, m in enumerate(monomials_of_degree(self.nvars, d)):
            if len(mono_support(m)) >= self.m:
                rows[j] = {j: 1}
        return GradedBasis(self.nvars, d, self.field, rows)

    def contains(self, p: Polynomial) -> bool:
        return all(len(mono_support(m)) >= self.m for m in p.terms)


class SumIdealGeneric(Ideal):
    """Sum of ideals without a common finite generator list."""

    def __init__(self, parts):
        first = parts[0]
        super().__init__(first.nvars, first.field)
        self.parts = list(parts)

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        rows = (row for part in self.parts for row in part.component(d).rows.values())
        return GradedBasis.from_echelon(Echelon.of_rows(self.field, rows), self.nvars, d)


def sum_ideal(*parts: Ideal) -> Ideal:
    """The sum; flattens to a generated ideal when all parts allow it."""
    if not parts:
        raise ValueError("empty sum")
    nvars, fld = parts[0].nvars, parts[0].field
    for part in parts:
        if (part.nvars, part.field) != (nvars, fld):
            raise ValueError("summands in different rings")
    gens: list[Polynomial] = []
    for part in parts:
        gl = part.generator_list()
        if gl is None:
            return SumIdealGeneric(parts)
        gens.extend(gl)
    return GeneratedIdeal(nvars, fld, gens)


def specialize_component(ideal: Ideal, d: int) -> GradedBasis:
    """Degree-d component of the image of an arbitrary graded ideal under
    x_n -> 0, computed from the component basis (phi(J)_d = phi(J_d))."""
    n = ideal.nvars
    polys = []
    for v in ideal.component(d).vectors():
        terms = {m[: n - 1]: c for m, c in v.terms.items() if m[n - 1] == 0}
        q = Polynomial(n - 1, ideal.field, terms)
        if not q.is_zero():
            polys.append(q)
    return echelon_span(polys, d, field=ideal.field, nvars=n - 1)


# ---------------------------------------------------------------------------
# Hilbert functions and equality up to a degree bound


def hilbert_function(ideal: Ideal, d_max: int) -> list[int]:
    """dim (R/I)_d for d = 0 .. d_max.  R/I is generated in degree 1, so
    it vanishes in every degree past its first zero, where nothing is
    computed."""
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    h: list[int] = []
    for d in range(d_max + 1):
        h.append(ideal.quotient_dim(d) if not h or h[-1] else 0)
    return h


def series_expand(numerator: list[int], denom_power: int, d_max: int) -> list[int]:
    """Coefficients of numerator / (1 - t)^denom_power up to degree d_max."""
    coeffs = list(numerator) + [0] * max(0, d_max + 1 - len(numerator))
    coeffs = coeffs[: d_max + 1]
    for _ in range(denom_power):
        for i in range(1, d_max + 1):
            coeffs[i] += coeffs[i - 1]
    return coeffs


@dataclass
class EqualityReport:
    """Outcome of comparing I^Sp with I_{n,lambda_1+1} up to a degree."""

    equal: bool
    first_disagreement: int | None
    separating: Polynomial | None
    dims_left: list[int]
    dims_right: list[int]


def equal_up_to_degree(shape: Partition, fld: Field, d_bound: int) -> EqualityReport:
    """Whether I^Sp and I_{n,k}, k = lambda_1 + 1, agree in every degree
    <= d_bound over ``fld``.

    I^Sp lies in I_{n,k}: two of any k letters share one of the lambda_1
    columns of a tableau (pigeonhole), so every generator has their
    difference x_a - x_b, an element of P_F, as a factor.  The components
    therefore agree exactly where their dimensions do.  At the first degree
    where they differ, a basis vector of I_{n,k} outside I^Sp separates
    them; a Specht side larger than I_{n,k} contradicts the inclusion and
    raises a SelfCheckError there.
    """
    if d_bound < 0:
        raise ValueError("d_bound must be nonnegative")
    n, degree = shape.n, specht_poly_degree(shape)
    ink = IntersectionInk(n, shape.parts[0] + 1, fld)
    specht: SpechtIdeal | None = None  # built at the generator degree
    dims_l: list[int] = []
    dims_r: list[int] = []
    for d in range(d_bound + 1):
        if d >= degree and specht is None:
            specht = specht_ideal(shape, fld)
        dims_l.append(0 if specht is None else specht.dim(d))
        dims_r.append(ink.dim(d))
        if dims_l[-1] != dims_r[-1]:
            # below the generator degree I^Sp_d is 0, and its empty component
            # still goes through the check that a separating vector exists
            small = GradedBasis(n, d, fld, {}) if specht is None else specht.component(d)
            separating = _separating_vector(ink.component(d), small)
            return EqualityReport(False, d, separating, dims_l, dims_r)
    return EqualityReport(True, None, None, dims_l, dims_r)


def _separating_vector(bigger: GradedBasis, smaller: GradedBasis) -> Polynomial:
    """A basis vector of ``bigger`` outside ``smaller``, two components of
    one degree; the caller asks only when one must exist."""
    for v in bigger.vectors():
        if not smaller.contains(v):
            return v
    raise SelfCheckError(f"no degree-{bigger.degree} vector separates components that differ")


# ---------------------------------------------------------------------------
# Quotient rings: bases, multiplication maps, socle, injectivity


class QuotientRing:
    """R/I with reduction onto standard monomials, one degree at a time.
    ``mult_map`` is x_i : Q_d -> Q_{d+1}; every other linear map built on
    the x_i (Koszul, socle, a linear form) takes its rows from ``map_rows``."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.nvars = ideal.nvars
        self.field = ideal.field
        self._basis: dict[int, list[int]] = {}
        self._pos: dict[int, dict[int, int]] = {}
        self._mult: dict[tuple[int, int], list[dict]] = {}

    def basis_columns(self, d: int) -> list[int]:
        cols = self._basis.get(d)
        if cols is None:
            pivots = set(self.ideal.component(d).rows)
            cols = [j for j in range(dim_degree(self.nvars, d)) if j not in pivots]
            self._basis[d] = cols
            self._pos[d] = {j: t for t, j in enumerate(cols)}
        return cols

    def quotient_dim(self, d: int) -> int:
        return len(self.basis_columns(d))

    def reduce_row(self, row: dict, d: int) -> dict:
        """Normal form in quotient coordinates (positions in the basis)."""
        reduced = self.ideal.component(d).reduce_row(row)
        self.basis_columns(d)
        pos = self._pos[d]
        return {pos[j]: c for j, c in reduced.items()}

    def mult_map(self, i: int, d: int) -> list[dict]:
        """x_i as a map Q_d -> Q_{d+1}, one output row per basis element.

        The normal forms are read off the reduced rows of I_{d+1}: a
        non-pivot monomial is its own normal form, and a pivot's is minus
        its monic row without the pivot entry, whose other columns are all
        non-pivots."""
        key = (i, d)
        maps = self._mult.get(key)
        if maps is None:
            table = _mult_table(self.nvars, d, i)
            cols = self.basis_columns(d)
            self.basis_columns(d + 1)
            pos, rows, neg = self._pos[d + 1], self.ideal.component(d + 1).rows, self.field.neg
            maps = []
            for j in cols:
                u = table[j]
                row = rows.get(u)
                if row is None:
                    maps.append({pos[u]: 1})
                else:
                    maps.append({pos[c]: neg(v) for c, v in row.items() if c != u})
            self._mult[key] = maps
        return maps

    def map_rows(self, d: int, terms) -> list[dict]:
        """Rows of the sum of c * x_i over ``terms``, triples (i, c, offset)
        with c nonzero, one row per basis element y of Q_d: each image
        c * (x_i y), its columns shifted by its offset, is added to y's row
        in the order of ``terms``, which fixes the order of the row's keys."""
        rows = [{} for _ in self.basis_columns(d)]
        add = self.field.add_scaled
        for i, c, offset in terms:
            for row, image in zip(rows, self.mult_map(i, d)):
                add(row, c, image, offset)
        return rows

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of the class of p, on standard monomials."""
        if p.is_zero():
            return p
        return self.ideal.component(p.homogeneous_degree()).reduce_poly(p)


def socle(ideal: Ideal, d: int) -> GradedBasis:
    """Basis of {y in (R/I)_d : x_i y = 0 in (R/I)_{d+1} for all i}, the
    kernel of the x_i maps placed side by side."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    q = ideal.quotient_ring()
    src = q.basis_columns(d)
    tgt_dim = q.quotient_dim(d + 1)
    rows = q.map_rows(d, [(i, 1, i * tgt_dim) for i in range(ideal.nvars)])
    fld = ideal.field
    _, kernel = span_and_kernel(rows, fld, ideal.nvars * tgt_dim)
    ech = Echelon.of_rows(fld, ({src[t]: c for t, c in combo.items()} for combo in kernel))
    return GradedBasis.from_echelon(ech, ideal.nvars, d)


@dataclass
class MultMapReport:
    injective: bool
    surjective: bool
    rank: int
    dim_source: int
    dim_target: int

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def mult_injective(form: Polynomial, ideal: Ideal, d: int) -> MultMapReport:
    """Injectivity of multiplication by a linear form (R/I)_d -> (R/I)_{d+1}."""
    if form.homogeneous_degree() != 1:
        raise ValueError("multiplier must be a homogeneous linear form")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    q = ideal.quotient_ring()
    fld = ideal.field
    # a zero coefficient adds nothing; the log tables need c != 0
    terms = [(m.index(1), v, 0) for m, c in form.terms.items() if (v := fld.of(c))]
    rank = rank_sparse(q.map_rows(d, terms), fld)
    dim_src = q.quotient_dim(d)
    dim_tgt = q.quotient_dim(d + 1)
    return MultMapReport(
        injective=rank == dim_src,
        surjective=rank == dim_tgt,
        rank=rank,
        dim_source=dim_src,
        dim_target=dim_tgt,
    )
