"""Degree-by-degree linear algebra on homogeneous ideals.

Ideal kinds: finitely generated (incremental per-degree echelons), partition
ideals P_Pi (collapse kernels), the intersections I_{n,k} of all P_F over
k-subsets, squarefree-monomial-degree ideals I_<m>, and sums.  All values
are exact; components are computed lazily per degree, and every kind's
``component`` goes through one per-degree cache on the ideal instance
(``_per_degree``), so a repeat call returns the same GradedBasis.  All
elimination runs in :mod:`linalg`.

Two structural accelerations, both backed by standard facts and verified
structurally at use:

* if every generator is translation invariant (a polynomial in the
  differences x_i - x_n), then x_n is a regular element on R/I, so quotient
  dimensions satisfy dim (R/I)_d = sum_{e<=d} dim (S/phi(I))_e for the
  specialization phi: x_n -> 0, and the chain recurses.  Invariance is
  read off sum_i dg/dx_i = 0 when the characteristic is 0 or exceeds the
  generator degrees, and off the expansion of g(x_i + x_n) otherwise;
* for I_{n,k} over the rationals, a mod-p collapse rank over the first of
  the ``fields.PROXY_PRIMES`` gives a certified upper bound on
  dim (I_{n,k})_d which, when it meets a lower bound coming from an
  included subideal, pins the exact dimension without rational
  elimination.  If the bounds do not meet, the exact fraction-free
  elimination runs at once; no second prime is tried.

One incidence builder, ``IntersectionInk._incidence``, serves I_{n,k}:
``_collapse_rank`` computes every collapse rank from it (dense vectorized
elimination over GF(p) when the matrix has at most ``_DENSE_CELL_CAP``
cells, sparse exact elimination otherwise and always over the rationals),
and ``component`` reads the null space of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from math import comb

import numpy as np

from .fields import PROXY_PRIMES, Field, QQ, field_of
from .linalg import (
    Echelon,
    GradedBasis,
    add_scaled,
    echelon_span,
    null_space,
    rank_dense_mod_p,
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
from .specht import SpechtSystem
from .tableaux import NATURAL, LetterOrder, Partition

_DENSE_CELL_CAP = 8_000_000


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

    def component(self, d: int) -> GradedBasis:
        raise NotImplementedError

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
        self._reduction: GeneratedIdeal | None | bool = None
        self._qdim: dict[int, int] = {}

    def generator_list(self):
        return list(self.gens)

    # -- incremental echelons -------------------------------------------
    def _echelon(self, d: int) -> Echelon:
        ech = self._ech.get(d)
        if ech is not None:
            return ech
        ech = Echelon(self.field)
        if d > 0 and (self._by_degree and min(self._by_degree) < d):
            prev = self._echelon(d - 1)
            tables = [_mult_table(self.nvars, d - 1, i) for i in range(self.nvars)]
            for row in prev.rows.values():
                for table in tables:
                    ech.insert({table[c]: v for c, v in row.items()})
        for g in self._by_degree.get(d, ()):  # new generators at this degree
            ech.insert(poly_to_row(g, d))
        self._ech[d] = ech
        return ech

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        return GradedBasis.from_echelon(self._echelon(d), self.nvars, d)

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return dim_degree(self.nvars, d) - self.quotient_dim(d)

    def quotient_dim(self, d: int) -> int:
        if d < 0:
            return 0
        if d in self._qdim:
            return self._qdim[d]
        red = self._translation_reduction()
        if red is not None:
            val = sum(red.quotient_dim(e) for e in range(d + 1))
        else:
            val = dim_degree(self.nvars, d) - self._echelon(d).rank
        self._qdim[d] = val
        return val

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        d = p.homogeneous_degree()
        return self._echelon(d).contains(poly_to_row(p.map_field(self.field), d))

    # -- regular-element reduction ----------------------------------------
    def _translation_reduction(self) -> "GeneratedIdeal | None":
        """The specialization x_n -> 0 when all generators are polynomials in
        the differences x_i - x_n (which makes x_n regular on R/I)."""
        if self._reduction is not None:
            return self._reduction if self._reduction is not False else None
        if not self.gens or self.nvars <= 1:
            self._reduction = False
            return None
        p = self.field.characteristic
        if 0 < p <= max(self._by_degree):
            # an exponent can reach p, where the derivative test is blind:
            # expand g(x_1 + x_n, ..., x_{n-1} + x_n, x_n) and look for x_n
            last = self.nvars - 1
            xlast = Polynomial.variable(self.nvars, last, self.field)
            shift = {
                i: Polynomial.variable(self.nvars, i, self.field) + xlast
                for i in range(last)
            }
            invariant = all(last not in g.substitute(shift).variables() for g in self.gens)
        else:
            invariant = all(_partials_sum_to_zero(g) for g in self.gens)
        if not invariant:
            self._reduction = False
            return None
        self._reduction = specialize_xn(self)
        return self._reduction

    def translation_invariant(self) -> bool:
        return self._translation_reduction() is not None


def _partials_sum_to_zero(g: Polynomial) -> bool:
    """Whether sum_i dg/dx_i vanishes.

    In the coordinates y_i = x_i - x_n (i < n), y_n = x_n this sum is
    dg/dy_n.  When the characteristic is 0 or above the degree of g, no
    exponent of y_n is a multiple of it, so the sum vanishes exactly when
    g is a polynomial in the differences x_i - x_n.
    """
    p = g.field.characteristic
    total: dict = {}
    for m, c in g.terms.items():
        for i, e in enumerate(m):
            if e:
                key = m[:i] + (e - 1,) + m[i + 1 :]
                total[key] = total.get(key, 0) + e * c
    return all((v % p if p else v) == 0 for v in total.values())


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


def specht_ideal(shape: Partition, fld: Field = QQ, order: LetterOrder = NATURAL) -> GeneratedIdeal:
    """The Specht ideal of the shape, generated by the standard Specht
    polynomials (which span all Specht polynomials in any characteristic)."""
    system = SpechtSystem.build(shape, fld, order)
    return GeneratedIdeal(shape.n, fld, [f for _, f in system.generators])


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
        ech = Echelon(self.field)
        for group in self._fibers(d):
            j0 = group[0]
            for j in group[1:]:
                ech.insert({j0: 1, j: -1})
        return GradedBasis.from_echelon(ech, self.nvars, d)

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


class IntersectionInk(Ideal):
    """I_{n,k}: the intersection of P_F over all k-subsets F of [n]."""

    def __init__(self, nvars: int, k: int, fld: Field):
        super().__init__(nvars, fld)
        if not 2 <= k <= nvars:
            raise ValueError("need 2 <= k <= n")
        self.k = k
        self.subsets = list(combinations(range(1, nvars + 1), k))
        self.cliques = [clique_ideal(nvars, F, fld) for F in self.subsets]
        self._dim_cache: dict[int, int] = {}

    # -- membership -------------------------------------------------------
    def contains(self, p: Polynomial) -> bool:
        return all(c.contains(p) for c in self.cliques)

    # -- the collapse matrix -----------------------------------------------
    def _incidence(self, d: int) -> list[dict]:
        """One 0/1 row per fiber of each clique's collapse map on the degree-d
        monomials.  A polynomial lies in (I_{n,k})_d exactly when its
        coefficients sum to zero over every fiber, i.e. the component is the
        null space of these rows."""
        return [dict.fromkeys(group, 1) for cl in self.cliques for group in cl._fibers(d)]

    def _collapse_rank(self, d: int, fld: Field) -> int:
        """Rank of the degree-d incidence rows over fld: dense vectorized
        elimination over GF(p) when the matrix has at most _DENSE_CELL_CAP
        cells, sparse exact elimination otherwise and always over QQ."""
        rows = self._incidence(d)
        nmonos = dim_degree(self.nvars, d)
        p = fld.characteristic
        if p and nmonos * len(rows) <= _DENSE_CELL_CAP:
            a = np.zeros((nmonos, len(rows)), dtype=np.int64)
            for col, row in enumerate(rows):
                a[list(row), col] = 1
            return rank_dense_mod_p(a, p)
        return rank_sparse(rows, fld)

    def dim(self, d: int, certified_lower: int | None = None) -> int:
        if d in self._dim_cache:
            return self._dim_cache[d]
        total = dim_degree(self.nvars, d)
        val = None
        if self.field.characteristic == 0 and certified_lower is not None:
            # mod-p rank <= rational rank, so total - rank_p is an upper
            # bound for the kernel dimension; meeting the lower bound
            # certifies exactness.  On a miss a second prime rarely helps
            # (when the subideal is strictly smaller every prime misses),
            # so the exact rank runs at once.
            upper = total - self._collapse_rank(d, field_of(PROXY_PRIMES[0]))
            if upper == certified_lower:
                val = upper
        if val is None:
            val = total - self._collapse_rank(d, self.field)
        self._dim_cache[d] = val
        return val

    @_per_degree
    def component(self, d: int) -> GradedBasis:
        ech = Echelon(self.field)
        for v in null_space(self._incidence(d), self.field, dim_degree(self.nvars, d)):
            ech.insert(v)
        return GradedBasis.from_echelon(ech, self.nvars, d)


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
        ech = Echelon(self.field)
        for part in self.parts:
            for row in part.component(d).rows.values():
                ech.insert(row)
        return GradedBasis.from_echelon(ech, self.nvars, d)


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
    """dim (R/I)_d for d = 0 .. d_max."""
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    return [ideal.quotient_dim(d) for d in range(d_max + 1)]


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
    """Outcome of a bounded-degree component comparison of two ideals."""

    equal: bool
    checked_degree: int
    first_disagreement: int | None
    separating: Polynomial | None
    dims_left: list[int]
    dims_right: list[int]

    def __bool__(self):
        return self.equal


def _gen_inclusion_degree(src: Ideal, dst: Ideal, limit: int) -> float:
    """First degree at which a generator of src fails membership in dst."""
    gl = src.generator_list()
    if gl is None:
        return -1.0  # unknown: no certificate available
    bad = float("inf")
    for g in gl:
        d = g.homogeneous_degree()
        if d is None or d > limit:
            continue
        if not dst.contains(g):
            bad = min(bad, d)
    return bad


def equal_up_to_degree(left: Ideal, right: Ideal, d_bound: int) -> EqualityReport:
    """Componentwise equality for all degrees <= d_bound.

    Strategy per degree: compare dimensions; with dimension equality and a
    generator-certified inclusion, components agree.  Without an inclusion
    certificate the reduced bases are compared directly.  On disagreement a
    separating polynomial (in one ideal, not the other) is produced.
    """
    if d_bound < 0:
        raise ValueError("d_bound must be nonnegative")
    if (left.nvars, left.field) != (right.nvars, right.field):
        raise ValueError("ideals live in different rings")
    incl_lr = _gen_inclusion_degree(left, right, d_bound)
    incl_rl = _gen_inclusion_degree(right, left, d_bound) if incl_lr < 0 else -1.0
    dims_l: list[int] = []
    dims_r: list[int] = []
    for d in range(d_bound + 1):
        a = left.dim(d)
        if isinstance(right, IntersectionInk) and incl_lr == float("inf"):
            b = right.dim(d, certified_lower=a)
        else:
            b = right.dim(d)
        dims_l.append(a)
        dims_r.append(b)
        if a == b:
            if incl_lr == float("inf") or incl_rl == float("inf"):
                continue  # inclusion + equal dimension => equal components
            if incl_lr > d or incl_rl > d:
                continue
            if left.component(d) == right.component(d):
                continue
            sep = _separating_vector(left, right, d)
            return EqualityReport(False, d_bound, d, sep, dims_l, dims_r)
        bigger, smaller = (right, left) if b > a else (left, right)
        sep = _separating_vector(bigger, smaller, d)
        return EqualityReport(False, d_bound, d, sep, dims_l, dims_r)
    return EqualityReport(True, d_bound, None, None, dims_l, dims_r)


def _separating_vector(bigger: Ideal, smaller: Ideal, d: int) -> Polynomial | None:
    small_basis = smaller.component(d)
    for v in bigger.component(d).vectors():
        if not small_basis.contains(v):
            return v
    for v in small_basis.vectors():  # disagreement the other way round
        if not bigger.contains(v):
            return v
    return None


# ---------------------------------------------------------------------------
# Quotient rings: bases, multiplication maps, socle, injectivity


@dataclass
class QuotientComponent:
    """Degree-d data of R/I: the monomial quotient basis and the ideal basis."""

    ideal: Ideal
    degree: int
    quotient_basis: list
    ideal_basis: GradedBasis

    def check(self) -> bool:
        return len(self.quotient_basis) + self.ideal_basis.dimension == dim_degree(
            self.ideal.nvars, self.degree
        )


class QuotientRing:
    """R/I with reduction onto standard monomials, one degree at a time."""

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

    def info(self, d: int) -> QuotientComponent:
        cols = self.basis_columns(d)
        monos = monomials_of_degree(self.nvars, d)
        return QuotientComponent(
            self.ideal, d, [monos[j] for j in cols], self.ideal.component(d)
        )

    def quotient_dim(self, d: int) -> int:
        return len(self.basis_columns(d))

    def reduce_row(self, row: dict, d: int) -> dict:
        """Normal form in quotient coordinates (positions in the basis)."""
        reduced = self.ideal.component(d).reduce_row(row)
        self.basis_columns(d)
        pos = self._pos[d]
        return {pos[j]: c for j, c in reduced.items()}

    def reduce_poly(self, p: Polynomial) -> dict:
        d = p.homogeneous_degree()
        if d is None:
            return {}
        return self.reduce_row(poly_to_row(p.map_field(self.field), d), d)

    def mult_map(self, i: int, d: int) -> list[dict]:
        """x_i as a map Q_d -> Q_{d+1}, one output row per basis element."""
        key = (i, d)
        maps = self._mult.get(key)
        if maps is None:
            table = _mult_table(self.nvars, d, i)
            cols = self.basis_columns(d)
            self.basis_columns(d + 1)
            maps = [self.reduce_row({table[j]: 1}, d + 1) for j in cols]
            self._mult[key] = maps
        return maps

    def poly_from_coords(self, coords: dict, d: int) -> Polynomial:
        monos = monomials_of_degree(self.nvars, d)
        cols = self.basis_columns(d)
        return Polynomial(
            self.nvars, self.field, {monos[cols[t]]: c for t, c in coords.items()}
        )

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of the class of p, on standard monomials."""
        if p.is_zero():
            return p
        d = p.homogeneous_degree()
        return self.poly_from_coords(self.reduce_poly(p), d)


def socle(ideal: Ideal, d: int) -> GradedBasis:
    """Basis of {y in (R/I)_d : x_i y = 0 in (R/I)_{d+1} for all i}."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    q = QuotientRing(ideal)
    src = q.basis_columns(d)
    tgt_dim = q.quotient_dim(d + 1)
    rows = []
    for t in range(len(src)):
        stacked: dict = {}
        for i in range(ideal.nvars):
            image = q.mult_map(i, d)[t]
            for pos, c in image.items():
                stacked[i * tgt_dim + pos] = c
        rows.append(stacked)
    _, kernel = span_and_kernel(rows, ideal.field, ideal.nvars * tgt_dim)
    polys = [q.poly_from_coords(combo, d) for combo in kernel]
    return echelon_span(polys, d, field=ideal.field, nvars=ideal.nvars)


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
    q = QuotientRing(ideal)
    src = q.basis_columns(d)
    fld = ideal.field
    coeffs = {m.index(1): fld.of(c) for m, c in form.terms.items()}
    rows = []
    for t in range(len(src)):
        row: dict = {}
        for i, c in coeffs.items():
            add_scaled(row, c, q.mult_map(i, d)[t], fld.characteristic)
        rows.append(row)
    rank = rank_sparse(rows, fld)
    dim_src = len(src)
    dim_tgt = q.quotient_dim(d + 1)
    return MultMapReport(
        injective=rank == dim_src,
        surjective=rank == dim_tgt,
        rank=rank,
        dim_source=dim_src,
        dim_target=dim_tgt,
    )
