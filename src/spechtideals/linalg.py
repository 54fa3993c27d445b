"""Exact graded linear algebra: reduced echelon forms, ranks, kernels.

This is the package's one linear-algebra core: the exact eliminations of
``ideals`` and ``betti`` all run on :class:`Echelon`, and every sparse-row
update, elimination in :class:`Echelon` included, goes through the
field's ``add_scaled`` (:mod:`fields`), whatever the field.

Rows are sparse ``{column: coefficient}`` dicts.  Over a finite field,
GF(p) or GF(p^k), the engine does ordinary monic elimination; over the
rationals it is fraction-free (Bareiss-style cross-multiplication with
content stripping), so all intermediate entries are integers.  Reduced
form is maintained incrementally, which keeps stored rows supported on
their pivot plus the current non-pivot columns only.  Normal forms modulo
a reduced basis go through :meth:`Echelon.reduce_exact`.  Ranks come from
:func:`rank_sparse` over any field, or from the vectorized
:func:`rank_dense_mod_p` over GF(p) alone (numpy computes in prime
fields only), which imports numpy on its first call, not with the
package, and pays for that only on large matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import Field, QQ
from .poly import Polynomial, monomials_of_degree, poly_to_row


def _strip_content(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


class Echelon:
    """Incremental reduced row echelon form over an exact field.

    ``aug_base``, when set, marks columns >= aug_base as bookkeeping-only:
    rows whose support falls entirely in the augmented range are collected
    in ``kernel_rows`` instead of becoming pivots.
    """

    def __init__(self, field: Field, aug_base: int | None = None):
        self.field = field
        self.p = field.characteristic
        self.aug_base = aug_base
        self.rows: dict[int, dict] = {}
        self.touch: dict[int, set] = {}
        self.kernel_rows: list[dict] = []
        self._add, self._neg = field.add_scaled, field.neg  # bound once: run per elimination

    @classmethod
    def of_reduced(cls, field: Field, rows: dict[int, dict]) -> "Echelon":
        """Reduction-only view of rows already in reduced echelon form, keyed
        by pivot (such as ``GradedBasis.rows``); do not insert into it."""
        ech = cls(field)
        ech.rows = rows
        return ech

    @property
    def rank(self) -> int:
        return len(self.rows)

    # -- elimination primitives --------------------------------------------
    def _eliminate(self, row: dict, c: int) -> None:
        """Remove column c from row using the stored pivot row, in place."""
        prow = self.rows[c]
        a = row[c]
        if self.p:  # stored pivots are 1 over a finite field
            self._add(row, self._neg(a), prow)
            return
        g = gcd(a, prow[c])
        b = prow[c] // g
        if b != 1:
            for k in row:
                row[k] *= b
        self._add(row, -(a // g), prow)  # the pivot entry cancels
        _strip_content(row)

    def _normalize(self, row: dict, pivot: int) -> None:
        if self.p == 0:
            _strip_content(row)
            if row[pivot] < 0:
                for k in row:
                    row[k] = -row[k]
            return
        fld = self.field
        inv = fld.inv(row[pivot])
        if inv != 1:
            mul = fld.mul
            for k in row:
                row[k] = mul(row[k], inv)

    def _prepare(self, row: dict) -> dict:
        """Copy a row, coercing coefficients (integers over QQ)."""
        p = self.p
        if p == 0:
            lcm = 1
            for v in row.values():
                if type(v) is Fraction:  # isinstance goes through the numbers ABCs
                    d = v.denominator
                    lcm = lcm * d // gcd(lcm, d)
            out = {}
            for k, v in row.items():
                iv = int(v * lcm) if lcm != 1 or type(v) is Fraction else v
                if iv:
                    out[k] = iv
            return out
        of = self.field.of
        return {k: iv for k, v in row.items() if (iv := of(v))}

    # -- public operations ----------------------------------------------------
    def reduce(self, row: dict) -> dict:
        """Fully reduced residual of a row; does not modify the engine."""
        r = self._prepare(row)
        for c in sorted(k for k in r if k in self.rows):
            if c in r:
                self._eliminate(r, c)
        return r

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def pin(self, columns) -> None:
        """Set the reduced row {c: 1} for each column c, without elimination.
        The caller vouches that each e_c lies in the span and that no stored
        row holds c; a later insert then reduces c away like any pivot."""
        rows = self.rows
        for c in columns:
            rows[c] = {c: 1}

    def insert(self, row: dict) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        pivot = min(r)
        if self.aug_base is not None and pivot >= self.aug_base:
            self.kernel_rows.append(r)
            return None
        self._normalize(r, pivot)
        self.rows[pivot] = r  # register first so _eliminate sees it
        # touch[k] lists at least the rows holding column k; entries that
        # cancelled since they were filed stay behind and are skipped here.
        touch = self.touch
        affected = touch.pop(pivot, ())
        filed = [touch.setdefault(k, set()) for k in r if k != pivot]
        for s in filed:
            s.add(pivot)
        for qpiv in affected:
            q = self.rows[qpiv]
            if pivot in q:
                self._eliminate(q, pivot)
                for s in filed:
                    s.add(qpiv)
        return pivot

    def monic_rows(self) -> dict[int, dict]:
        """Canonical reduced rows: pivot coefficient 1 (Fractions over QQ)."""
        out = {}
        if self.p == 0:
            for piv, row in self.rows.items():
                lead = row[piv]
                out[piv] = {
                    k: Fraction(v, lead) if v % lead else v // lead
                    for k, v in row.items()
                }
        else:
            out = {piv: dict(row) for piv, row in self.rows.items()}
        return out

    def reduce_exact(self, row: dict) -> dict:
        """Normal form with true field coefficients (no row rescaling)."""
        p = self.p
        if p != 0:
            return self.reduce(row)
        r = {k: v if isinstance(v, Fraction) else Fraction(v) for k, v in row.items() if v}
        for c in sorted(k for k in r if k in self.rows):
            if c in r:
                prow = self.rows[c]
                self._add(r, -r[c] / prow[c], prow)
        return r


def span_and_kernel(rows: list[dict], field: Field, ncols: int) -> tuple[Echelon, list[dict]]:
    """Echelon of the span plus a basis of the left-kernel.

    Kernel rows are combinations over the *row index* space: a returned
    ``{i: c}`` means ``sum_i c * rows[i] == 0``.
    """
    ech = Echelon(field, aug_base=ncols)
    one = 1
    for i, row in enumerate(rows):
        r = dict(row)
        r[ncols + i] = one
        ech.insert(r)
    kernel = [
        {k - ncols: v for k, v in krow.items()} for krow in ech.kernel_rows
    ]
    return ech, kernel


def null_space(rows, field: Field, ncols: int) -> list[dict]:
    """Basis of {v : row . v = 0 for every row} among vectors on ncols columns.

    One vector per non-pivot column f of the reduced echelon form: e_f minus
    the column-f entries of the monic pivot rows, placed at their pivots.
    """
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    monic = ech.monic_rows()
    kernel = {f: {f: 1} for f in range(ncols) if f not in monic}
    neg = field.neg
    for piv, row in monic.items():
        for f, v in row.items():
            if f != piv:
                kernel[f][piv] = neg(v)
    return list(kernel.values())


class GradedBasis:
    """Reduced-echelon basis of a subspace of the degree-d component.

    Vectors are homogeneous of degree ``degree``; leading monomials are
    strictly decreasing and each leading monomial occurs in exactly one
    vector (reduced form), which makes the representation canonical.
    """

    def __init__(self, nvars: int, degree: int, field: Field, rows: dict[int, dict]):
        self.nvars = nvars
        self.degree = degree
        self.field = field
        self.rows = rows  # pivot column -> monic reduced row

    @staticmethod
    def from_echelon(ech: Echelon, nvars: int, degree: int) -> "GradedBasis":
        return GradedBasis(nvars, degree, ech.field, ech.monic_rows())

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[Polynomial]:
        monos = monomials_of_degree(self.nvars, self.degree)
        out = []
        for piv in sorted(self.rows):
            terms = {monos[j]: c for j, c in self.rows[piv].items()}
            out.append(Polynomial(self.nvars, self.field, terms))
        return out

    def _row_of(self, p: Polynomial) -> dict:
        if p.nvars != self.nvars:
            raise ValueError("ring dimension mismatch")
        return poly_to_row(p.map_field(self.field), self.degree)

    def reduce_row(self, row: dict) -> dict:
        """Canonical normal form of a coefficient row modulo this subspace."""
        return Echelon.of_reduced(self.field, self.rows).reduce_exact(row)

    def reduce_poly(self, p: Polynomial) -> Polynomial:
        """Canonical normal form of p modulo this subspace."""
        row = self.reduce_row(self._row_of(p))
        monos = monomials_of_degree(self.nvars, self.degree)
        return Polynomial(self.nvars, self.field, {monos[j]: c for j, c in row.items()})

    def contains(self, p: Polynomial) -> bool:
        return self.reduce_poly(p).is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, GradedBasis)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        return (
            f"GradedBasis(nvars={self.nvars}, degree={self.degree}, "
            f"field={self.field}, dimension={self.dimension})"
        )


def echelon_span(polys, d: int, field: Field | None = None, nvars: int | None = None) -> GradedBasis:
    """Reduced echelon basis of the span of homogeneous degree-d polynomials.

    Inhomogeneous inputs, mixed degrees, and mixed rings are rejected.
    """
    polys = list(polys)
    nonzero = [p for p in polys if not p.is_zero()]
    if field is None:
        field = nonzero[0].field if nonzero else (polys[0].field if polys else QQ)
    if nvars is None:
        if not polys:
            raise ValueError("cannot infer ring dimension from an empty list")
        nvars = polys[0].nvars
    ech = Echelon(field)
    for p in nonzero:
        if p.nvars != nvars:
            raise ValueError("mixed ring dimensions")
        if p.field != field:
            raise ValueError("mixed coefficient fields")
        deg = p.homogeneous_degree()
        if deg != d:
            raise ValueError(f"expected homogeneous degree {d}, got {deg}")
        ech.insert(poly_to_row(p, d))
    return GradedBasis.from_echelon(ech, nvars, d)


def intersect_spans(bases: list[GradedBasis]) -> GradedBasis:
    """Reduced basis of the intersection of subspaces of one graded piece."""
    if not bases:
        raise ValueError("intersection of an empty family is the whole space")
    first = bases[0]
    for b in bases[1:]:
        if (b.nvars, b.degree, b.field) != (first.nvars, first.degree, first.field):
            raise ValueError("bases live in different graded components")
    ncols = len(monomials_of_degree(first.nvars, first.degree))
    current = first
    for other in bases[1:]:
        vrows = [current.rows[piv] for piv in sorted(current.rows)]
        wrows = [other.rows[piv] for piv in sorted(other.rows)]
        _, kernel = span_and_kernel(vrows + wrows, first.field, ncols)
        ech = Echelon(first.field)
        r = len(vrows)
        for combo in kernel:
            vec: dict = {}
            for i, c in combo.items():
                if i < r:
                    first.field.add_scaled(vec, c, vrows[i])
            if vec:
                ech.insert(vec)
        current = GradedBasis.from_echelon(ech, first.nvars, first.degree)
    return current


# -- dense modular rank (numpy) -----------------------------------------------


def rank_dense_mod_p(rows: list[dict], ncols: int, p: int) -> int:
    """Rank over GF(p) of sparse ``{column: coefficient}`` rows on ncols
    columns, by dense vectorized elimination.

    Entries are taken mod p into int64, so p < 2^31 keeps every product of
    two entries below 2^62.
    """
    import numpy as np

    nrows = len(rows)
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        a[r, list(row)] = [v % p for v in row.values()]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        rest = np.nonzero(a[r + 1 :, c])[0]
        if rest.size:
            rows_below = rest + r + 1
            a[rows_below] = (a[rows_below] - np.outer(a[rows_below, c], a[r])) % p
        r += 1
    return r


def rank_sparse(rows, field: Field) -> int:
    """Rank of sparse rows over any exact field, by incremental elimination."""
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech.rank
