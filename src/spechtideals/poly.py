"""Sparse exact multivariate polynomials with a fixed graded monomial order.

Monomials are exponent tuples of fixed length ``nvars``.  The order is
graded: total degree first, then lexicographic comparison of exponent
tuples as the deterministic tiebreak.  ``x1`` (exponent tuple
``(1, 0, ...)``) is the largest variable.  Variable indices are 0-based
internally; the text form uses 1-based names ``x1 .. xn``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .fields import Field, QQ

Monomial = tuple  # exponent tuple, length nvars


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_key(m: Monomial):
    """Sort key; larger key = larger monomial in the graded order."""
    return (sum(m), m)


def mono_support(m: Monomial) -> frozenset:
    return frozenset(i for i, e in enumerate(m) if e > 0)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in nvars variables, largest first."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    if nvars == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, d: int) -> dict:
    """Map degree-d monomial -> column index (0 = largest monomial)."""
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, d))}


def dim_degree(nvars: int, d: int) -> int:
    """dim of the degree-d component of a polynomial ring in nvars variables."""
    if d < 0:
        return 0
    return comb(d + nvars - 1, nvars - 1)


class Polynomial:
    """Immutable sparse polynomial over an exact field.

    ``terms`` maps exponent tuples to nonzero coefficients; the zero
    polynomial has an empty mapping.
    """

    __slots__ = ("nvars", "field", "terms", "_hash")

    def __init__(self, nvars: int, field: Field, terms: dict | None = None):
        self.nvars = nvars
        self.field = field
        clean = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"monomial {m} has wrong arity for nvars={nvars}")
                c = field.of(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean
        self._hash = None

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(nvars: int, field: Field = QQ) -> "Polynomial":
        return Polynomial(nvars, field)

    @staticmethod
    def constant(nvars: int, value, field: Field = QQ) -> "Polynomial":
        return Polynomial(nvars, field, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, i: int, field: Field = QQ) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 1
        return Polynomial(nvars, field, {tuple(e): 1})

    @staticmethod
    def monomial(nvars: int, m: Monomial, coeff=1, field: Field = QQ) -> "Polynomial":
        return Polynomial(nvars, field, {tuple(m): coeff})

    # -- ring operations --------------------------------------------------
    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"ring dimension mismatch: {self.nvars} vs {other.nvars}")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other, self.field)
        self._check_compatible(other)
        fld = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(terms.get(m, 0), c)
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out.terms, out._hash = self.nvars, fld, terms, None
        return out

    def __neg__(self):
        fld = self.field
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out._hash = self.nvars, fld, None
        out.terms = {m: fld.neg(c) for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other, self.field)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_compatible(other)
        fld = self.field
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                s = fld.add(terms.get(m, 0), fld.mul(ca, cb))
                if s == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out.terms, out._hash = self.nvars, fld, terms, None
        return out

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        fld = self.field
        c = fld.of(c)
        if c == 0:
            return Polynomial.zero(self.nvars, fld)
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out._hash = self.nvars, fld, None
        out.terms = {m: fld.mul(v, c) for m, v in self.terms.items()}
        return out

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1, self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """Common degree of all terms, None for 0; raises if inhomogeneous."""
        degs = {sum(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"polynomial is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def variables(self) -> frozenset:
        out = set()
        for m in self.terms:
            out.update(mono_support(m))
        return frozenset(out)

    def map_field(self, field: Field) -> "Polynomial":
        if field == self.field:
            return self
        return Polynomial(self.nvars, field, dict(self.terms))

    # -- substitution and evaluation ----------------------------------------
    def substitute(self, assignment: dict) -> "Polynomial":
        """Ring-homomorphism image under variable -> polynomial images.

        Variables missing from ``assignment`` map to themselves.  Images must
        live in one common ring; degree is preserved exactly when all images
        are homogeneous linear forms.
        """
        images = {}
        target_nvars = self.nvars
        for i, img in assignment.items():
            if not 0 <= i < self.nvars:
                raise ValueError(f"variable index {i} out of range")
            if not isinstance(img, Polynomial):
                raise TypeError("substitution images must be Polynomials")
            images[i] = img
            target_nvars = img.nvars
        for img in images.values():
            if img.nvars != target_nvars:
                raise ValueError("substitution images live in different rings")
        fld = self.field
        for i, img in images.items():
            if img.field != fld:
                raise ValueError("substitution image over a different field")
        for i in self.variables():
            if i not in images:
                if target_nvars != self.nvars:
                    raise ValueError(
                        "partial assignment into a ring of different dimension"
                    )
        # each power img**e is built once, and the terms are summed in one dict
        powers: dict[tuple[int, int], Polynomial] = {}
        terms: dict = {}
        for m, c in self.terms.items():
            term = Polynomial.constant(target_nvars, c, fld)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                power = powers.get((i, e))
                if power is None:
                    img = images.get(i)
                    if img is None:
                        img = Polynomial.variable(target_nvars, i, fld)
                    power = powers[(i, e)] = img**e
                term = term * power
            for mono, v in term.terms.items():
                s = fld.add(terms.get(mono, 0), v)
                if s == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out.terms, out._hash = target_nvars, fld, terms, None
        return out

    def evaluate(self, point):
        """Evaluate at a point given as a sequence of field elements."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        fld = self.field
        total = fld.zero
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                for _ in range(e):
                    v = fld.mul(v, point[i])
            total = fld.add(total, v)
        return total

    # -- protocol ------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.nvars, self.field, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(m)
                if e > 0
            ]
            body = "*".join(factors)
            if not factors:
                text = str(c)
            elif c == 1:
                text = body
            elif c == -1:
                text = f"-{body}"
            else:
                text = f"{c}*{body}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)


def substitute(p: Polynomial, assignment: dict) -> Polynomial:
    """Functional form of :meth:`Polynomial.substitute`."""
    return p.substitute(assignment)


def poly_to_row(p: Polynomial, d: int) -> dict:
    """Coefficient row of a homogeneous degree-d polynomial (column = index)."""
    deg = p.homogeneous_degree()
    if deg is not None and deg != d:
        raise ValueError(f"polynomial has degree {deg}, expected {d}")
    idx = monomial_index(p.nvars, d)
    return {idx[m]: c for m, c in p.terms.items()}
