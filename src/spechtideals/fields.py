"""Exact coefficient fields: the rationals and word-sized prime fields.

Field elements are plain Python objects (``int``/``Fraction`` for the
rationals, ``int`` residues in ``[0, p)`` for GF(p)); the :class:`Field`
object supplies the arithmetic.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

_MAX_PRIME = 1 << 31

# Two large primes that stand in for characteristic 0: Betti tables are
# computed over both and must agree.
PROXY_PRIMES = (32003, 1000003)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for all m < 3,215,031,751."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class Field:
    """A coefficient field, identified by its characteristic.

    ``characteristic == 0`` gives exact rationals; a prime p < 2**31 gives
    GF(p).  Instances are interned by :func:`field_of`.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0 and (
            characteristic >= _MAX_PRIME or not is_prime(characteristic)
        ):
            raise ValueError(
                f"characteristic must be 0 or a prime < 2**31, got {characteristic}"
            )
        self.characteristic = characteristic

    # -- element constructors ------------------------------------------
    @property
    def zero(self):
        return 0

    def of(self, value):
        """Coerce an int or Fraction into this field."""
        p = self.characteristic
        if type(value) is int:  # the common case; isinstance goes through the numbers ABCs
            return value % p if p else value
        if p == 0:
            return value if isinstance(value, (int, Fraction)) else Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, p - 2, p) % p
        return value % p

    # -- arithmetic ----------------------------------------------------
    def add(self, a, b):
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def sub(self, a, b):
        p = self.characteristic
        return a - b if p == 0 else (a - b) % p

    def mul(self, a, b):
        p = self.characteristic
        return a * b if p == 0 else (a * b) % p

    def neg(self, a):
        p = self.characteristic
        return -a if p == 0 else (-a) % p

    def inv(self, a):
        p = self.characteristic
        if p == 0:
            return Fraction(1) / a
        if a % p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


_CACHE: dict[int, Field] = {}


def field_of(characteristic: int) -> Field:
    """Return the interned field of the given characteristic."""
    fld = _CACHE.get(characteristic)
    if fld is None:
        fld = _CACHE[characteristic] = Field(characteristic)
    return fld


QQ = field_of(0)
