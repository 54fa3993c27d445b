"""Exact coefficient fields: the rationals, word-sized prime fields, and
small extension fields GF(p^k).

Field elements are plain Python objects (``int``/``Fraction`` for the
rationals, ``int`` residues in ``[0, p)`` for GF(p), ``int`` codes in
``[0, p^k)`` for GF(p^k)); the :class:`Field` object supplies the
arithmetic.  No floating point anywhere.

An element of GF(p^k) = GF(p)[x]/(f), f a primitive polynomial of degree
k, is coded by the base-p digits of its remainder mod f: the code
c_0 + c_1 p + ... + c_{k-1} p^(k-1) stands for c_0 + c_1 x + ... +
c_{k-1} x^(k-1).  So the prime subfield is 0 .. p-1, with the arithmetic
of GF(p), and x, a generator of the multiplicative group, has code p.
Multiplication adds logarithms to the base x.  Addition is XOR when p = 2;
otherwise a + b = x^la (1 + x^(lb-la)) reads the logarithm of 1 + x^m off
a Zech table.

Each field also owns the sparse-row update ``add_scaled`` (row += c * src
on ``{column: coefficient}`` dicts) that every sparse elimination calls,
so no caller picks a kernel for its field.
"""

from __future__ import annotations

from fractions import Fraction

_MAX_PRIME = 1 << 31
# the extension fields that linear forms are drawn from have at least this
# many elements (``draw_field``)
_DRAW_FIELD_SIZE = 200
# f - x^k for a known primitive f of the degree ``draw_field`` picks, coded
# as an element: x^8 + x^4 + x^3 + x^2 + 1 over GF(2), x^5 + 2x + 1 over
# GF(3).  Other fields search for one, at more cost.
_PRIMITIVE_TAIL = {(2, 8): 0b11101, (3, 5): 7}

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
    """A coefficient field, identified by its characteristic p and degree k.

    ``characteristic == 0`` gives exact rationals; a prime p < 2**31 gives
    GF(p), and k > 1 gives GF(p^k) (:class:`ExtensionField`).  Instances
    are interned by :func:`field_of`.
    """

    __slots__ = ("characteristic", "degree")

    def __init__(self, characteristic: int, degree: int = 1):
        if characteristic != 0 and (
            characteristic >= _MAX_PRIME or not is_prime(characteristic)
        ):
            raise ValueError(
                f"characteristic must be 0 or a prime < 2**31, got {characteristic}"
            )
        self.characteristic = characteristic
        self.degree = degree

    @property
    def order(self) -> int:
        """The number of elements, p^k; 0 for the rationals."""
        return self.characteristic**self.degree

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

    def add_scaled(self, row: dict, c, src: dict, offset: int = 0) -> None:
        """In place ``row += c * src``, src's columns shifted by ``offset``.

        Entries are reduced mod p over GF(p) and dropped when they cancel.
        """
        p = self.characteristic
        for k, v in src.items():
            k += offset
            nv = row.get(k, 0) + c * v
            if p:
                nv %= p
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Field)
            and self.characteristic == other.characteristic
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash(("Field", self.characteristic, self.degree))

    def __repr__(self):
        p, k = self.characteristic, self.degree
        return "QQ" if p == 0 else f"GF({p})" if k == 1 else f"GF({p}^{k})"


def _powers_of_x(p: int, k: int, tail: int) -> list[int] | None:
    """The codes of x^0, ..., x^(p^k - 2) modulo f = x^k + (the element
    coded ``tail``), or None when x has a smaller multiplicative order, so
    that f is not primitive (an f with a unit group of p^k - 1 elements
    generated by x is irreducible)."""
    q = p**k
    top = q // p
    # x^k = -tail: multiplying by x shifts the digits, and a digit h
    # leaving the top adds h * (-tail).  Only the nonzero digits of -tail
    # are added, digit by digit, since codes add without carries
    neg = [(-(tail // p**j)) % p for j in range(k)]
    spill = [[(p**j, h * d % p) for j, d in enumerate(neg) if h * d % p] for h in range(p)]
    powers = [1]
    cur = 1
    for _ in range(q - 2):
        h, rest = divmod(cur, top)
        cur = rest * p
        if h and p == 2:
            cur ^= tail
        elif h:
            for w, d in spill[h]:
                cur += w * (d - p if cur // w % p + d >= p else d)
        if cur == 1:
            return None
        powers.append(cur)
    return powers


class ExtensionField(Field):
    """GF(p^k) for k > 1, on log and Zech tables (module docstring).

    ``exp`` lists the powers of x twice over, so a sum of two logarithms
    indexes it directly; ``log`` has -1 at 0; ``zech[m]`` is the logarithm
    of 1 + x^m (-1 where that is 0), and negative indices of it read
    m modulo p^k - 1.  An int is an element code and must lie in
    [0, p^k); a Fraction is a rational number, sent into the prime
    subfield, so the integer n is ``of(Fraction(n))``.
    """

    __slots__ = ("exp", "log", "zech", "_half")

    def __init__(self, characteristic: int, degree: int):
        super().__init__(characteristic, degree)
        p, k = characteristic, degree
        if p == 0 or k < 2:
            raise ValueError(f"an extension field needs a prime and k >= 2, got p={p}, k={k}")
        q = p**k
        tails = range(1, q) if (p, k) not in _PRIMITIVE_TAIL else [_PRIMITIVE_TAIL[p, k]]
        powers = next(filter(None, (_powers_of_x(p, k, t) for t in tails if t % p)))
        log = [-1] * q
        for i, c in enumerate(powers):
            log[c] = i
        self.exp, self.log = powers + powers, log
        # 1 + c changes the last digit of c only
        self.zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in powers]
        self._half = (q - 1) // 2  # x^half = -1 when p is odd

    def of(self, value):
        if type(value) is int:
            if not 0 <= value < self.order:
                raise ValueError(f"{value} is no element code of {self}; integers enter as Fractions")
            return value
        if isinstance(value, Fraction):
            return super().of(value)  # into the prime subfield
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def add(self, a, b):
        if self.characteristic == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[self.log[b] - la]
        return self.exp[la + z] if z >= 0 else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def neg(self, a):
        if self.characteristic == 2 or not a:
            return a
        return self.exp[self.log[a] + self._half]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[self.order - 1 - self.log[a]]

    def add_scaled(self, row: dict, c: int, src: dict, offset: int = 0) -> None:
        """``Field.add_scaled`` on the log tables; c is nonzero."""
        exp, log = self.exp, self.log
        lc = log[c]
        if self.characteristic == 2:
            for k, v in src.items():
                k += offset
                nv = row.get(k, 0) ^ exp[lc + log[v]]
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            return
        zech, n = self.zech, self.order - 1
        for k, v in src.items():
            k += offset
            lt = lc + log[v]  # the term c v = x^lt
            a = row.get(k)
            if a is None:
                row[k] = exp[lt]
                continue
            la = log[a]
            z = zech[(lt - la) % n]  # a + x^lt = x^la (1 + x^(lt - la))
            if z < 0:
                del row[k]
            else:
                row[k] = exp[la + z]


_CACHE: dict[tuple[int, int], Field] = {}


def field_of(characteristic: int, degree: int = 1) -> Field:
    """Return the interned field GF(p^k) (the rationals for p = 0)."""
    key = (characteristic, degree)
    fld = _CACHE.get(key)
    if fld is None:
        fld = Field(characteristic) if degree == 1 else ExtensionField(characteristic, degree)
        _CACHE[key] = fld
    return fld


def draw_field(characteristic: int) -> Field:
    """The field that random linear forms of the characteristic are drawn
    from.  For p > 0 it is GF(p^k) for the smallest k with p^k >= 200, so
    GF(2^8), GF(3^5), and GF(p) itself once p > 200.  A small prime field
    may have no suitable form at all: over GF(2) the only linear form in
    four variables that is nonzero at every unit vector is their sum, which
    vanishes at (1, 1, 1, 1).  Over q elements, a nonzero polynomial of
    degree e vanishes at a random point with probability at most e / q.
    For 0 it is GF(``PROXY_PRIMES[0]``): the forms are then integers, and a
    GF(p) dimension bounds the rational one from above."""
    if characteristic == 0:
        return field_of(PROXY_PRIMES[0])
    p, k = field_of(characteristic).characteristic, 1  # refuses a non-prime
    while p**k < _DRAW_FIELD_SIZE:
        k += 1
    return field_of(p, k)


QQ = field_of(0)
