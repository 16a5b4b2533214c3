"""Exact coefficient fields: GF(p) for primes p < 2^64, GF(2) among them, and Q.

Field objects operate on plain Python values (ints for finite fields,
Fraction for Q) so callers never box scalars.  All arithmetic is exact;
there are no floats anywhere in the toolkit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams


class Field:
    """Common interface.  Elements are ints (finite fields) or Fractions."""

    name: str
    char: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, token: str):
        raise NotImplementedError

    def show(self, a) -> str:
        return str(a)

    def __repr__(self):
        return f"<field {self.name}>"

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


# Miller-Rabin on these bases is exact for every n < 2^64, indeed below
# 3.3 * 10^24 (Sorenson & Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GFp(Field):
    char: int

    def __init__(self, p: int):
        if p >= 1 << 64:
            raise BadParams(f"gf{p}: modulus must be below 2^64")
        if not _is_prime(p):
            raise BadParams(f"gf{p}: modulus must be prime")
        self.p = p
        self.char = p
        self.name = f"gf{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in gf{self.p}")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, token):
        return int(token) % self.p


class Rational(Field):
    name = "q"
    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in q")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def parse(self, token):
        """An integer, p/q or a plain decimal.  An exponent is refused:
        Fraction expands 1e999999999 into all of its digits."""
        if "e" in token.lower():
            raise ValueError(f"{token!r} has an exponent")
        return Fraction(token)

    def show(self, a) -> str:
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


GF2_FIELD = GFp(2)
Q_FIELD = Rational()


def field_from_name(name: str) -> Field:
    """Resolve a field token: gf2, gf3, gf5, ..., q (alias: rational)."""
    token = name.strip().lower()
    if token == "gf2":
        return GF2_FIELD
    if token in ("q", "rational"):
        return Q_FIELD
    if token.startswith("gf") and token[2:].isdigit():
        if len(token[2:].lstrip("0")) > 20:  # at least 10^20 > 2^64, and too long for int()
            raise BadParams(f"{name}: modulus must be below 2^64")
        return GFp(int(token[2:]))
    raise BadParams(f"unknown field {name!r}")
