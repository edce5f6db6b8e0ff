"""Exact arithmetic in the golden-ratio ring Z[tau], prime classification, and
the generalized Legendre symbol."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum


class UnitError(ValueError):
    """A unit was passed where a prime is required."""


class CompositeError(ValueError):
    """A composite element was passed where a prime is required."""


class EvenPrimeError(ValueError):
    """The even prime was passed to an odd-prime-only operation."""


class ParseError(ValueError):
    """Malformed textual form of a ring element."""


def _coerced(op):
    """A binary dunder of GoldenInt that takes an int operand as a GoldenInt
    and returns NotImplemented for every other type, so Python raises
    TypeError."""

    def dunder(self: GoldenInt, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            other = GoldenInt(other, 0)
        elif not isinstance(other, GoldenInt):
            return NotImplemented
        return op(self, other)

    return dunder


@dataclass(frozen=True)
class GoldenInt:
    """Element a + b*tau of Z[tau], where tau = (1+sqrt5)/2 and tau^2 = tau + 1."""

    a: int
    b: int

    @_coerced
    def __add__(self, other: GoldenInt) -> GoldenInt:
        return GoldenInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other: GoldenInt) -> GoldenInt:
        return GoldenInt(self.a - other.a, self.b - other.b)

    @_coerced
    def __rsub__(self, other: GoldenInt) -> GoldenInt:
        return other - self

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    @_coerced
    def __mul__(self, other: GoldenInt) -> GoldenInt:
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenInt(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenInt:
        if n < 0:
            return self.inverse() ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if (self.a, self.b) == (0, 1):
            return "t"
        return f"{self.a}{self.b:+d}t"

    def norm(self) -> int:
        """a^2 + ab - b^2; multiplicative, and +-1 exactly on units."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def conj(self) -> GoldenInt:
        """Galois conjugate, sending tau to 1 - tau."""
        return GoldenInt(self.a + self.b, -self.b)

    def inverse(self) -> GoldenInt:
        n = self.norm()
        if abs(n) != 1:
            raise UnitError(f"{self} is not a unit")
        return self.conj() * n


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(1, 0)
TAU = GoldenInt(0, 1)
TAU_INV = GoldenInt(-1, 1)


def exact_div(z: GoldenInt, w: GoldenInt) -> GoldenInt | None:
    """z / w when w divides z in Z[tau], else None."""
    n = w.norm()
    if n == 0:
        raise ZeroDivisionError("division by zero in Z[tau]")
    t = z * w.conj()
    if t.a % n or t.b % n:
        return None
    return GoldenInt(t.a // n, t.b // n)


def _size(z: GoldenInt) -> int:
    return abs(z.a) + abs(z.b)


def canonical_associate(z: GoldenInt) -> GoldenInt:
    """Deterministic representative of the associate class {+-tau^n z}.

    Minimizes (|a|+|b|, a, b) lexicographically. Sizes of tau^n z grow like
    tau^|n| in both directions away from a single valley, so walking each
    direction until 8 consecutive non-improvements is exhaustive.
    """
    if not z:
        raise ValueError("zero has no canonical associate")
    best: GoldenInt | None = None
    best_key: tuple[int, int, int] | None = None
    for step in (TAU, TAU_INV):
        w = z
        stale = 0
        low = _size(w)
        while stale <= 8:
            for v in (w, -w):
                key = (_size(v), v.a, v.b)
                if best_key is None or key < best_key:
                    best, best_key = v, key
            w = w * step
            s = _size(w)
            if s < low:
                low, stale = s, 0
            else:
                stale += 1
    assert best is not None
    return best


class PrimeClass(Enum):
    EVEN = "Even"
    CLASS_I = "ClassI"
    CLASS_II = "ClassII"
    CLASS_III = "ClassIII"


@dataclass(frozen=True)
class GoldenPrime:
    """A prime of Z[tau]: canonical associate, class, and field size q = |N|."""

    value: GoldenInt
    klass: PrimeClass
    q: int

    @property
    def c(self) -> int:
        return self.value.a

    @property
    def d(self) -> int:
        return self.value.b

    @property
    def char(self) -> int:
        """Characteristic of Z[tau]/(p)."""
        if self.klass is PrimeClass.EVEN:
            return 2
        if self.klass is PrimeClass.CLASS_I:
            return 5
        if self.klass is PrimeClass.CLASS_II:
            return math.isqrt(self.q)
        return self.q

    def divides(self, w: GoldenInt) -> bool:
        return exact_div(w, self.value) is not None

    def __str__(self) -> str:
        return str(self.value)


def _is_rational_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def classify_prime(z: GoldenInt) -> GoldenPrime:
    """Classify z as an Even / Class I / II / III prime of Z[tau].

    |N(z)| prime: Class I if 5 (ramified) else Class III (split, |N| = +-1 mod 5).
    z an associate of a rational prime r: Even if r = 2, Class II if r = +-2
    mod 5 (inert); r = +-1 mod 5 and r = 5 split or ramify, hence composite.
    """
    if not z:
        raise ValueError("zero is neither a unit nor a prime")
    n = abs(z.norm())
    if n == 1:
        raise UnitError(f"{z} is a unit")
    can = canonical_associate(z)
    if _is_rational_prime(n):
        klass = PrimeClass.CLASS_I if n == 5 else PrimeClass.CLASS_III
        return GoldenPrime(can, klass, n)
    r = math.isqrt(n)
    if r * r == n and _is_rational_prime(r) and can == canonical_associate(GoldenInt(r, 0)):
        if r == 2:
            return GoldenPrime(can, PrimeClass.EVEN, 4)
        if r % 5 in (2, 3):
            return GoldenPrime(can, PrimeClass.CLASS_II, n)
    raise CompositeError(f"{z} is composite (|N| = {n})")


def rational_legendre(a: int, m: int) -> int:
    """Ordinary Legendre symbol (a/m) for an odd rational prime m."""
    if m % 2 == 0 or not _is_rational_prime(m):
        raise ValueError(f"modulus {m} is not an odd rational prime")
    v = pow(a % m, (m - 1) // 2, m)
    return -1 if v == m - 1 else v


def golden_legendre(w: GoldenInt, p: GoldenPrime) -> int:
    """Generalized Legendre symbol (w/p) for an odd prime p of Z[tau].

    Class I reduces via tau = 3 (mod sqrt5); Class II via the norm residue
    mod r; Class III via the rational symbol (d(ad - bc)/q) with p = c + d*tau.
    Returns 0 exactly when p divides w.
    """
    if p.klass is PrimeClass.EVEN:
        raise EvenPrimeError("the symbol is undefined at the even prime")
    a, b = w.a, w.b
    if p.klass is PrimeClass.CLASS_I:
        return rational_legendre(a + 3 * b, 5)
    if p.klass is PrimeClass.CLASS_II:
        return rational_legendre(w.norm(), p.char)
    c, d = p.c, p.d
    return rational_legendre(a * d * d - b * c * d, p.q)


def primes_up_to_norm(bound: int) -> list[GoldenPrime]:
    """All canonical primes with q <= bound, ordered by (q, c, d).

    Class III candidates are found by scanning |c|, |d| <= 2*sqrt(bound) + 3:
    every prime has an associate with both real embeddings <= 1.28*sqrt(q),
    whose coefficients are then below 1.85*sqrt(q).
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    found: dict[tuple[int, int, int], GoldenPrime] = {}

    def add(z: GoldenInt) -> None:
        gp = classify_prime(z)
        found.setdefault((gp.q, gp.c, gp.d), gp)

    add(GoldenInt(2, 0))
    if bound >= 5:
        add(GoldenInt(-1, 2))
    r = 3
    while r * r <= bound:
        if r % 5 in (2, 3) and _is_rational_prime(r):
            add(GoldenInt(r, 0))
        r += 2
    radius = 2 * math.isqrt(bound) + 3
    for c in range(-radius, radius + 1):
        for d in range(-radius, radius + 1):
            if d == 0:
                continue
            n = abs(c * c + c * d - d * d)
            if n < 7 or n > bound or n % 5 not in (1, 4):
                continue
            if _is_rational_prime(n):
                add(GoldenInt(c, d))
    return [found[k] for k in sorted(found)]


_INT_RE = re.compile(r"^([+-]?\d+)$")
_FULL_RE = re.compile(r"^([+-]?\d+)([+-]\d+)t$")


def parse_golden(text: str) -> GoldenInt:
    """Parse the textual grammar `<int>` | `<int>+-<int>t` | `t`."""
    s = text.strip()
    if s == "t":
        return TAU
    m = _INT_RE.match(s)
    if m:
        return GoldenInt(int(m.group(1)), 0)
    m = _FULL_RE.match(s)
    if m:
        return GoldenInt(int(m.group(1)), int(m.group(2)))
    raise ParseError(f"cannot parse {text!r} as a ring element")
