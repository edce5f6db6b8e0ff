"""Exact arithmetic in the golden-ratio ring Z[tau], prime classification, and
the generalized Legendre symbol."""

from __future__ import annotations

import math
import re
import sys
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
        """Characteristic r of Z[tau]/(p), which is F_r when q = r and F_(r^2)
        when q = r^2, so r is isqrt(q) when q is a square and q otherwise."""
        r = math.isqrt(self.q)
        return r if r * r == self.q else self.q

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

    In F_(r^2) (q = r^2) the symbol is the norm residue (N(w)/r). In F_q
    (q = char) tau maps to -c/d for p = c + d*tau, so w = a + b*tau maps to
    (ad - bc)/d and the symbol is the rational ((a d^2 - b c d)/q), which
    covers sqrt5 too. Returns 0 exactly when p divides w.
    """
    if p.q % 2 == 0:
        raise EvenPrimeError("the symbol is undefined at the even prime")
    if p.char != p.q:
        return rational_legendre(w.norm(), p.char)
    c, d = p.c, p.d
    return rational_legendre(w.a * d * d - w.b * c * d, p.q)


def primes_up_to_norm(bound: int) -> list[GoldenPrime]:
    """All canonical primes with q <= bound, ordered by (q, c, d).

    The primes of prime norm, sqrt5 among them, are found by scanning |c|,
    |d| <= 2*sqrt(bound) + 3: every prime has an associate with both real
    embeddings <= 1.28*sqrt(q), whose coefficients are then below
    1.85*sqrt(q). The rational primes 2 and r = +-2 mod 5, of norm r^2, are
    added by hand.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    found: dict[tuple[int, int, int], GoldenPrime] = {}

    def add(z: GoldenInt) -> None:
        gp = classify_prime(z)
        found.setdefault((gp.q, gp.c, gp.d), gp)

    add(GoldenInt(2, 0))
    r = 3
    while r * r <= bound:
        if r % 5 in (2, 3) and _is_rational_prime(r):
            add(GoldenInt(r, 0))
        r += 2
    radius = 2 * math.isqrt(bound) + 3
    for c in range(-radius, radius + 1):
        for d in range(-radius, radius + 1):
            n = abs(c * c + c * d - d * d)
            if n <= bound and _is_rational_prime(n):
                add(GoldenInt(c, d))
    return [found[k] for k in sorted(found)]


_GOLDEN_RE = re.compile(r"^([+-]?\d+)(?:([+-]\d+)t)?$")


def parse_golden(text: str) -> GoldenInt:
    """Parse the textual grammar `<int>` | `<int>+-<int>t` | `t`.

    An integer longer than Python's int conversion limit is a ParseError, and
    the message echoes at most the first 40 characters of the text.
    """
    s = text.strip()
    if s == "t":
        return TAU
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
    m = _GOLDEN_RE.match(s)
    if not m:
        raise ParseError(f"cannot parse {shown} as a ring element")
    try:
        return GoldenInt(int(m.group(1)), int(m.group(2) or 0))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"cannot parse {shown}: an integer has more than {limit} digits") from None
