"""Finite fields F_q = Z[tau]/(p) with packed-code arithmetic and the
reduction homomorphism."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .ring import EvenPrimeError, GoldenInt, GoldenPrime

# Every field has q < Q_LIMIT, so each intermediate of a 4x4 code-matrix
# product stays below 2^63: 4(q-1)^2 at degree 1, 12(r-1)^2 at degree 2.
Q_LIMIT = 1 << 30


@dataclass(frozen=True)
class FieldCtx:
    """F_q as residue pairs x + y*theta mod (char, theta^2 - theta - 1).

    Elements are packed into single integer codes x + y*char, the prime-field
    digit low: at degree 1 char = q and y = 0, so a code is x itself. Code 1
    is one at every degree, and the codes below char are the prime field.
    theta is the image of tau, so tau_code always satisfies t^2 = t + 1.

    ``tables`` holds, at q <= 16, the digit table that decodes base-q row
    codes (``matgroup._digits``) and one row table per matrix that a closure
    in this field has multiplied by, keyed by the matrix's key
    (``matgroup._successors``), and, at q <= 65,535, the inverses of all q
    codes that scale vectors to lines (``matgroup._lines``). It is a memo:
    it takes no part in equality, hashing or repr, and it lives as long as
    the field.
    """

    char: int
    degree: int
    q: int
    tau_code: int
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def decode(self, code: int) -> tuple[int, int]:
        y, x = divmod(code, self.char)
        return x, y

    def reduce(self, z: GoldenInt) -> int:
        """Ring homomorphism Z[tau] -> F_q sending tau to tau_code."""
        return self.add(z.a % self.char, self.mul(z.b % self.char, self.tau_code))

    def add(self, u: int, v: int) -> int:
        if self.degree == 1:
            return (u + v) % self.q
        r = self.char
        return (u % r + v % r) % r + (u // r + v // r) % r * r

    def neg(self, u: int) -> int:
        return self.sub(0, u)

    def sub(self, u: int, v: int) -> int:
        if self.degree == 1:
            return (u - v) % self.q
        r = self.char
        return (u % r - v % r) % r + (u // r - v // r) % r * r

    def mul(self, u, v, op=operator.mul):
        """The product of codes; with op=np.matmul, of stacks of code matrices."""
        if self.degree == 1:
            return op(u, v) % self.q
        r = self.char
        y1, x1 = divmod(u, r)
        y2, x2 = divmod(v, r)
        yy = op(y1, y2)
        return (op(x1, x2) + yy) % r + (op(x1, y2) + op(y1, x2) + yy) % r * r

    def inv(self, u: int) -> int:
        """The inverse of a nonzero code. At degree 2, u = x + y*theta has
        conjugate s = (x + y) - y*theta (theta's conjugate is 1 - theta) and
        norm u s = x^2 + x y - y^2 in F_r, so 1/u = s / N(u)."""
        if u == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self.degree == 1:
            return pow(int(u), -1, self.q)
        r = self.char
        y, x = divmod(int(u), r)
        n = pow((x * x + x * y - y * y) % r, -1, r)
        return (x + y) * n % r + -y * n % r * r

    def pow_(self, u: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(u), -e)
        out, base = 1, u
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_square(self, u: int) -> bool:
        """Euler criterion; defined for nonzero u in odd-order fields."""
        if self.q % 2 == 0:
            raise EvenPrimeError("squareness is undefined in even characteristic")
        if u == 0:
            raise ValueError("squareness is undefined at zero")
        return self.pow_(u, (self.q - 1) // 2) == 1

    def sqrt(self, u: int) -> int | None:
        """A square root of u by Tonelli-Shanks, None for a non-square; q odd."""
        if u == 0:
            return 0
        if not self.is_square(u):
            return None
        odd, s = self.q - 1, 0
        while odd % 2 == 0:
            odd, s = odd // 2, s + 1
        # the codes below char make F_r, and at degree 2 each of them is a
        # square in F_q, so the scan for a non-square starts past them
        start = 1 if self.degree == 1 else self.char
        z = next(z for z in range(start, self.q) if not self.is_square(z))
        c, t, r = self.pow_(z, odd), self.pow_(u, odd), self.pow_(u, (odd + 1) // 2)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                i, t2 = i + 1, self.mul(t2, t2)
            b = self.pow_(c, 1 << (s - i - 1))
            s, c = i, self.mul(b, b)
            t, r = self.mul(t, c), self.mul(r, b)
        return r


def build_field(p: GoldenPrime) -> FieldCtx:
    """Construct Z[tau]/(p) for any prime p with q < Q_LIMIT.

    The degree is the only switch. At q = r^2 (p an associate of the rational
    prime r, the even prime included) tau is theta, the code r; at q = char,
    p = c + d*tau gives tau = -c/d mod q, which is 3 at sqrt5.
    """
    if p.q >= Q_LIMIT:
        raise ValueError(f"q = {p.q} is too large: fields need q < 2^30")
    r, q = p.char, p.q
    if r != q:
        return FieldCtx(r, 2, q, r)
    return FieldCtx(q, 1, q, -p.c * pow(p.d, q - 2, q) % q)
