"""Finite fields F_q = Z[tau]/(p) with packed-code arithmetic and the
reduction homomorphism."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .ring import EvenPrimeError, GoldenInt, GoldenPrime, PrimeClass

# Every field has q < Q_LIMIT, so each intermediate of a 4x4 code-matrix
# product stays below 2^63: 4(q-1)^2 at degree 1, 12(r-1)^2 at degree 2.
Q_LIMIT = 1 << 30


@dataclass(frozen=True)
class FieldCtx:
    """F_q as residue pairs x + y*theta mod (char, theta^2 - theta - 1).

    Elements are packed into single integer codes: degree 1 stores x itself,
    degree 2 stores x*char + y. theta is the image of tau, so tau_code always
    satisfies t^2 = t + 1.
    """

    char: int
    degree: int
    q: int
    tau_code: int

    @property
    def one(self) -> int:
        return self.char if self.degree == 2 else 1

    def encode(self, x: int, y: int = 0) -> int:
        if self.degree == 1:
            if y:
                raise ValueError("degree-1 field has no theta component")
            return x % self.q
        return (x % self.char) * self.char + (y % self.char)

    def decode(self, code: int) -> tuple[int, int]:
        if self.degree == 1:
            return code, 0
        return divmod(code, self.char)

    def reduce(self, z: GoldenInt) -> int:
        """Ring homomorphism Z[tau] -> F_q sending tau to tau_code."""
        if self.degree == 1:
            return (z.a + z.b * self.tau_code) % self.q
        return self.encode(z.a, z.b)

    def add(self, u: int, v: int) -> int:
        if self.degree == 1:
            return (u + v) % self.q
        r = self.char
        return ((u // r + v // r) % r) * r + (u % r + v % r) % r

    def neg(self, u: int) -> int:
        if self.degree == 1:
            return -u % self.q
        r = self.char
        return (-(u // r) % r) * r + (-(u % r) % r)

    def sub(self, u: int, v: int) -> int:
        return self.add(u, self.neg(v))

    def mul(self, u, v, op=operator.mul):
        """The product of codes; with op=np.matmul, of stacks of code matrices."""
        if self.degree == 1:
            return op(u, v) % self.q
        r = self.char
        x1, y1 = divmod(u, r)
        x2, y2 = divmod(v, r)
        yy = op(y1, y2)
        return ((op(x1, x2) + yy) % r) * r + (op(x1, y2) + op(y1, x2) + yy) % r

    def inv(self, u: int) -> int:
        if u == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self.degree == 1:
            return pow(u, self.q - 2, self.q)
        r = self.char
        x, y = divmod(u, r)
        n = (x * x + x * y - y * y) % r  # norm to F_r, nonzero for u != 0
        ninv = pow(n, r - 2, r)
        return ((x + y) * ninv % r) * r + (-y * ninv) % r

    def pow_(self, u: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(u), -e)
        out, base = self.one, u
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
        return self.pow_(u, (self.q - 1) // 2) == self.one


def build_field(p: GoldenPrime) -> FieldCtx:
    """Construct Z[tau]/(p) for any prime class with q < Q_LIMIT."""
    if p.q >= Q_LIMIT:
        raise ValueError(f"q = {p.q} is too large: fields need q < 2^30")
    if p.klass is PrimeClass.EVEN:
        return FieldCtx(2, 2, 4, 1)
    if p.klass is PrimeClass.CLASS_I:
        return FieldCtx(5, 1, 5, 3)
    if p.klass is PrimeClass.CLASS_II:
        return FieldCtx(p.char, 2, p.q, 1)
    q = p.q
    t = (-p.c * pow(p.d, q - 2, q)) % q
    return FieldCtx(q, 1, q, t)
