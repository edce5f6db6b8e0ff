"""Exact Z[tau] generator, Gram, and Cartan matrices of the rank-4 star
Coxeter groups [5,3;k], their determinant identities, and reductions mod
primes of Z[tau]."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import FieldCtx, build_field
from .matgroup import element_order, mat_mul
from .ring import ONE, TAU, GoldenInt, GoldenPrime

K_INF = math.inf
_TAU2 = TAU * TAU

RHO = {3: ONE, 4: GoldenInt(2, 0), 5: _TAU2, 6: GoldenInt(3, 0), K_INF: GoldenInt(4, 0)}

COXETER_EXPONENTS = {(0, 1): 5, (1, 2): 3, (0, 2): 2, (0, 3): 2, (2, 3): 2}


def rho(k) -> GoldenInt:
    """Triangle mark rho_k: the scaled norm ratio of the root v3."""
    return RHO[k]


@dataclass(frozen=True)
class GoldenMat:
    """Square matrix with exact Z[tau] entries."""

    rows: tuple[tuple[GoldenInt, ...], ...]

    @staticmethod
    def build(rows) -> GoldenMat:
        conv = tuple(
            tuple(v if isinstance(v, GoldenInt) else GoldenInt(v, 0) for v in row) for row in rows
        )
        return GoldenMat(conv)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> GoldenInt:
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other: GoldenMat) -> GoldenMat:
        n = self.n
        return GoldenMat(
            tuple(
                tuple(
                    sum((self.rows[i][l] * other.rows[l][j] for l in range(n)), GoldenInt(0, 0))
                    for j in range(n)
                )
                for i in range(n)
            )
        )

    def scaled(self, s: GoldenInt | int) -> GoldenMat:
        return GoldenMat(tuple(tuple(v * s for v in row) for row in self.rows))

    def transpose(self) -> GoldenMat:
        return GoldenMat(tuple(zip(*self.rows)))

    def minor(self, drop: int) -> GoldenMat:
        keep = [i for i in range(self.n) if i != drop]
        return GoldenMat(tuple(tuple(self.rows[i][j] for j in keep) for i in keep))

    def det(self) -> GoldenInt:
        """Exact determinant by cofactor expansion along the first row."""
        if self.n == 1:
            return self.rows[0][0]
        total = GoldenInt(0, 0)
        for j, v in enumerate(self.rows[0]):
            if not v:
                continue
            sub = GoldenMat(tuple(r[:j] + r[j + 1 :] for r in self.rows[1:]))
            term = v * sub.det()
            total = total + (term if j % 2 == 0 else -term)
        return total

    def is_identity(self) -> bool:
        return all(
            self.rows[i][j] == (ONE if i == j else GoldenInt(0, 0))
            for i in range(self.n)
            for j in range(self.n)
        )

    def reduce(self, ctx: FieldCtx) -> np.ndarray:
        return np.array([[ctx.reduce(v) for v in row] for row in self.rows], dtype=np.int64)


def generator_matrices(k) -> tuple[GoldenMat, GoldenMat, GoldenMat, GoldenMat]:
    """The four reflections of [5,3;k] acting on column coordinate vectors."""
    p = rho(k)
    r0 = GoldenMat.build([[-1, _TAU2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r1 = GoldenMat.build([[1, 0, 0, 0], [1, -1, 1, p], [0, 0, 1, 0], [0, 0, 0, 1]])
    r2 = GoldenMat.build([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
    r3 = GoldenMat.build([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, -1]])
    return r0, r1, r2, r3


def gram(k, scale: int = 1) -> GoldenMat:
    """Gram matrix of the rescaled root basis, scaled entrywise by mu."""
    p = rho(k)
    t2 = _TAU2
    g = GoldenMat.build(
        [
            [GoldenInt(4, 0), t2 * -2, GoldenInt(0, 0), GoldenInt(0, 0)],
            [t2 * -2, t2 * 4, t2 * -2, t2 * p * -2],
            [GoldenInt(0, 0), t2 * -2, t2 * 4, GoldenInt(0, 0)],
            [GoldenInt(0, 0), t2 * p * -2, GoldenInt(0, 0), t2 * p * 4],
        ]
    )
    return g.scaled(scale)


def cartan(k) -> GoldenMat:
    """Cartan matrix 2*(vj.vi)/(vi.vi); independent of the form scale."""
    p = rho(k)
    return GoldenMat.build(
        [
            [2, -_TAU2, 0, 0],
            [-1, 2, -1, -p],
            [0, -1, 2, 0],
            [0, -1, 0, 2],
        ]
    )


@dataclass(frozen=True)
class DetReport:
    det_gram: GoldenInt
    det_cartan: GoldenInt
    expected_gram: GoldenInt
    expected_cartan: GoldenInt


def det_identities(k) -> DetReport:
    """Verify det g = 2^6 tau^4 rho (1 - tau^2 rho) and
    det c = 2^2 tau^-2 (1 - tau^2 rho) exactly; mismatch is fatal."""
    p = rho(k)
    one_minus = ONE - _TAU2 * p
    eg = GoldenInt(64, 0) * TAU**4 * p * one_minus
    ec = GoldenInt(4, 0) * GoldenInt(2, -1) * one_minus  # tau^-2 = 2 - tau
    rep = DetReport(gram(k).det(), cartan(k).det(), eg, ec)
    if rep.det_gram != eg or rep.det_cartan != ec:
        raise AssertionError(f"determinant identity fails for k={k}: {rep}")
    return rep


@dataclass(frozen=True)
class StarParams:
    """A reduction instance: triangle mark k, prime, and form scale mu."""

    k: int | float
    prime: GoldenPrime
    scale: int = 1

    def __post_init__(self):
        if self.k not in (3, 4, 5, 6, K_INF):
            raise ValueError(f"k must be 3, 4, 5, 6, or inf; got {self.k}")
        if self.scale not in (1, 2):
            raise ValueError("form scale must be 1 or 2")
        if self.k == K_INF and self.prime.char not in (3, 5):
            raise ValueError("k = inf is supported only at sqrt5 and at 3")

    @cached_property
    def _reduction(self) -> tuple[FieldCtx, np.ndarray, SmoothnessReport]:
        """Built on first use and kept on the instance; see reduced_generators."""
        ctx = build_field(self.prime)
        gens = np.stack([m.reduce(ctx) for m in generator_matrices(self.k)])
        gens.setflags(write=False)
        expected: dict[tuple[int, int], int | None] = dict(COXETER_EXPONENTS)
        expected[(1, 3)] = self.k if self.k != K_INF else None
        orders = {}
        bad = []
        for (i, j), want in sorted(expected.items()):
            m = element_order(ctx, mat_mul(ctx, gens[i], gens[j]), cap=1000)
            orders[(i, j)] = m
            if want is not None and m != want:
                bad.append((i, j))
        return ctx, gens, SmoothnessReport(orders, tuple(bad))


@dataclass(frozen=True)
class SmoothnessReport:
    """Pairwise product orders of the reduced generators vs Coxeter data."""

    product_orders: dict[tuple[int, int], int]
    non_smooth_pairs: tuple[tuple[int, int], ...]

    @property
    def smooth(self) -> bool:
        return not self.non_smooth_pairs


def reduced_generators(params: StarParams) -> tuple[FieldCtx, np.ndarray, SmoothnessReport]:
    """Reduce the generator matrices mod the prime; report product orders.

    The reduction is built once per StarParams instance and shared: the
    generator stack is read-only.
    """
    return params._reduction


def kept(omit) -> list[int]:
    """Indices of the generators of G_omit, the subgroup generated by the
    generators not in omit: kept("02") == [1, 3]. omit is a string of
    digits or an iterable of indices."""
    omitted = {int(i) for i in omit}
    if not omitted <= {0, 1, 2, 3}:
        raise ValueError("generator indices are 0..3")
    return [i for i in range(4) if i not in omitted]


def generator_word(ctx: FieldCtx, gens: np.ndarray, idx) -> np.ndarray:
    """The product gens[i0] gens[i1] ... over F_q."""
    m = gens[idx[0]]
    for j in idx[1:]:
        m = mat_mul(ctx, m, gens[j])
    return m


def torus_words(ctx: FieldCtx, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k=6 torus words x = r1r3r1r3r1r2 and y = r3r1r3r2r1r2."""
    return (
        generator_word(ctx, gens, (1, 3, 1, 3, 1, 2)),
        generator_word(ctx, gens, (3, 1, 3, 2, 1, 2)),
    )
