"""Exact Z[tau] generator, Gram, and Cartan matrices of the rank-4 star
Coxeter groups [5,3;k], their determinant identities, and reductions mod
primes of Z[tau].

An exact matrix is a numpy object array of GoldenInt (``golden_matrix``),
so numpy's ``@``, ``.T``, scaling and indexing act on it exactly; ``det``
takes its determinant and ``reduce_matrix`` reduces it, or a stack of
them, into F_q as int64, the only form the kernels of ``matgroup`` take."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import FieldCtx, build_field
from .matgroup import element_order, mat_mul
from .ring import ONE, TAU, ZERO, GoldenInt, GoldenPrime

K_INF = math.inf
_TAU2 = TAU * TAU

RHO = {3: ONE, 4: GoldenInt(2, 0), 5: _TAU2, 6: GoldenInt(3, 0), K_INF: GoldenInt(4, 0)}

COXETER_EXPONENTS = {(0, 1): 5, (1, 2): 3, (0, 2): 2, (0, 3): 2, (2, 3): 2}


def rho(k) -> GoldenInt:
    """Triangle mark rho_k: the scaled norm ratio of the root v3."""
    return RHO[k]


_golden = np.vectorize(lambda v: GoldenInt(v, 0) if isinstance(v, int) else v, otypes=[object])


def golden_matrix(rows) -> np.ndarray:
    """An exact matrix, or a stack of them, as a numpy object array of
    GoldenInt: an int entry n is taken as GoldenInt(n, 0)."""
    return _golden(np.array(rows, dtype=object))


def det(m: np.ndarray) -> GoldenInt:
    """Exact determinant of an n x n object array, n >= 2, by cofactor
    expansion along the first row. The minors are nested lists, which
    Python slices faster than numpy indexes an object array."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        ((-v if j % 2 else v) * det([[*r[:j], *r[j + 1 :]] for r in m[1:]])
         for j, v in enumerate(m[0]) if v),
        ZERO,
    )


def reduce_matrix(ctx: FieldCtx, m: np.ndarray) -> np.ndarray:
    """An exact matrix, or a stack of them, reduced entrywise into F_q: int64."""
    return np.vectorize(ctx.reduce, otypes=[np.int64])(m)


def generator_matrices(k) -> np.ndarray:
    """The four reflections of [5,3;k] acting on column coordinate vectors,
    as one 4 x 4 x 4 stack."""
    p = rho(k)
    return golden_matrix(
        [
            [[-1, _TAU2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [1, -1, 1, p], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, -1]],
        ]
    )


def gram(k, scale: int = 1) -> np.ndarray:
    """Gram matrix of the rescaled root basis, scaled entrywise by mu."""
    p = rho(k)
    return scale * golden_matrix(
        [
            [4, _TAU2 * -2, 0, 0],
            [_TAU2 * -2, _TAU2 * 4, _TAU2 * -2, _TAU2 * p * -2],
            [0, _TAU2 * -2, _TAU2 * 4, 0],
            [0, _TAU2 * p * -2, 0, _TAU2 * p * 4],
        ]
    )


def cartan(k) -> np.ndarray:
    """Cartan matrix 2*(vj.vi)/(vi.vi); independent of the form scale."""
    p = rho(k)
    return golden_matrix(
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
    rep = DetReport(det(gram(k)), det(cartan(k)), eg, ec)
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
        gens = reduce_matrix(ctx, generator_matrices(self.k))
        gens.setflags(write=False)
        expected = {**COXETER_EXPONENTS, (1, 3): None if self.k == K_INF else self.k}
        orders = {
            (i, j): element_order(ctx, mat_mul(ctx, gens[i], gens[j]), cap=1000)
            for i, j in sorted(expected)
        }
        bad = tuple(ij for ij, m in orders.items() if expected[ij] not in (None, m))
        return ctx, gens, SmoothnessReport(orders, bad)


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
