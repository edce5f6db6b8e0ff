"""Isomorphism types of the reduced star groups: a Legendre-symbol path from
the Gram determinant and root norms, an independent congruence path from the
prime's residues, and the closed-form torus power identities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import K_INF, StarParams, gram, reduced_generators, rho, torus_words
from .field import FieldCtx
from .matgroup import GroupHandle, OverCapError, identity, is_identity, mat_inv, mat_mul, mat_pow
from .ring import GoldenInt, GoldenPrime, PrimeClass, golden_legendre, rational_legendre


# Subgroups predicted to have more elements are built as stabilizer chains.
# Build times cross between 2,640 elements (k = 4 G2 at q = 11: closure 1.0 ms,
# chain 5.1 ms) and 4,332 (k = 6 G0 at q = 19: 8.9 against 4.6 ms), best of 7
# on 2 vCPU with numpy 2.4.6. The benchmark's polytope rows build no chain, so
# it stays at least 1,620 (k = 6 G2 at 3).
ENUMERATE_LIMIT = 4_000


class SingularFormError(ValueError):
    """The reduced bilinear form is singular outside the known exceptional cases."""


class OrderMismatchError(ArithmeticError):
    """A group order built from the generators contradicts the classification:
    a failed verification, not a fault of the program."""


@dataclass(frozen=True)
class Classification:
    """Isomorphism type of a reduced group together with its predicted order.

    family is one of "O" (full orthogonal), "O1", "O2" (index-2 special
    subgroups), "coxeter" (injective reduction of a finite Coxeter group),
    "torus" (the k=6 vertex group left 12 s^2), or "exceptional".
    """

    family: str
    label: str
    predicted_order: int
    epsilon: int
    delta: int

    @property
    def display(self) -> str:
        if self.family == "exceptional":
            return f"Exceptional {self.label}"
        return self.label


def orthogonal_order(n: int, q: int, eps: int, full: bool) -> int:
    """Orders of O(n,q,eps) and its index-2 subgroups O1, O2.

    |O(3,q,0)| = 2q(q^2-1); |O(4,q,1)| = 2q^2(q^2-1)^2;
    |O(4,q,-1)| = 2q^2(q^2+1)(q^2-1); O1 and O2 have half the order.
    """
    if n == 3:
        base = q * (q * q - 1)
    elif eps == 1:
        base = q * q * (q * q - 1) ** 2
    elif eps == -1:
        base = q * q * (q * q + 1) * (q * q - 1)
    else:
        raise ValueError("rank-4 orthogonal type needs eps = +-1")
    return 2 * base if full else base


def epsilon(k, p: GoldenPrime, mu: int = 1) -> int:
    """Square class of the Gram determinant: golden_legendre(det g_mu, p)."""
    return golden_legendre(gram(k, mu).det(), p)


def delta(k, p: GoldenPrime, mu: int = 1) -> int:
    """Square class of the v3 root norm ratio: golden_legendre(mu rho_k, p)."""
    return golden_legendre(GoldenInt(mu, 0) * rho(k), p)


def _orthogonal_family(sigma: int, dlt: int) -> str:
    """Root-norm trichotomy: the special generators land in O1 when every
    root norm is a square, in O2 when none is, and generate all of O when
    the norms mix square classes."""
    if sigma == 1 and dlt == 1:
        return "O1"
    if sigma == -1 and dlt == -1:
        return "O2"
    return "O"


def _orthogonal(n: int, q: int, eps: int, family: str, dlt: int) -> Classification:
    order = orthogonal_order(n, q, eps, full=(family == "O"))
    label = f"{family}({n},{q},{eps})"
    return Classification(family, label, order, eps, dlt)


def classify_rank4(params: StarParams) -> Classification:
    """Type of the reduced rank-4 group from the Legendre-symbol data.

    Even primes and the two singular odd cases (k=5 at sqrt5, k=6 at 3) are
    exceptional with stored orders; all other reductions are orthogonal, with
    the O/O1/O2 split decided by the root-norm square classes.
    """
    k, p, mu = params.k, params.prime, params.scale
    if k == K_INF:
        raise ValueError("no orthogonal classification for k = inf")
    if p.klass is PrimeClass.EVEN:
        return Classification("exceptional", "C2^4:A5", 960, 0, 0)
    dlt = delta(k, p, mu)
    if k == 5 and p.char == 5:
        return Classification("exceptional", "C5^3:(C2xA5)", 15_000, 0, dlt)
    if k == 6 and p.char == 3:
        return Classification("exceptional", "3-singular", 174_960, 0, dlt)
    eps = epsilon(k, p, mu)
    if eps == 0:
        raise SingularFormError(f"singular form for k={k}, p={p.value} outside known cases")
    sigma = golden_legendre(GoldenInt(mu, 0), p)
    return _orthogonal(4, p.q, eps, _orthogonal_family(sigma, dlt), dlt)


_RANK3_COXETER = {3: ("A3", 24), 4: ("B3", 48), 5: ("H3", 120)}


def classify_rank3(i: int, params: StarParams) -> Classification:
    """Type of the distinguished rank-3 subgroup with generator r_i omitted.

    i=3 drops the triangle and always gives H3; i=0 gives the cell group
    (A3/B3/H3, or the 12 s^2 torus group at k=6); i=2 gives a 3-dimensional
    orthogonal group through the root norms of {v0, v1, v3}.
    """
    k, p, mu = params.k, params.prime, params.scale
    if p.klass is PrimeClass.EVEN:
        raise ValueError("rank-3 classification needs an odd prime")
    if i == 3:
        return Classification("coxeter", "H3", 120, 0, 0)
    if k == K_INF:
        raise ValueError("rank-3 classification along the triangle needs finite k")
    if i == 0:
        if k in _RANK3_COXETER:
            name, order = _RANK3_COXETER[k]
            return Classification("coxeter", name, order, 0, 0)
        return Classification("torus", f"Torus({p.char})", 12 * p.char**2, 0, 0)
    if i != 2:
        raise ValueError("distinguished rank-3 subgroups omit generator 0, 2, or 3")
    if k == 3:
        return Classification("coxeter", "H3", 120, 0, 0)
    if k == 6 and p.char == 3:
        return Classification("exceptional", "C3^4:D10", 1620, 0, 0)
    minor_det = gram(k, mu).minor(2).det()
    if golden_legendre(minor_det, p) == 0:
        raise SingularFormError(f"singular 3x3 form for k={k}, p={p.value}")
    sigma = golden_legendre(GoldenInt(mu, 0), p)
    dlt = delta(k, p, mu)
    return _orthogonal(3, p.q, 0, _orthogonal_family(sigma, dlt), dlt)


def subgroup_backend(
    params: StarParams, omit: str, cap: int, gens: np.ndarray
) -> tuple[bool, int | None]:
    """How to build the distinguished subgroup G_omit of gens, which omits
    the generators in omit (``builder.kept``): (as a stabilizer chain?,
    predicted order or None).

    G0 and G2, the rank-3 subgroups across the k-edge r1-r3 and the only ones
    whose order grows with q, take ``classify_rank3``'s order, and are chains
    when it passes min(ENUMERATE_LIMIT, cap). Every other subgroup has at most
    120 elements, and every subgroup at most 160 where there is no prediction
    (the even prime, k = inf); those are enumerated.

    This is also the one place that holds G0 to the cap by its order: at
    k = 6, where G0 is the side of G0 & G2 that an intersection lists (12 s^2
    no larger than G2's predicted order) and 12 s^2 passes the cap, a torus
    certificate of |G0| >= 12 s^2 (``_torus_certifies_g0``) raises
    OverCapError before anything is built. A refused certificate leaves G0
    to be built, and listing it checks its order (``GroupHandle._batches``).
    """
    if omit not in ("0", "2") or params.k == K_INF or params.prime.klass is PrimeClass.EVEN:
        return False, None
    order = classify_rank3(int(omit), params).predicted_order
    if omit == "0" and params.k == 6 and cap < order <= classify_rank3(2, params).predicted_order:
        if _torus_certifies_g0(reduced_generators(params)[0], gens):
            raise OverCapError(f"closure exceeds cap {cap}")
    return order > min(ENUMERATE_LIMIT, cap), order


def confirm_order(group: GroupHandle, predicted: int | None, what: str) -> GroupHandle:
    """group, once its order equals the predicted one (when there is one);
    otherwise OrderMismatchError names what was built."""
    if predicted is not None and group.order != predicted:
        raise OrderMismatchError(f"{what} has order {group.order}, not the predicted {predicted}")
    return group


def _class_ii_eps(k: int, r: int) -> int:
    """Residue split of r mod 20 for the Class II rows."""
    m = r % 20
    if k in (3, 4):
        return 1 if m in (13, 17) else -1
    return 1 if m in (3, 7) else -1


def table3_lookup(params: StarParams) -> Classification:
    """Classification read purely from congruence conditions on the prime.

    Independent of the Legendre path: no square classes of det g are taken;
    the answer comes from q mod 20/40/60 and rational residue symbols in the
    canonical coordinates c, d of the prime.
    """
    k, p = params.k, params.prime
    if params.scale != 1:
        raise ValueError("congruence lookup covers the unscaled form only")
    if p.klass is PrimeClass.EVEN:
        raise ValueError("congruence lookup needs an odd prime")
    if k == K_INF:
        raise ValueError("no orthogonal classification for k = inf")
    q, c, d = p.q, p.c, p.d

    if p.klass is PrimeClass.CLASS_I:
        if k == 3:
            return _orthogonal(4, 5, -1, "O1", 1)
        if k == 4:
            return _orthogonal(4, 5, 1, "O", -1)
        if k == 5:
            return Classification("exceptional", "C5^3:(C2xA5)", 15_000, 0, 1)
        return _orthogonal(4, 5, -1, "O", -1)

    if p.klass is PrimeClass.CLASS_II:
        r = p.char
        if k == 6:
            if r == 3:
                return Classification("exceptional", "3-singular", 174_960, 0, 0)
            return _orthogonal(4, q, 1, "O1", 1)
        return _orthogonal(4, q, _class_ii_eps(k, r), "O1", 1)

    if k == 3:
        return _orthogonal(4, q, rational_legendre(c * d, q), "O1", 1)
    if k == 4:
        eps = rational_legendre(2 * c * d, q)
        family = "O" if q % 40 in (11, 19, 21, 29) else "O1"
        return _orthogonal(4, q, eps, family, 1 if family == "O1" else -1)
    if k == 5:
        return _orthogonal(4, q, rational_legendre(2 * c * d + d * d, q), "O1", 1)
    m = q % 60
    if m in (19, 31):
        return _orthogonal(4, q, 1, "O", -1)
    if m in (29, 41):
        return _orthogonal(4, q, -1, "O", -1)
    if m in (1, 49):
        return _orthogonal(4, q, 1, "O1", 1)
    return _orthogonal(4, q, -1, "O1", 1)


@dataclass(frozen=True)
class TorusCheck:
    """Outcome of the k=6 torus power verification at one odd prime."""

    s: int
    order_x: int
    order_w: int
    powers_checked: int


def _x_power(s: int) -> list[list[int]]:
    return [
        [1, 0, 0, 0],
        [4 * s * s, 1 + 2 * s, -4 * s, 0],
        [2 * s * s - 2 * s, s, 1 - 2 * s, 0],
        [2 * s * s, s, -2 * s, 1],
    ]


def _w_power(s: int) -> list[list[int]]:
    return [
        [1, 0, 0, 0],
        [4 * s * s, 1 - 4 * s, 2 * s, 6 * s],
        [2 * s * s + s, -2 * s, 1 + s, 3 * s],
        [2 * s * s + s, -2 * s, s, 1 + 3 * s],
    ]


def _torus_pair(ctx: FieldCtx, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k=6 torus elements x = r1r3r1r3r1r2 and w = x^(-1) r3r1r3r2r1r2."""
    x, y = torus_words(ctx, gens)
    return x, mat_mul(ctx, mat_inv(ctx, x), y)


def torus_power_check(p: GoldenPrime) -> TorusCheck:
    """Verify the k=6 torus elements x and w (``_torus_pair``).

    Their t-th powers must match the quadratic closed forms entrywise at
    t = 1..8 and t = s, the field characteristic, each power taken by
    square-and-multiply (``mat_pow``). The closed forms at t = s reduce to
    I, and at t = 1 they differ from I for s >= 5; s is prime, so x and w
    both have order exactly s. A mismatch raises AssertionError: it would
    falsify the torus structure.
    """
    if p.klass is PrimeClass.EVEN or p.char == 3:
        raise ValueError("torus check needs an odd prime not associate to 3")
    ctx, g, _ = reduced_generators(StarParams(6, p))
    x, w = _torus_pair(ctx, g)
    s = ctx.char
    checks = sorted({*range(1, min(s, 8) + 1), s})
    for tt in checks:
        for m, form in ((mat_pow(ctx, x, tt), _x_power(tt)), (mat_pow(ctx, w, tt), _w_power(tt))):
            want = [[ctx.reduce(GoldenInt(v, 0)) for v in row] for row in form]
            if not (m == want).all():
                raise AssertionError(f"torus closed form fails at power {tt}, p={p.value}")
    return TorusCheck(s, s, s, len(checks))


def _torus_certifies_g0(ctx: FieldCtx, gens: np.ndarray) -> bool:
    """Whether the k = 6 torus elements x and w (``_torus_pair``), both in
    G0 = <r1, r2, r3>, certify |G0| >= 12 s^2, s = ctx.char, a prime.

    x^s = I with x != I gives ord(x) = s. Every power of x fixes e4 and w
    moves it (x e4 = e4 and w e4 = (0, 6, 3, 4) by ``_x_power`` and
    ``_w_power``), so w lies outside <x>; with w^s = I, w has order s and
    <w> meets <x> in I alone. x and w commute, so T = <x, w> has s^2
    elements. r1 and r3 are involutions whose product has order 6, so
    D = <r1, r3> is dihedral of order 12. At s >= 5 the orders of T and D
    are coprime, so T meets D in I alone and the product set T D in G0 has
    12 s^2 elements. Every one of these facts is checked here, each power
    by square-and-multiply (``mat_pow``), and any that fails makes the
    answer False."""
    if ctx.char < 5:
        return False
    ident = identity()
    x, w = _torus_pair(ctx, gens)
    r1r3 = mat_mul(ctx, gens[1], gens[3])
    return (
        not is_identity(x)
        and bool((mat_pow(ctx, np.stack([x, w]), ctx.char) == ident).all())
        and bool((mat_mul(ctx, gens[[1, 3]], gens[[1, 3]]) == ident).all())
        and np.array_equal(mat_mul(ctx, x, w), mat_mul(ctx, w, x))
        and np.array_equal(x[:, 3], ident[:, 3])
        and not np.array_equal(w[:, 3], ident[:, 3])
        and [is_identity(mat_pow(ctx, r1r3, n)) for n in (2, 3, 6)] == [False, False, True]
    )
