"""Isomorphism types of the reduced star groups: a Legendre-symbol path from
the Gram determinant and root norms, an independent congruence path from the
prime's residues, and the closed-form torus power identities."""

from __future__ import annotations

from dataclasses import dataclass

from .builder import K_INF, StarParams, gram, reduced_generators, rho, torus_words
from .matgroup import GroupHandle, element_order, identity, mat_inv, mat_mul
from .ring import GoldenInt, GoldenPrime, PrimeClass, golden_legendre, rational_legendre


# Subgroups predicted to have more elements are built as stabilizer chains.
# Build times cross between 2,640 elements (k = 4 G2 at q = 11: closure 2.6 ms,
# chain 5.6 ms) and 4,332 (k = 6 G0 at q = 19: 11.1 against 6.4 ms). The
# benchmark's polytope rows build no chain, so it stays at least 1,620 (k = 6
# G2 at 3).
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
    if k == 5 and p.klass is PrimeClass.CLASS_I:
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
        s = {PrimeClass.CLASS_I: 5, PrimeClass.CLASS_II: p.char, PrimeClass.CLASS_III: p.q}[
            p.klass
        ]
        return Classification("torus", f"Torus({s})", 12 * s * s, 0, 0)
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


def subgroup_backend(params: StarParams, omit: str, cap: int) -> tuple[bool, int | None]:
    """How to build the distinguished subgroup G_omit, which omits the
    generators in omit (``builder.kept``): (as a stabilizer chain?, predicted
    order or None).

    G0 and G2, the rank-3 subgroups across the k-edge r1-r3 and the only ones
    whose order grows with q, take ``classify_rank3``'s order, and are chains
    when it passes min(ENUMERATE_LIMIT, cap). Every other subgroup has at most
    120 elements, and every subgroup at most 160 where there is no prediction
    (the even prime, k = inf); those are enumerated.
    """
    if omit not in ("0", "2") or params.k == K_INF or params.prime.klass is PrimeClass.EVEN:
        return False, None
    order = classify_rank3(int(omit), params).predicted_order
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


def torus_power_check(p: GoldenPrime) -> TorusCheck:
    """Verify the k=6 torus elements x = r1r3r1r3r1r2 and w = x^(-1) r3r1r3r2r1r2.

    Both must have order s equal to the field characteristic, and their t-th
    powers must match the quadratic closed forms entrywise for t up to s.
    A mismatch raises AssertionError: it would falsify the torus structure.
    """
    if p.klass is PrimeClass.EVEN or p.char == 3:
        raise ValueError("torus check needs an odd prime not associate to 3")
    ctx, g, _ = reduced_generators(StarParams(6, p))
    x, y = torus_words(ctx, g)
    w = mat_mul(ctx, mat_inv(ctx, x), y)
    s = ctx.char
    order_x = element_order(ctx, x, cap=max(10_000, s + 1))
    order_w = element_order(ctx, w, cap=max(10_000, s + 1))
    if order_x != s or order_w != s:
        raise AssertionError(f"torus orders ({order_x}, {order_w}) differ from s={s} at p={p.value}")
    checks = sorted({*range(1, min(s, 8) + 1), s})
    px, pw = identity(), identity()
    t = 0
    for tt in checks:
        while t < tt:
            px, pw = mat_mul(ctx, px, x), mat_mul(ctx, pw, w)
            t += 1
        for m, form in ((px, _x_power(tt)), (pw, _w_power(tt))):
            want = [[ctx.reduce(GoldenInt(v, 0)) for v in row] for row in form]
            if not (m == want).all():
                raise AssertionError(f"torus closed form fails at power {tt}, p={p.value}")
    return TorusCheck(s, order_x, order_w, len(checks))
