"""Finite-field construction, arithmetic, and reduction-homomorphism tests."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcox.field import Q_LIMIT, build_field
from starcox.ring import (
    EvenPrimeError,
    GoldenInt,
    PrimeClass,
    classify_prime,
    golden_legendre,
    primes_up_to_norm,
)

ints = st.integers(min_value=-10**4, max_value=10**4)
golden = st.builds(GoldenInt, ints, ints)

PRIMES_50 = primes_up_to_norm(50)


def ctx_of(a, b):
    return build_field(classify_prime(GoldenInt(a, b)))


def test_build_field_examples():
    f5 = ctx_of(-1, 2)
    assert (f5.char, f5.degree, f5.q, f5.tau_code) == (5, 1, 5, 3)
    f4 = ctx_of(2, 0)
    assert (f4.char, f4.degree, f4.q) == (2, 2, 4)
    f11 = ctx_of(3, 1)
    assert (f11.char, f11.degree, f11.q, f11.tau_code) == (11, 1, 11, 8)
    assert (8 * 8 - 8 - 1) % 11 == 0
    f9 = ctx_of(3, 0)
    assert (f9.char, f9.degree, f9.q) == (3, 2, 9)


def test_tau_image_satisfies_defining_relation():
    for p in primes_up_to_norm(60):
        ctx = build_field(p)
        t = ctx.tau_code
        assert ctx.sub(ctx.mul(t, t), ctx.add(t, 1)) == 0
        assert ctx.reduce(GoldenInt(0, 1)) == t
        assert ctx.reduce(p.value) == 0


def test_reduce_examples():
    f5 = ctx_of(-1, 2)
    assert f5.reduce(GoldenInt(0, 0)) == 0
    assert f5.reduce(GoldenInt(-1, 2)) == 0
    for ab in ((1, 1), (7, -3), (0, 1)):
        z = GoldenInt(*ab)
        assert f5.reduce(z * z) == f5.mul(f5.reduce(z), f5.reduce(z))


@given(golden, golden)
def test_reduce_is_homomorphism(z, w):
    for p in PRIMES_50:
        ctx = build_field(p)
        assert ctx.reduce(z + w) == ctx.add(ctx.reduce(z), ctx.reduce(w))
        assert ctx.reduce(z * w) == ctx.mul(ctx.reduce(z), ctx.reduce(w))


def test_field_axioms_and_inverse():
    for p in primes_up_to_norm(60):
        ctx = build_field(p)
        rng = random.Random(p.q)
        codes = [rng.randrange(ctx.q) for _ in range(40)]
        for u in codes:
            assert ctx.add(u, ctx.neg(u)) == 0
            assert ctx.mul(u, 1) == u
            if u:
                assert ctx.mul(u, ctx.inv(u)) == 1
                assert ctx.pow_(u, ctx.q - 1) == 1
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)


@pytest.mark.parametrize("prime,q", [((2, 0), 4), ((-1, 2), 5), ((3, 0), 9), ((7, 0), 49),
                                     ((-7, -3), 61), ((13, 0), 169)])
def test_inv_matches_brute_force(prime, q):
    # the inverse of u is the one code v with u v = 1, read off the full
    # product table; numpy integer codes, as row reduction passes, agree
    ctx = ctx_of(*prime)
    assert ctx.q == q
    codes = np.arange(q)
    table = ctx.mul(codes[:, None], codes[None])
    for u in range(1, q):
        (v,) = np.flatnonzero(table[u] == 1)
        assert ctx.inv(u) == ctx.inv(np.int64(u)) == v


def test_inv_tau_image():
    for p in primes_up_to_norm(60):
        ctx = build_field(p)
        assert ctx.inv(ctx.tau_code) == ctx.sub(ctx.tau_code, 1)


def test_is_square_examples():
    for p in primes_up_to_norm(60):
        ctx = build_field(p)
        if ctx.q % 2 == 0:
            with pytest.raises(EvenPrimeError):
                ctx.is_square(1)
            continue
        assert ctx.is_square(ctx.reduce(GoldenInt(4, 0)))
        with pytest.raises(ValueError):
            ctx.is_square(0)
    f5 = ctx_of(-1, 2)
    assert not f5.is_square(f5.reduce(GoldenInt(3, 0)))


def test_is_square_matches_golden_legendre():
    rng = random.Random(7)
    for p in PRIMES_50:
        if p.klass is PrimeClass.EVEN:
            continue
        ctx = build_field(p)
        for _ in range(120):
            w = GoldenInt(rng.randrange(-300, 300), rng.randrange(-300, 300))
            code = ctx.reduce(w)
            sym = golden_legendre(w, p)
            if code == 0:
                assert sym == 0
            else:
                assert ctx.is_square(code) == (sym == 1)


@pytest.mark.parametrize("prime", [(-1, 2), (3, 0), (7, 0), (-7, -3), (32759, 18), (32717, 0)])
def test_sqrt_squares_back(prime):
    ctx = ctx_of(*prime)
    codes = range(ctx.q) if ctx.q < 100 else [0, 1, 2, 3, 5, ctx.q - 1, ctx.q // 3]
    for a in codes:
        root = ctx.sqrt(a)
        if a and not ctx.is_square(a):
            assert root is None
        else:
            assert ctx.mul(root, root) == a


def test_tau_code_arithmetic():
    ctx = ctx_of(3, 0)
    t = ctx.tau_code
    assert ctx.mul(t, t) == ctx.add(t, 1)
    assert ctx.mul(t, ctx.inv(t)) == 1
    assert ctx.add(ctx.neg(t), t) == 0
    assert ctx.pow_(t, 8) == 1
    assert ctx.decode(t) == (0, 1)


def test_build_field_bound():
    # inert 32717 and split 32759+18t lie below 2^30; inert 32783 lies above
    assert ctx_of(32717, 0).q == 32717**2 < Q_LIMIT
    assert ctx_of(32759, 18).q == 1_073_741_419 < Q_LIMIT
    with pytest.raises(ValueError):
        ctx_of(32783, 0)


# ---------------------------------------------------------------------------
# a layout-free oracle: (x, y) arithmetic in F_r[theta]/(theta^2 - theta - 1)


def pair_add(u, v, r):
    return (u[0] + v[0]) % r, (u[1] + v[1]) % r


def pair_neg(u, r):
    return -u[0] % r, -u[1] % r


def pair_mul(u, v, r):
    (x1, y1), (x2, y2) = u, v
    return (x1 * x2 + y1 * y2) % r, (x1 * y2 + y1 * x2 + y1 * y2) % r


def pair_inv(u, r):
    # (x + y theta)(x + y - y theta) = x^2 + xy - y^2, the norm to F_r
    x, y = u
    n = pow(x * x + x * y - y * y, r - 2, r)
    return (x + y) * n % r, -y * n % r


@pytest.mark.parametrize("p", primes_up_to_norm(49), ids=lambda p: f"q{p.q}_{p.value}")
def test_field_ops_match_pair_arithmetic(p):
    ctx = build_field(p)
    r = ctx.char
    pair = [ctx.decode(u) for u in range(ctx.q)]
    code = {xy: u for u, xy in enumerate(pair)}
    assert len(code) == ctx.q  # decode is a bijection onto its pairs
    assert all(0 <= x < r and 0 <= y < r and (ctx.degree == 2 or y == 0) for x, y in pair)
    assert pair[1] == (1, 0)
    theta = pair[ctx.tau_code]
    assert pair_mul(theta, theta, r) == pair_add(theta, (1, 0), r)
    for a, b in ((0, 1), (7, -3), (-12, 5)):
        want = pair_add((a % r, 0), pair_mul((b % r, 0), theta, r), r)
        assert ctx.reduce(GoldenInt(a, b)) == code[want]
    squares = {code[pair_mul(xy, xy, r)] for xy in pair}
    for u in range(ctx.q):
        assert ctx.neg(u) == code[pair_neg(pair[u], r)]
        assert ctx.mul(1, u) == ctx.mul(u, 1) == u
        for v in range(ctx.q):
            assert ctx.add(u, v) == code[pair_add(pair[u], pair[v], r)]
            assert ctx.sub(u, v) == code[pair_add(pair[u], pair_neg(pair[v], r), r)]
            assert ctx.mul(u, v) == code[pair_mul(pair[u], pair[v], r)]
        if not u:
            continue
        assert ctx.inv(u) == code[pair_inv(pair[u], r)]
        power = (1, 0)
        for e in range(ctx.q + 1):
            assert ctx.pow_(u, e) == code[power]
            power = pair_mul(power, pair[u], r)
        assert ctx.pow_(u, -2) == code[pair_mul(*[pair_inv(pair[u], r)] * 2, r)]
        if ctx.q % 2:
            assert ctx.is_square(u) == (u in squares)
    # the codes below char are the prime field: closed under add and mul
    for a in range(r):
        for b in range(r):
            assert ctx.add(a, b) < r and ctx.mul(a, b) < r


def digit_add(ctx, u, v, sign):
    """add (sign 1) or sub (sign -1) digit by digit, the prime-field digit
    low, as degree 2 computes them; at degree 1 the high digit is zero."""
    r = ctx.char
    return (u % r + sign * (v % r)) % r + (u // r + sign * (v // r)) % r * r


@pytest.mark.parametrize("prime,q", [((-1, 2), 5), ((-7, -3), 61), ((3, 0), 9), ((7, 0), 49)])
def test_add_and_sub_match_tables(prime, q):
    # at degree 1 a code is its residue, so the sum and difference tables
    # are those of Z/q; at degree 2 the digit-wise formula is the oracle.
    # Python ints and numpy arrays, as row reduction passes, agree
    ctx = ctx_of(*prime)
    assert ctx.q == q
    codes = np.arange(q)
    u, v = codes[:, None], codes[None]
    if ctx.degree == 1:
        want_add, want_sub = (u + v) % q, (u - v) % q
    else:
        want_add, want_sub = digit_add(ctx, u, v, 1), digit_add(ctx, u, v, -1)
    assert np.array_equal(ctx.add(u, v), want_add)
    assert np.array_equal(ctx.sub(u, v), want_sub)
    for a, b in ((0, 0), (q - 1, 1), (1, q - 1), (q // 2, q - 2)):
        assert ctx.add(a, b) == int(want_add[a, b])
        assert ctx.sub(a, b) == int(want_sub[a, b])
