"""Ring arithmetic, prime classification, and Legendre symbol tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcox.ring import (
    ONE,
    TAU,
    TAU_INV,
    ZERO,
    CompositeError,
    EvenPrimeError,
    GoldenInt,
    ParseError,
    PrimeClass,
    UnitError,
    canonical_associate,
    classify_prime,
    exact_div,
    golden_legendre,
    parse_golden,
    primes_up_to_norm,
    rational_legendre,
)

ints = st.integers(min_value=-10**6, max_value=10**6)
golden = st.builds(GoldenInt, ints, ints)
UNITS = [GoldenInt(-1, 0), TAU, TAU_INV, TAU * TAU]


def test_norm_examples():
    assert TAU.norm() == -1
    assert GoldenInt(-1, 2).norm() == -5
    assert GoldenInt(3, 1).norm() == 11


@pytest.mark.parametrize("other", [1.5, "1", None], ids=["float", "str", "None"])
@pytest.mark.parametrize(
    "op",
    [
        lambda z, w: z + w,
        lambda z, w: w + z,
        lambda z, w: z - w,
        lambda z, w: w - z,
        lambda z, w: z * w,
        lambda z, w: w * z,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_unsupported_operand_raises_type_error(op, other):
    with pytest.raises(TypeError):
        op(GoldenInt(1, 0), other)


def test_int_operands_act_as_rational_integers():
    z = GoldenInt(2, 3)
    assert z + 1 == 1 + z == GoldenInt(3, 3)
    assert z - 1 == GoldenInt(1, 3)
    assert 1 - z == GoldenInt(-1, -3)
    assert 2 * z == z * 2 == GoldenInt(4, 6)


@given(golden, golden)
def test_norm_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(golden, golden, golden)
def test_ring_laws(z, w, v):
    assert z + w == w + z
    assert z * w == w * z
    assert (z * w) * v == z * (w * v)
    assert z * (w + v) == z * w + z * v
    assert z - w == -(w - z)


def test_tau_powers_are_fibonacci():
    fib = [0, 1]
    for _ in range(40):
        fib.append(fib[-1] + fib[-2])
    for n in range(41):
        assert TAU**n == GoldenInt(fib[n - 1] if n else 1, fib[n])
    assert TAU * TAU_INV == ONE
    assert TAU.inverse() == TAU - 1


def test_conj_and_exact_div():
    z = GoldenInt(7, -4)
    assert (z * z.conj()) == GoldenInt(z.norm(), 0)
    w = GoldenInt(3, 1)
    assert exact_div(z * w, w) == z
    assert exact_div(GoldenInt(1, 0), w) is None
    with pytest.raises(ZeroDivisionError):
        exact_div(z, ZERO)


def test_canonical_associate_pinned():
    assert canonical_associate(GoldenInt(2, 0)) == GoldenInt(-2, 0)
    assert canonical_associate(GoldenInt(-1, 2)) == GoldenInt(-2, -1)
    assert canonical_associate(GoldenInt(3, 1)) == GoldenInt(-3, -1)
    assert canonical_associate(GoldenInt(4, -1)) == GoldenInt(-1, 3)
    with pytest.raises(ValueError):
        canonical_associate(ZERO)


@given(golden.filter(bool), st.sampled_from(UNITS))
def test_canonical_associate_invariance(z, u):
    can = canonical_associate(z)
    assert canonical_associate(u * z) == can
    assert canonical_associate(can) == can


def test_classify_prime_examples():
    p = classify_prime(GoldenInt(-1, 2))
    assert (p.klass, p.q) == (PrimeClass.CLASS_I, 5)
    p = classify_prime(GoldenInt(3, 0))
    assert (p.klass, p.q, p.char) == (PrimeClass.CLASS_II, 9, 3)
    p = classify_prime(GoldenInt(3, 1))
    assert (p.klass, p.q) == (PrimeClass.CLASS_III, 11)
    p = classify_prime(GoldenInt(2, 0))
    assert (p.klass, p.q) == (PrimeClass.EVEN, 4)


def test_classify_prime_rejects_nonprimes():
    with pytest.raises(CompositeError):
        classify_prime(GoldenInt(4, 0))  # |N| = 16
    with pytest.raises(CompositeError):
        classify_prime(GoldenInt(10, 7))  # (3+t)^2, |N| = 121
    with pytest.raises(CompositeError):
        classify_prime(GoldenInt(11, 0))  # splits: 11 = (3+t)(4-t)
    with pytest.raises(CompositeError):
        classify_prime(GoldenInt(5, 0))  # ramifies: 5 = (-1+2t)^2
    with pytest.raises(UnitError):
        classify_prime(TAU**3)
    with pytest.raises(ValueError):
        classify_prime(ZERO)


def test_rational_legendre():
    assert rational_legendre(-1, 7) == -1
    assert rational_legendre(3, 5) == -1
    assert rational_legendre(0, 5) == 0
    assert rational_legendre(2, 7) == 1
    for bad in (9, 4, 1):
        with pytest.raises(ValueError):
            rational_legendre(2, bad)


def test_golden_legendre_pinned_values():
    sqrt5 = classify_prime(GoldenInt(-1, 2))
    assert golden_legendre(GoldenInt(-3, 0), sqrt5) == -1
    p7 = classify_prime(GoldenInt(7, 0))
    assert golden_legendre(GoldenInt(3, 0), p7) == 1
    p2 = classify_prime(GoldenInt(2, 0))
    with pytest.raises(EvenPrimeError):
        golden_legendre(TAU, p2)


def test_golden_legendre_zero_iff_divisible():
    for p in primes_up_to_norm(40):
        if p.klass is PrimeClass.EVEN:
            continue
        assert golden_legendre(p.value, p) == 0
        assert golden_legendre(p.value * GoldenInt(2, 5), p) == 0
        assert golden_legendre(p.value + 1, p) != 0 or p.divides(p.value + 1)


@settings(max_examples=200)
@given(golden, st.sampled_from(UNITS))
def test_golden_legendre_associate_invariance(w, u):
    for p in primes_up_to_norm(50):
        if p.klass is PrimeClass.EVEN:
            continue
        q = classify_prime(u * p.value)
        assert golden_legendre(w, q) == golden_legendre(w, p)


@settings(max_examples=300)
@given(golden)
def test_golden_legendre_squares(w):
    for p in primes_up_to_norm(50):
        if p.klass is PrimeClass.EVEN:
            continue
        if not p.divides(w):
            assert golden_legendre(w * w, p) == 1


def test_primes_up_to_norm_small():
    ps = primes_up_to_norm(5)
    assert [(p.klass, p.q) for p in ps] == [(PrimeClass.EVEN, 4), (PrimeClass.CLASS_I, 5)]
    ps = primes_up_to_norm(11)
    assert [(str(p), p.q) for p in ps] == [
        ("-2", 4),
        ("-2-1t", 5),
        ("-3", 9),
        ("-3-1t", 11),
        ("-1+3t", 11),
    ]


def test_primes_up_to_norm_all_classes_no_associates():
    ps = primes_up_to_norm(200)
    assert {p.klass for p in ps} == set(PrimeClass)
    canons = [canonical_associate(p.value) for p in ps]
    assert len(set(canons)) == len(ps)
    assert all(p.value == c for p, c in zip(ps, canons))
    qs = sorted({p.q for p in ps if p.klass is PrimeClass.CLASS_III})
    assert qs[:6] == [11, 19, 29, 31, 41, 59]
    assert all(q % 5 in (1, 4) for q in qs)


def test_parse_and_emit():
    assert parse_golden("t") == TAU
    assert parse_golden("-1+2t") == GoldenInt(-1, 2)
    assert parse_golden("3") == GoldenInt(3, 0)
    assert parse_golden(" 3+1t ") == GoldenInt(3, 1)
    assert parse_golden("5-2t") == GoldenInt(5, -2)
    for z in (GoldenInt(-1, 2), GoldenInt(3, 0), TAU, GoldenInt(0, 2), GoldenInt(-3, -1)):
        assert parse_golden(str(z)) == z
    for bad in ("", "x", "1+t", "t+1", "2t", "1 + 2t", "++1t"):
        with pytest.raises(ParseError):
            parse_golden(bad)


@pytest.mark.parametrize(
    "text",
    ["1" * 4301, "-" + "7" * 4301, "1+" + "2" * 4301 + "t", "7" * 4301 + "-1t", "x" * 5000],
    ids=["int", "negative-int", "long-t-coefficient", "long-constant", "long-garbage"],
)
def test_over_long_literals_are_parse_errors(text):
    with pytest.raises(ParseError) as exc:
        parse_golden(text)
    msg = str(exc.value)
    assert "\n" not in msg and len(msg) < 200
    assert text[:40] in msg and f"({len(text)} characters)" in msg


def test_longest_convertible_literal_parses():
    assert parse_golden("9" * 4300) == GoldenInt(10**4300 - 1, 0)
    assert parse_golden("1-" + "9" * 4300 + "t") == GoldenInt(1, 1 - 10**4300)
