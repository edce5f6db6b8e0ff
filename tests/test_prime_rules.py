"""The arithmetic of a prime read off q alone (characteristic, field, Legendre
symbol, prime scan) against the class-based rules it replaced, which branch
on the Even / Class I / II / III label and hard-code tau = 3 at sqrt5."""

from __future__ import annotations

import math
import random

import pytest

from starcox.field import FieldCtx, build_field
from starcox.ring import (
    EvenPrimeError,
    GoldenInt,
    PrimeClass,
    _is_rational_prime,
    classify_prime,
    golden_legendre,
    primes_up_to_norm,
    rational_legendre,
)


def class_char(p) -> int:
    if p.klass is PrimeClass.EVEN:
        return 2
    if p.klass is PrimeClass.CLASS_I:
        return 5
    if p.klass is PrimeClass.CLASS_II:
        return math.isqrt(p.q)
    return p.q


def class_field(p) -> FieldCtx:
    if p.klass is PrimeClass.EVEN:
        return FieldCtx(2, 2, 4, 2)
    if p.klass is PrimeClass.CLASS_I:
        return FieldCtx(5, 1, 5, 3)
    if p.klass is PrimeClass.CLASS_II:
        return FieldCtx(class_char(p), 2, p.q, class_char(p))
    q = p.q
    return FieldCtx(q, 1, q, (-p.c * pow(p.d, q - 2, q)) % q)


def class_legendre(w: GoldenInt, p) -> int:
    if p.klass is PrimeClass.EVEN:
        raise EvenPrimeError("the symbol is undefined at the even prime")
    a, b = w.a, w.b
    if p.klass is PrimeClass.CLASS_I:
        return rational_legendre(a + 3 * b, 5)
    if p.klass is PrimeClass.CLASS_II:
        return rational_legendre(w.norm(), class_char(p))
    c, d = p.c, p.d
    return rational_legendre(a * d * d - b * c * d, p.q)


def class_primes(bound: int) -> list:
    found = {}

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


PRIMES_3000 = class_primes(3000)


def test_prime_scan_matches_class_rule():
    # the class rule at a bound lists its primes of norm <= 3000 up to that
    # bound, checked directly at the bounds where sqrt5 (5), the first split
    # prime (11) and the survey's default bound (61) enter
    for bound in (4, 5, 11, 61, 199, 500, 1000):
        assert class_primes(bound) == [p for p in PRIMES_3000 if p.q <= bound]
    for bound in [*range(4, 200), 500, 1000, 3000]:
        assert primes_up_to_norm(bound) == [p for p in PRIMES_3000 if p.q <= bound]


def test_prime_scan_finds_every_class():
    assert {p.klass for p in PRIMES_3000} == set(PrimeClass)
    assert len(PRIMES_3000) > 400


def test_char_and_field_match_class_rule():
    for p in PRIMES_3000:
        assert p.char == class_char(p)
        assert build_field(p) == class_field(p)
    for z in (GoldenInt(32717, 0), GoldenInt(32759, 18)):
        p = classify_prime(z)
        assert (p.char, build_field(p)) == (class_char(p), class_field(p))


def test_legendre_matches_class_rule():
    rng = random.Random(19)
    even = classify_prime(GoldenInt(2, 0))
    for rule in (golden_legendre, class_legendre):
        with pytest.raises(EvenPrimeError):
            rule(GoldenInt(1, 0), even)
    for p in PRIMES_3000:
        if p.klass is PrimeClass.EVEN:
            continue
        ws = [p.value, p.value * GoldenInt(3, -7)]
        ws += [GoldenInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(50)]
        for w in ws:
            assert golden_legendre(w, p) == class_legendre(w, p)
