"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Each criterion is one test function; the pytest -v report line is the
pass/fail line. Orders asserted here were frozen from exact enumeration.
"""

from __future__ import annotations

import numpy as np

from starcox.builder import (
    K_INF,
    StarParams,
    cartan,
    det,
    det_identities,
    gram,
    reduced_generators,
)
from starcox.cgroup import lemma41_check, verify_cgroup
from starcox.classify import (
    classify_rank4,
    orthogonal_order,
    table3_lookup,
    torus_power_check,
)
from starcox.field import build_field
from starcox.matgroup import bsgs_group, enumerate_group
from starcox.polytope import face_counts, incidence_report
from starcox.ring import (
    GoldenInt,
    PrimeClass,
    classify_prime,
    golden_legendre,
    primes_up_to_norm,
)

SQRT5 = classify_prime(GoldenInt(-1, 2))
P2 = classify_prime(GoldenInt(2, 0))
P3 = classify_prime(GoldenInt(3, 0))
P7 = classify_prime(GoldenInt(-7, 0))
P11 = classify_prime(GoldenInt(3, 1))

ODD_PRIMES_200 = [p for p in primes_up_to_norm(200) if p.klass is not PrimeClass.EVEN]


def params(k, p, scale=1):
    return StarParams(k=k, prime=p, scale=scale)


def test_criterion_01_even_prime_orders_and_intersections():
    expected = {3: (24, 60, 60), 4: (24, 160, 60), 5: (60, 160, 60), 6: (24, 60, 60)}
    for k in (3, 4, 5, 6):
        ctx, gens, rep = reduced_generators(params(k, P2))
        assert enumerate_group(ctx, gens).order == 960
        chk = verify_cgroup(params(k, P2))
        assert chk.is_cgroup
        o = chk.subgroup_orders
        assert (o["G0"], o["G2"], o["G3"]) == expected[k]
        assert rep.smooth is (k != 6)
        if k == 6:
            assert rep.product_orders[(1, 3)] == 3
    print("criterion 1 PASS: even prime gives order 960 with the expected subgroup table")


def test_criterion_02_ramified_prime_orders():
    expected = {3: 15_600, 4: 28_800, 5: 15_000, 6: 31_200}
    for k, want in expected.items():
        ctx, gens, _ = reduced_generators(params(k, SQRT5))
        assert enumerate_group(ctx, gens).order == want
        assert classify_rank4(params(k, SQRT5)).predicted_order == want
    print("criterion 2 PASS: enumerated orders over the ramified prime match predictions")


def test_criterion_03_inert_three_orders():
    ctx, gens, _ = reduced_generators(params(6, P3))
    assert enumerate_group(ctx, gens).order == 174_960
    chk = verify_cgroup(params(6, P3))
    o = chk.subgroup_orders
    assert (o["G0"], o["G2"], o["G3"]) == (108, 1620, 120)
    ctx3, gens3, _ = reduced_generators(params(3, P3))
    n = enumerate_group(ctx3, gens3).order
    assert n == 531_360 == orthogonal_order(4, 9, -1, full=False) == 81 * 82 * 80
    print("criterion 3 PASS: orders at the inert prime 3 match, including both exceptional cases")


def test_criterion_04_split_eleven_bsgs_vs_bfs():
    for k in (3, 4, 5, 6):
        c = table3_lookup(params(k, P11))
        ctx, gens, _ = reduced_generators(params(k, P11))
        chain = bsgs_group(ctx, gens)
        assert chain.order == c.predicted_order, (k, chain.order, c.label)
        if k in (3, 6):
            assert enumerate_group(ctx, gens, cap=2_000_000).order == chain.order
    print("criterion 4 PASS: stabilizer-chain orders at q=11 match the congruence table and BFS")


def test_criterion_05_dual_path_agreement():
    for p in ODD_PRIMES_200:
        for k in (3, 4, 5, 6):
            a = classify_rank4(params(k, p))
            b = table3_lookup(params(k, p))
            assert (a.family, a.label, a.predicted_order) == (
                b.family,
                b.label,
                b.predicted_order,
            ), (k, p.value)
    print("criterion 5 PASS: symbol path and congruence path agree for every odd prime q <= 200")


def test_criterion_06_determinant_identities_and_singularity():
    for k in (3, 4, 5, 6, K_INF):
        det_identities(k)
    for p in [q for q in primes_up_to_norm(60) if q.klass is not PrimeClass.EVEN]:
        for k in (3, 4, 5, 6):
            gram_singular = golden_legendre(det(gram(k)), p) == 0
            cartan_singular = golden_legendre(det(cartan(k)), p) == 0
            assert gram_singular is (
                (k == 5 and p.klass is PrimeClass.CLASS_I) or (k == 6 and p.char == 3)
            )
            assert cartan_singular is (k == 5 and p.klass is PrimeClass.CLASS_I)
    print("criterion 6 PASS: exact determinant identities hold; singular reductions are exactly the known ones")


def test_criterion_07_intersection_condition_sweep():
    primes = primes_up_to_norm(61)
    class_iii = [p for p in primes if p.klass is PrimeClass.CLASS_III]
    assert len(class_iii) >= 2
    assert any(p.klass is PrimeClass.EVEN for p in primes)
    assert any(p.klass is PrimeClass.CLASS_I for p in primes)
    for p in primes:
        for k in (3, 4, 5, 6):
            assert verify_cgroup(params(k, p)).is_cgroup, (k, p.value)
    ctx, gens, _ = reduced_generators(params(3, P11))
    corrupted = np.stack([gens[0], gens[1], gens[2], gens[1]])
    assert not verify_cgroup(params(3, P11), generators=corrupted).is_cgroup
    print("criterion 7 PASS: intersection condition verified for all k and primes q <= 61; corruption caught")


def test_criterion_08_replacement_identities():
    combos = [
        (4, SQRT5),
        (4, P3),
        (4, P11),
        (5, P3),
        (5, P11),
        (6, SQRT5),
        (6, P11),
    ]
    for k, p in combos:
        assert lemma41_check(params(k, p)), (k, p.value)
    print("criterion 8 PASS: replacement generator regenerates the group at all required (k, p)")


def test_criterion_09_torus_power_identities():
    for p, s in ((SQRT5, 5), (P7, 7), (P11, 11)):
        chk = torus_power_check(p)
        assert (chk.s, chk.order_x, chk.order_w) == (s, s, s)
        assert chk.powers_checked >= min(s, 8)
    print("criterion 9 PASS: torus element orders and closed-form powers match at s = 5, 7, 11")


def test_criterion_10_polytope_counts():
    st2 = face_counts(params(3, P2), ringed_node=2)
    assert (st2.vertices, st2.edges, st2.subfacets, st2.cells_p, st2.cells_q) == (
        16,
        120,
        160,
        16,
        40,
    )
    rep2 = incidence_report(params(3, P2), ringed_node=2)
    assert rep2.edges_ok and rep2.crossfoot_ok
    assert rep2.vertex_profile == ((6, 10),)
    assert st2.orbit_class == "TwoOrbit"

    st0 = face_counts(params(3, SQRT5), ringed_node=0)
    assert (st0.vertices, st0.edges, st0.subfacets) == (650, 1950, 1560)
    assert st0.cells_p + st0.cells_q == 260
    rep0 = incidence_report(params(3, SQRT5), ringed_node=0)
    assert rep0.edges_ok and rep0.crossfoot_ok
    assert st0.orbit_class == "Regular"
    print("criterion 10 PASS: face counts, edge alternation, and orbit classes match both ringings")


def test_criterion_11_infinite_mark():
    _, _, rep5 = reduced_generators(params(K_INF, SQRT5))
    assert rep5.product_orders[(1, 3)] == 5
    _, _, rep3 = reduced_generators(params(K_INF, P3))
    assert rep3.product_orders[(1, 3)] == 3
    assert verify_cgroup(params(K_INF, SQRT5)).is_cgroup
    assert verify_cgroup(params(K_INF, P3)).is_cgroup
    print("criterion 11 PASS: infinite mark reduces to m13 = 5 and 3 with the intersection condition intact")


def test_criterion_12_property_suites():
    rng = np.random.default_rng(987654321)
    units = [GoldenInt(-1, 0), GoldenInt(0, 1), GoldenInt(-1, 1), GoldenInt(1, 1)]
    for p in ODD_PRIMES_200:
        ctx = build_field(p)
        squares = {ctx.mul(x, x) for x in range(1, ctx.q)}
        associates = [classify_prime(p.value * u) for u in units]
        coeffs = rng.integers(-(10**6), 10**6, size=(500, 2))
        for a, b in coeffs.tolist():
            w = GoldenInt(a, b)
            sym = golden_legendre(w, p)
            c = ctx.reduce(w)
            want = 0 if c == 0 else (1 if c in squares else -1)
            assert sym == want, (p.value, w)
            if c:
                assert golden_legendre(w * w, p) == 1
        for a, b in coeffs[:25].tolist():
            w = GoldenInt(a, b)
            sym = golden_legendre(w, p)
            for pa in associates:
                assert golden_legendre(w, pa) == sym

    for p in (P2, SQRT5, P3, P11):
        ctx = build_field(p)
        pairs = rng.integers(-(10**6), 10**6, size=(200, 4))
        for a, b, c, d in pairs.tolist():
            z, w = GoldenInt(a, b), GoldenInt(c, d)
            assert ctx.reduce(z + w) == ctx.add(ctx.reduce(z), ctx.reduce(w))
            assert ctx.reduce(z * w) == ctx.mul(ctx.reduce(z), ctx.reduce(w))

    for k, p in ((3, P2), (4, SQRT5), (6, P3), (5, P11)):
        full = classify_rank4(params(k, p)).predicted_order
        for order in verify_cgroup(params(k, p)).subgroup_orders.values():
            assert full % order == 0
    print("criterion 12 PASS: symbol, reduction, and divisibility property suites hold")
