"""Exact-form tests for the rank-4 star group: generators, Gram data, reduction."""

from __future__ import annotations

import numpy as np
import pytest

from starcox import builder, classify, cli, matgroup
from starcox.builder import (
    COXETER_EXPONENTS,
    K_INF,
    GoldenMat,
    StarParams,
    cartan,
    det_identities,
    generator_matrices,
    gram,
    kept,
    reduced_generators,
    rho,
)
from starcox.classify import classify_rank4
from starcox.field import build_field
from starcox.matgroup import DEFAULT_CAP, mat_mul
from starcox.polytope import face_counts, incidence_report
from starcox.ring import GoldenInt, PrimeClass, classify_prime, golden_legendre, primes_up_to_norm

TAU = GoldenInt(0, 1)
ONE = GoldenInt(1, 0)
ALL_K = (3, 4, 5, 6, K_INF)


def prime_of(a, b):
    return classify_prime(GoldenInt(a, b))


def golden_identity(n=4):
    return GoldenMat.build([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def test_rho_values():
    assert rho(3) == GoldenInt(1, 0)
    assert rho(4) == GoldenInt(2, 0)
    assert rho(5) == TAU * TAU
    assert rho(6) == GoldenInt(3, 0)
    assert rho(K_INF) == GoldenInt(4, 0)


@pytest.mark.parametrize("k", ALL_K)
def test_generators_are_exact_involutions(k):
    for r in generator_matrices(k):
        assert (r @ r).is_identity()


@pytest.mark.parametrize("k", ALL_K)
@pytest.mark.parametrize("scale", [1, 2])
def test_generators_preserve_form_exactly(k, scale):
    g = gram(k, scale)
    for r in generator_matrices(k):
        assert (r.transpose() @ g @ r).rows == g.rows


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_exact_coxeter_relations(k):
    r = generator_matrices(k)
    exponents = dict(COXETER_EXPONENTS)
    exponents[(1, 3)] = k
    for (i, j), m in exponents.items():
        prod = r[i] @ r[j]
        pw = golden_identity()
        for _ in range(m):
            pw = pw @ prod
        assert pw.is_identity(), (i, j, m)


def test_infinite_mark_has_no_finite_braid_order():
    r = generator_matrices(K_INF)
    prod = r[1] @ r[3]
    pw = golden_identity()
    for _ in range(12):
        pw = pw @ prod
        assert not pw.is_identity()


@pytest.mark.parametrize("k", ALL_K)
def test_det_identities(k):
    rep = det_identities(k)
    assert rep.det_gram == rep.expected_gram
    assert rep.det_cartan == rep.expected_cartan


def test_det_values_pinned_for_smallest_mark():
    rep = det_identities(3)
    assert rep.det_gram == GoldenInt(-192, -320)
    assert rep.det_cartan == GoldenInt(4, -4)


@pytest.mark.parametrize("k", ALL_K)
@pytest.mark.parametrize("scale", [1, 2])
def test_root_norms_diagonal(k, scale):
    # the norms of the four roots sit on the scaled Gram matrix's diagonal
    t2 = TAU * TAU
    mu = GoldenInt(scale, 0)
    want = (GoldenInt(4, 0) * mu, t2 * 4 * mu, t2 * 4 * mu, t2 * rho(k) * 4 * mu)
    g = gram(k, scale)
    assert tuple(g[i, i] for i in range(4)) == want


def test_gram_singularity_pattern():
    # the form degenerates mod p exactly for k=5 over the ramified prime and
    # for k=6 over 3; the Cartan matrix stays invertible except at k=5
    for p in primes_up_to_norm(60):
        if p.klass is PrimeClass.EVEN:
            continue
        for k in (3, 4, 5, 6):
            gsing = golden_legendre(gram(k).det(), p) == 0
            csing = golden_legendre(cartan(k).det(), p) == 0
            expect = (k == 5 and p.klass is PrimeClass.CLASS_I) or (k == 6 and p.char == 3)
            assert gsing == expect, (k, p.element)
            assert csing == (k == 5 and p.klass is PrimeClass.CLASS_I), (k, p.element)


def test_params_validation():
    sqrt5 = prime_of(-1, 2)
    with pytest.raises(ValueError):
        StarParams(k=7, prime=sqrt5)
    with pytest.raises(ValueError):
        StarParams(k=3, prime=sqrt5, scale=3)
    with pytest.raises(ValueError):
        StarParams(k=K_INF, prime=prime_of(-7, 0))
    with pytest.raises(ValueError):
        StarParams(k=K_INF, prime=prime_of(2, 0))
    StarParams(k=K_INF, prime=sqrt5)
    StarParams(k=K_INF, prime=prime_of(3, 0))


@pytest.mark.parametrize(
    "k,prime,smooth",
    [
        (3, (2, 0), True),
        (4, (2, 0), True),
        (5, (2, 0), True),
        (6, (2, 0), False),
        (6, (-1, 2), True),
        (6, (3, 0), True),
        (5, (3, 1), True),
    ],
)
def test_smoothness_report(k, prime, smooth):
    _, _, rep = reduced_generators(StarParams(k=k, prime=prime_of(*prime)))
    assert rep.smooth is smooth
    if not smooth:
        assert rep.non_smooth_pairs == ((1, 3),)
        assert rep.product_orders[(1, 3)] == 3
    else:
        assert rep.product_orders[(1, 3)] == k


def test_reduction_is_built_once_per_params(monkeypatch):
    built = []
    monkeypatch.setattr(builder, "build_field", lambda prime: built.append(prime) or build_field(prime))

    def builds(run) -> int:
        built.clear()
        run()
        return len(built)

    sqrt5 = prime_of(-1, 2)
    rows = []
    assert builds(lambda: rows.append(cli._survey_row(3, sqrt5, DEFAULT_CAP))) == 1
    [(_, fails)] = rows
    assert fails == {"cgroupFailures": 0, "orderMismatches": 0, "pathDisagreements": 0}
    params = StarParams(k=6, prime=sqrt5)
    assert builds(lambda: (face_counts(params, 2), incidence_report(params, 2))) == 1
    assert builds(lambda: classify_rank4(StarParams(k=4, prime=sqrt5))) == 0

    _, gens, _ = reduced_generators(params)
    assert reduced_generators(params)[1] is gens
    assert not gens.flags.writeable
    with pytest.raises(ValueError):
        gens[0, 0, 0] = 0


def test_classification_builds_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify_rank4 built a matrix")

    for mod in (builder, classify, matgroup):
        monkeypatch.setattr(mod, "mat_mul", refuse)
    monkeypatch.setattr(builder, "build_field", refuse)
    for k in (3, 4, 5, 6):
        for prime in ((2, 0), (-1, 2), (3, 0), (3, 1)):
            classify_rank4(StarParams(k=k, prime=prime_of(*prime)))


def test_infinite_mark_product_orders():
    _, _, rep5 = reduced_generators(StarParams(k=K_INF, prime=prime_of(-1, 2)))
    assert rep5.product_orders[(1, 3)] == 5
    assert rep5.smooth
    _, _, rep3 = reduced_generators(StarParams(k=K_INF, prime=prime_of(3, 0)))
    assert rep3.product_orders[(1, 3)] == 3
    assert rep3.smooth


def test_reduction_is_matrix_homomorphism():
    rng = np.random.default_rng(7)
    mats = generator_matrices(5)
    for prime in ((-1, 2), (3, 0), (3, 1), (2, 0)):
        ctx = build_field(prime_of(*prime))
        words = [mats[i] @ mats[j] @ mats[l] for i, j, l in rng.integers(0, 4, size=(6, 3))]
        for a in words:
            for b in words:
                lhs = (a @ b).reduce(ctx)
                rhs = mat_mul(ctx, a.reduce(ctx), b.reduce(ctx))
                assert np.array_equal(lhs, rhs)


def test_kept_names_subgroups_by_omitted_generators():
    assert kept("02") == [1, 3]
    assert kept((0, 2)) == kept("20") == [1, 3]
    assert kept("023") == [1]
    assert kept("") == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        kept("4")
