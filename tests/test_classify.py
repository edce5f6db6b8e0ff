"""Classification tests: orthogonal families, exceptional cases, congruence path."""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starcox import classify
from starcox.builder import K_INF, StarParams, reduced_generators
from starcox.classify import (
    classify_rank3,
    classify_rank4,
    delta,
    epsilon,
    orthogonal_order,
    table3_lookup,
    torus_power_check,
)
from starcox.matgroup import enumerate_group
from starcox.polytope import face_counts, incidence_report
from starcox.ring import GoldenInt, PrimeClass, classify_prime, parse_golden, primes_up_to_norm

SQRT5 = classify_prime(GoldenInt(-1, 2))
P2 = classify_prime(GoldenInt(2, 0))
P3 = classify_prime(GoldenInt(3, 0))
P7 = classify_prime(GoldenInt(-7, 0))
P11 = classify_prime(GoldenInt(3, 1))

ODD_PRIMES_200 = [p for p in primes_up_to_norm(200) if p.klass is not PrimeClass.EVEN]


def params(k, p, scale=1):
    return StarParams(k=k, prime=p, scale=scale)


def test_orthogonal_order_closed_forms():
    assert orthogonal_order(3, 5, 0, True) == 240
    assert orthogonal_order(3, 5, 0, False) == 120
    assert orthogonal_order(4, 5, 1, True) == 28_800
    assert orthogonal_order(4, 5, -1, True) == 31_200
    assert orthogonal_order(4, 5, -1, False) == 15_600
    assert orthogonal_order(4, 9, -1, False) == 531_360
    assert orthogonal_order(4, 11, 1, False) == 1_742_400
    assert orthogonal_order(4, 11, -1, False) == 1_771_440
    assert orthogonal_order(3, 11, 0, True) == 2 * 11 * 120


@pytest.mark.parametrize(
    "k,p,family,label,order",
    [
        (3, SQRT5, "O1", "O1(4,5,-1)", 15_600),
        (4, SQRT5, "O", "O(4,5,1)", 28_800),
        (5, SQRT5, "exceptional", "C5^3:(C2xA5)", 15_000),
        (6, SQRT5, "O", "O(4,5,-1)", 31_200),
        (3, P3, "O1", "O1(4,9,-1)", 531_360),
        (6, P3, "exceptional", "3-singular", 174_960),
        (3, P2, "exceptional", "C2^4:A5", 960),
        (6, P2, "exceptional", "C2^4:A5", 960),
    ],
)
def test_rank4_pinned_examples(k, p, family, label, order):
    c = classify_rank4(params(k, p))
    assert (c.family, c.label, c.predicted_order) == (family, label, order)


def test_rank4_display_strings():
    assert classify_rank4(params(5, SQRT5)).display == "Exceptional C5^3:(C2xA5)"
    assert classify_rank4(params(3, SQRT5)).display == "O1(4,5,-1)"


def test_rank4_scale_two_flips_family_not_epsilon():
    base = classify_rank4(params(3, SQRT5))
    scaled = classify_rank4(params(3, SQRT5, scale=2))
    assert base.epsilon == scaled.epsilon == -1
    assert (base.family, scaled.family) == ("O1", "O2")
    assert base.predicted_order == scaled.predicted_order == 15_600
    assert scaled.label == "O2(4,5,-1)"


def test_rank4_rejects_infinite_mark():
    with pytest.raises(ValueError):
        classify_rank4(params(K_INF, SQRT5))


def test_epsilon_delta_examples():
    assert (epsilon(6, SQRT5), delta(6, SQRT5)) == (-1, -1)
    for p in ODD_PRIMES_200[:12]:
        assert delta(3, p) == 1
        assert delta(5, p) == 1
        assert epsilon(3, p, 2) == epsilon(3, p, 1)
        assert epsilon(4, p, 2) == epsilon(4, p, 1)


# ---------------------------------------------------------------------------
# rank-3 subgroups


@pytest.mark.parametrize(
    "i,k,p,family,label,order",
    [
        (3, 3, SQRT5, "coxeter", "H3", 120),
        (3, 6, P11, "coxeter", "H3", 120),
        (0, 3, P11, "coxeter", "A3", 24),
        (0, 4, P11, "coxeter", "B3", 48),
        (0, 5, P11, "coxeter", "H3", 120),
        (0, 6, SQRT5, "torus", "Torus(5)", 300),
        (0, 6, P3, "torus", "Torus(3)", 108),
        (0, 6, P11, "torus", "Torus(11)", 1452),
        (2, 3, P11, "coxeter", "H3", 120),
        (2, 4, SQRT5, "O", "O(3,5,0)", 240),
        (2, 5, SQRT5, "O1", "O1(3,5,0)", 120),
        (2, 6, P3, "exceptional", "C3^4:D10", 1620),
    ],
)
def test_rank3_pinned_examples(i, k, p, family, label, order):
    c = classify_rank3(i, params(k, p))
    assert (c.family, c.label, c.predicted_order) == (family, label, order)


def test_rank3_guards():
    with pytest.raises(ValueError):
        classify_rank3(0, params(3, P2))
    with pytest.raises(ValueError):
        classify_rank3(1, params(3, SQRT5))
    with pytest.raises(ValueError):
        classify_rank3(0, params(K_INF, SQRT5))
    assert classify_rank3(3, params(K_INF, SQRT5)).label == "H3"


@pytest.mark.parametrize(
    "i,k,p,gens_idx",
    [
        (0, 6, P11, (1, 2, 3)),
        (0, 6, P3, (1, 2, 3)),
        (2, 4, SQRT5, (0, 1, 3)),
        (2, 5, SQRT5, (0, 1, 3)),
        (2, 6, P3, (0, 1, 3)),
        (0, 5, P3, (1, 2, 3)),
    ],
)
def test_rank3_predictions_match_enumeration(i, k, p, gens_idx):
    ctx, gens, _ = reduced_generators(params(k, p))
    got = enumerate_group(ctx, gens[list(gens_idx)]).order
    assert got == classify_rank3(i, params(k, p)).predicted_order


# ---------------------------------------------------------------------------
# congruence path


def test_table3_guards():
    with pytest.raises(ValueError):
        table3_lookup(params(3, SQRT5, scale=2))
    with pytest.raises(ValueError):
        table3_lookup(params(3, P2))
    with pytest.raises(ValueError):
        table3_lookup(params(K_INF, SQRT5))


def test_table3_pinned_rows():
    assert table3_lookup(params(3, P11)).label in ("O1(4,11,1)", "O1(4,11,-1)")
    assert table3_lookup(params(6, P3)).label == "3-singular"
    assert table3_lookup(params(5, SQRT5)).label == "C5^3:(C2xA5)"
    assert table3_lookup(params(4, P7)).label in ("O(4,49,1)", "O(4,49,-1)", "O1(4,49,1)", "O1(4,49,-1)")


def test_congruence_path_agrees_with_symbol_path():
    mismatches = []
    for p in ODD_PRIMES_200:
        for k in (3, 4, 5, 6):
            a = classify_rank4(params(k, p))
            b = table3_lookup(params(k, p))
            if (a.family, a.label, a.predicted_order) != (b.family, b.label, b.predicted_order):
                mismatches.append((k, p.value, a.label, b.label))
    assert mismatches == []


def test_conjugate_primes_can_differ():
    p_a = classify_prime(GoldenInt(3, 1))
    p_b = classify_prime(GoldenInt(4, -1))
    assert p_a.q == p_b.q == 11
    labels = {table3_lookup(params(3, p_a)).label, table3_lookup(params(3, p_b)).label}
    assert labels == {"O1(4,11,1)", "O1(4,11,-1)"}


# ---------------------------------------------------------------------------
# torus power identities


@pytest.mark.parametrize("p,s", [(SQRT5, 5), (P7, 7), (P11, 11)])
def test_torus_power_check(p, s):
    chk = torus_power_check(p)
    assert chk.s == s
    assert chk.order_x == chk.order_w == s
    assert chk.powers_checked >= min(s, 8)


def test_torus_power_check_guards():
    with pytest.raises(ValueError):
        torus_power_check(P2)
    with pytest.raises(ValueError):
        torus_power_check(P3)


def test_gram_determinants_are_taken_once_per_mark_and_scale(monkeypatch):
    # over the benchmark's polytope pool, whose 24 tasks classify at 4 marks
    # and scale 1, the exact Gram matrix is built at most once per (k, mu);
    # and importing the library takes none
    root = Path(__file__).resolve().parent.parent
    pool = json.loads((root / "bench" / "expected.json").read_text())["pools"]["polytope"]
    fresh = subprocess.run(
        [sys.executable, "-c", "import starcox.cli, starcox.classify as c; "
         "print(c._gram_dets.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=True,
    )
    assert fresh.stdout == "0\n"
    calls = collections.Counter()
    real = classify.gram

    def counted(k, mu=1):
        calls[k, mu] += 1
        return real(k, mu)

    monkeypatch.setattr(classify, "gram", counted)
    classify._gram_dets.cache_clear()
    for task in pool:
        p = params(task["k"], classify_prime(parse_golden(task["prime"])))
        face_counts(p, task["ring"])
        incidence_report(p, task["ring"])
    assert len(pool) == 24
    assert calls and max(calls.values()) == 1
