"""Semiregular polytope tests: coset face counts, signatures, edge alternation."""

from __future__ import annotations

import numpy as np
import pytest

from starcox.builder import StarParams
from starcox.cgroup import distinguished
from starcox.classify import classify_rank4
from starcox.matgroup import DEFAULT_CAP, OverCapError
from starcox.polytope import _face_labels, face_counts, incidence_report
from starcox.ring import GoldenInt, classify_prime

SQRT5 = classify_prime(GoldenInt(-1, 2))
P2 = classify_prime(GoldenInt(2, 0))
P9 = classify_prime(GoldenInt(-3, 0))
P11 = classify_prime(GoldenInt(3, 1))


def params(k, p):
    return StarParams(k=k, prime=p)


def test_even_prime_ring2_counts_and_signatures():
    st = face_counts(params(3, P2), ringed_node=2)
    assert (st.vertices, st.edges, st.subfacets, st.cells_p, st.cells_q) == (16, 120, 160, 16, 40)
    assert st.cell_signature_p == (60, (5, 3))
    assert st.cell_signature_q == (24, (3, 3))
    assert st.orbit_class == "TwoOrbit"


def test_ramified_prime_ring0_counts_and_signatures():
    st = face_counts(params(3, SQRT5), ringed_node=0)
    assert (st.vertices, st.edges, st.subfacets, st.cells_p, st.cells_q) == (
        650,
        1950,
        1560,
        130,
        130,
    )
    assert st.cell_signature_p == st.cell_signature_q
    assert st.orbit_class == "Regular"


def test_counts_are_subgroup_indices():
    p = params(3, SQRT5)
    n = classify_rank4(p).predicted_order
    st = face_counts(p, ringed_node=0)
    assert st.vertices * distinguished(p, omit=(0,)).order == n
    assert st.edges * distinguished(p, omit=(1,)).order == n
    assert st.subfacets * distinguished(p, omit=(2, 3)).order == n
    assert st.cells_p * distinguished(p, omit=(3,)).order == n
    assert st.cells_q * distinguished(p, omit=(2,)).order == n


def test_both_ringings_share_edges():
    p = params(3, P2)
    assert face_counts(p, 0).edges == face_counts(p, 2).edges
    q = params(4, SQRT5)
    assert face_counts(q, 0).edges == face_counts(q, 2).edges


def test_orbit_classes():
    assert face_counts(params(3, P2), 2).orbit_class == "TwoOrbit"
    assert face_counts(params(3, SQRT5), 0).orbit_class == "Regular"
    assert face_counts(params(4, SQRT5), 0).orbit_class == "TwoOrbit"


def test_ring_validation():
    with pytest.raises(ValueError):
        face_counts(params(3, P2), ringed_node=1)
    with pytest.raises(ValueError):
        incidence_report(params(3, P2), ringed_node=3)


def test_even_prime_incidence():
    rep = incidence_report(params(3, P2), ringed_node=2)
    assert rep.edges_ok
    assert rep.crossfoot_ok
    assert rep.vertex_profile == ((6, 10),)


def test_ramified_prime_incidence():
    rep = incidence_report(params(3, SQRT5), ringed_node=0)
    assert rep.edges_ok
    assert rep.crossfoot_ok
    assert rep.vertex_profile == ((4, 4),)


@pytest.mark.parametrize("p", [P9, P11], ids=["q9", "q11"])
@pytest.mark.parametrize("ring,profile", [(0, ((4, 4),)), (2, ((12, 20),))], ids=["ring0", "ring2"])
def test_incidence_at_row_table_sizes(p, ring, profile):
    # q = 9 and 11: matrix keys are four 16-bit row codes, and the groups
    # have 531,360 and 1,742,400 elements
    rep = incidence_report(params(3, p), ringed_node=ring)
    assert rep.edges_ok
    assert rep.crossfoot_ok
    assert rep.vertex_profile == profile


@pytest.mark.parametrize("k,p,ring", [(3, P2, 2), (3, SQRT5, 0)], ids=["p2-ring2", "sqrt5-ring0"])
def test_coset_labels_match_face_counts(k, p, ring):
    st = face_counts(params(k, p), ring)
    edge, cell_p, cell_q, vertex = _face_labels(params(k, p), ring, DEFAULT_CAP)
    distinct = [len(np.unique(labels)) for labels in (edge, cell_p, cell_q, vertex)]
    assert distinct == [st.edges, st.cells_p, st.cells_q, st.vertices]


def test_incidence_respects_cap():
    with pytest.raises(OverCapError):
        incidence_report(params(3, P11), ringed_node=0, cap=1000)
    with pytest.raises(OverCapError):
        face_counts(params(3, P2), ringed_node=2, cap=10)


def test_stats_serialization():
    st = face_counts(params(3, P2), ringed_node=2)
    blob = st.to_json()
    assert blob == {
        "ring": 2,
        "vertices": 16,
        "edges": 120,
        "subfacets": 160,
        "cellsP": 16,
        "cellsQ": 40,
        "orbitClass": "TwoOrbit",
    }
    text = st.to_text()
    assert "vertices" in text and "160" in text
    assert "signature surrogate" in text
