"""Semiregular polytope tests: coset face counts, signatures, edge alternation,
and incidence against a brute-force coset labelling of the whole group."""

from __future__ import annotations

import numpy as np
import pytest

from starcox import polytope
from starcox.builder import StarParams, kept, reduced_generators
from starcox.classify import classify_rank4
from starcox.matgroup import DEFAULT_CAP, OverCapError, _find, _keys, enumerate_group, mat_mul
from starcox.polytope import (
    IncidenceReport,
    _counts,
    _incidence,
    _stabilizers,
    face_counts,
    incidence_report,
    polytope_report,
)
from starcox.ring import GoldenInt, classify_prime, parse_golden

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
    ctx, gens, _ = reduced_generators(p)
    assert st.vertices * enumerate_group(ctx, gens[kept((0,))]).order == n
    assert st.edges * enumerate_group(ctx, gens[kept((1,))]).order == n
    assert st.subfacets * enumerate_group(ctx, gens[kept((2, 3))]).order == n
    assert st.cells_p * enumerate_group(ctx, gens[kept((3,))]).order == n
    assert st.cells_q * enumerate_group(ctx, gens[kept((2,))]).order == n


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


# The face stabilizers of each ringing as the generators they omit, in the
# order edge, P-cell, Q-cell, vertex: the oracle's own copy of the table.
ORACLE_FACES = {2: ("1", "3", "0", "2"), 0: ("1", "3", "2", "0")}


def _coset_labels(perms: list[np.ndarray]) -> np.ndarray:
    """Label each element x by its left coset xH, H generated by the
    elements whose permutations by right multiplication are given: the
    least position reachable along them, spread until nothing changes."""
    labels = np.arange(len(perms[0]))
    while True:
        new = np.minimum.reduce([labels] + [labels[p] for p in perms])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _distinct_counts(group_by: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each distinct label in group_by, the number of distinct values beside it."""
    n = len(group_by)
    return np.unique(np.unique(group_by * n + values) // n, return_counts=True)[1]


def oracle(p) -> dict:
    """Per ringing, the incidence report and the face counts (edges,
    P-cells, Q-cells, vertices) by brute force: label every element of the
    whole group by its coset of each face stabilizer, and count at every
    face the distinct faces beside it. Faces are right cosets Hx; inversion
    maps them onto the left cosets x^-1 H and keeps every nonempty
    intersection, so left cosets give the same counts."""
    ctx, gens, _ = reduced_generators(p)
    group = enumerate_group(ctx, gens)
    elems = group.elements
    step = 1 << 16
    perms = [
        np.concatenate([_find(group._sorted_keys, _keys(ctx, mat_mul(ctx, elems[i : i + step], g)))
                        for i in range(0, group.order, step)])
        for g in gens
    ]
    for perm in perms:
        assert np.array_equal(np.sort(perm), np.arange(group.order))
    out = {}
    for ring, omits in ORACLE_FACES.items():
        edge, cell_p, cell_q, vertex = (
            _coset_labels([perms[i] for i in kept(omit)]) for omit in omits
        )
        edges_ok = all((_distinct_counts(edge, cells) == 2).all() for cells in (cell_p, cell_q))
        profile = set(zip(
            _distinct_counts(vertex, cell_p).tolist(), _distinct_counts(vertex, cell_q).tolist()
        ))
        crossfoot_ok = all(
            len(np.unique(_distinct_counts(cells, edge))) == 1 for cells in (cell_p, cell_q)
        )
        counts = [len(np.unique(labels)) for labels in (edge, cell_p, cell_q, vertex)]
        out[ring] = IncidenceReport(bool(edges_ok), tuple(sorted(profile)), crossfoot_ok), counts
    return out


ORACLE_CASES = [
    pytest.param(k, p, id=f"{name}-k{k}")
    for name, p, ks in (("p2", P2, (3, 4, 5, 6)), ("sqrt5", SQRT5, (3, 4, 5, 6)), ("m3", P9, (3, 6)))
    for k in ks
]


@pytest.mark.parametrize("k,p", ORACLE_CASES)
def test_incidence_matches_coset_oracle(k, p):
    for ring, (report, counts) in oracle(params(k, p)).items():
        assert incidence_report(params(k, p), ring) == report
        st = face_counts(params(k, p), ring)
        assert counts == [st.edges, st.cells_p, st.cells_q, st.vertices]


@pytest.mark.parametrize("ring,profile", [(0, (8, 6)), (2, (264, 330))], ids=["ring0", "ring2"])
def test_incidence_past_the_full_group_cap(ring, profile):
    # k = 4 at 3+t: the whole group is too large to enumerate, its face
    # stabilizers are not
    p = params(4, P11)
    assert classify_rank4(p).predicted_order > DEFAULT_CAP
    rep = incidence_report(p, ring)
    assert rep.edges_ok and rep.crossfoot_ok
    assert rep.vertex_profile == (profile,)
    # double count of incident (vertex, cell) pairs
    st = face_counts(p, ring)
    _, omit_p, omit_q, omit_v = ORACLE_FACES[ring]
    ctx, gens, _ = reduced_generators(p)
    vertex = enumerate_group(ctx, gens[kept(omit_v)])
    for cells, omit, per_vertex in ((st.cells_p, omit_p, profile[0]), (st.cells_q, omit_q, profile[1])):
        cell = enumerate_group(ctx, gens[kept(omit)])
        assert st.vertices * per_vertex == cells * (cell.order // cell.intersect(vertex).order)


# Rows where a face stabilizer of O(3, q) type passes the default cap, so
# that only its stabilizer chain is built: k = 6 at -13-3t (q = 199) and
# k = 4 at -2+13t (q = 191).
PAST_THE_CAP = [
    (6, "-13-3t", 0, {"vertices": 261360000, "edges": 15525176040000,
                      "subfacets": 12420140832000, "cellsP": 1035011736000, "cellsQ": 7880400,
                      "vertexProfile": [[79202, 39601]]}),
    (6, "-13-3t", 2, {"vertices": 7880400, "edges": 15525176040000,
                      "subfacets": 20700234720000, "cellsP": 1035011736000, "cellsQ": 261360000,
                      "vertexProfile": [[1576080, 1313400]]}),
    (4, "-2+13t", 0, {"vertices": 1011483879920, "edges": 6068903279520,
                      "subfacets": 4855122623616, "cellsP": 404593551968, "cellsQ": 6968062,
                      "vertexProfile": [[8, 6]]}),
    (4, "-2+13t", 2, {"vertices": 6968062, "edges": 6068903279520,
                      "subfacets": 8091871039360, "cellsP": 404593551968,
                      "cellsQ": 1011483879920, "vertexProfile": [[696768, 870960]]}),
]


@pytest.mark.parametrize(
    "k,prime,ring,pinned",
    [pytest.param(*case, id=f"k{case[0]}-ring{case[2]}") for case in PAST_THE_CAP],
)
def test_reports_past_the_stabilizer_cap(k, prime, ring, pinned):
    # the report is polytope_report's, made from one build of the stabilizers
    p = params(k, classify_prime(parse_golden(prime)))
    groups = _stabilizers(p, ring, DEFAULT_CAP)
    assert max(g.order for g in groups.values()) > DEFAULT_CAP
    st, inc = _counts(p, ring, groups), _incidence(p, ring, groups)
    fixed = {"ring": ring, "orbitClass": "TwoOrbit", "edgesOk": True, "crossfootOk": True}
    assert {**st.to_json(), **inc.to_json()} == {**fixed, **pinned}
    n = classify_rank4(p).predicted_order
    counts = (st.vertices, st.edges, st.subfacets, st.cells_p, st.cells_q)
    assert [c * g.order for c, g in zip(counts, groups.values())] == [n] * 5
    # double count of incident (vertex, cell) pairs
    (profile,), vertex = inc.vertex_profile, groups["vertex"]
    for cells, face, per_vertex in zip((st.cells_p, st.cells_q), ("P-cell", "Q-cell"), profile):
        cell = groups[face]
        assert st.vertices * per_vertex == cells * (cell.order // cell.intersect(vertex).order)


def test_pool_rows_build_no_chain(monkeypatch):
    # every face stabilizer at the primes 2, sqrt5 and 3 has at most 1,620
    # elements (k = 6 at 3), below ENUMERATE_LIMIT, so each is a closure
    built, inner = [], polytope.bsgs_group

    def recording(*args, **kwargs):
        group = inner(*args, **kwargs)
        built.append(group.order)
        return group

    monkeypatch.setattr(polytope, "bsgs_group", recording)
    for prime in (P2, SQRT5, P9):
        for k in (3, 4, 5, 6):
            for ring in (0, 2):
                polytope_report(params(k, prime), ring)
    assert built == []


def test_incidence_respects_cap():
    # at q = 11 the largest face stabilizer has 120 elements
    with pytest.raises(OverCapError):
        incidence_report(params(3, P11), ringed_node=0, cap=119)
    assert incidence_report(params(3, P11), ringed_node=0, cap=120).vertex_profile == ((4, 4),)
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
