"""Face counts, edge incidence, and orbit class of the alternating
semiregular 4-polytope attached to a reduced star group.

Faces are right cosets of distinguished subgroups; counts are subgroup
indices, incidence is nonempty coset intersection, and the two cell
families come from the two unringed outer nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .builder import StarParams, kept, reduced_generators
from .classify import classify_rank4
from .matgroup import DEFAULT_CAP, enumerate_group, mat_mul, sorted_unique

# The face stabilizers of each ringing, named by the generators they omit
# (builder.kept), in the order of PolytopeStats' counts.
_FACES = {
    2: {"vertex": "2", "edge": "1", "subfacet": "03", "P-cell": "3", "Q-cell": "0"},
    0: {"vertex": "0", "edge": "1", "subfacet": "23", "P-cell": "3", "Q-cell": "2"},
}


@dataclass(frozen=True)
class PolytopeStats:
    """Counts and cell signatures of one ringing (ringed node 0 or 2).

    A cell signature is (stabilizer order, (product orders of the cell
    group's outer generator pairs)); the orbit class is Regular when the
    two families carry identical signatures, else TwoOrbit. Signature
    equality is a computable surrogate for the diagram-swap criterion,
    and is labeled as such in text output.
    """

    ringed_node: int
    vertices: int
    edges: int
    subfacets: int
    cells_p: int
    cells_q: int
    cell_signature_p: tuple[int, tuple[int, int]]
    cell_signature_q: tuple[int, tuple[int, int]]
    orbit_class: str

    def to_json(self) -> dict:
        return {
            "ring": self.ringed_node,
            "vertices": self.vertices,
            "edges": self.edges,
            "subfacets": self.subfacets,
            "cellsP": self.cells_p,
            "cellsQ": self.cells_q,
            "orbitClass": self.orbit_class,
        }

    def to_text(self) -> str:
        rows = [
            ("vertices", self.vertices),
            ("edges", self.edges),
            ("subfacets", self.subfacets),
            ("cells P", self.cells_p),
            ("cells Q", self.cells_q),
        ]
        width = max(len(str(v)) for _, v in rows)
        lines = [f"ringed node {self.ringed_node}"]
        lines += [f"  {name:<9} {value:>{width}}" for name, value in rows]
        lines.append(f"  signature P {self.cell_signature_p}")
        lines.append(f"  signature Q {self.cell_signature_q}")
        lines.append(f"  orbit class (signature surrogate): {self.orbit_class}")
        return "\n".join(lines)


def _index(full_order: int, sub_order: int, what: str) -> int:
    if full_order % sub_order:
        raise ArithmeticError(f"{what} order {sub_order} does not divide {full_order}")
    return full_order // sub_order


def _signature(order: int, omit: str, m: dict) -> tuple[int, tuple[int, ...]]:
    """A cell group's order and the product orders of its generator pairs
    that meet r1, the branch node of the diagram."""
    return order, tuple(m[pair] for pair in combinations(kept(omit), 2) if 1 in pair)


def face_counts(params: StarParams, ringed_node: int, cap: int = DEFAULT_CAP) -> PolytopeStats:
    """Coset counts of the five face families for ringed node 0 or 2.

    The full-group order comes from the classification; subgroup orders
    come from enumeration, capped at cap elements, so every count is an
    exact subgroup index.
    """
    if ringed_node not in _FACES:
        raise ValueError("supported ringed nodes are 0 and 2")
    ctx, gens, smooth_rep = reduced_generators(params)
    n = classify_rank4(params).predicted_order
    faces = _FACES[ringed_node]
    orders = {f: enumerate_group(ctx, gens[kept(omit)], cap=cap).order for f, omit in faces.items()}
    counts = [_index(n, order, f"{f} stabilizer") for f, order in orders.items()]
    m = smooth_rep.product_orders
    sig_p, sig_q = (_signature(orders[c], faces[c], m) for c in ("P-cell", "Q-cell"))
    orbit = "Regular" if sig_p == sig_q else "TwoOrbit"
    return PolytopeStats(ringed_node, *counts, sig_p, sig_q, orbit)


@dataclass(frozen=True)
class IncidenceReport:
    """Edge- and vertex-level incidence structure of one ringing."""

    edges_ok: bool
    vertex_profile: tuple[tuple[int, int], ...]
    crossfoot_ok: bool


def _coset_labels(perms: list[np.ndarray]) -> np.ndarray:
    """Label each element x by its left coset xH, H the subgroup generated by
    the generators whose permutations by right multiplication are given: the
    least position reachable along them, spread until nothing changes.

    The faces are right cosets Hx. Inversion x -> x^-1 maps each right coset
    Hx onto the left coset x^-1 H and keeps every nonempty intersection, so
    each multiset that ``_distinct_counts`` takes, and with it edges_ok,
    vertex_profile and crossfoot_ok, is the same on left cosets."""
    labels = np.arange(len(perms[0]))
    while True:
        new = np.minimum.reduce([labels] + [labels[p] for p in perms])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _face_labels(params: StarParams, ringed_node: int, cap: int) -> tuple[np.ndarray, ...]:
    """Coset labels of every group element for edges, P-cells, Q-cells and vertices."""
    if ringed_node not in _FACES:
        raise ValueError("supported ringed nodes are 0 and 2")
    ctx, gens, _ = reduced_generators(params)
    group = enumerate_group(ctx, gens, cap=cap)
    # perms[i] takes x to x r_i, checked through mat_mul at x = r_j
    perms = group.right_multiplication(gens)
    at_gens = group.index(mat_mul(ctx, gens[None], gens[:, None])).reshape(len(gens), -1)
    assert np.array_equal(perms[:, group.index(gens)], at_gens)
    faces = _FACES[ringed_node]
    return tuple(
        _coset_labels([perms[i] for i in kept(faces[face])])
        for face in ("edge", "P-cell", "Q-cell", "vertex")
    )


def _distinct_counts(group_by: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each distinct label in group_by, in sorted order, the number of
    distinct values beside it; labels and values are element positions."""
    n = len(group_by)
    pairs = sorted_unique(group_by * n + values)
    return np.unique(pairs // n, return_counts=True)[1]


def incidence_report(
    params: StarParams, ringed_node: int, cap: int = DEFAULT_CAP
) -> IncidenceReport:
    """Materialize all cosets and check the alternation of cells around edges.

    Verifies that every edge meets exactly two cells of each family and
    that every cell of a family meets the same number of edges
    (crossfoot_ok), and reports the distinct (P-cells, Q-cells) profiles
    seen at vertices.
    """
    edge, cell_p, cell_q, vertex = _face_labels(params, ringed_node, cap)
    edges_ok = bool(
        (_distinct_counts(edge, cell_p) == 2).all() and (_distinct_counts(edge, cell_q) == 2).all()
    )
    profile = set(zip(
        _distinct_counts(vertex, cell_p).tolist(), _distinct_counts(vertex, cell_q).tolist()
    ))

    crossfoot_ok = all(
        len(np.unique(_distinct_counts(cells, edge))) == 1 for cells in (cell_p, cell_q)
    )
    return IncidenceReport(edges_ok, tuple(sorted(profile)), crossfoot_ok)
