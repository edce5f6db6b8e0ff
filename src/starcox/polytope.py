"""Face counts, edge incidence, and orbit class of the alternating
semiregular 4-polytope attached to a reduced star group.

Faces are right cosets of distinguished subgroups; counts are subgroup
indices, incidence is nonempty coset intersection, and the two cell
families come from the two unringed outer nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import StarParams, reduced_generators
from .classify import classify_rank4
from .matgroup import DEFAULT_CAP, enumerate_group, mat_mul

_CHUNK = 1 << 16


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


def face_counts(params: StarParams, ringed_node: int, cap: int = DEFAULT_CAP) -> PolytopeStats:
    """Coset counts of the five face families for ringed node 0 or 2.

    The full-group order comes from the classification; subgroup orders
    come from enumeration, capped at cap elements, so every count is an
    exact subgroup index.
    """
    if ringed_node not in (0, 2):
        raise ValueError("supported ringed nodes are 0 and 2")
    ctx, gens, smooth_rep = reduced_generators(params)
    n = classify_rank4(params).predicted_order
    m = smooth_rep.product_orders

    def sub(idx):
        return enumerate_group(ctx, gens[list(idx)], cap=cap).order

    edges = _index(n, sub((0, 2, 3)), "edge stabilizer")
    p_order = sub((0, 1, 2))
    cells_p = _index(n, p_order, "P-cell stabilizer")
    sig_p = (p_order, (m[(0, 1)], m[(1, 2)]))
    if ringed_node == 2:
        vertices = _index(n, sub((0, 1, 3)), "vertex stabilizer")
        subfacets = _index(n, sub((1, 2)), "subfacet stabilizer")
        q_order = sub((1, 2, 3))
        sig_q = (q_order, (m[(1, 2)], m[(1, 3)]))
    else:
        vertices = _index(n, sub((1, 2, 3)), "vertex stabilizer")
        subfacets = _index(n, sub((0, 1)), "subfacet stabilizer")
        q_order = sub((0, 1, 3))
        sig_q = (q_order, (m[(0, 1)], m[(1, 3)]))
    cells_q = _index(n, q_order, "Q-cell stabilizer")
    orbit = "Regular" if sig_p == sig_q else "TwoOrbit"
    return PolytopeStats(
        ringed_node, vertices, edges, subfacets, cells_p, cells_q, sig_p, sig_q, orbit
    )


@dataclass(frozen=True)
class IncidenceReport:
    """Edge- and vertex-level incidence structure of one ringing."""

    edges_ok: bool
    vertex_profile: tuple[tuple[int, int], ...]
    crossfoot_ok: bool


def _coset_labels(perms: list[np.ndarray]) -> np.ndarray:
    """Label each element by its right coset of the subgroup generated by the
    generators whose permutations are given: the least position reachable
    along them, spread until nothing changes."""
    labels = np.arange(len(perms[0]))
    while True:
        new = np.minimum.reduce([labels] + [labels[p] for p in perms])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _face_labels(params: StarParams, ringed_node: int, cap: int) -> tuple[np.ndarray, ...]:
    """Coset labels of every group element for edges, P-cells, Q-cells and vertices."""
    if ringed_node not in (0, 2):
        raise ValueError("supported ringed nodes are 0 and 2")
    ctx, gens, _ = reduced_generators(params)
    group = enumerate_group(ctx, gens, cap=cap)
    elements = group.elements
    # for each generator g, the permutation of element positions made by left
    # multiplication by g, a chunk of elements at a time to bound memory
    perms = [
        np.concatenate([
            group.index(mat_mul(ctx, g, elements[i : i + _CHUNK]))
            for i in range(0, len(elements), _CHUNK)
        ])
        for g in gens
    ]

    def labels(idx):
        return _coset_labels([perms[i] for i in idx])

    cell_q, vertex = ((1, 2, 3), (0, 1, 3)) if ringed_node == 2 else ((0, 1, 3), (1, 2, 3))
    return labels((0, 2, 3)), labels((0, 1, 2)), labels(cell_q), labels(vertex)


def _distinct_counts(group_by: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each distinct label in group_by, in sorted order, the number of
    distinct values beside it; labels and values are element positions."""
    n = len(group_by)
    pairs = np.unique(group_by * n + values)
    return np.unique(pairs // n, return_counts=True)[1]


def incidence_report(
    params: StarParams, ringed_node: int, cap: int = DEFAULT_CAP
) -> IncidenceReport:
    """Materialize all cosets and check the alternation of cells around edges.

    Verifies that every edge meets exactly two cells of each family, that
    cell-edge incidence totals cross-foot both ways, and reports the
    distinct (P-cells, Q-cells) profiles seen at vertices.
    """
    edge, cell_p, cell_q, vertex = _face_labels(params, ringed_node, cap)
    edges_ok = bool(
        (_distinct_counts(edge, cell_p) == 2).all() and (_distinct_counts(edge, cell_q) == 2).all()
    )
    profile = set(zip(
        _distinct_counts(vertex, cell_p).tolist(), _distinct_counts(vertex, cell_q).tolist()
    ))

    crossfoot_ok = True
    for cells in (cell_p, cell_q):
        per_cell = _distinct_counts(cells, edge).tolist()
        incidences = int(_distinct_counts(edge, cells).sum())
        crossfoot_ok &= len(set(per_cell)) == 1 and per_cell[0] * len(per_cell) == incidences
    return IncidenceReport(edges_ok, tuple(sorted(profile)), crossfoot_ok)
