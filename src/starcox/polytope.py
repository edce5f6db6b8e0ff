"""Face counts, edge incidence, and orbit class of the alternating
semiregular 4-polytope attached to a reduced star group.

Faces are right cosets of distinguished subgroups; counts are subgroup
indices, incidence is nonempty coset intersection, and the two cell
families come from the two unringed outer nodes. G acts transitively on
each face family and keeps incidence, so incidence is read at the faces
through the identity, as indices of intersections of face stabilizers:
only the stabilizers are enumerated, never the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .builder import StarParams, kept, reduced_generators
from .classify import classify_rank4
from .matgroup import DEFAULT_CAP, GroupHandle, enumerate_group, mat_mul

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


def _stabilizers(
    params: StarParams, ringed_node: int, cap: int, names: tuple[str, ...] = ()
) -> dict[str, GroupHandle]:
    """The face stabilizers of one ringing, enumerated, by face name: those
    named, else all of them in the order of _FACES."""
    if ringed_node not in _FACES:
        raise ValueError("supported ringed nodes are 0 and 2")
    ctx, gens, _ = reduced_generators(params)
    faces = _FACES[ringed_node]
    return {f: enumerate_group(ctx, gens[kept(faces[f])], cap=cap) for f in names or faces}


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
    return _counts(params, ringed_node, _stabilizers(params, ringed_node, cap))


def _counts(params: StarParams, ringed_node: int, groups: dict[str, GroupHandle]) -> PolytopeStats:
    orders = {f: group.order for f, group in groups.items()}
    n = classify_rank4(params).predicted_order
    counts = [_index(n, order, f"{f} stabilizer") for f, order in orders.items()]
    m = reduced_generators(params)[2].product_orders
    faces = _FACES[ringed_node]
    sig_p, sig_q = (_signature(orders[c], faces[c], m) for c in ("P-cell", "Q-cell"))
    orbit = "Regular" if sig_p == sig_q else "TwoOrbit"
    return PolytopeStats(ringed_node, *counts, sig_p, sig_q, orbit)


@dataclass(frozen=True)
class IncidenceReport:
    """Edge- and vertex-level incidence structure of one ringing."""

    edges_ok: bool
    vertex_profile: tuple[tuple[int, int], ...]
    crossfoot_ok: bool

    def to_json(self) -> dict:
        return {
            "edgesOk": self.edges_ok,
            "vertexProfile": [list(pair) for pair in self.vertex_profile],
            "crossfootOk": self.crossfoot_ok,
        }

    def to_text(self) -> str:
        profile = ", ".join(f"P {p} Q {q}" for p, q in self.vertex_profile)
        return (
            f"  incidence edges ok {str(self.edges_ok).lower()}, vertex profile {profile}, "
            f"crossfoot ok {str(self.crossfoot_ok).lower()}"
        )


def incidence_report(
    params: StarParams, ringed_node: int, cap: int = DEFAULT_CAP
) -> IncidenceReport:
    """Incidence at the faces through the identity, read off the face
    stabilizers E (edge), P and Q (cells) and V (vertex).

    G acts transitively on each face family by right multiplication and
    keeps incidence, so what holds at one face holds at all. The B-faces
    that meet the A-face Ax are the cosets By with y in BAx, and there are
    |A : A ∩ B| of them. So edges_ok says |E : E ∩ B| == 2 for B = P and
    Q, and checks that the generator r of E outside B maps E ∩ B off B
    (into E it maps it always, as r and E ∩ B lie in E): the two B-cells
    at the base edge are B and B r.
    vertex_profile is the one pair (|V : V ∩ P|, |V : V ∩ Q|), and
    crossfoot_ok, that the cells of a family meet equally many edges,
    holds by transitivity. Only the stabilizers are enumerated, each
    capped at cap elements; the full group is never built.
    """
    names = ("edge", "vertex", "P-cell", "Q-cell")
    return _incidence(params, ringed_node, _stabilizers(params, ringed_node, cap, names))


def _incidence(params: StarParams, ringed_node: int, groups: dict[str, GroupHandle]) -> IncidenceReport:
    ctx, gens, _ = reduced_generators(params)
    faces, edge, vertex = _FACES[ringed_node], groups["edge"], groups["vertex"]

    def alternates(cell: str) -> bool:
        meet = edge.intersect(groups[cell])
        (r,) = set(kept(faces["edge"])) - set(kept(faces[cell]))
        other = mat_mul(ctx, meet.elements, gens[r])
        return edge.order == 2 * meet.order and not groups[cell].contains_batch(other).any()

    # V & B is a subgroup of V, so by Lagrange its order divides |V|
    profile = tuple(vertex.order // vertex.intersect(groups[c]).order for c in ("P-cell", "Q-cell"))
    return IncidenceReport(alternates("P-cell") and alternates("Q-cell"), (profile,), True)


def polytope_report(
    params: StarParams, ringed_node: int, cap: int = DEFAULT_CAP
) -> tuple[PolytopeStats, IncidenceReport]:
    """``face_counts`` and ``incidence_report`` of one ringing, from one
    enumeration of each face stabilizer."""
    groups = _stabilizers(params, ringed_node, cap)
    return _counts(params, ringed_node, groups), _incidence(params, ringed_node, groups)
