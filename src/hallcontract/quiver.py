"""Directed graphs with loops and multiple edges, admissible automorphisms,
and edge contraction.

An automorphism a is admissible when it respects endpoints (a(h)' = a(h'),
a(h)'' = a(h'')) and no non-loop edge joins two vertices of one a-orbit.
Such a pair (graph, a) carries a generalized Cartan datum on its vertex
orbits, and contracting a cross-edge orbit between two matched vertex orbits
commutes with the Cartan-level contraction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

from .cartan import CartanDatum, ContractionPair, contract_cartan, is_isomorphic


@dataclass(frozen=True)
class Edge:
    id: str
    source: str
    target: str

    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.source not in vset or e.target not in vset:
                raise ValueError(f"edge {e.id} touches unknown vertex")

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_by_id(self) -> dict:
        return {e.id: e for e in self.edges}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edge_by_id[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def out_edges(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.source == v]

    def in_edges(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.target == v]

    def loops_at(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.source == v and e.target == v]

    def to_dict(self, autom: "Automorphism | None" = None) -> dict:
        payload = {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "source": e.source, "target": e.target}
                      for e in self.edges],
        }
        if autom is not None and not autom.is_identity(self):
            payload["automorphism"] = {"vertices": dict(autom.vperm),
                                       "edges": dict(autom.eperm)}
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "tuple[Quiver, Automorphism]":
        vertices, edges = payload["vertices"], payload["edges"]
        if not (isinstance(vertices, list)
                and all(isinstance(v, str) for v in vertices)):
            raise ValueError("vertices must be a list of strings")
        if not isinstance(edges, list) or not all(
                isinstance(e, dict)
                and all(isinstance(e.get(f), str) for f in ("id", "source", "target"))
                for e in edges):
            raise ValueError("edges must be a list of objects with string "
                             "id, source and target")
        quiver = cls(tuple(vertices),
                     tuple(Edge(e["id"], e["source"], e["target"]) for e in edges))
        spec = payload.get("automorphism")
        if spec is None:
            autom = identity_automorphism(quiver)
        else:
            autom = Automorphism(dict(spec["vertices"]), dict(spec["edges"]))
            autom.validate(quiver)
        return quiver, autom

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Automorphism:
    """A pair of permutations (vertices, edges); not required admissible."""

    def __init__(self, vperm: dict, eperm: dict):
        self.vperm = dict(vperm)
        self.eperm = dict(eperm)

    def validate(self, quiver: Quiver) -> None:
        if set(self.vperm) != set(quiver.vertices) or set(self.vperm.values()) != set(quiver.vertices):
            raise ValueError("vertex map is not a permutation of the vertex set")
        ids = {e.id for e in quiver.edges}
        if set(self.eperm) != ids or set(self.eperm.values()) != ids:
            raise ValueError("edge map is not a permutation of the edge set")

    def is_identity(self, quiver: Quiver) -> bool:
        return (all(self.vperm.get(v, v) == v for v in quiver.vertices)
                and all(self.eperm.get(e.id, e.id) == e.id for e in quiver.edges))

    def apply_vertex(self, v: str) -> str:
        return self.vperm[v]

    def apply_edge(self, edge_id: str) -> str:
        return self.eperm[edge_id]


def identity_automorphism(quiver: Quiver) -> Automorphism:
    return Automorphism({v: v for v in quiver.vertices},
                        {e.id: e.id for e in quiver.edges})


def _orbits_of(perm: dict, items) -> list[tuple]:
    seen = set()
    out = []
    for item in items:
        if item in seen:
            continue
        orbit = [item]
        seen.add(item)
        cur = perm[item]
        while cur != item:
            orbit.append(cur)
            seen.add(cur)
            cur = perm[cur]
        out.append(tuple(orbit))
    return out


def vertex_orbits(quiver: Quiver, autom: Automorphism) -> list[tuple[str, ...]]:
    """Orbits in order of first occurrence; each starts at its first vertex."""
    return _orbits_of(autom.vperm, quiver.vertices)


def orbit_of_vertex(quiver: Quiver, autom: Automorphism, v: str) -> tuple[str, ...]:
    for orbit in vertex_orbits(quiver, autom):
        if v in orbit:
            return orbit
    raise KeyError(f"unknown vertex {v!r}")


def check_admissible(quiver: Quiver, autom: Automorphism) -> list[str]:
    """Violations of admissibility, empty iff admissible."""
    problems = []
    try:
        autom.validate(quiver)
    except ValueError as exc:
        return [str(exc)]
    for e in quiver.edges:
        image = quiver.edge(autom.apply_edge(e.id))
        if image.source != autom.apply_vertex(e.source):
            problems.append(f"a({e.id}) starts at {image.source}, "
                            f"expected a({e.source}) = {autom.apply_vertex(e.source)}")
        if image.target != autom.apply_vertex(e.target):
            problems.append(f"a({e.id}) ends at {image.target}, "
                            f"expected a({e.target}) = {autom.apply_vertex(e.target)}")
    orbit_index = {}
    for k, orbit in enumerate(vertex_orbits(quiver, autom)):
        for v in orbit:
            orbit_index[v] = k
    for e in quiver.edges:
        if not e.is_loop() and orbit_index[e.source] == orbit_index[e.target]:
            problems.append(
                f"non-loop edge {e.id} joins {e.source} and {e.target} "
                f"inside one vertex orbit")
    return problems


def cartan_of(quiver: Quiver, autom: Automorphism | None = None) -> CartanDatum:
    """The Cartan datum on vertex orbits: phi1 = orbit size, phi2 = loops at a
    fixed representative, off-diagonal entries minus the cross-edge count."""
    if autom is None:
        autom = identity_automorphism(quiver)
    bad = check_admissible(quiver, autom)
    if bad:
        raise ValueError("automorphism not admissible: " + "; ".join(bad))
    orbits = vertex_orbits(quiver, autom)
    labels = [orbit[0] for orbit in orbits]
    orbit_index = {}
    for k, orbit in enumerate(orbits):
        for v in orbit:
            orbit_index[v] = k
    n = len(orbits)
    phi1 = [len(orbit) for orbit in orbits]
    phi2 = [len(quiver.loops_at(orbit[0])) for orbit in orbits]
    form = [[0] * n for _ in range(n)]
    for k in range(n):
        form[k][k] = 2 * (phi1[k] - phi1[k] * phi2[k])
    for e in quiver.edges:
        if e.is_loop():
            continue
        a, b = orbit_index[e.source], orbit_index[e.target]
        form[a][b] -= 1
        form[b][a] -= 1
    return CartanDatum.make(labels, form, phi1, phi2)


@dataclass(frozen=True)
class OrbitPair:
    """A contraction site: the two vertex orbits, the chosen cross edge e, and
    whether the requested roles had to be swapped to give e a plus-side source."""

    plus_orbit: tuple[str, ...]
    minus_orbit: tuple[str, ...]
    edge: str
    swapped: bool = False

    @property
    def plus(self) -> str:
        return self.plus_orbit[0]

    @property
    def minus(self) -> str:
        return self.minus_orbit[0]


def make_orbit_pair(quiver: Quiver, autom: Automorphism, plus: str, minus: str,
                    edge: str | None = None) -> OrbitPair:
    """Resolve representative vertices to orbits and fix the contraction edge.

    If no cross edge leaves the plus orbit the roles are swapped (recorded).
    The chosen edge must have an automorphism orbit of size exactly phi1, or
    the composite edges below would not close up under a.
    """
    plus_orbit = orbit_of_vertex(quiver, autom, plus)
    minus_orbit = orbit_of_vertex(quiver, autom, minus)
    if plus_orbit == minus_orbit:
        raise ValueError("plus and minus vertices lie in the same orbit")
    swapped = False
    if edge is not None:
        e = quiver.edge(edge)
        if e.source in plus_orbit and e.target in minus_orbit:
            pass
        elif e.source in minus_orbit and e.target in plus_orbit:
            plus_orbit, minus_orbit = minus_orbit, plus_orbit
            swapped = True
        else:
            raise ValueError(f"edge {edge!r} does not join the two orbits")
    else:
        e = next((x for x in quiver.edges
                  if x.source in plus_orbit and x.target in minus_orbit), None)
        if e is None:
            e = next((x for x in quiver.edges
                      if x.source in minus_orbit and x.target in plus_orbit), None)
            if e is not None:
                plus_orbit, minus_orbit = minus_orbit, plus_orbit
                swapped = True
        if e is None:
            raise ValueError("no edge joins the two orbits")
    size = _edge_orbit_size(autom, e.id)
    if size != len(plus_orbit):
        raise ValueError(
            f"edge {e.id!r} has an automorphism orbit of size {size}, "
            f"expected {len(plus_orbit)}; contraction needs an aligned edge orbit")
    return OrbitPair(plus_orbit, minus_orbit, e.id, swapped)


def _edge_orbit_size(autom: Automorphism, edge_id: str) -> int:
    size = 1
    cur = autom.apply_edge(edge_id)
    while cur != edge_id:
        size += 1
        cur = autom.apply_edge(cur)
    return size


def check_contraction_assumptions(quiver: Quiver, autom: Automorphism,
                                  pair: OrbitPair) -> list[str]:
    """The three contraction conditions: equal orbit sizes, no crossing
    parallel edges between the orbits, and no loops on either orbit."""
    problems = []
    union = set(pair.plus_orbit) | set(pair.minus_orbit)
    if len(pair.plus_orbit) != len(pair.minus_orbit):
        problems.append(
            f"orbit sizes differ: {len(pair.plus_orbit)} vs {len(pair.minus_orbit)}")
    cross = [e for e in quiver.edges
             if not e.is_loop() and e.source in union and e.target in union]
    partner: dict[str, set[str]] = {}
    for e in cross:
        partner.setdefault(e.source, set()).add(e.target)
        partner.setdefault(e.target, set()).add(e.source)
    for v, others in sorted(partner.items()):
        if len(others) > 1:
            problems.append(
                f"vertex {v} meets cross edges toward {sorted(others)}; "
                f"parallel edges between the orbits must connect matched vertices")
    for v in sorted(union):
        loops = quiver.loops_at(v)
        if loops:
            problems.append(f"loop {loops[0].id} sits on contracted vertex {v}")
    return problems


@dataclass(frozen=True)
class ContractedQuiver:
    """Result of contracting: the new graph, its automorphism, the edges that
    were contracted (one per plus vertex), and per-edge provenance.

    provenance maps each new edge id to one of
      ("kept", original_id)
      ("post", outgoing_id, contracted_id)   composite l1 . h_k
      ("pre",  contracted_id, incoming_id)   composite h_k^{-1} . l2
    """

    quiver: Quiver
    pair: OrbitPair
    contraction_edges: tuple[str, ...]
    provenance: dict = field(compare=False)
    autom: Automorphism = field(compare=False)


def contract_quiver(quiver: Quiver, autom: Automorphism, pair: OrbitPair) -> ContractedQuiver:
    """Contract the chosen cross-edge orbit.

    The minus orbit disappears. Edges not touching it are kept. Every other
    edge l at a minus vertex composes with the contraction edge h_k ending
    there: outgoing l1 gives l1.h_k from h_k's source, incoming l2 gives
    h_k^{-1}.l2 into h_k's source; the self-composite of h_k is dropped.
    """
    bad = check_admissible(quiver, autom)
    if bad:
        raise ValueError("automorphism not admissible: " + "; ".join(bad))
    bad = check_contraction_assumptions(quiver, autom, pair)
    if bad:
        raise ValueError("contraction assumptions fail: " + "; ".join(bad))

    phi1 = len(pair.plus_orbit)
    hks = []
    cur = pair.edge
    for _ in range(phi1):
        cur = autom.apply_edge(cur)
        hks.append(cur)
    if len(set(hks)) != phi1 or hks[-1] != pair.edge:
        raise ValueError("contraction edge orbit is not aligned with the vertex orbit")
    minus_set = set(pair.minus_orbit)
    hk_at_target = {quiver.edge(h).target: h for h in hks}
    assert set(hk_at_target) == minus_set

    new_vertices = tuple(v for v in quiver.vertices if v not in minus_set)
    new_edges: list[Edge] = []
    provenance: dict[str, tuple] = {}

    for e in quiver.edges:
        if e.source in minus_set or e.target in minus_set:
            continue
        new_edges.append(e)
        provenance[e.id] = ("kept", e.id)
    for h_id in hks:
        h = quiver.edge(h_id)
        v = h.target
        for l1 in quiver.out_edges(v):
            new_id = f"{l1.id}*{h_id}"
            new_edges.append(Edge(new_id, h.source, l1.target))
            provenance[new_id] = ("post", l1.id, h_id)
        for l2 in quiver.in_edges(v):
            if l2.id == h_id:
                continue
            new_id = f"~{h_id}*{l2.id}"
            new_edges.append(Edge(new_id, l2.source, h.source))
            provenance[new_id] = ("pre", h_id, l2.id)

    vperm = {v: autom.apply_vertex(v) for v in new_vertices}
    eperm = {}
    for e in new_edges:
        kind = provenance[e.id]
        if kind[0] == "kept":
            eperm[e.id] = autom.apply_edge(e.id)
        elif kind[0] == "post":
            _, l1_id, h_id = kind
            eperm[e.id] = f"{autom.apply_edge(l1_id)}*{autom.apply_edge(h_id)}"
        else:
            _, h_id, l2_id = kind
            eperm[e.id] = f"~{autom.apply_edge(h_id)}*{autom.apply_edge(l2_id)}"

    contracted = Quiver(new_vertices, tuple(new_edges))
    new_autom = Automorphism(vperm, eperm)
    leftover = check_admissible(contracted, new_autom)
    assert not leftover, f"contracted automorphism not admissible: {leftover}"
    return ContractedQuiver(contracted, pair, tuple(hks), provenance, new_autom)


def cartan_contraction_commutes(quiver: Quiver, autom: Automorphism, pair: OrbitPair):
    """Contract at graph level, then compare Cartan data: the datum of the
    contracted graph against the contracted datum of the graph.

    Returns (agree, mapping, datum_from_graph, datum_from_cartan).
    """
    datum = cartan_of(quiver, autom)
    cpair = ContractionPair(plus=pair.plus_orbit[0], minus=pair.minus_orbit[0])
    via_cartan = contract_cartan(datum, cpair)
    result = contract_quiver(quiver, autom, pair)
    via_graph = cartan_of(result.quiver, result.autom)
    mapping = is_isomorphic(via_cartan, via_graph)
    return mapping is not None, mapping, via_graph, via_cartan
