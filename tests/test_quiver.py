"""Graphs, admissible automorphisms, and edge contraction."""

import random
from dataclasses import replace

import pytest

from hallcontract.cartan import ContractionPair, contract_cartan, realize_graph
from hallcontract.quiver import (
    Automorphism,
    Edge,
    OrbitPair,
    Quiver,
    cartan_contraction_commutes,
    cartan_of,
    check_admissible,
    check_contraction_assumptions,
    contract_quiver,
    identity_automorphism,
    make_orbit_pair,
    vertex_orbits,
)

from conftest import (
    double_orbit_datum,
    jordan_quiver,
    kronecker_quiver,
    kronecker_datum,
    mixed_orbit_datum,
    random_contractible_datum,
)


def path_quiver():
    return Quiver(("i+", "i-", "k"),
                  (Edge("e", "i+", "i-"), Edge("g", "i-", "k")))


def test_quiver_construction_rejects_malformed_input():
    with pytest.raises(ValueError):
        Quiver(("v", "v"), ())
    with pytest.raises(ValueError):
        Quiver(("v",), (Edge("e", "v", "w"),))
    with pytest.raises(ValueError):
        Quiver(("v",), (Edge("e", "v", "v"), Edge("e", "v", "v")))


def test_identity_is_admissible_even_with_loops():
    quiver = jordan_quiver()
    autom = identity_automorphism(quiver)
    assert check_admissible(quiver, autom) == []
    assert autom.is_identity(quiver)


def test_vertex_swap_on_kronecker_is_inadmissible():
    quiver = kronecker_quiver()
    swap = Automorphism({"p": "m", "m": "p"}, {"e": "f", "f": "e"})
    problems = check_admissible(quiver, swap)
    assert problems
    assert any("inside one vertex orbit" in p for p in problems)
    with pytest.raises(ValueError):
        cartan_of(quiver, swap)


def test_automorphism_must_be_a_permutation():
    quiver = kronecker_quiver()
    broken = Automorphism({"p": "p", "m": "p"}, {"e": "e", "f": "f"})
    assert check_admissible(quiver, broken)


def test_cartan_of_small_graphs():
    jordan = cartan_of(jordan_quiver(), identity_automorphism(jordan_quiver()))
    assert jordan.form == ((0,),)
    assert jordan.phi1 == (1,)
    assert jordan.phi2 == (1,)

    kron = cartan_of(kronecker_quiver(), identity_automorphism(kronecker_quiver()))
    assert kron == replace(kronecker_datum(), labels=("p", "m"))


def test_cartan_of_realized_graph_matches_the_datum():
    datum = mixed_orbit_datum()
    quiver, autom = realize_graph(datum)
    # each label's orbit is named by its vertex lab@0
    assert cartan_of(quiver, autom) == replace(datum, labels=("a@0", "b@0", "c@0"))
    orbits = vertex_orbits(quiver, autom)
    assert sorted(len(o) for o in orbits) == [1, 2, 3]


def test_make_orbit_pair_resolves_edges_and_roles():
    quiver = kronecker_quiver()
    autom = identity_automorphism(quiver)

    pair = make_orbit_pair(quiver, autom, "p", "m")
    assert (pair.plus_orbit, pair.minus_orbit, pair.edge, pair.swapped) == (
        ("p",), ("m",), "e", False)

    pair = make_orbit_pair(quiver, autom, "p", "m", "f")
    assert pair.edge == "f"

    # no edge leaves the m side, so the roles flip and the flip is recorded
    pair = make_orbit_pair(quiver, autom, "m", "p")
    assert (pair.plus_orbit, pair.minus_orbit, pair.swapped) == (("p",), ("m",), True)

    with pytest.raises(ValueError):
        make_orbit_pair(quiver, autom, "p", "p")
    lonely = Quiver(("p", "m"), ())
    with pytest.raises(ValueError):
        make_orbit_pair(lonely, identity_automorphism(lonely), "p", "m")


def test_make_orbit_pair_with_a_named_edge():
    # a named edge given against its direction swaps the roles, not the edge
    quiver = kronecker_quiver()
    pair = make_orbit_pair(quiver, identity_automorphism(quiver), "m", "p", "f")
    assert (pair.plus_orbit, pair.minus_orbit, pair.edge, pair.swapped) == (
        ("p",), ("m",), "f", True)

    looped = Quiver(("p", "m"), quiver.edges + (Edge("l", "p", "p"),))
    with pytest.raises(ValueError, match="edge 'l' does not join the two orbits"):
        make_orbit_pair(looped, identity_automorphism(looped), "p", "m", "l")


def test_contraction_assumptions():
    quiver = kronecker_quiver()
    autom = identity_automorphism(quiver)
    pair = make_orbit_pair(quiver, autom, "p", "m")
    assert check_contraction_assumptions(quiver, autom, pair) == []

    # crossing parallels: the second edge orbit connects mismatched vertices
    crossing = Quiver(
        ("p0", "p1", "m0", "m1"),
        (Edge("h0", "p0", "m0"), Edge("h1", "p1", "m1"),
         Edge("c0", "p0", "m1"), Edge("c1", "p1", "m0")))
    cautom = Automorphism(
        {"p0": "p1", "p1": "p0", "m0": "m1", "m1": "m0"},
        {"h0": "h1", "h1": "h0", "c0": "c1", "c1": "c0"})
    assert check_admissible(crossing, cautom) == []
    cpair = make_orbit_pair(crossing, cautom, "p0", "m0", "h0")
    problems = check_contraction_assumptions(crossing, cautom, cpair)
    assert any("parallel edges" in p for p in problems)

    looped = Quiver(("v", "w"), (Edge("e", "v", "w"), Edge("l", "w", "w")))
    lautom = identity_automorphism(looped)
    lpair = make_orbit_pair(looped, lautom, "v", "w")
    problems = check_contraction_assumptions(looped, lautom, lpair)
    assert any("loop" in p for p in problems)

    unequal = OrbitPair(("p",), ("m0", "m1"), "e0")
    fan = Quiver(("p", "m0", "m1"),
                 (Edge("e0", "p", "m0"), Edge("e1", "p", "m1")))
    fautom = Automorphism({"p": "p", "m0": "m1", "m1": "m0"},
                          {"e0": "e1", "e1": "e0"})
    problems = check_contraction_assumptions(fan, fautom, unequal)
    assert any("orbit sizes differ" in p for p in problems)


def test_contract_kronecker_gives_one_loop():
    quiver = kronecker_quiver()
    autom = identity_automorphism(quiver)
    pair = make_orbit_pair(quiver, autom, "p", "m", "e")
    con = contract_quiver(quiver, autom, pair)
    assert con.quiver.vertices == ("p",)
    assert [e.id for e in con.quiver.edges] == ["~e*f"]
    assert con.quiver.edges[0].is_loop()
    assert con.provenance["~e*f"] == ("pre", "e", "f")
    assert con.contraction_edges == ("e",)
    datum = cartan_of(con.quiver, con.autom)
    assert datum.form == ((0,),)
    assert datum.phi2 == (1,)


def test_contract_path_gives_post_composite():
    quiver = path_quiver()
    autom = identity_automorphism(quiver)
    pair = make_orbit_pair(quiver, autom, "i+", "i-", "e")
    con = contract_quiver(quiver, autom, pair)
    assert con.quiver.vertices == ("i+", "k")
    assert [e.id for e in con.quiver.edges] == ["g*e"]
    edge = con.quiver.edges[0]
    assert (edge.source, edge.target) == ("i+", "k")
    assert con.provenance["g*e"] == ("post", "g", "e")


def test_contract_realized_double_orbit_graph():
    quiver, autom = realize_graph(double_orbit_datum())
    pair = make_orbit_pair(quiver, autom, "i+@0", "i-@0")
    con = contract_quiver(quiver, autom, pair)
    assert len(con.quiver.vertices) == 2
    for v in con.quiver.vertices:
        assert len(con.quiver.loops_at(v)) == 2
    assert check_admissible(con.quiver, con.autom) == []
    datum = cartan_of(con.quiver, con.autom)
    assert datum.form == ((-4,),)
    assert datum.phi1 == (2,)
    assert datum.phi2 == (2,)


def test_loop_count_matches_contracted_phi2():
    rng = random.Random(11)
    for _ in range(10):
        datum, cpair = random_contractible_datum(rng)
        quiver, autom = realize_graph(datum)
        pair = make_orbit_pair(quiver, autom, "p0@0", "m0@0")
        con = contract_quiver(quiver, autom, pair)
        want = contract_cartan(datum, cpair).phi2_of(
            f"{cpair.plus}+{cpair.minus}")
        got = len(con.quiver.loops_at(pair.plus_orbit[0]))
        assert got == want
        assert all(kind[0] in ("kept", "post", "pre")
                   for kind in con.provenance.values())


def test_contraction_commutes_with_cartan_data():
    """The merged label maps to the plus vertex, every other label to itself."""
    for quiver, plus, minus, want in (
            (kronecker_quiver(), "p", "m", {"p+m": "p"}),
            (path_quiver(), "i+", "i-", {"i++i-": "i+", "k": "k"}),
            # a label between the pair keeps its place
            (Quiver(("p", "a", "m"), (Edge("e", "p", "m"), Edge("f", "p", "m"),
                                      Edge("g", "a", "p"), Edge("h", "a", "m"))),
             "p", "m", {"p+m": "p", "a": "a"}),
    ):
        autom = identity_automorphism(quiver)
        pair = make_orbit_pair(quiver, autom, plus, minus)
        agree, mapping, via_graph, via_cartan = cartan_contraction_commutes(
            quiver, autom, pair)
        assert agree
        assert mapping == want
        assert via_graph.labels == tuple(want.values())
        assert via_cartan.labels == tuple(want)

    quiver, autom = realize_graph(double_orbit_datum())
    pair = make_orbit_pair(quiver, autom, "i+@0", "i-@0")
    agree, mapping, _, _ = cartan_contraction_commutes(quiver, autom, pair)
    assert agree
    assert mapping == {"i+@0+i-@0": "i+@0"}


def test_dict_roundtrip_keeps_the_automorphism():
    quiver, autom = realize_graph(double_orbit_datum())
    payload = quiver.to_dict(autom)
    quiver2, autom2 = Quiver.from_dict(payload)
    assert quiver2 == quiver
    assert autom2.vperm == autom.vperm
    assert autom2.eperm == autom.eperm

    # identity automorphisms serialize implicitly
    plain = kronecker_quiver().to_dict(identity_automorphism(kronecker_quiver()))
    assert "automorphism" not in plain
    quiver3, autom3 = Quiver.from_dict(plain)
    assert autom3.is_identity(quiver3)


def test_content_hash_tracks_structure():
    q1 = kronecker_quiver()
    q2 = kronecker_quiver()
    assert q1.content_hash() == q2.content_hash()
    renamed = Quiver(("p", "m"), (Edge("e", "p", "m"), Edge("f2", "p", "m")))
    assert renamed.content_hash() != q1.content_hash()
