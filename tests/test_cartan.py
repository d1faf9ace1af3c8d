"""Cartan data, contraction, the realizing graph, and reflections."""

import random
from dataclasses import replace

import pytest

from hallcontract.cartan import (
    CartanDatum,
    ContractionPair,
    RootDatum,
    WeylElement,
    build_root_datum,
    check_psi_identity,
    contract_cartan,
    generalized_reflection,
    merged_label,
    realize_graph,
    reflection,
    validate_cartan,
    validate_pair,
    weyl_word_search,
)
from hallcontract import quiver as qv

from conftest import (
    contractible_extension_datum,
    double_orbit_datum,
    kronecker_datum,
    mixed_orbit_datum,
    random_contractible_datum,
)


def a2_datum():
    return CartanDatum.make(("x", "y"), ((2, -1), (-1, 2)), (1, 1), (0, 0))


def _apply(w, y):
    """The Weyl element w applied to the Y-vector y."""
    return tuple(sum(a * b for a, b in zip(row, y)) for row in w.matrix)


def test_mixed_orbit_datum_is_valid():
    datum = mixed_orbit_datum()
    assert validate_cartan(datum) == []
    assert datum.value("a", "a") == -4
    assert datum.value("b", "b") == 0
    assert datum.value("a", "b") == -6
    assert datum.phi1_of("b") == 3
    with pytest.raises(KeyError, match="unknown label 'z'"):
        datum.value("a", "z")


def test_validation_catches_each_axiom():
    bad_diag = CartanDatum.make(("x",), ((3,),), (1,), (0,))
    assert any("expected 2" in p for p in validate_cartan(bad_diag))

    positive = CartanDatum.make(("x", "y"), ((2, 1), (1, 2)), (1, 1), (0, 0))
    assert any("must be <= 0" in p for p in validate_cartan(positive))

    indivisible = CartanDatum.make(("x", "y"), ((4, -3), (-3, 2)), (2, 1), (0, 0))
    assert any("does not divide" in p for p in validate_cartan(indivisible))

    lopsided = CartanDatum.make(("x", "y"), ((2, -1), (-2, 2)), (1, 1), (0, 0))
    assert any("not symmetric" in p for p in validate_cartan(lopsided))

    assert any("must be >= 1" in p for p in validate_cartan(
        CartanDatum.make(("x",), ((0,),), (0,), (0,))))

    assert validate_cartan(CartanDatum.make(("x",), ((4,),), (1,), (-1,))) == [
        "phi2(x) = -1 must be >= 0"]
    assert validate_cartan(CartanDatum.make(("x",), ((2,),), (1, 1), (0,))) == [
        "phi1/phi2 length mismatch"]


def test_pair_validation():
    datum = mixed_orbit_datum()
    # phi2 is nonzero everywhere here, so no pair is admissible
    assert validate_pair(datum, ContractionPair("a", "b"))
    assert validate_pair(datum, ContractionPair("a", "zzz"))
    assert validate_pair(datum, ContractionPair("a", "a"))
    # a.c = 0: even with good phi data the pair would be rejected
    problems = validate_pair(datum, ContractionPair("a", "c"))
    assert any("nonzero" in p for p in problems)

    good = kronecker_datum()
    assert validate_pair(good, ContractionPair("i+", "i-")) == []

    # the merged label "i++i-" must be new
    taken = CartanDatum.make(("i+", "i-", "i++i-"), ((2, -2, 0), (-2, 2, 0), (0, 0, 2)),
                             (1, 1, 1), (0, 0, 0))
    assert any("already a label" in p for p in validate_pair(
        taken, ContractionPair("i+", "i-")))
    with pytest.raises(ValueError):
        contract_cartan(taken, ContractionPair("i+", "i-"))

    # a form or weights that do not fit the labels leave the pair unjudged
    short = CartanDatum.make(("a", "b"), ((2,),), (1,), (0,))
    assert validate_pair(short, ContractionPair("a", "b")) == []
    assert validate_cartan(short) == ["form must be 2x2"]
    with pytest.raises(ValueError):
        check_psi_identity(short, ContractionPair("a", "b"))


def test_contract_kronecker_datum():
    out = contract_cartan(kronecker_datum(), ContractionPair("i+", "i-"))
    assert out.labels == ("i++i-",)
    assert out.form == ((0,),)
    assert out.phi1 == (1,)
    assert out.phi2 == (1,)


def test_contract_double_orbit_datum():
    out = contract_cartan(double_orbit_datum(), ContractionPair("i+", "i-"))
    assert out.form == ((-4,),)
    assert out.phi1 == (2,)
    assert out.phi2 == (2,)
    assert validate_cartan(out) == []


def test_contract_rejects_bad_pairs():
    with pytest.raises(ValueError):
        contract_cartan(mixed_orbit_datum(), ContractionPair("a", "b"))


def test_realize_graph_reproduces_the_datum():
    datum = mixed_orbit_datum()
    quiver, autom = realize_graph(datum)
    assert len(quiver.vertices) == 2 + 3 + 1
    loops = [e for e in quiver.edges if e.is_loop()]
    cross = [e for e in quiver.edges if not e.is_loop()]
    assert len(loops) == 2 * 2 + 1 * 3 + 3 * 1
    assert len(cross) == 6 + 3
    assert qv.check_admissible(quiver, autom) == []
    # each label's orbit is named by its vertex lab@0
    back = qv.cartan_of(quiver, autom)
    assert back == replace(datum, labels=("a@0", "b@0", "c@0"))


def test_realize_graph_rejects_invalid_data():
    for build in (realize_graph, build_root_datum):
        with pytest.raises(ValueError, match="invalid datum"):
            build(CartanDatum.make(("x",), ((3,),), (1,), (0,)))


def test_pairing_is_not_symmetric():
    rd = build_root_datum(mixed_orbit_datum())
    assert _pairing(rd, "a", "b") == -3
    assert _pairing(rd, "b", "a") == -2


def test_reflection_on_imaginary_label_is_not_an_involution():
    datum = mixed_orbit_datum()
    rd = build_root_datum(datum)
    s = reflection(rd, "a")
    # <a, a'> = a.a/phi1(a) = -2, so s_a(a) = 3a and s_a has infinite order
    assert _apply(s, rd.y_of("a")) == (3, 0, 0)
    assert (s @ s).matrix != WeylElement.identity(datum.labels).matrix


def test_reflection_is_an_involution_when_phi2_vanishes():
    datum = kronecker_datum()
    rd = build_root_datum(datum)
    for lab in datum.labels:
        s = reflection(rd, lab)
        assert (s @ s).matrix == WeylElement.identity(datum.labels).matrix
    assert _apply(reflection(rd, "i+"), rd.y_of("i-")) == (2, 1)


def test_double_orbit_reflection_matrices():
    rd = build_root_datum(double_orbit_datum())
    s_plus = reflection(rd, "i+")
    assert s_plus.matrix == ((-1, 3), (0, 1))
    middle = generalized_reflection(rd, {"i-": 1, "i+": 2})
    assert _apply(middle, rd.y_of("i+")) == (-1, -1)


def test_psi_identity_on_known_data():
    for datum, pair in (
            (kronecker_datum(), ContractionPair("i+", "i-")),
            (double_orbit_datum(), ContractionPair("i+", "i-")),
            contractible_extension_datum(),
    ):
        holds, lhs, rhs = check_psi_identity(datum, pair)
        assert holds
        assert lhs.labels == datum.labels


def test_psi_identity_random_spot_checks():
    rng = random.Random(7)
    for _ in range(25):
        datum, pair = random_contractible_datum(rng)
        holds, _, _ = check_psi_identity(datum, pair)
        assert holds


def test_psi_identity_rejects_invalid_input():
    with pytest.raises(ValueError):
        check_psi_identity(mixed_orbit_datum(), ContractionPair("a", "b"))


def test_word_search_finds_short_words():
    datum = a2_datum()
    rd = build_root_datum(datum)
    sx, sy = reflection(rd, "x"), reflection(rd, "y")
    assert weyl_word_search(datum, WeylElement.identity(datum.labels), 3) == []
    assert weyl_word_search(datum, sx, 3) == ["x"]
    word = weyl_word_search(datum, sx @ sy, 3)
    assert word == ["x", "y"]
    # the longest element; its word is rebuilt through two parent links
    assert weyl_word_search(datum, sx @ sy @ sx, 3) == ["x", "y", "x"]


def test_word_search_misses_the_merged_middle_factor():
    # det(s_{i- + 2 i+}) = 3 on this datum while every simple reflection has
    # determinant +-1, so no word can ever reach it; the search confirms the
    # absence up to depth 8
    datum = double_orbit_datum()
    rd = build_root_datum(datum)
    target = generalized_reflection(rd, {"i-": 1, "i+": 2})
    assert weyl_word_search(datum, target, max_depth=8) is None
    with pytest.raises(ValueError):
        weyl_word_search(datum, WeylElement.identity(("other",)), 2)


def test_contract_root_datum_merged_pairings():
    kron = kronecker_datum()
    rd = contract_root_datum(build_root_datum(kron),
                             ContractionPair("i+", "i-"), datum=kron)
    i0 = merged_label(ContractionPair("i+", "i-"))
    assert _pairing(rd, i0, i0) == 0

    double = double_orbit_datum()
    rd = contract_root_datum(build_root_datum(double),
                             ContractionPair("i+", "i-"), datum=double)
    assert _pairing(rd, i0, i0) == -2
    assert rd.y_of(i0) == (1, 1)


def test_weyl_element_dict_roundtrip():
    rd = build_root_datum(kronecker_datum())
    s = reflection(rd, "i+")
    assert WeylElement.from_dict(s.to_dict()) == s
    with pytest.raises(ValueError, match="label mismatch"):
        s @ WeylElement.identity(("i-", "i+"))


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def _merge_matrix(labels, pair):
    """M with one row per contracted label: e_{i+} + e_{i-} for i0, the unit
    vector of every other kept label."""
    return tuple(tuple(int(y == x or (x, y) == (pair.plus, pair.minus))
                       for y in labels)
                 for x in labels if x != pair.minus)


def _pairing(rd, a, b):
    """<y(a), x(b)> = a.b / phi1(a)."""
    return sum(y * x for y, x in zip(rd.y_of(a), rd.x_of(b)))


def contract_root_datum(rd, pair, datum):
    """The reference root datum of the contracted datum inside the same
    lattice: the merged label embeds as the sum of the pair's images on both
    sides, the merge matrix M applied to embed_y and to embed_x. Asserts
    that every embedded pairing is the contracted datum's own."""
    m = _merge_matrix(rd.labels, pair)
    i0 = merged_label(pair)
    labels = tuple(i0 if x == pair.plus else x for x in rd.labels if x != pair.minus)
    out = RootDatum(labels, _matmul(m, rd.embed_y), _matmul(m, rd.embed_x))
    contracted = contract_cartan(datum, pair)
    for a in labels:
        for b in labels:
            assert _pairing(out, a, b) == contracted.value(a, b) // contracted.phi1_of(a)
    return out


def _relabeled(datum, order):
    labels = [datum.labels[i] for i in order]
    return CartanDatum.make(labels, [[datum.form[i][j] for j in order] for i in order],
                            {x: datum.phi1_of(x) for x in labels},
                            {x: datum.phi2_of(x) for x in labels})


C01_SEED = 20260816  # test_c01_contraction_preserves_validity's data


def test_contraction_is_m_f_mt_on_random_data():
    """On c01's data, with the pair named minus-first and with the labels
    shuffled, the contracted form is M F M^T for the explicit merge matrix
    M, phi2hat(i0) = -(i+.i-)/phi1(i+) - 1, and the contracted root datum
    embeds i0 as M applied to both lattices, pairing as the contracted form."""
    rng, shuffle = random.Random(C01_SEED), random.Random(1)
    for _ in range(200):
        datum, pair = random_contractible_datum(rng)
        order = list(range(len(datum.labels)))
        shuffle.shuffle(order)
        for d, p in ((datum, ContractionPair(pair.minus, pair.plus)),
                     (_relabeled(datum, order), pair)):
            m = _merge_matrix(d.labels, p)
            out = contract_cartan(d, p)
            i0 = merged_label(p)
            assert out.labels == tuple(i0 if x == p.plus else x
                                       for x in d.labels if x != p.minus)
            assert out.form == _matmul(_matmul(m, d.form), tuple(zip(*m)))
            phi2hat = -d.value(p.plus, p.minus) // d.phi1_of(p.plus) - 1
            for x in out.labels:
                assert out.phi1_of(x) == d.phi1_of(p.plus if x == i0 else x)
                assert out.phi2_of(x) == (phi2hat if x == i0 else d.phi2_of(x))
            contract_root_datum(build_root_datum(d), p, d)
