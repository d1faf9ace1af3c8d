"""Representation spaces over F_q: points, orbits, hearts, extensions."""

import json

import pytest

from hallcontract.cache import OrbitCache
from hallcontract.ffalg import EnumerationBoundError, Field, Mat, gl_order
from hallcontract.quiver import contract_quiver, identity_automorphism, make_orbit_pair
from hallcontract.repspace import (
    RepSpace,
    UnsupportedAutomorphismError,
    _generator_images,
    act,
    contract_point,
    direct_sum_point,
    enumerate_group,
    enumerate_points,
    extension_count,
    extensions_over,
    fiber_of_contraction,
    group_generators,
    group_identity,
    group_order,
    is_heart,
    is_stable,
    orbits,
    quotient_point,
    stable_subspaces,
    sub_point,
    sub_dims_of,
)
from hallcontract.ffalg import Subspace
from hallcontract.cartan import realize_graph

from conftest import (a1_quiver, double_orbit_datum, jordan_quiver,
                      kronecker_quiver)


def jordan_space(n, q=2):
    return RepSpace(jordan_quiver(), Field(q), {"1": n})


def kron_space(dims, q=2):
    quiver = kronecker_quiver()
    return RepSpace(quiver, Field(q), {"p": dims[0], "m": dims[1]})


def kron_contraction():
    quiver = kronecker_quiver()
    autom = identity_automorphism(quiver)
    pair = make_orbit_pair(quiver, autom, "p", "m", "e")
    return contract_quiver(quiver, autom, pair)


def test_point_counts():
    assert jordan_space(1).total_points == 2
    assert jordan_space(2).total_points == 16
    assert kron_space((1, 1)).total_points == 4
    assert jordan_space(0).total_points == 1


def test_rank_is_a_point_bijection():
    space = jordan_space(2)
    seen = set()
    for x in enumerate_points(space):
        r = space.point_rank(x)
        assert space.point_from_rank(r) == x
        seen.add(r)
    assert seen == set(range(space.total_points))
    assert space.point_rank(space.zero_point()) == 0


def test_action_satisfies_group_laws():
    space = jordan_space(2)
    e = group_identity(space)
    group = enumerate_group(space)
    assert len(group) == group_order(space) == 6
    x = space.point_from_rank(7)
    assert act(space, e, x) == x
    for g in group[:3]:
        for h in group[3:]:
            gh = tuple(a @ b for a, b in zip(g, h))
            assert act(space, gh, x) == act(space, g, act(space, h, x))


def test_conjugation_example():
    space = jordan_space(2)
    f = space.field
    swap = (Mat(f, ((0, 1), (1, 0))),)
    x = (Mat(f, ((0, 1), (0, 0))),)
    assert act(space, swap, x) == (Mat(f, ((0, 0), (1, 0))),)


def test_scalar_action_over_f3():
    space = kron_space((1, 1), q=3)
    f = space.field
    g = (Mat(f, ((1,),)), Mat(f, ((2,),)))
    x = (Mat(f, ((1,),)), Mat(f, ((0,),)))
    # (g.x)_h = g_m x_h g_p^{-1} doubles each entry here
    assert act(space, g, x) == (Mat(f, ((2,),)), Mat(f, ((0,),)))


def test_jordan_orbit_table():
    table = orbits(jordan_space(2))
    assert table.count == 6
    assert table.sizes == [1, 6, 3, 3, 2, 1]
    assert sum(table.sizes) == 16
    # ordinal 2 is the nilpotent class, entered at [[0,0],[1,0]]
    f = Field(2)
    assert table.representative(2) == (Mat(f, ((0, 0), (1, 0))),)
    assert table.representative(0) == (jordan_space(2).zero_point())
    assert table.orbit_id(2) == "o2"
    assert table.ordinal_of_id("o2") == 2
    with pytest.raises(KeyError):
        table.ordinal_of_id("o9")
    with pytest.raises(KeyError):
        table.ordinal_of_id("x1")


def test_kronecker_orbits_over_f3():
    table = orbits(kron_space((1, 1), q=3))
    assert table.count == 5
    assert sorted(table.sizes) == [1, 2, 2, 2, 2]


def test_zero_dimension_space_has_one_orbit():
    table = orbits(jordan_space(0))
    assert table.count == 1
    assert table.sizes == [1]


def similarity_classes(n, q):
    """Similarity classes of n x n matrices over F_q: the coefficient of x^n
    in prod_{k>=1} 1 / (1 - q x^k), that is, the sum of q^(number of parts)
    over the partitions of n (Kac 1983; Hua, J. Algebra 226, 2000)."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            series[i] += q * series[i - k]
    return series[n]


def test_similarity_class_formula():
    # q^4 + q^3 + 2q^2 + q at n = 4
    assert [similarity_classes(n, 2) for n in range(5)] == [1, 2, 6, 14, 34]
    assert similarity_classes(2, 3) == 12


def test_jordan_orbits_are_similarity_classes():
    for q in (5, 7, 8, 9):
        table = orbits(jordan_space(2, q=q))
        assert table.count == similarity_classes(2, q) == q * q + q
        assert sum(table.sizes) == q ** 4


def _images_by_act(space, code):
    x = space.point_from_rank(code)
    return [space.point_rank(act(space, g, x)) for g in group_generators(space)]


def test_code_kernel_matches_act():
    # every generator on every code; the spaces cover q = 2, 3, 4, 5, 7, 8, 9,
    # one and several lookup chunks, and spaces without entries
    spaces = (RepSpace(a1_quiver(), Field(3), {"1": 2}), jordan_space(0, q=5),
              jordan_space(1), kron_space((1, 1), q=7), jordan_space(2),
              jordan_space(3), kron_space((1, 3), q=3), jordan_space(2, q=3),
              jordan_space(2, q=4), kron_space((1, 2), q=5),
              kron_space((1, 1), q=8), kron_space((1, 1), q=9))
    for space in spaces:
        images = _generator_images(space)
        for r in range(space.total_points):
            assert images(r) == _images_by_act(space, r), (space, r)


def test_code_kernel_with_three_chunks():
    # 3^12 codes, three chunks of digits: a spread of codes, not all of them
    space = kron_space((2, 3), q=3)
    images = _generator_images(space)
    for r in range(0, space.total_points, 4099):
        assert images(r) == _images_by_act(space, r), r


def test_orbit_sizes_divide_group_order():
    for space in (jordan_space(2), kron_space((2, 1)), kron_space((1, 1), q=3)):
        table = orbits(space)
        order = group_order(space)
        assert all(order % s == 0 for s in table.sizes)


def test_orbit_tables_agree_with_burnside_and_stabilisers():
    # every count below is taken over the whole group, never the generators;
    # (1, 3) has a 3-dimensional vertex, so the swap generator is exercised
    spaces = (jordan_space(2), jordan_space(2, q=4), kron_space((1, 1), q=3),
              kron_space((2, 2)), kron_space((1, 3)), jordan_space(2, q=3),
              kron_space((1, 1), q=9))
    for space in spaces:
        table = orbits(space)
        group = enumerate_group(space)
        order = group_order(space)
        assert len(group) == order
        points = list(enumerate_points(space))
        fixed = sum(1 for g in group for x in points if act(space, g, x) == x)
        assert table.count * order == fixed
        for k in range(table.count):
            rep = table.representative(k)
            images = [act(space, g, rep) for g in group]
            stabiliser = sum(1 for y in images if y == rep)
            assert table.sizes[k] * stabiliser == order
            assert all(table.ordinal_of(y) == k for y in images)
            assert table.index.count(k) == table.sizes[k]


def test_representatives_are_rank_least():
    table = orbits(jordan_space(2))
    for k in range(table.count):
        ranks = [table.space.point_rank(x) for x in table.points_of(k)]
        assert table.rep_ranks[k] == min(ranks)
        assert len(ranks) == table.sizes[k]


def test_orbit_cache_roundtrip(tmp_path):
    space = jordan_space(2)
    cache = OrbitCache(str(tmp_path))
    first = orbits(space, cache=cache)
    assert len(cache.entries()) == 1
    again = orbits(space, cache=OrbitCache(str(tmp_path)))
    assert again.index == first.index and again.sizes == first.sizes

    # an entry whose sizes disagree with its index is recomputed and replaced
    doctored = first.to_payload()
    doctored["sizes"] = list(reversed(first.sizes))
    cache.store(space.cache_key(), doctored)
    assert orbits(space, cache=cache).sizes == first.sizes
    assert cache.load(space.cache_key()) == first.to_payload()

    # corrupt entries fall back to recomputation
    path = cache._path(space.cache_key())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert orbits(space, cache=cache).sizes == first.sizes
    assert cache.purge() >= 1
    assert cache.entries() == []


def test_malformed_cache_entries_are_misses(tmp_path):
    space = jordan_space(2)
    cache = OrbitCache(str(tmp_path))
    first = orbits(space, cache=cache)
    key = space.cache_key()
    malformed = ["[1, 2]", '"text"', {"key": key}, {"key": key, "value": [1, 2]},
                 {"key": key, "value": {"index": first.index, "sizes": first.sizes}}]
    for entry in malformed:
        with open(cache._path(key), "w", encoding="utf-8") as fh:
            fh.write(entry if isinstance(entry, str) else json.dumps(entry))
        table = orbits(space, cache=cache)
        assert (table.index, table.sizes, table.rep_ranks) == (
            first.index, first.sizes, first.rep_ranks)
    with open(cache._path(key), "w", encoding="utf-8") as fh:
        fh.write("[1, 2]")
    assert cache.load(key) is None
    assert cache.entries()[0]["key"].startswith("(unreadable")


def test_entries_that_do_not_fit_the_space_are_recomputed(tmp_path):
    space = jordan_space(2)
    cache = OrbitCache(str(tmp_path))
    good = orbits(space, cache=cache).to_payload()
    index, sizes, reps = good["index"], good["sizes"], good["rep_ranks"]
    swapped = {1: 2, 2: 1}
    forged = [
        dict(good, index=index[:-1]),
        dict(good, index=index[:-1] + [len(sizes)]),
        dict(good, index=[-1] + index[1:]),
        # still increasing, but the last point is not where the last ordinal starts
        dict(good, rep_ranks=reps[:-1] + [len(index) - 1]),
        # ordinals 1 and 2 relabelled: consistent, but not met in order
        {"index": [swapped.get(k, k) for k in index],
         "sizes": [sizes[swapped.get(k, k)] for k in range(len(sizes))],
         "rep_ranks": [reps[swapped.get(k, k)] for k in range(len(reps))]},
        dict(good, sizes=[float(v) for v in sizes]),
        dict(good, index=[False if k == 0 else k for k in index]),
        dict(good, sizes="123456"),
        # one orbit of 16 points: consistent, but 16 does not divide |GL_2(F_2)|
        {"index": [0] * 16, "sizes": [16], "rep_ranks": [0]},
    ]
    for payload in forged:
        cache.store(space.cache_key(), payload)
        assert orbits(space, cache=cache).to_payload() == good, payload
        assert cache.load(space.cache_key()) == good


def test_nontrivial_automorphism_is_refused():
    quiver, autom = realize_graph(double_orbit_datum())
    dims = {v: 1 for v in quiver.vertices}
    with pytest.raises(UnsupportedAutomorphismError):
        RepSpace(quiver, Field(2), dims, autom=autom)
    # the identity is fine when passed explicitly
    RepSpace(kronecker_quiver(), Field(2), {"p": 1, "m": 1},
             autom=identity_automorphism(kronecker_quiver()))


def test_enumeration_bounds():
    with pytest.raises(EnumerationBoundError):
        list(enumerate_points(jordan_space(2), max_points=8))
    with pytest.raises(EnumerationBoundError):
        orbits(jordan_space(3), max_points=100)
    with pytest.raises(EnumerationBoundError):
        enumerate_group(kron_space((2, 2), q=3), max_count=10)


def test_heart_membership():
    space = kron_space((1, 1))
    con = kron_contraction()
    f = space.field
    hearts = [x for x in enumerate_points(space) if is_heart(space, con, x)]
    assert hearts == [
        (Mat(f, ((1,),)), Mat(f, ((0,),))),
        (Mat(f, ((1,),)), Mat(f, ((1,),))),
    ]


def test_heart_is_group_stable():
    space = kron_space((2, 2))
    con = kron_contraction()
    gens = group_generators(space)
    for x in enumerate_points(space):
        if not is_heart(space, con, x):
            continue
        for g in gens:
            assert is_heart(space, con, act(space, g, x))


def test_contract_point_values():
    space = kron_space((1, 1))
    con = kron_contraction()
    f = space.field
    hat = RepSpace(con.quiver, f, {"p": 1})
    x10 = (Mat(f, ((1,),)), Mat(f, ((0,),)))
    x11 = (Mat(f, ((1,),)), Mat(f, ((1,),)))
    assert contract_point(space, con, x10, hat) == (Mat(f, ((0,),)),)
    assert contract_point(space, con, x11, hat) == (Mat(f, ((1,),)),)
    with pytest.raises(ValueError):
        contract_point(space, con, space.zero_point(), hat)

    f3 = Field(3)
    space3 = kron_space((1, 1), q=3)
    hat3 = RepSpace(con.quiver, f3, {"p": 1})
    x = (Mat(f3, ((2,),)), Mat(f3, ((1,),)))
    # the pre composite reads x_e^{-1} x_f = 2^{-1} = 2
    assert contract_point(space3, con, x, hat3) == (Mat(f3, ((2,),)),)

    big = kron_space((2, 2))
    bighat = RepSpace(con.quiver, f, {"p": 2})
    xe = Mat.identity(f, 2)
    xf = Mat(f, ((0, 1), (0, 0)))
    assert contract_point(big, con, (xe, xf), bighat) == (xf,)


def test_contract_point_is_equivariant_in_the_kept_part():
    space = kron_space((2, 2))
    con = kron_contraction()
    f = space.field
    hat = RepSpace(con.quiver, f, {"p": 2})
    xs = [x for x in enumerate_points(space) if is_heart(space, con, x)][:5]
    gs = enumerate_group(space)[::7]
    for x in xs:
        xhat = contract_point(space, con, x, hat)
        for g in gs:
            lhs = contract_point(space, con, act(space, g, x), hat)
            rhs = act(hat, (g[0],), xhat)
            assert lhs == rhs


def test_fibers_have_gl_size():
    con = kron_contraction()
    for q, dims, expected in ((2, (1, 1), 1), (3, (1, 1), 2), (2, (2, 2), 6)):
        space = kron_space(dims, q=q)
        hat = RepSpace(con.quiver, space.field, {"p": dims[0]})
        xhat = hat.zero_point()
        fiber = list(fiber_of_contraction(space, con, xhat, hat))
        assert len(fiber) == expected == gl_order(dims[0], q)
        for y in fiber:
            assert contract_point(space, con, y, hat) == xhat


def test_stable_line_counts():
    space = jordan_space(2)
    f = space.field
    nilpotent = (Mat(f, ((0, 0), (1, 0))),)
    assert len(stable_subspaces(space, nilpotent, {"1": 1})) == 1
    assert len(stable_subspaces(space, space.zero_point(), {"1": 1})) == 3
    identity = (Mat.identity(f, 2),)
    assert len(stable_subspaces(space, identity, {"1": 1})) == 3
    for U in stable_subspaces(space, nilpotent, {"1": 1}):
        assert is_stable(space, nilpotent, U)
        assert sub_dims_of(U) == {"1": 1}


def test_extensions_recover_sub_and_quotient():
    space = jordan_space(1)
    big = jordan_space(2)
    f = space.field
    xt = (Mat(f, ((1,),)),)
    xw = (Mat(f, ((0,),)),)
    ys = list(extensions_over(space, space, xt, xw, big))
    assert len(ys) == extension_count(space, space) == 2
    U = {"1": Subspace.spanned_by(f, 2, [(0, 1)])}
    for y in ys:
        assert is_stable(big, y, U)
        assert sub_point(big, y, U) == xw
        assert quotient_point(big, y, U) == xt
    assert direct_sum_point(space, space, xt, xw) in ys


def test_extension_counts():
    jo = RepSpace(jordan_quiver(), Field(2), {"1": 1})
    assert extension_count(jo, jo) == 2
    k = kron_space((1, 1))
    assert extension_count(k, k) == 4
    assert len(list(extensions_over(k, k, k.zero_point(), k.zero_point()))) == 4
    with pytest.raises(EnumerationBoundError):
        list(extensions_over(kron_space((3, 3)), kron_space((3, 3)),
                             kron_space((3, 3)).zero_point(),
                             kron_space((3, 3)).zero_point(), max_count=10))


def test_extension_is_heart_iff_both_factors_are():
    space = kron_space((1, 1))
    big = kron_space((2, 2))
    con = kron_contraction()
    for xt in enumerate_points(space):
        for xw in enumerate_points(space):
            both = is_heart(space, con, xt) and is_heart(space, con, xw)
            for y in extensions_over(space, space, xt, xw, big):
                assert is_heart(big, con, y) == both
