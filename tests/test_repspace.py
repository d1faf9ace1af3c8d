"""Representation spaces over F_q: points, orbits, hearts, extensions."""

import hashlib
import itertools
import json
import os
import tracemalloc

import pytest

from hallcontract.cache import FileError, OrbitCache
from hallcontract import repspace
from hallcontract.ffalg import (EnumerationBoundError, Field, Mat, block2x2,
                                gl_generators, gl_order)
from hallcontract.quiver import (Edge, Quiver, contract_quiver,
                                 identity_automorphism, make_orbit_pair)
from hallcontract.repspace import (
    OrbitTable,
    RepSpace,
    _divides_group_order,
    _generator_tables,
    act,
    contract_point,
    enumerate_group,
    enumerate_points,
    extension_count,
    extensions_over,
    fiber_of_contraction,
    group_generators,
    group_order,
    is_heart,
    is_stable,
    orbits,
    quotient_point,
    stable_subspaces,
    sub_point,
)
from hallcontract.ffalg import Subspace
from hallcontract.hall import (HallContext, _ext_table, _flag_table, char_function,
                               diagram_star_oracle)

from conftest import (a1_quiver, flag_table_by_mat, jordan_quiver, kronecker_quiver,
                      packed_index)


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


def loop_and_edge_quiver():
    return Quiver(("1", "2"), (Edge("a", "1", "1"), Edge("b", "1", "2")))


@pytest.mark.parametrize("space", [
    jordan_space(2),
    RepSpace(a1_quiver(), Field(3), {"1": 2}),
    kron_space((1, 2), q=3),
    kron_space((2, 1), q=3),
    kron_space((0, 2)),
    RepSpace(loop_and_edge_quiver(), Field(3), {"1": 2, "2": 1}),
], ids=["jordan-2", "a1", "kron-1-2", "kron-2-1", "kron-0-2", "loop-and-edge"])
def test_points_are_enumerated_in_rank_order(space):
    """enumerate_points yields point_from_rank(0), ..., point_from_rank(N - 1)
    in that order: no edges (one point ()), an edge with no entries, several
    edges of one shape, and a loop beside an edge of another shape."""
    points = list(enumerate_points(space))
    assert points == [space.point_from_rank(r) for r in range(space.total_points)]
    assert [space.point_rank(x) for x in points] == list(range(space.total_points))
    assert points[0] == tuple(Mat.zeros(space.field, r, c)
                              for r, c in space.edge_shapes)


def test_one_edge_enumeration_is_streamed():
    """The points of a one-edge space are streamed, not held: a pass over
    Jordan q = 8 (2,), 4,096 points, keeps its traced peak under 64 KiB (an
    enumeration that held the edge's matrices would take about 880 KiB).
    A first untraced pass fills the interpreter's free lists, whose objects
    would otherwise count as traced."""
    space = jordan_space(2, q=8)
    for _ in enumerate_points(space):
        pass
    tracemalloc.start()
    try:
        for _ in enumerate_points(space):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_action_satisfies_group_laws():
    space = jordan_space(2)
    e = tuple(Mat.identity(space.field, n) for n in space.key)
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
    assert table.representative(0) == (Mat.zeros(f, 2, 2),)
    assert table.orbit_id(2) == "o2"
    assert table.ordinal_of_id("o2") == 2
    with pytest.raises(KeyError):
        table.ordinal_of_id("o9")
    with pytest.raises(KeyError):
        table.ordinal_of_id("x1")
    # only the canonical spelling "o{k}" names orbit k
    for spelling in ("o01", "o+1", "o 1", "o0_1", "o\uff11", "o1 ", "o", "oNone",
                     "O1", "o1.0", 1, None):
        with pytest.raises(KeyError):
            table.ordinal_of_id(spelling)


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


@pytest.mark.parametrize("q,classes", [(3, 39), (4, 84)])
def test_two_generators_close_all_of_gl3(q, classes):
    # GL_3 acts on Jordan (3,) by conjugation, closed here under {D, C T}
    # alone: were they to generate a proper subgroup, some similarity
    # class would split into several orbits
    space = jordan_space(3, q=q)
    assert len(group_generators(space)) == 2
    table = orbits(space)
    assert table.count == similarity_classes(3, q) == classes
    assert sum(table.sizes) == q ** 9


def _as_group_element(space, generator):
    """A generator (vertex index, gamma) as a full tuple for act: gamma at
    its vertex, the identity elsewhere."""
    vi, gamma = generator
    g = [Mat.identity(space.field, n) for n in space.key]
    g[vi] = gamma
    return tuple(g)


def _images_by_act(space, code):
    x = space.point_from_rank(code)
    return [space.point_rank(act(space, _as_group_element(space, g), x))
            for g in group_generators(space)]


def _closure_images(space):
    """A function taking a code to the codes of its images under every group
    generator, read off the two tables _close_orbits reads, as it reads them:
    a clean slot (a (shift, mask) pair) with one shift and mask, a mixed one
    as the sum of its reducer lookups."""
    (lo, hi), low, reads = _generator_tables(space)
    p = space.field.p

    def read(v, slot):
        if type(slot) is tuple:
            s, m = slot
            return v >> s & m
        return sum(t[v >> s & m] for t, s, m in slot)

    def images(code):
        if p == 2:
            v = hi[code >> low] ^ lo[code & (1 << low) - 1]
        else:
            v = hi[code // p ** low] + lo[code % p ** low]
        return [read(v, slot) for slot in reads]
    return images


def test_code_kernel_matches_act():
    # every generator on every code; the spaces cover q = 2, 3, 4, 5, 7, 8,
    # 9, 16, 25, 27, codes of one digit (no high digits), of an odd
    # number of digits (uneven halves) at p = 2 and at odd p, spaces
    # without entries, a cut inside a matrix (Jordan q = 3 (3,), whose
    # generator C T is mixed) and a cut inside one F_9 entry (one edge
    # (1,1), whose diagonals are mixed)
    one_edge = Quiver(("a", "b"), (Edge("e", "a", "b"),))
    split_entry = RepSpace(one_edge, Field(9), {"a": 1, "b": 1})
    spaces = (RepSpace(a1_quiver(), Field(3), {"1": 2}), jordan_space(0, q=5),
              jordan_space(1), kron_space((1, 1), q=7), jordan_space(2),
              jordan_space(3), kron_space((1, 3), q=3), jordan_space(2, q=3),
              jordan_space(3, q=3), jordan_space(2, q=4), kron_space((1, 2), q=5),
              kron_space((1, 1), q=8), kron_space((1, 1), q=9), split_entry,
              RepSpace(one_edge, Field(5), {"a": 1, "b": 1}),
              RepSpace(one_edge, Field(3), {"a": 3, "b": 1}),
              RepSpace(one_edge, Field(2), {"a": 1, "b": 3}),
              jordan_space(1, q=8), jordan_space(1, q=16),
              jordan_space(1, q=25), jordan_space(1, q=27))
    digit_counts = {(s.field.p, s.field.e * s.point_entries) for s in spaces}
    assert {(2, 1), (5, 1), (2, 3), (2, 9), (3, 3), (3, 9)} <= digit_counts
    _, _, reads = _generator_tables(split_entry)
    assert [type(read) for read in reads] == [list, list], reads
    for space in spaces:
        images = _closure_images(space)
        for r in range(space.total_points):
            assert images(r) == _images_by_act(space, r), (space, r)


def test_code_kernel_on_a_large_odd_space():
    # 3^12 codes, two tables of six digits each: a spread of codes, not all
    space = kron_space((2, 3), q=3)
    images = _closure_images(space)
    for r in range(0, space.total_points, 4099):
        assert images(r) == _images_by_act(space, r), r


def test_edge_aligned_cuts_read_every_slot_without_reducers(monkeypatch):
    # the cut between the two tables falls on an edge boundary, and a map
    # x_h -> L x_h R never mixes edges, so every generator slot is clean
    def refuse(*args):
        raise AssertionError(f"reducer built: {args}")

    monkeypatch.setattr(repspace, "_reducer", refuse)
    for space in (kron_space((2, 2), q=3), kron_space((1, 2), q=5),
                  kron_space((1, 1), q=9)):
        _, _, reads = _generator_tables(space)
        assert reads and all(type(read) is tuple for read in reads), space
        assert sum(orbits(space).sizes) == space.total_points


def test_only_cycle_times_transvection_straddles_an_uneven_cut():
    # Jordan q = 3 (3,) cuts its nine digits 5/4 inside the loop's matrix;
    # the diagonal D moves each entry to one entry, while X = C T, through
    # its transvection, adds entries into others, so only X draws an output
    # digit from both halves
    space = jordan_space(3, q=3)
    _, _, reads = _generator_tables(space)
    generators = group_generators(space)
    assert [gamma for _, gamma in generators] == gl_generators(space.field, 3)
    mixed = [gamma for (_, gamma), read in zip(generators, reads)
             if type(read) is list]
    cycle = Mat(space.field, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    trans = Mat(space.field, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert mixed == [cycle @ trans]


def test_closure_builds_two_half_width_tables(monkeypatch):
    """Orbit closure compiles its generators into exactly two tables, on
    the low ceil(n/2) and the high floor(n/2) base-p digits of a code, never
    a table over the whole space."""
    built = []
    generator_tables = repspace._generator_tables
    monkeypatch.setattr(repspace, "_generator_tables", lambda *args: built.append(
        generator_tables(*args)) or built[-1])
    for space in (kron_space((2, 2), q=4), jordan_space(3), jordan_space(3, q=3),
                  kron_space((1, 3), q=3), jordan_space(1, q=27),
                  RepSpace(Quiver(("a", "b"), (Edge("e", "a", "b"),)), Field(5),
                           {"a": 1, "b": 1})):
        built.clear()
        orbits(space)
        n = space.field.e * space.point_entries
        assert len(built) == 1, space
        tables, _, _ = built[0]
        assert [len(t) for t in tables] == [space.field.p ** -(-n // 2),
                                            space.field.p ** (n // 2)], space


def _dense_generator_tables(space):
    """A reference for _generator_tables: every basis code's images under
    the slots of _generator_slots as a full vector of output digits, found
    by Mat products, and each half's table by p-folding those vectors over
    the half's digits, each vector then packed in the layout
    _generator_tables documents. Returns the tables and, per generator, its
    shift and, when it is read as its code, its field's bits (None for a
    generator read through reducers)."""
    field = space.field
    p, q, e = field.p, field.q, field.e
    n = e * space.point_entries
    slots = repspace._generator_slots(space)

    def digits(x, slot):
        # the slot's image of x as base-p digits, least significant first
        code, width = 0, 0
        for (L, R), m in zip(slot, x):
            if m.rows * m.cols:
                for a in (L @ m @ R).flat:
                    code = code * q + a
                width += e * L.rows * R.cols
        return [code // p ** i % p for i in range(width)]

    columns = [[d for slot in slots for d in digits(space.point_from_rank(p ** j), slot)]
               for j in range(n)]
    widths = [e * sum(L.rows * R.cols for L, R in slot) for slot in slots]
    starts = [0, -(-n // 2), n]
    offsets = list(itertools.accumulate(widths, initial=0))
    drawn = [sum(any(col[pos] for col in columns[a:b]) for a, b in zip(starts, starts[1:]))
             for pos in range(offsets[-1])]
    as_code = [p == 2 or all(drawn[pos] < 2 for pos in range(a, b))
               for a, b in zip(offsets, offsets[1:])]
    bits = 1 if p == 2 else (2 * (p - 1)).bit_length()
    sizes = [(p ** w - 1).bit_length() if c else w * bits
             for w, c in zip(widths, as_code)]
    shifts = list(itertools.accumulate(sizes, initial=0))
    tables = []
    for a, b in zip(starts, starts[1:]):
        vecs = [[0] * offsets[-1]]
        for col in columns[a:b]:
            vecs = [[(x + d * y) % p for x, y in zip(vec, col)]
                    for d in range(p) for vec in vecs]
        table = []
        for vec in vecs:
            packed = 0
            for c, s, lo, hi in zip(as_code, shifts, offsets, offsets[1:]):
                if c:
                    packed += sum(d * p ** i for i, d in enumerate(vec[lo:hi])) << s
                else:
                    packed += sum(d << (s + i * bits) for i, d in enumerate(vec[lo:hi]))
            table.append(packed)
        tables.append(table)
    return tables, [(s, size if c else None)
                    for s, size, c in zip(shifts, sizes, as_code)]


def test_image_tables_match_a_dense_reference():
    """_generator_tables equals the dense reference on the closure's input,
    every generator on two halves, with clean generators at q = 2, 3, 4 and
    9 and mixed ones at q = 3 and 9."""
    one_edge = Quiver(("a", "b"), (Edge("e", "a", "b"),))
    fork = Quiver(("a", "b", "c"), (Edge("e", "a", "b"), Edge("f", "a", "c")))
    closure = (jordan_space(3), kron_space((1, 2)), jordan_space(2, q=4),
               kron_space((1, 1), q=4), jordan_space(3, q=3),
               kron_space((2, 2), q=3), jordan_space(2, q=9),
               RepSpace(one_edge, Field(9), {"a": 1, "b": 1}),
               RepSpace(fork, Field(3), {"a": 1, "b": 2, "c": 0}))
    kinds = set()
    for space in closure:
        tables, _, reads = _generator_tables(space)
        ref_tables, ref_layout = _dense_generator_tables(space)
        assert tables == ref_tables, space
        assert [(r[0], r[1].bit_length()) if type(r) is tuple else (r[0][1], None)
                for r in reads] == ref_layout, space
        kinds |= {(space.field.q, type(r)) for r in reads}
    assert {(q, tuple) for q in (2, 3, 4, 9)} | {(3, list), (9, list)} <= kinds


def test_orbit_sizes_divide_group_order():
    for space in (jordan_space(2), kron_space((2, 1)), kron_space((1, 1), q=3)):
        table = orbits(space)
        order = group_order(space)
        assert all(order % s == 0 for s in table.sizes)


def test_orbit_tables_agree_with_burnside_and_stabilisers():
    # every count below is taken over the whole group, never the generators;
    # (1, 3) has a 3-dimensional vertex, whose generators at q = 2 (cycle
    # and transvection) hold no transposition; the q > 2 spaces close under
    # two generators per vertex, D and C T
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


def test_ordinals_out_of_range_are_refused():
    """An orbit ordinal is an int naming an orbit of the table: True and 1.0
    are refused though they equal 1, by the table and by char_function."""
    table = orbits(jordan_space(2))
    assert table.count == 6
    ctx = HallContext(jordan_quiver(), 2)
    for k in (-1, 6, 7, -7, True, 1.0):
        for method in (table.representative, table.orbit_id,
                       lambda k: char_function(ctx, (2,), k)):
            with pytest.raises(KeyError, match=f"no orbit ordinal {k}"):
                method(k)
    for method in (table.ordinal_of_id, lambda k: char_function(ctx, (2,), k)):
        with pytest.raises(KeyError, match="no orbit ordinal 6"):
            method("o6")


#: sha256 of json.dumps(orbits(space).to_payload()): orbit ids, sizes and
#: representatives are cached and named in reports, so a kernel change must
#: leave them byte-identical, orbit order included; Jordan q = 2 (4,) and
#: Kronecker q = 4 (1, 3) close under generators of a 4- and a 3-dimensional
#: vertex, at p = 2 and at non-prime q
PINNED_ORBIT_TABLES = {
    ("jordan", 3, (3,)): "b0af955869bbf0e214a2f80b5cf65dac2ae1f03168dc53c36edbb3719f1ab4e3",
    ("jordan", 9, (2,)): "eb3cd9d51e785fc368a79241370adea86f5fa5667cf53cdaa930a0b43166ead1",
    ("kronecker", 4, (2, 2)): "ec969921547173219a19cd21eb2207dfb54c281e1c2db29897f4f3c505a0f6f7",
    ("kronecker", 3, (1, 3)): "1b33d75f215dd042d349149e960896c20bcda40374869165732d9c89ea0e0592",
    ("kronecker", 2, (2, 3)): "60d093a587349ff71a62633044df8395ad9bf6fc96301328b1eb8e2fa4da87b1",
    ("kronecker", 3, (2, 2)): "c98c62b0803d9ea41622917b44411b6d43b88910eace45c79c1d18cb313b9e53",
    ("jordan", 5, (2,)): "121469b2532b47a20daf433b1604791341dc87ff998d2e3811ed6b8219beae52",
    ("jordan", 2, (4,)): "4203690f85b0c52cedf73d0c97bc6ef7bda635e1cdb814fcdeee432a3587b962",
    ("kronecker", 4, (1, 3)): "f49905e2ac911a1ae2b4f68b0b2a875a4f947da7f89d32beafdf48195cd7e467",
}


@pytest.mark.parametrize("key", sorted(PINNED_ORBIT_TABLES), ids=lambda key: (
    f"{key[0]}-q{key[1]}-{'x'.join(map(str, key[2]))}"))
def test_orbit_tables_are_pinned(key):
    name, q, dims = key
    space = jordan_space(*dims, q=q) if name == "jordan" else kron_space(dims, q=q)
    payload = json.dumps(orbits(space).to_payload())
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_ORBIT_TABLES[key]


def test_representatives_are_rank_least():
    table = orbits(jordan_space(2))
    for k in range(table.count):
        ranks = [rank for rank, ordinal in enumerate(table.index) if ordinal == k]
        assert table.rep_ranks[k] == min(ranks)
        assert len(ranks) == table.sizes[k]


def cached_form(table, width=1):
    return dict(table.to_payload(), index=packed_index(table.index, width))


def test_orbit_cache_roundtrip(tmp_path):
    space = jordan_space(2)
    cache = OrbitCache(str(tmp_path))
    first = orbits(space, cache=cache)
    assert len(cache.entries()) == 1
    assert cache.entries()[0]["key"].startswith("orbits:v2:")
    assert cache.load(space.cache_key()) == cached_form(first)
    again = orbits(space, cache=OrbitCache(str(tmp_path)))
    assert again.index == first.index and again.sizes == first.sizes

    # an entry whose sizes disagree with its index is recomputed and replaced
    doctored = cached_form(first)
    doctored["sizes"] = list(reversed(first.sizes))
    cache.store(space.cache_key(), doctored)
    assert orbits(space, cache=cache).sizes == first.sizes
    assert cache.load(space.cache_key()) == cached_form(first)

    # corrupt entries fall back to recomputation
    path = cache._path(space.cache_key())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert orbits(space, cache=cache).sizes == first.sizes
    assert cache.purge() >= 1
    assert cache.entries() == []


@pytest.mark.parametrize("edges, width", [(9, 2), (17, 4)])
def test_wide_cached_indexes_roundtrip(tmp_path, monkeypatch, edges, width):
    """2^9 and 2^17 singleton orbits (the group of dims (1,1) at q = 2 is
    trivial) pack their ordinals 2 and 4 bytes wide."""
    quiver = Quiver(("p", "m"), tuple(Edge(f"e{i}", "p", "m") for i in range(edges)))
    space = RepSpace(quiver, Field(2), {"p": 1, "m": 1})
    cache = OrbitCache(str(tmp_path))
    first = orbits(space, cache=cache)
    assert first.index == list(range(2 ** edges)) == first.rep_ranks
    assert cache.load(space.cache_key()) == cached_form(first, width)

    def forbidden(space):
        raise AssertionError("a fitting entry was recomputed")
    monkeypatch.setattr(repspace, "_close_orbits", forbidden)
    again = orbits(space, cache=cache)
    assert again.to_payload() == first.to_payload()

    # ordinals 1 and 2 swapped at points 1 and 2: counts hold, order does not
    swapped = [0, 2, 1] + first.index[3:]
    forged = [dict(cached_form(first, width), index=packed_index(swapped, width)),
              cached_form(first, 2 * width),
              dict(cached_form(first, width),
                   index=packed_index(first.index[:-1] + [2 ** edges], width))]
    for payload in forged:
        cache.store(space.cache_key(), payload)
        with pytest.raises(AssertionError, match="recomputed"):
            orbits(space, cache=cache)


def test_wide_cached_sizes_are_counted(tmp_path):
    """At q = 3, 9 edges at (1,1) give 9,842 orbits: the zero point, and the
    pairs {x, -x}; sizes that trade places still add up and divide 4."""
    quiver = Quiver(("p", "m"), tuple(Edge(f"e{i}", "p", "m") for i in range(9)))
    space = RepSpace(quiver, Field(3), {"p": 1, "m": 1})
    cache = OrbitCache(str(tmp_path))
    table = orbits(space, cache=cache)
    good = cached_form(table, 2)
    assert table.sizes[:2] == [1, 2] and cache.load(space.cache_key()) == good
    cache.store(space.cache_key(), dict(good, sizes=[2, 1] + table.sizes[2:]))
    assert orbits(space, cache=cache).to_payload() == table.to_payload()
    assert cache.load(space.cache_key()) == good


def test_malformed_cache_entries_are_misses(tmp_path):
    space = jordan_space(2)
    cache = OrbitCache(str(tmp_path))
    first = orbits(space, cache=cache)
    key = space.cache_key()
    malformed = ["[1, 2]", '"text"', {"key": key}, {"key": key, "value": [1, 2]},
                 {"key": key, "value": {"index": packed_index(first.index),
                                        "sizes": first.sizes}}]
    # not UTF-8, and nested past the parser
    undecodable = b"\xff" + json.dumps({"key": key}).encode()
    nested = b"[" * 100_000 + b"]" * 100_000
    for entry in malformed + [undecodable, nested]:
        if not isinstance(entry, bytes):
            entry = (entry if isinstance(entry, str) else json.dumps(entry)).encode()
        with open(cache._path(key), "wb") as fh:
            fh.write(entry)
        table = orbits(space, cache=cache)
        assert (table.index, table.sizes, table.rep_ranks) == (
            first.index, first.sizes, first.rep_ranks)
    # cache info lists each unreadable entry, a directory and a key that is
    # no string among them
    # under names the cache owns, as an entry of some other key would be
    stray = {name: hashlib.sha256(name.encode()).hexdigest() + ".json"
             for name in ("list", "latin1", "nested", "number")}
    for name, entry in (("list", b"[1, 2]"), ("latin1", undecodable),
                        ("nested", nested), ("number", b'{"key": 5}')):
        (tmp_path / stray[name]).write_bytes(entry)
    os.remove(cache._path(key))
    os.mkdir(cache._path(key))
    assert cache.load(key) is None
    assert cache.entries() == [
        {"key": f"(unreadable: {name})", "bytes": 0}
        for name in sorted([*stray.values(), os.path.basename(cache._path(key))])]
    # a directory at the entry's path is a miss that cannot be rewritten
    with pytest.raises(FileError, match="Is a directory"):
        orbits(space, cache=cache)


def test_entries_that_do_not_fit_the_space_are_recomputed(tmp_path):
    space = jordan_space(2)
    cache = OrbitCache(str(tmp_path))
    table = orbits(space, cache=cache)
    good = cached_form(table)
    index, sizes, reps = table.index, table.sizes, table.rep_ranks
    assert (sizes[0], reps[0]) == (1, 0)
    swapped = {1: 2, 2: 1}
    forged = [
        dict(good, index=packed_index(index[:-1])),
        # the table of another space: it fits, but that space has 2 points
        cached_form(orbits(jordan_space(1))),
        # ordinals >= the count of orbits
        dict(good, index=packed_index(index[:-1] + [len(sizes)])),
        dict(good, index=packed_index([255] + index[1:])),
        dict(good, sizes=sizes[:-1], rep_ranks=reps[:-1]),
        # an ordinal 0 that no point has, met at -1
        {"index": packed_index([k + 1 for k in index]), "sizes": [0] + sizes,
         "rep_ranks": [-1] + reps},
        # still increasing, but the last point is not where the last ordinal starts
        dict(good, rep_ranks=reps[:-1] + [len(index) - 1]),
        # ordinals 1 and 2 relabelled: consistent, but not met in order
        {"index": packed_index([swapped.get(k, k) for k in index]),
         "sizes": [sizes[swapped.get(k, k)] for k in range(len(sizes))],
         "rep_ranks": [reps[swapped.get(k, k)] for k in range(len(reps))]},
        dict(good, sizes=[float(v) for v in sizes]),
        # True == 1 and False == 0, but neither is an int
        dict(good, sizes=[True] + sizes[1:]),
        dict(good, rep_ranks=[False] + reps[1:]),
        dict(good, sizes="123456"),
        # one orbit of 16 points: consistent, but 16 does not divide |GL_2(F_2)|
        {"index": packed_index([0] * 16), "sizes": [16], "rep_ranks": [0]},
        # the v1 format: the index as a JSON list of ints
        dict(good, index=index),
        # not base64: a character outside the alphabet (which a lax decoder
        # would skip), a missing pad, non-ASCII
        dict(good, index=good["index"][:4] + "!" + good["index"][4:]),
        dict(good, index=good["index"].rstrip("=")),
        dict(good, index="\u00e9" + good["index"][1:]),
        # right ordinals, wrong width: 2 bytes each for 6 orbits
        dict(good, index=packed_index(index, 2)),
    ]
    for payload in forged:
        cache.store(space.cache_key(), payload)
        assert orbits(space, cache=cache).to_payload() == table.to_payload(), payload
        assert cache.load(space.cache_key()) == good


def test_cached_tables_take_under_one_and_a_half_bytes_per_point(tmp_path):
    """The index is stored packed, not as a JSON list (2.85 bytes a point)."""
    space = jordan_space(4)
    cache = OrbitCache(str(tmp_path))
    orbits(space, cache=cache)
    (entry,) = cache.entries()
    assert entry["bytes"] < 1.5 * space.total_points


def test_warm_entries_are_checked_without_forming_the_group_order(tmp_path,
                                                                 monkeypatch):
    """|GL_1500(F_2)| has about 2.25 million bits; a warm entry's orbit sizes
    are checked against it factor by factor, mod each size."""
    for space in (jordan_space(0), jordan_space(2), jordan_space(2, q=3),
                  kron_space((2, 1), q=3)):
        order = group_order(space)
        for s in range(1, 200):
            assert _divides_group_order(space, s) == (order % s == 0), (space, s)

    space = RepSpace(a1_quiver(), Field(2), {"1": 1500})
    cache = OrbitCache(str(tmp_path))
    orbits(space, cache=cache)

    def forbidden(*args):
        raise AssertionError("called on a warm cache entry")
    monkeypatch.setattr("hallcontract.repspace.group_order", forbidden)
    monkeypatch.setattr("hallcontract.repspace._close_orbits", forbidden)
    table = orbits(space, cache=cache)
    assert (table.index, table.sizes, table.rep_ranks) == ([0], [1], [0])


def test_edgeless_space_has_one_orbit_without_generators(monkeypatch):
    """The one point of an edgeless space is its own orbit, at any dim,
    without building (or inverting) a single GL generator."""
    def no_generators(*args):
        raise AssertionError("gl_generators called")
    monkeypatch.setattr("hallcontract.repspace.gl_generators", no_generators)
    table = orbits(RepSpace(a1_quiver(), Field(2), {"1": 5000}))
    assert (table.index, table.sizes, table.rep_ranks) == ([0], [1], [0])


def test_isolated_vertex_builds_no_generators(monkeypatch):
    """A vertex that no edge with entries touches acts trivially: no GL
    generator, identity or inverse of its size is built, and the table is
    that of the space without it."""
    def generators(field, n):
        if n == 100:
            raise AssertionError("gl_generators called at the isolated vertex")
        return gl_generators(field, n)
    monkeypatch.setattr("hallcontract.repspace.gl_generators", generators)
    build, invert = Mat.__init__, Mat.inverse

    def built(self, field, data, cols=None):
        data = tuple(data)
        if 100 in (len(data), cols):
            raise AssertionError("a Mat of the isolated vertex's size built")
        build(self, field, data, cols)

    def inverted(self):
        if self.rows == 100:
            raise AssertionError("a Mat of the isolated vertex's size inverted")
        return invert(self)
    def identity(field, n):
        if n == 100:
            raise AssertionError("an identity of the isolated vertex's size built")
        return make_identity(field, n)
    make_identity = Mat.identity
    monkeypatch.setattr(Mat, "__init__", built)
    monkeypatch.setattr(Mat, "inverse", inverted)
    monkeypatch.setattr(Mat, "identity", identity)
    edge = (Edge("e", "a", "b"),)
    for q in (2, 3):
        table = orbits(RepSpace(Quiver(("a", "b", "c"), edge), Field(q),
                                {"a": 1, "b": 1, "c": 100}))
        alone = orbits(RepSpace(Quiver(("a", "b"), edge), Field(q),
                                {"a": 1, "b": 1}))
        assert table.to_payload() == alone.to_payload()


def test_entry_less_edges_build_no_identity(monkeypatch):
    """An edge without entries adds no digit to a code: no identity of its
    dims is built, and no column of one is read, even where a vertex of
    the edge has dim 1000, at either end."""
    make_identity = Mat.identity

    def identity(field, n):
        if n == 1000:
            raise AssertionError("an identity of the entry-less edge built")
        return make_identity(field, n)
    monkeypatch.setattr(Mat, "identity", identity)
    edges = (Edge("e", "a", "b"), Edge("f", "c", "d"))
    for q, (a, b) in itertools.product((2, 3), ((0, 1000), (1000, 0))):
        table = orbits(RepSpace(Quiver(("a", "b", "c", "d"), edges), Field(q),
                                {"a": a, "b": b, "c": 1, "d": 1}))
        alone = orbits(RepSpace(Quiver(("c", "d"), edges[1:]), Field(q),
                                {"c": 1, "d": 1}))
        assert table.to_payload() == alone.to_payload()
        assert table.count == 2


def test_enumeration_bounds(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(repspace, "DEFAULT_MAX_POINTS", 8)
        with pytest.raises(EnumerationBoundError):
            list(enumerate_points(jordan_space(2)))
        with pytest.raises(EnumerationBoundError):
            enumerate_group(kron_space((2, 2), q=3))
    with pytest.raises(EnumerationBoundError):
        orbits(jordan_space(3), max_points=100)
    # every count refused below has more than 4,300 decimal digits, which
    # str() refuses to write
    big_kron = kron_space((150, 150))
    con = kron_contraction()
    target = RepSpace(con.quiver, Field(2), {v: 150 for v in con.quiver.vertices})
    ext_t, ext_w = kron_space((100, 0)), kron_space((0, 100))
    f = char_function(HallContext(a1_quiver(), 2), (200,), 0)
    refused = [
        ("group elements", lambda: enumerate_group(
            RepSpace(a1_quiver(), Field(2), {"1": 200}))),
        ("graded subspaces", lambda: stable_subspaces(
            RepSpace(a1_quiver(), Field(2), {"1": 300}), (), {"1": 150})),
        ("fiber points", lambda: next(fiber_of_contraction(
            big_kron, con, target.point_from_rank(0), target))),
        ("extensions", lambda: next(extensions_over(
            ext_t, ext_w, ext_t.point_from_rank(0), ext_w.point_from_rank(0)))),
        ("flag isomorphisms", lambda: diagram_star_oracle(f, f)),
    ]
    for what, call in refused:
        with pytest.raises(EnumerationBoundError, match=f"^at least 2\\^\\d+ {what} exceed"):
            call()


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
    gens = [_as_group_element(space, g) for g in group_generators(space)]
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
        contract_point(space, con, space.point_from_rank(0), hat)

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


def test_contract_point_refuses_points_outside_the_heart():
    con = kron_contraction()
    message = "point is not in the heart: a contraction edge is singular"
    f = Field(3)
    singular = Mat(f, ((1, 2), (2, 1)))
    space = kron_space((2, 2), q=3)
    hat = RepSpace(con.quiver, f, {"p": 2})
    for target in (hat, None):
        with pytest.raises(ValueError) as info:
            contract_point(space, con, (singular, Mat.identity(f, 2)), target)
        assert str(info.value) == message
    # a contraction edge of shape 2 x 1 is not square: the same refusal
    with pytest.raises(ValueError) as info:
        contract_point(kron_space((1, 2), q=3), con,
                       (Mat(f, ((1,), (0,))), Mat(f, ((0,), (1,)))))
    assert str(info.value) == message


def test_fibers_are_unchanged_on_kronecker_q3():
    """Every fiber over the contracted Kronecker space at q = 3, dims (2, 2),
    in enumeration order, against a digest recorded from the code that
    inverted each GL element once per fiber point."""
    con = kron_contraction()
    space = kron_space((2, 2), q=3)
    hat = RepSpace(con.quiver, space.field, {"p": 2})
    digest = hashlib.sha256()
    count = 0
    for xhat in enumerate_points(hat):
        for y in fiber_of_contraction(space, con, xhat, hat):
            digest.update(repr(y).encode() + b"\n")
            count += 1
    assert count == 81 * gl_order(2, 3)
    assert digest.hexdigest() == (
        "0909cbde2d17b8a4f2ce804a64ea86fe0967c7e256f4a7bfd812d033f9552bd0")


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
        xhat = hat.point_from_rank(0)
        fiber = list(fiber_of_contraction(space, con, xhat, hat))
        assert len(fiber) == expected == gl_order(dims[0], q)
        for y in fiber:
            assert contract_point(space, con, y, hat) == xhat
    # a 2 x 1 contraction edge is invertible nowhere: the fiber is empty
    hat = RepSpace(con.quiver, Field(2), {"p": 1})
    assert list(fiber_of_contraction(kron_space((1, 2)), con,
                                     hat.point_from_rank(0), hat)) == []


def test_fibers_cover_the_heart_on_every_provenance_kind():
    """a->b x, b->c y, b->c z, c->a w, a->c v contracted at b/c along y keeps
    x, composes w*y after y, and ~y*z, ~y*v before it: every branch of
    fiber_of_contraction runs, and the fibers partition the heart."""
    quiver = Quiver(("a", "b", "c"), (
        Edge("x", "a", "b"), Edge("y", "b", "c"), Edge("z", "b", "c"),
        Edge("w", "c", "a"), Edge("v", "a", "c")))
    autom = identity_automorphism(quiver)
    con = contract_quiver(quiver, autom, make_orbit_pair(quiver, autom, "b", "c", "y"))
    assert con.provenance == {"x": ("kept", "x"), "w*y": ("post", "w", "y"),
                              "~y*z": ("pre", "y", "z"), "~y*v": ("pre", "y", "v")}
    space = RepSpace(quiver, Field(2), {"a": 1, "b": 2, "c": 2})
    hat = RepSpace(con.quiver, space.field, {"a": 1, "b": 2})
    covered = set()
    for xhat in enumerate_points(hat):
        fiber = list(fiber_of_contraction(space, con, xhat, hat))
        assert len(fiber) == gl_order(2, 2) == 6
        for y in fiber:
            assert is_heart(space, con, y)
            assert contract_point(space, con, y, hat) == xhat
        covered.update(fiber)
    heart = {x for x in enumerate_points(space) if is_heart(space, con, x)}
    assert len(covered) == 6144
    assert covered == heart


def test_stable_line_counts():
    space = jordan_space(2)
    f = space.field
    nilpotent = (Mat(f, ((0, 0), (1, 0))),)
    assert len(stable_subspaces(space, nilpotent, {"1": 1})) == 1
    assert stable_subspaces(space, nilpotent, {"1": 3}) == []
    assert len(stable_subspaces(space, space.point_from_rank(0), {"1": 1})) == 3
    identity = (Mat.identity(f, 2),)
    assert len(stable_subspaces(space, identity, {"1": 1})) == 3
    for U in stable_subspaces(space, nilpotent, {"1": 1}):
        assert is_stable(space, nilpotent, U)
        assert tuple(s.dim for s in U) == (1,)
    kron = kron_space((1, 1))
    for bad in ({"p": 1}, {"pp": 1}, (1,)):
        with pytest.raises(ValueError, match="must cover exactly the vertices"):
            stable_subspaces(kron, kron.point_from_rank(0), bad)


def test_orbit_and_flag_tables_never_act_on_points(monkeypatch):
    """Orbit tables, extension tables and flag tables are built on codes
    alone: with act, point_from_rank and point_rank refused, the orbit
    tables equal those built before the refusal, and the extension and
    flag tables of every split of each space equal those built before it,
    the flag tables being the Mat geometry's. The spaces cover q = 2, 3, 4,
    9 and codes of one and of two orbit-closure lookup chunks."""
    spaces = (kron_space((2, 2)), jordan_space(3), kron_space((1, 3), q=3),
              jordan_space(2, q=4), jordan_space(2, q=9))
    tables = [orbits(space).to_payload() for space in spaces]
    splits = [[(tk, tuple(n - t for n, t in zip(space.key, tk))) for tk in
               itertools.product(*(range(n + 1) for n in space.key))]
              for space in spaces]
    expected = []
    for space, space_splits in zip(spaces, splits):
        ctx = HallContext(space.quiver, space.field.q)
        expected.append([(_ext_table(ctx, *split), flag_table_by_mat(ctx, *split))
                         for split in space_splits])

    def refused(*args, **kwargs):
        raise AssertionError("a point was decoded, encoded or acted on")
    monkeypatch.setattr("hallcontract.repspace.act", refused)
    monkeypatch.setattr(RepSpace, "point_from_rank", refused)
    monkeypatch.setattr(RepSpace, "point_rank", refused)
    for space, table, space_splits, tables_of_splits in zip(
            spaces, tables, splits, expected):
        assert orbits(space).to_payload() == table
        ctx = HallContext(space.quiver, space.field.q)
        assert [(_ext_table(ctx, *split), _flag_table(ctx, *split))
                for split in space_splits] == tables_of_splits


def test_flag_kernel_bound_is_the_stable_subspace_bound():
    """_ext_table, which _flag_table reads, refuses a split exactly where
    stable_subspaces refuses the big space's graded subspaces under the
    same bound, with the same message; the orbit tables are within the
    bound. A1 spaces have one point; one edge a -> b at (1, 4) has 16."""
    one_edge = Quiver(("a", "b"), (Edge("e", "a", "b"),))
    cases = [(a1_quiver(), (4,), (2,), bound) for bound in (34, 35)]
    cases += [(a1_quiver(), (4,), (1,), bound) for bound in (14, 15)]
    cases += [(one_edge, (1, 4), wk, bound) for wk in ((0, 2), (1, 2))
              for bound in (34, 35)]
    refusals = 0
    for quiver, nk, wk, bound in cases:
        space = RepSpace(quiver, Field(2), nk)
        tk = tuple(n - w for n, w in zip(nk, wk))
        ctx = HallContext(quiver, 2, max_points=bound)
        try:
            stable_subspaces(space, space.point_from_rank(0), wk, bound)
        except EnumerationBoundError as exc:
            refusals += 1
            with pytest.raises(EnumerationBoundError) as refusal:
                _ext_table(ctx, tk, wk)
            assert str(refusal.value) == str(exc)
        else:
            assert _ext_table(ctx, tk, wk) == _ext_table(HallContext(quiver, 2),
                                                         tk, wk)
    assert refusals == 4


def test_extensions_recover_sub_and_quotient():
    space = jordan_space(1)
    big = jordan_space(2)
    f = space.field
    xt = (Mat(f, ((1,),)),)
    xw = (Mat(f, ((0,),)),)
    ys = list(extensions_over(space, space, xt, xw, big))
    assert len(ys) == extension_count(space, space) == 2
    U = (Subspace.spanned_by(f, 2, [(0, 1)]),)
    for y in ys:
        assert is_stable(big, y, U)
        assert sub_point(big, y, U) == xw
        assert quotient_point(big, y, U) == xt
    zero = Mat.zeros(f, 1, 1)
    assert (block2x2(f, xt[0], zero, zero, xw[0]),) in ys
    # the first coordinate line is stable only where the corner M is zero
    line = (Subspace.spanned_by(f, 2, [(1, 0)]),)
    y = (block2x2(f, xt[0], zero, Mat(f, ((1,),)), xw[0]),)
    assert not is_stable(big, y, line)
    with pytest.raises(ValueError, match="graded subspace is not stable"):
        sub_point(big, y, line)


@pytest.mark.parametrize("quiver,t_dims,w_dims", [
    (kronecker_quiver(), {"p": 1, "m": 1}, {"p": 1, "m": 2}),
    (a1_quiver(), {"1": 2}, {"1": 1}),
], ids=["kronecker", "a1"])
def test_extensions_are_enumerated_in_corner_rank_order(quiver, t_dims, w_dims):
    """extensions_over yields the blocks [[xt, 0], [M, xw]] with the corners
    M in rank order, the last edge fastest: on Kronecker with 2 x 1 corners
    beside 1 x 1 and 2 x 1 points, and on A1 (no edges, one point ())."""
    f = Field(3)
    space_t, space_w = RepSpace(quiver, f, t_dims), RepSpace(quiver, f, w_dims)
    xt = space_t.point_from_rank(space_t.total_points - 1)
    xw = space_w.point_from_rank(space_w.total_points // 2 + 1)
    shapes = [(w_rows, t_cols) for (_, t_cols), (w_rows, _)
              in zip(space_t.edge_shapes, space_w.edge_shapes)]
    expected = []
    for flat in itertools.product(range(3), repeat=sum(r * c for r, c in shapes)):
        blocks, pos = [], 0
        for (rows, cols), a, b in zip(shapes, xt, xw):
            corner = Mat.from_flat(f, rows, cols, flat[pos:pos + rows * cols])
            pos += rows * cols
            blocks.append(block2x2(f, a, Mat.zeros(f, a.rows, b.cols), corner, b))
        expected.append(tuple(blocks))
    assert len(expected) == extension_count(space_t, space_w)
    assert list(extensions_over(space_t, space_w, xt, xw)) == expected


def test_extension_counts(monkeypatch):
    jo = RepSpace(jordan_quiver(), Field(2), {"1": 1})
    assert extension_count(jo, jo) == 2
    k = kron_space((1, 1))
    assert extension_count(k, k) == 4
    assert len(list(extensions_over(k, k, k.point_from_rank(0), k.point_from_rank(0)))) == 4
    monkeypatch.setattr(repspace, "DEFAULT_MAX_POINTS", 10)
    with pytest.raises(EnumerationBoundError):
        list(extensions_over(kron_space((3, 3)), kron_space((3, 3)),
                             kron_space((3, 3)).point_from_rank(0),
                             kron_space((3, 3)).point_from_rank(0)))


def test_extension_code_counts_of_a_split_into_one_block(kron_ctx, kron_ctx3):
    """When M holds every entry of a big point, the extension table is the
    big orbit sizes under the one pair (0, 0), read without big.index:
    Kronecker (3,0)+(0,3) at q = 2 and (2,0)+(0,3) at q = 3, and three edges
    p -> m at q = 3, (2,0)+(0,2). Kronecker (0,1)+(1,0) has no entries in
    x_t or x_w but a nonempty zero block, so its one block point is zero."""
    three = Quiver(("p", "m"), tuple(Edge(f"h{i}", "p", "m") for i in range(3)))
    for ctx, tk, wk in ((kron_ctx, (3, 0), (0, 3)), (kron_ctx3, (2, 0), (0, 3)),
                        (HallContext(three, 3, cache=OrbitCache()), (2, 0), (0, 2))):
        big = ctx.table(tuple(a + b for a, b in zip(tk, wk)))
        unread = OrbitTable(big.space, None, big.sizes, big.rep_ranks)
        assert repspace.extension_code_counts(
            unread, ctx.table(tk), ctx.table(wk)) == {(0, 0): dict(enumerate(big.sizes))}
    big = kron_ctx.table((1, 1))
    assert big.count > 1
    assert repspace.extension_code_counts(
        big, kron_ctx.table((0, 1)), kron_ctx.table((1, 0))) == {(0, 0): {0: 1}}


def test_extension_refuses_two_fields_also_with_big_given():
    """big is not read, so it does not stand in for the check of one field,
    nor for that of one graph."""
    two, three = jordan_space(1), jordan_space(1, q=3)
    for big in (None, jordan_space(2), jordan_space(2, q=3)):
        with pytest.raises(ValueError, match="one field"):
            next(extensions_over(two, three, two.point_from_rank(0),
                                 three.point_from_rank(2), big))
    a1 = RepSpace(a1_quiver(), Field(2), {"1": 1})
    for big in (None, jordan_space(2)):
        with pytest.raises(ValueError, match="same graph"):
            next(extensions_over(two, a1, two.point_from_rank(0), (), big))


def test_extension_is_heart_iff_both_factors_are():
    space = kron_space((1, 1))
    big = kron_space((2, 2))
    con = kron_contraction()
    for xt in enumerate_points(space):
        for xw in enumerate_points(space):
            both = is_heart(space, con, xt) and is_heart(space, con, xw)
            for y in extensions_over(space, space, xt, xw, big):
                assert is_heart(big, con, y) == both
