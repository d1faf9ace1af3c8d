"""Representation spaces of a quiver over a finite field.

A point assigns to each edge h a matrix of shape dims(target) x dims(source);
the group prod_v GL(dims(v)) acts by (g.x)_h = g_{h''} x_h g_{h'}^{-1}. Points
are enumerated exactly, and each orbit is found by closing its rank-least
point under the group generators. The closure runs on integer point codes
(ranks), never on matrices. A map of the form x_h -> L_h x_h R_h is
F_p-linear on a code's base-p digits; _columns reads one off the L and R
matrices alone as sparse basis columns, the images of the basis codes. A
generator gamma at one vertex is such a map: the closure compiles all
generators (_generator_tables) into two tables, on the low and the high
half of a code's digits, and reads them inline. A generator is clean when
each of its output digits draws on one half only: every generator at
p = 2, the diagonal when the cut falls between F_q entries (always at
prime q; at q = p**e it mixes an entry's e digits), and every generator
when the cut falls between edges. Its image code is then stored whole and
read with one shift and mask, at odd p as at p = 2. Only a mixed generator
at odd p is read through reducer lookups that bring its digits back mod p.

The extension code counter extension_code_counts counts the structure
constants of a split: a block point [[x_t, 0], [M, x_w]] has as code the
sum of the codes of x_t, x_w and M, each moved to its own base-q places of
a big code (_block_places), so it counts the orbits of a pair's extensions
by reading the big table's index. The Hall layer derives flag counts from
these by Riedtmann's formula. act() and the Mat flag geometry
(stable_subspaces, quotient_point, sub_point) are not on these paths; they
stay as the route of the tests and of the Hall layer's oracle. Extensions
are enumerated as Mat points here too (extensions_over), as an independent
cross-check of the structure constants the Hall layer derives.

Only the identity automorphism is supported at this layer; the graded pieces
are indexed by vertices, not vertex orbits. A RepSpace takes no automorphism
and this module defines no error for one: the command line refuses a quiver
file whose automorphism is not the identity as invalid input (exit 4).
"""

from __future__ import annotations

import base64
import itertools
import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .ffalg import (DEFAULT_MAX_POINTS, EnumerationBoundError, Field, Mat,
                    block2x2, check_count, enumerate_gl, enumerate_subspaces,
                    gaussian_binomial, gl_generators, gl_order)
from .quiver import ContractedQuiver, Quiver


def grade_key(quiver: Quiver, dims) -> tuple:
    """The one check of a dimension vector: dims, a dict over the vertices
    or a sequence in vertex order, as its grade key, a tuple in vertex order.
    It must cover exactly the vertices, and each entry must be a nonnegative
    int (True and 1.0 are refused, though they equal 1)."""
    vertices = quiver.vertices
    if isinstance(dims, dict):
        dims = [dims[v] for v in vertices] if dims.keys() == set(vertices) else ()
    key = tuple(dims)
    if len(key) != len(vertices):
        raise ValueError(f"a dimension vector must cover exactly the vertices "
                         f"(in order: {', '.join(vertices)})")
    for v, n in zip(vertices, key):
        if type(n) is not int or n < 0:
            raise ValueError(f"dimensions must be integers: each is a nonnegative "
                             f"integer, but {v!r} has {n!r}")
    return key


class RepSpace:
    """E_{V,Omega}: the matrices attached to each edge for a fixed grading.
    A graded subspace U of it is a tuple of Subspaces in vertex order."""

    def __init__(self, quiver: Quiver, field: Field, dims):
        self.quiver = quiver
        self.field = field
        #: the dimension vector in vertex order, checked by grade_key
        self.key = grade_key(quiver, dims)
        vindex = quiver.vertex_index
        self.edge_vertex_indices = tuple(
            (vindex[e.target], vindex[e.source]) for e in quiver.edges)
        self.edge_shapes = tuple(
            (self.key[t], self.key[s]) for t, s in self.edge_vertex_indices)
        self.edge_index = {e.id: k for k, e in enumerate(quiver.edges)}
        self.point_entries = sum(r * c for r, c in self.edge_shapes)

    @property
    def total_points(self) -> int:
        return self.field.q ** self.point_entries

    def check_bound(self, max_points: int) -> None:
        """Raise EnumerationBoundError if the space has more than max_points
        points. Exponents are compared first (q >= 2), so a huge space is
        refused without computing its size."""
        q, n = self.field.q, self.point_entries
        if q ** min(n, max_points.bit_length()) > max_points:
            raise EnumerationBoundError(
                f"{q}^{n} points exceed the bound {max_points}")

    def __repr__(self):
        dims = ", ".join(f"{v}: {n}" for v, n in zip(self.quiver.vertices, self.key))
        return f"RepSpace(q={self.field.q}, dims={{{dims}}})"

    def cache_key(self) -> str:
        dims_part = ",".join(f"{v}={n}" for v, n in zip(self.quiver.vertices, self.key))
        return f"orbits:v2:q{self.field.q}:{self.quiver.content_hash()}:{dims_part}"

    def point_rank(self, x: tuple) -> int:
        q = self.field.q
        r = 0
        for m in x:
            for e in m.flat:
                r = r * q + e
        return r

    def point_from_rank(self, rank: int) -> tuple:
        q = self.field.q
        digits = []
        for _ in range(self.point_entries):
            rank, d = divmod(rank, q)
            digits.append(d)
        digits.reverse()
        return _mats_from_digits(self.field, self.edge_shapes, digits)

    def point_to_dict(self, x: tuple) -> dict:
        return {e.id: [list(row) for row in m.data]
                for e, m in zip(self.quiver.edges, x)}


def _mats_from_digits(field: Field, shapes, digits) -> tuple:
    """One matrix per (rows, cols) shape, filled row by row from consecutive
    digits."""
    mats = []
    pos = 0
    for rows, cols in shapes:
        n = rows * cols
        mats.append(Mat.from_flat(field, rows, cols, digits[pos:pos + n]))
        pos += n
    return tuple(mats)


def enumerate_points(space: RepSpace):
    """All points in rank order (entries vary fastest at the last edge), of
    a space with at most DEFAULT_MAX_POINTS points."""
    space.check_bound(DEFAULT_MAX_POINTS)
    field, shapes = space.field, space.edge_shapes
    for digits in itertools.product(range(field.q), repeat=space.point_entries):
        yield _mats_from_digits(field, shapes, digits)


def act(space: RepSpace, g: tuple, x: tuple) -> tuple:
    """(g.x)_h = g_{h''} x_h g_{h'}^{-1}; g is a tuple of matrices over the
    vertices in order."""
    ginv = tuple(m.inverse() for m in g)
    return tuple(g[ti] @ m @ ginv[si]
                 for m, (ti, si) in zip(x, space.edge_vertex_indices))


def group_order(space: RepSpace) -> int:
    return math.prod(gl_order(n, space.field.q) for n in space.key)


def group_generators(space: RepSpace) -> list[tuple[int, Mat]]:
    """Generators of the action of prod_v GL(dims(v)), as (vertex index,
    gamma): the GL generator gamma at that vertex, the identity elsewhere.
    A vertex whose incident edges all have no entries (an isolated vertex,
    say) is skipped: its generators act trivially."""
    acting = sorted({i for (ti, si), (rows, cols)
                     in zip(space.edge_vertex_indices, space.edge_shapes)
                     if rows * cols for i in (ti, si)})
    return [(vi, gamma) for vi in acting for gamma in
            gl_generators(space.field, space.key[vi])]


def enumerate_group(space: RepSpace):
    check_count(group_order(space), "group elements", DEFAULT_MAX_POINTS)
    factors = [enumerate_gl(space.field, n) for n in space.key]
    return [tuple(combo) for combo in itertools.product(*factors)]


#: The fields of an orbit table's payload and of its cached form, in
#: constructor order.
_PAYLOAD_FIELDS = ("index", "sizes", "rep_ranks")


@dataclass
class OrbitTable:
    """Dense orbit index over point ranks. Orbit k is named "o{k}"; its
    representative is the rank-least point, which the scan order guarantees."""

    space: RepSpace
    index: list[int]
    sizes: list[int]
    rep_ranks: list[int]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def _checked(self, k: int) -> int:
        if not 0 <= k < self.count:
            raise KeyError(f"no orbit ordinal {k}")
        return k

    def orbit_id(self, k: int) -> str:
        return f"o{self._checked(k)}"

    def ordinal_of_id(self, orbit_id: str) -> int:
        """The ordinal k of the canonical id "o{k}"; any other spelling of
        k (o01, o+1, o 1, ...) is malformed."""
        try:
            k = int(orbit_id[1:])
        except (TypeError, ValueError):
            k = None
        if k is None or orbit_id != f"o{k}":
            raise KeyError(f"malformed orbit id {orbit_id!r}")
        if not 0 <= k < self.count:
            raise KeyError(f"no orbit {orbit_id!r}; table has {self.count} orbits")
        return k

    def ordinal_of(self, x: tuple) -> int:
        return self.index[self.space.point_rank(x)]

    def representative(self, k: int) -> tuple:
        return self.space.point_from_rank(self.rep_ranks[self._checked(k)])

    def to_payload(self) -> dict:
        return {f: list(getattr(self, f)) for f in _PAYLOAD_FIELDS}


#: Bits of a mixed generator's packed images that one odd-p reduction
#: lookup reads.
_CHUNK_BITS = 8


@lru_cache(maxsize=None)
def _reducer(p: int, bits: int, start: int, width: int) -> tuple:
    """Maps width packed bits-wide fields to the sum of their values mod p,
    each at its place p**(start + i) in a code."""
    mask = (1 << bits) - 1
    return tuple(sum((f >> (i * bits) & mask) % p * p ** (start + i)
                     for i in range(width))
                 for f in range(1 << (width * bits)))


def _columns(space: RepSpace, slots: list) -> list:
    """The images of every basis code of the space under F_q-linear maps, as
    sparse columns.

    A slot lists one (L_h, R_h) pair of Mats per edge and maps a point x to
    the point (L_h x_h R_h)_h, coded as a point is: the basis code with
    digit alpha at entry (r, c) of x_h goes to L_h[:, r] alpha R_h[c, :].
    columns[j] holds the nonzero (output digit, value) pairs of the basis
    code p**j, each value a base-p digit, the output digits numbered over
    the slots end to end, each slot's least significant digit first."""
    field = space.field
    p, e, mul = field.p, field.e, field._mul
    n = e * space.point_entries
    widths = [e * sum(L.rows * R.cols for L, R in slot) for slot in slots]
    # in a code, input or output, the first entry is the most significant
    columns = [[] for _ in range(n)]
    for top, slot in zip(itertools.accumulate(widths), slots):
        j = n
        for (L, R), (rows, cols) in zip(slot, space.edge_shapes):
            # an edge without entries has no basis code: L and R go unread
            lcols = [[(i, a) for i, a in enumerate(L.column(r)) if a]
                     for r in range(rows if cols else 0)]
            rrows = [[(k, b) for k, b in enumerate(R.data[c]) if b]
                     for c in range(cols if rows else 0)]
            for r, c in itertools.product(range(rows), range(cols)):
                j -= e
                for d in range(e):
                    col, alpha = columns[j + d], p ** d
                    for i, a in lcols[r]:
                        for k, b in rrows[c]:
                            value = mul[mul[a][alpha]][b]
                            pos = top - e * (i * R.cols + k + 1)
                            while value:
                                value, digit = divmod(value, p)
                                if digit:
                                    col.append((pos, digit))
                                pos += 1
            top -= e * L.rows * R.cols
    return columns


def _block_places(big: RepSpace, sub_key: tuple) -> tuple:
    """Where a block point [[x_t, 0], [M, x_w]] of big puts its entries in a
    code, quotient coordinates first as in extensions_over and x_w of grade
    key sub_key: the place values q**i of x_t's entries, of x_w's and of
    M's, each list least significant first in the order of its own code."""
    q, pos = big.field.q, big.point_entries
    places = ([], [], [])
    for (ti, si), (rows, cols) in zip(big.edge_vertex_indices, big.edge_shapes):
        trows, tcols = rows - sub_key[ti], cols - sub_key[si]
        for r, c in itertools.product(range(rows), range(cols)):
            pos -= 1
            if r >= trows:
                places[1 if c >= tcols else 2].append(q ** pos)
            elif c < tcols:
                places[0].append(q ** pos)
    return tuple(p[::-1] for p in places)


def _placed(code: int, places: list, q: int) -> int:
    """A code moved digit by digit to the given places (least significant
    first)."""
    out = i = 0
    while code:
        code, d = divmod(code, q)
        out += d * places[i]
        i += 1
    return out


def extension_code_counts(big: OrbitTable, quotient: OrbitTable,
                          sub: OrbitTable) -> dict:
    """(t, w) -> {big orbit -> number of M with [[x_t, 0], [M, x_w]] in it},
    x_t the representative of quotient's orbit t and x_w that of sub's
    orbit w: the extension table of the split, counted on codes.

    A block point's code is the sum of the codes of x_t, x_w and M, each
    moved to its own places in a big code (_block_places). The places are
    disjoint, so the sum has no carry at any q. Each pair adds its base code
    to the codes of every M, listed once, and reads big.index there; no
    point is decoded, encoded or acted on. The work needs no bound of its
    own: (t, w, M) -> block point is injective, so it reads at most
    big.space.total_points codes.

    When M holds every entry of a big point (x_t, x_w and the zero block
    have none), every big point is a block point of the one pair (0, 0),
    and each big orbit is counted by its size, with no code listed."""
    q = big.space.field.q
    tplaces, wplaces, mplaces = _block_places(big.space, sub.space.key)
    if len(mplaces) == big.space.point_entries:
        return {(0, 0): dict(enumerate(big.sizes))}
    mcodes = [0]
    for place in mplaces:
        mcodes = [m + d for d in range(0, q * place, place) for m in mcodes]
    read = big.index.__getitem__
    wbases = [_placed(rank, wplaces, q) for rank in sub.rep_ranks]
    out = {}
    for t, rank in enumerate(quotient.rep_ranks):
        tbase = _placed(rank, tplaces, q)
        for w, wbase in enumerate(wbases):
            out[(t, w)] = dict(Counter(map(read, map((tbase + wbase).__add__, mcodes))))
    return out


def _generator_slots(space: RepSpace) -> list:
    """One slot (see _columns) per group generator, in order. A generator
    gamma at vertex v maps x_h to L x_h R, with L = gamma where h ends at v,
    R = gamma^{-1} where h starts at v and identities at the other ends; an
    edge without entries has no digit in a code and gets the empty pair."""
    empty = Mat.zeros(space.field, 0, 0)
    identity = {n: Mat.identity(space.field, n) for rows, cols in space.edge_shapes
                if rows * cols for n in (rows, cols)}
    return [[(gamma if ti == vi else identity[rows],
              gamma.inverse() if si == vi else identity[cols])
             if rows * cols else (empty, empty)
             for (ti, si), (rows, cols)
             in zip(space.edge_vertex_indices, space.edge_shapes)]
            for vi, gamma in group_generators(space)]


def _generator_tables(space: RepSpace):
    """((lo, hi), low, reads): two tables taking a point code of the space to
    its images under the slots of _generator_slots, lo on the low =
    ceil(n/2) base-p digits of a code and hi on the high floor(n/2). An
    entry packs its half's images side by side in one int, each output
    digit reduced mod p; a code's packed images are the XOR (p = 2) or the
    sum (odd p) of its two entries. A table grows by one column at a time,
    that column's digit varying slowest: at p = 2 by doubling on packed
    ints (a one-bit field cannot carry), at odd p by p-folding digit
    vectors over the output digits the half touches.

    Every generator maps the space onto itself, so generator k owns output
    digits k*n ... k*n+n-1. A clean one (every one at p = 2) is packed as
    its code, and its read is one (shift, mask) pair. A mixed one, with an
    output digit that both halves touch, is packed as one field per digit,
    bits wide enough for the sum of both halves' digits there, and its read
    is a list of (reducer, shift, mask) lookups whose values sum to its
    code."""
    p = space.field.p
    n = space.field.e * space.point_entries
    low = -(-n // 2)
    slots = _generator_slots(space)
    columns = _columns(space, slots)
    halves = (columns[:low], columns[low:])
    # touched[i]: the output digits that half i's columns draw on
    touched = [sorted({pos for col in half for pos, _ in col}) for half in halves]
    both = set(touched[0]).intersection(touched[1])
    clean = [p == 2 or both.isdisjoint(range(k * n, k * n + n))
             for k in range(len(slots))]
    bits = (2 * (p - 1)).bit_length()
    sizes = [(p ** n - 1).bit_length() if c else n * bits for c in clean]
    shifts = list(itertools.accumulate(sizes, initial=0))
    # weights[i]: what output digit i adds to the packed int per unit; digit
    # j of a clean generator adds p**j to its code, that of a mixed one
    # fills its own bits-wide field, so the fields never overlap
    weights = [p ** j << s if c else 1 << (s + j * bits)
               for s, c in zip(shifts, clean) for j in range(n)]
    tables = []
    for half, outs in zip(halves, touched):
        if p == 2:
            entries = [0]
            for col in half:
                packed = sum(weights[pos] for pos, _ in col)
                entries += [v ^ packed for v in entries]
        else:
            # digit vectors over the output digits this half touches only
            at = {pos: i for i, pos in enumerate(outs)}
            vecs = [[0] * len(outs)]
            for col in half:
                dense = [0] * len(outs)
                for pos, digit in col:
                    dense[at[pos]] = digit
                vecs = [[(a + d * b) % p for a, b in zip(vec, dense)]
                        for d in range(p) for vec in vecs]
            out_weights = [weights[pos] for pos in outs]
            entries = [sum(map(operator.mul, vec, out_weights)) for vec in vecs]
        tables.append(entries)
    per_lookup = max(1, _CHUNK_BITS // bits)
    lookups = [(i, _reducer(p, bits, i, min(per_lookup, n - i)))
               for i in range(0, n, per_lookup)] if not all(clean) else []
    reads = [(s, (1 << size) - 1) if c else
             [(t, s + i * bits, len(t) - 1) for i, t in lookups]
             for s, size, c in zip(shifts, sizes, clean)]
    return tables, low, reads


def _close_orbits(space: RepSpace):
    """Close each fresh representative under the group generators. A point's
    images are packed in the XOR (p = 2) or the sum (odd p) of two table
    entries (see _generator_tables): the code of each clean generator, every
    generator at p = 2, is read with one shift and mask, and that of each
    mixed one through its reducer lookups."""
    (lo, hi), low, reads = _generator_tables(space)
    codes = [read for read in reads if type(read) is tuple]
    mixed = [read for read in reads if type(read) is list]
    p = space.field.p
    mask, radix = (1 << low) - 1, p ** low
    index = [-1] * space.total_points
    sizes, reps = [], []
    for r in range(space.total_points):
        if index[r] != -1:
            continue
        k = len(reps)
        reps.append(r)
        index[r] = k
        frontier = [r]
        count = 1
        if p == 2:
            while frontier:
                x = frontier.pop()
                v = hi[x >> low] ^ lo[x & mask]
                for s, m in codes:
                    y = v >> s & m
                    if index[y] == -1:
                        index[y] = k
                        count += 1
                        frontier.append(y)
        else:
            while frontier:
                x = frontier.pop()
                v = hi[x // radix] + lo[x % radix]
                for s, m in codes:
                    y = v >> s & m
                    if index[y] == -1:
                        index[y] = k
                        count += 1
                        frontier.append(y)
                for parts in mixed:
                    y = 0
                    for t, s, m in parts:
                        y += t[v >> s & m]
                    if index[y] == -1:
                        index[y] = k
                        count += 1
                        frontier.append(y)
        sizes.append(count)
    return index, sizes, reps


#: struct format of one ordinal of a cached index, by width in bytes
_WIDTH_CODES = {2: "H", 4: "I"}


def _index_width(count: int) -> int:
    """Bytes per ordinal in the cached index of a table of count orbits."""
    return 1 if count <= 1 << 8 else 2 if count <= 1 << 16 else 4


def _cached_payload(table: OrbitTable) -> dict:
    """The cached form of a table: its payload, with the index packed
    little-endian, _index_width(count) bytes per ordinal, as base64 text."""
    width, index = _index_width(table.count), table.index
    packed = (bytes(index) if width == 1 else
              struct.pack(f"<{len(index)}{_WIDTH_CODES[width]}", *index))
    return {"index": base64.b64encode(packed).decode("ascii"),
            "sizes": table.sizes, "rep_ranks": table.rep_ranks}


def _cached_table(space: RepSpace, payload) -> OrbitTable | None:
    """The table a cached payload holds, if it is shaped like an orbit table
    of the space, else None: sizes and rep_ranks lists of ints, and index
    packed as _cached_payload packs it, one ordinal per point; each ordinal
    k counted sizes[k] times and first met at rep_ranks[k], with the
    ordinals met in order, and every size a divisor of the group order.
    The passes over the points run in C: at one byte, bytes.count and
    bytes.find per ordinal (at most 256 of them); wider, one Counter and
    one first-occurrence dict. It does not act."""
    if not isinstance(payload, dict):
        return None
    text, sizes, rep_ranks = (payload.get(f) for f in _PAYLOAD_FIELDS)
    if not (isinstance(text, str)
            and all(isinstance(v, list) and set(map(type, v)) <= {int}
                    for v in (sizes, rep_ranks))):
        return None
    n, width = len(sizes), _index_width(len(sizes))
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or text that is not ASCII
        return None
    if len(raw) != space.total_points * width:
        return None
    if width == 1:
        index = list(raw)
        counts = [raw.count(k) for k in range(n)]
        first = [raw.find(k) for k in range(n)]
    else:
        layout = f"<{space.total_points}{_WIDTH_CODES[width]}"
        index = list(struct.unpack(layout, raw))
        counted = Counter(index)
        met = dict(zip(reversed(index), range(len(index) - 1, -1, -1)))
        counts = [counted[k] for k in range(n)]
        first = [met.get(k, -1) for k in range(n)]
    # An ordinal never met is first met at -1, so rep_ranks rising from 0
    # rules out empty orbits; counts adding up to the points rule out
    # ordinals >= n.
    if (counts != sizes or sum(sizes) != len(index) or first != rep_ranks
            or not all(a < b for a, b in zip([-1] + rep_ranks, rep_ranks))
            or not all(_divides_group_order(space, s) for s in set(sizes))):
        return None
    return OrbitTable(space, index, sizes, rep_ranks)


def _divides_group_order(space: RepSpace, s: int) -> bool:
    """Whether s divides group_order(space), reducing each factor q^n - q^k
    mod s: the order itself has about log2(q)*sum(n^2) bits."""
    q = space.field.q
    residue = 1 % s
    for n in space.key:
        qn, qk = pow(q, n, s), 1 % s
        for _ in range(n):
            residue = residue * (qn - qk) % s
            qk = qk * q % s
    return residue == 0


def orbits(space: RepSpace, max_points: int = DEFAULT_MAX_POINTS,
           cache=None) -> OrbitTable:
    """Orbit table of the group action, read from the cache when its entry
    fits the space (see _cached_table); any other entry is recomputed and
    overwritten."""
    space.check_bound(max_points)
    key = space.cache_key() if cache is not None else None
    if cache is not None:
        table = _cached_table(space, cache.load(key))
        if table is not None:
            return table
    table = OrbitTable(space, *_close_orbits(space))
    if cache is not None:
        cache.store(key, _cached_payload(table))
    return table


def is_heart(space: RepSpace, con: ContractedQuiver, x: tuple) -> bool:
    """A point is in the heart when every contraction-edge matrix is invertible."""
    return all(x[space.edge_index[h]].is_invertible()
               for h in con.contraction_edges)


def contract_point(space: RepSpace, con: ContractedQuiver, x: tuple,
                   target_space: RepSpace | None = None) -> tuple:
    """The contracted point: kept edges copy over, an edge out of a collapsed
    vertex composes with the contraction edge into it, an edge into a
    collapsed vertex transports back through that edge's inverse (taken once,
    which also tests the heart). target_space is accepted but not read."""
    try:
        inv = {h: x[space.edge_index[h]].inverse() for h in con.contraction_edges}
    except (ValueError, ZeroDivisionError):  # non-square or singular
        raise ValueError("point is not in the heart: a contraction edge is singular") from None
    mats = []
    for e in con.quiver.edges:
        kind = con.provenance[e.id]
        if kind[0] == "kept":
            mats.append(x[space.edge_index[kind[1]]])
        elif kind[0] == "post":
            _, l1, h = kind
            mats.append(x[space.edge_index[l1]] @ x[space.edge_index[h]])
        else:
            _, h, l2 = kind
            mats.append(inv[h] @ x[space.edge_index[l2]])
    return tuple(mats)


def fiber_of_contraction(space: RepSpace, con: ContractedQuiver, xhat: tuple,
                         target_space: RepSpace):
    """All heart points contracting onto xhat, a point of target_space (the
    contracted grade's space): one per invertible assignment g_h to the
    contraction edges h, of which there must be at most DEFAULT_MAX_POINTS.
    Each other original edge is read off the new edge that records it in
    con.provenance: a kept edge copies its xhat matrix, the l1 of a post
    edge l1*h gets xhat(l1*h) g_h^{-1}, and the l2 of a pre edge ~h*l2 gets
    g_h xhat(~h*l2); h itself gets g_h."""
    total = 1
    for h in con.contraction_edges:
        rows, cols = space.edge_shapes[space.edge_index[h]]
        if rows != cols:
            return
        total *= gl_order(rows, space.field.q)
    check_count(total, "fiber points", DEFAULT_MAX_POINTS)
    choices = [[(g, g.inverse()) for g in
                enumerate_gl(space.field, space.edge_shapes[space.edge_index[h]][0])]
               for h in con.contraction_edges]
    for combo in itertools.product(*choices):
        assign = dict(zip(con.contraction_edges, combo))
        mats = [None] * len(space.quiver.edges)
        for new_id, kind in con.provenance.items():
            xh = xhat[target_space.edge_index[new_id]]
            if kind[0] == "kept":
                mats[space.edge_index[kind[1]]] = xh
            elif kind[0] == "post":
                mats[space.edge_index[kind[1]]] = xh @ assign[kind[2]][1]
            else:
                mats[space.edge_index[kind[2]]] = assign[kind[1]][0] @ xh
        for h, (g, _) in assign.items():
            mats[space.edge_index[h]] = g
        yield tuple(mats)


def _graded_pieces(space: RepSpace, x: tuple, U: tuple):
    for m, (ti, si) in zip(x, space.edge_vertex_indices):
        yield m, U[si], U[ti]


def is_stable(space: RepSpace, x: tuple, U: tuple) -> bool:
    """Whether the graded subspace U (see RepSpace) satisfies
    x_h(U_{h'}) <= U_{h''} for every edge."""
    for m, Us, Ut in _graded_pieces(space, x, U):
        for j in range(Us.dim):
            if not Ut.contains(m.vec(Us.basis.column(j))):
                return False
    return True


def graded_subspace_count(space: RepSpace, sub_key: tuple,
                          max_count: int = DEFAULT_MAX_POINTS) -> int:
    """The number of graded subspaces (see RepSpace) with the grade key
    sub_key, 0 when a dimension is out of range, refused past max_count. The
    bound is checked on exponents first: there are at least q^(k(n-k))
    k-subspaces of F_q^n, so a huge count is refused without computing it."""
    q, nk = space.field.q, list(zip(space.key, sub_key))
    if any(k < 0 or k > n for n, k in nk):
        return 0
    bits = sum(k * (n - k) for n, k in nk) * (q.bit_length() - 1)
    if bits >= max_count.bit_length():
        raise EnumerationBoundError(
            f"at least 2^{bits} graded subspaces exceed the bound {max_count}")
    total = math.prod(gaussian_binomial(n, k, q) for n, k in nk)
    check_count(total, "graded subspaces", max_count)
    return total


def _graded_subspaces(space: RepSpace, sub_key: tuple,
                      max_count: int = DEFAULT_MAX_POINTS):
    """Every graded subspace (see RepSpace) with the grade key sub_key, in
    product order over the vertices; none when a dimension is out of range.
    The bound (graded_subspace_count) is checked on the call, before any
    enumeration."""
    if not graded_subspace_count(space, sub_key, max_count):
        return iter(())
    per_vertex = [enumerate_subspaces(space.field, n, k, max_count)
                  for n, k in zip(space.key, sub_key)]
    return itertools.product(*per_vertex)


def stable_subspaces(space: RepSpace, x: tuple, sub_dims,
                     max_count: int = DEFAULT_MAX_POINTS) -> list[tuple]:
    """All x-stable graded subspaces (see RepSpace) with the dimension vector
    sub_dims, checked by grade_key."""
    return [U for U in _graded_subspaces(space, grade_key(space.quiver, sub_dims), max_count)
            if is_stable(space, x, U)]


def sub_point(space: RepSpace, x: tuple, U: tuple) -> tuple:
    """The restriction of x to a stable graded subspace U (see RepSpace), in
    echelon coordinates."""
    mats = []
    for m, Us, Ut in _graded_pieces(space, x, U):
        cols = []
        for j in range(Us.dim):
            c = Ut.coords(m.vec(Us.basis.column(j)))
            if c is None:
                raise ValueError("graded subspace is not stable")
            cols.append(c)
        data = tuple(tuple(cols[j][r] for j in range(Us.dim))
                     for r in range(Ut.dim))
        mats.append(Mat(space.field, data, cols=Us.dim))
    return tuple(mats)


def quotient_point(space: RepSpace, x: tuple, U: tuple) -> tuple:
    """The induced point on the quotient by a stable graded subspace U (see
    RepSpace), in the free-row coordinates of U."""
    mats = []
    for m, Us, Ut in _graded_pieces(space, x, U):
        cols = []
        for r in Us.free_rows:
            basis_vec = tuple(1 if i == r else 0 for i in range(Us.ambient))
            _, residue = Ut.reduce(m.vec(basis_vec))
            cols.append(residue)
        rows = len(Ut.free_rows)
        data = tuple(tuple(cols[j][i] for j in range(len(cols)))
                     for i in range(rows))
        mats.append(Mat(space.field, data, cols=len(cols)))
    return tuple(mats)


def extension_count(space_t: RepSpace, space_w: RepSpace) -> int:
    count = 1
    for (tt, ts), (wt, ws) in zip(space_t.edge_shapes, space_w.edge_shapes):
        count *= space_t.field.q ** (wt * ts)
    return count


def extensions_over(space_t: RepSpace, space_w: RepSpace, xt: tuple, xw: tuple,
                    big: RepSpace | None = None):
    """All points [[xt, 0], [M, xw]] in block form, quotient coordinates first;
    the span of the trailing coordinates is stable with restriction xw. The
    two spaces must share one graph and one field, and there must be at
    most DEFAULT_MAX_POINTS extensions; big is accepted but not read."""
    if space_t.quiver is not space_w.quiver and space_t.quiver != space_w.quiver:
        raise ValueError("extension requires points on the same graph")
    if space_t.field is not space_w.field:
        raise ValueError("extension requires one field")
    check_count(extension_count(space_t, space_w), "extensions", DEFAULT_MAX_POINTS)
    field = space_t.field
    shapes = [(wt, ts) for (tt, ts), (wt, ws)
              in zip(space_t.edge_shapes, space_w.edge_shapes)]
    entry_count = sum(r * c for r, c in shapes)
    zeros = [Mat.zeros(field, tt, ws) for (tt, _), (_, ws)
             in zip(space_t.edge_shapes, space_w.edge_shapes)]
    for digits in itertools.product(range(field.q), repeat=entry_count):
        corners = _mats_from_digits(field, shapes, digits)
        yield tuple(block2x2(field, a, z, m, b)
                    for a, z, m, b in zip(xt, zeros, corners, xw))
