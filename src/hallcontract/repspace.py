"""Representation spaces of a quiver over a finite field.

A point assigns to each edge h a matrix of shape dims(target) x dims(source);
the group prod_v GL(dims(v)) acts by (g.x)_h = g_{h''} x_h g_{h'}^{-1}. Points
are enumerated exactly, and each orbit is found by closing its rank-least
point under the group generators. The closure runs on integer point codes
(ranks), never on matrices: each generator acts F_p-linearly on a code's
base-p digits, so act() is applied to the basis codes only and the closure
applies generators by chunked table lookup. Extensions are enumerated here
too, as an independent cross-check of the structure constants the Hall
layer derives.

Only the identity automorphism is supported at this layer; the graded pieces
are indexed by vertices, not vertex orbits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .ffalg import (DEFAULT_MAX_POINTS, EnumerationBoundError, Field, Mat,
                    Subspace, block2x2, enumerate_gl, enumerate_subspaces,
                    gaussian_binomial, gl_generators, gl_order)
from .quiver import ContractedQuiver, Quiver


class UnsupportedAutomorphismError(ValueError):
    """Raised when a representation space is requested for a graph whose
    automorphism is not the identity."""


class RepSpace:
    """E_{V,Omega}: the matrices attached to each edge for a fixed grading."""

    def __init__(self, quiver: Quiver, field: Field, dims: dict, autom=None):
        if autom is not None and not autom.is_identity(quiver):
            raise UnsupportedAutomorphismError(
                "representation spaces are only computed for the identity "
                "automorphism; contract the graph first")
        if set(dims) != set(quiver.vertices):
            raise ValueError("dimension vector must cover exactly the vertices")
        for v, n in dims.items():
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"dimension at {v!r} must be a nonnegative integer")
        self.quiver = quiver
        self.field = field
        self.dims = {v: dims[v] for v in quiver.vertices}
        vindex = quiver.vertex_index
        self.edge_vertex_indices = tuple(
            (vindex[e.target], vindex[e.source]) for e in quiver.edges)
        self.edge_shapes = tuple(
            (dims[e.target], dims[e.source]) for e in quiver.edges)
        self.edge_index = {e.id: k for k, e in enumerate(quiver.edges)}
        self.point_entries = sum(r * c for r, c in self.edge_shapes)
        self.total_points = field.q ** self.point_entries

    def __repr__(self):
        return (f"RepSpace(q={self.field.q}, "
                f"dims={{{', '.join(f'{v}: {n}' for v, n in self.dims.items())}}})")

    def cache_key(self) -> str:
        dims_part = ",".join(f"{v}={self.dims[v]}" for v in self.quiver.vertices)
        return f"orbits:v1:q{self.field.q}:{self.quiver.content_hash()}:{dims_part}"

    def zero_point(self) -> tuple:
        return tuple(Mat.zeros(self.field, r, c) for r, c in self.edge_shapes)

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
        mats = []
        pos = 0
        for rows, cols in self.edge_shapes:
            n = rows * cols
            mats.append(Mat.from_flat(self.field, rows, cols, digits[pos:pos + n]))
            pos += n
        return tuple(mats)

    def point_to_dict(self, x: tuple) -> dict:
        return {e.id: [list(row) for row in m.data]
                for e, m in zip(self.quiver.edges, x)}

    def point_from_dict(self, payload: dict) -> tuple:
        if set(payload) != set(self.edge_index):
            raise ValueError("point must assign a matrix to every edge")
        q = self.field.q
        mats = []
        for e, (rows, cols) in zip(self.quiver.edges, self.edge_shapes):
            raw = payload[e.id]
            if len(raw) != rows or any(len(row) != cols for row in raw):
                raise ValueError(f"matrix at edge {e.id!r} must be {rows}x{cols}")
            flat = [v for row in raw for v in row]
            if any(not isinstance(v, int) or v < 0 or v >= q for v in flat):
                raise ValueError(f"entries at edge {e.id!r} must lie in 0..{q - 1}")
            mats.append(Mat.from_flat(self.field, rows, cols, flat))
        return tuple(mats)


def enumerate_points(space: RepSpace, max_points: int = DEFAULT_MAX_POINTS):
    """All points in rank order (entries vary fastest at the last edge)."""
    if space.total_points > max_points:
        raise EnumerationBoundError(
            f"{space.total_points} points exceed the bound {max_points}")
    q = space.field.q
    field = space.field
    shapes = space.edge_shapes
    for digits in itertools.product(range(q), repeat=space.point_entries):
        mats = []
        pos = 0
        for rows, cols in shapes:
            n = rows * cols
            mats.append(Mat.from_flat(field, rows, cols, digits[pos:pos + n]))
            pos += n
        yield tuple(mats)


def act(space: RepSpace, g: tuple, x: tuple, ginv: tuple | None = None) -> tuple:
    """(g.x)_h = g_{h''} x_h g_{h'}^{-1}; g is a tuple of matrices over the
    vertices in order."""
    if ginv is None:
        ginv = tuple(m.inverse() for m in g)
    return tuple(g[ti] @ m @ ginv[si]
                 for m, (ti, si) in zip(x, space.edge_vertex_indices))


def group_identity(space: RepSpace) -> tuple:
    return tuple(Mat.identity(space.field, space.dims[v])
                 for v in space.quiver.vertices)


def group_order(space: RepSpace) -> int:
    order = 1
    for v in space.quiver.vertices:
        order *= gl_order(space.dims[v], space.field.q)
    return order


def group_generators(space: RepSpace) -> list[tuple]:
    """Generators of prod_v GL(dims(v)): each GL generator placed at one vertex."""
    identity = group_identity(space)
    gens = []
    for vi, v in enumerate(space.quiver.vertices):
        for gamma in gl_generators(space.field, space.dims[v]):
            g = list(identity)
            g[vi] = gamma
            gens.append(tuple(g))
    return gens


def enumerate_group(space: RepSpace, max_count: int = DEFAULT_MAX_POINTS):
    total = group_order(space)
    if total > max_count:
        raise EnumerationBoundError(
            f"group order {total} exceeds the bound {max_count}")
    factors = [enumerate_gl(space.field, space.dims[v], max_count)
               for v in space.quiver.vertices]
    return [tuple(combo) for combo in itertools.product(*factors)]


#: The cached form of an orbit table, in constructor order.
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

    def orbit_id(self, k: int) -> str:
        if not 0 <= k < self.count:
            raise KeyError(f"no orbit ordinal {k}")
        return f"o{k}"

    def ordinal_of_id(self, orbit_id: str) -> int:
        if not isinstance(orbit_id, str) or not orbit_id.startswith("o"):
            raise KeyError(f"malformed orbit id {orbit_id!r}")
        try:
            k = int(orbit_id[1:])
        except ValueError:
            raise KeyError(f"malformed orbit id {orbit_id!r}") from None
        if not 0 <= k < self.count:
            raise KeyError(f"no orbit {orbit_id!r}; table has {self.count} orbits")
        return k

    def ordinal_of(self, x: tuple) -> int:
        return self.index[self.space.point_rank(x)]

    def id_of(self, x: tuple) -> str:
        return self.orbit_id(self.ordinal_of(x))

    def representative(self, k: int) -> tuple:
        return self.space.point_from_rank(self.rep_ranks[k])

    def points_of(self, k: int):
        if not 0 <= k < self.count:
            raise KeyError(f"no orbit ordinal {k}")
        for rank, ordinal in enumerate(self.index):
            if ordinal == k:
                yield self.space.point_from_rank(rank)

    def to_payload(self) -> dict:
        return {f: list(getattr(self, f)) for f in _PAYLOAD_FIELDS}


#: Bits of a point code that one table lookup reads; for odd p, as many
#: base-p digits as fit in that many bits.
_CHUNK_BITS = 8


def _code_digits(code: int, p: int, n: int) -> list[int]:
    """The n base-p digits of a point code, least significant first."""
    digits = []
    for _ in range(n):
        code, d = divmod(code, p)
        digits.append(d)
    return digits


def _generator_images(space: RepSpace):
    """A function taking a point code (its rank) to the codes of its images
    under every group generator, in generator order.

    A code is a base-p number with n = e*N digits, and each generator acts
    F_p-linearly on those digits, so act() is called on the n basis codes
    p**j only. The images under all G generators are packed side by side in
    one int: generator g owns the bits from g*n*B, one B-bit field per digit
    (B = 1 for p = 2). For each chunk of input digits a table maps the
    chunk's value to the packed, mod-p reduced images of that chunk; a code's
    packed images are the XOR (p = 2) or the sum (odd p) of its chunks'
    entries. For odd p, reduction tables then read B-bit fields a few at a
    time and return their digits mod p at their place in a code."""
    p = space.field.p
    n = space.field.e * space.point_entries
    gens = [(g, tuple(m.inverse() for m in g)) for g in group_generators(space)]
    if n == 0:
        return lambda code: [0] * len(gens)
    # columns[j]: the digits of every generator's image of p**j, generator-major
    columns = [[d for g, ginv in gens
                for d in _code_digits(space.point_rank(
                    act(space, g, space.point_from_rank(p ** j), ginv)), p, n)]
               for j in range(n)]
    chunk_digits = 1
    while p ** (chunk_digits + 1) <= 1 << _CHUNK_BITS:
        chunk_digits += 1
    radix = p ** chunk_digits
    chunks = -(-n // chunk_digits)
    bits = 1 if p == 2 else (chunks * (p - 1)).bit_length()
    tables = []
    for start in range(0, n, chunk_digits):
        vecs = [[0] * len(columns[0])]
        for col in columns[start:start + chunk_digits]:
            vecs = [[(a + d * b) % p for a, b in zip(vec, col)]
                    for d in range(p) for vec in vecs]
        tables.append([sum(d << (k * bits) for k, d in enumerate(vec))
                       for vec in vecs])
    slots = range(0, len(gens) * n * bits, n * bits)

    if p == 2:
        code_mask = (1 << n) - 1

        def images(code):
            packed = 0
            for table in tables:
                code, c = divmod(code, radix)
                packed ^= table[c]
            return [(packed >> s) & code_mask for s in slots]
        return images

    per_lookup = max(1, _CHUNK_BITS // bits)
    field_mask = (1 << bits) - 1
    reducers = []
    for start in range(0, n, per_lookup):
        width = min(per_lookup, n - start)
        table = [sum((f >> (i * bits) & field_mask) % p * p ** (start + i)
                     for i in range(width))
                 for f in range(1 << (width * bits))]
        reducers.append((table, start * bits, (1 << (width * bits)) - 1))
    lookups = [(t, s + offset, m) for s in slots for t, offset, m in reducers]

    def images(code):
        packed = 0
        for table in tables:
            code, c = divmod(code, radix)
            packed += table[c]
        # one slot's code is the sum of its len(reducers) consecutive parts
        parts = iter([t[(packed >> s) & m] for t, s, m in lookups])
        return list(map(sum, zip(*[parts] * len(reducers))))
    return images


def _close_orbits(space: RepSpace):
    # close each fresh representative under generator applications
    images = _generator_images(space)
    index = [-1] * space.total_points
    sizes: list[int] = []
    reps: list[int] = []
    for r in range(space.total_points):
        if index[r] != -1:
            continue
        k = len(reps)
        reps.append(r)
        index[r] = k
        frontier = [r]
        count = 1
        while frontier:
            for y in images(frontier.pop()):
                if index[y] == -1:
                    index[y] = k
                    count += 1
                    frontier.append(y)
        sizes.append(count)
    return index, sizes, reps


def _fits_space(space: RepSpace, payload) -> bool:
    """Whether a cached payload is shaped like an orbit table of the space:
    one ordinal per point, each ordinal k first met at rep_ranks[k] with the
    ordinals met in order, sizes the ordinals' counts, and every size a
    divisor of the group order. Linear in the points; it does not act."""
    if not isinstance(payload, dict):
        return False
    fields = [payload.get(f) for f in _PAYLOAD_FIELDS]
    if not all(isinstance(v, list) and set(map(type, v)) <= {int} for v in fields):
        return False
    index, sizes, rep_ranks = fields
    if len(index) != space.total_points or len(rep_ranks) != len(sizes):
        return False
    if dict(Counter(index)) != dict(enumerate(sizes)):
        return False
    first = dict(zip(reversed(index), range(len(index) - 1, -1, -1)))
    if first != dict(enumerate(rep_ranks)):
        return False
    order = group_order(space)
    return (all(a < b for a, b in zip(rep_ranks, rep_ranks[1:]))
            and all(order % s == 0 for s in sizes))


def orbits(space: RepSpace, max_points: int = DEFAULT_MAX_POINTS,
           cache=None) -> OrbitTable:
    """Orbit table of the group action, read from the cache when its entry
    fits the space (see _fits_space); any other entry is recomputed and
    overwritten."""
    if space.total_points > max_points:
        raise EnumerationBoundError(
            f"{space.total_points} points exceed the bound {max_points}")
    key = space.cache_key() if cache is not None else None
    if cache is not None:
        payload = cache.load(key)
        if _fits_space(space, payload):
            return OrbitTable(space, *(payload[f] for f in _PAYLOAD_FIELDS))
    table = OrbitTable(space, *_close_orbits(space))
    if cache is not None:
        cache.store(key, table.to_payload())
    return table


def contracted_dims(space: RepSpace, con: ContractedQuiver) -> dict:
    return {v: space.dims[v] for v in con.quiver.vertices}


def is_heart(space: RepSpace, con: ContractedQuiver, x: tuple) -> bool:
    """A point is in the heart when every contraction-edge matrix is invertible."""
    return all(x[space.edge_index[h]].is_invertible()
               for h in con.contraction_edges)


def contract_point(space: RepSpace, con: ContractedQuiver, x: tuple,
                   target_space: RepSpace | None = None) -> tuple:
    """The contracted point: kept edges copy over, an edge out of a collapsed
    vertex composes with the contraction edge into it, an edge into a
    collapsed vertex transports back through that edge's inverse."""
    if not is_heart(space, con, x):
        raise ValueError("point is not in the heart: a contraction edge is singular")
    if target_space is None:
        target_space = RepSpace(con.quiver, space.field, contracted_dims(space, con))
    inv = {h: x[space.edge_index[h]].inverse() for h in con.contraction_edges}
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


def _provenance_by_source(con: ContractedQuiver) -> dict:
    """original edge id -> (role, new edge id, contraction edge id)."""
    out = {}
    for new_id, kind in con.provenance.items():
        if kind[0] == "kept":
            out[kind[1]] = ("kept", new_id, None)
        elif kind[0] == "post":
            _, l1, h = kind
            out[l1] = ("post", new_id, h)
        else:
            _, h, l2 = kind
            out[l2] = ("pre", new_id, h)
    return out


def fiber_of_contraction(space: RepSpace, con: ContractedQuiver, xhat: tuple,
                         target_space: RepSpace | None = None,
                         max_count: int = DEFAULT_MAX_POINTS):
    """All heart points contracting onto xhat: one per invertible assignment
    to the contraction edges."""
    if target_space is None:
        target_space = RepSpace(con.quiver, space.field, contracted_dims(space, con))
    by_source = _provenance_by_source(con)
    total = 1
    for h in con.contraction_edges:
        rows, cols = space.edge_shapes[space.edge_index[h]]
        if rows != cols:
            return
        total *= gl_order(rows, space.field.q)
    if total > max_count:
        raise EnumerationBoundError(
            f"fiber size {total} exceeds the bound {max_count}")
    choices = [enumerate_gl(space.field, space.edge_shapes[space.edge_index[h]][0],
                            max_count)
               for h in con.contraction_edges]
    for combo in itertools.product(*choices):
        assign = dict(zip(con.contraction_edges, combo))
        assign_inv = {h: m.inverse() for h, m in assign.items()}
        mats = []
        for e in space.quiver.edges:
            if e.id in assign:
                mats.append(assign[e.id])
                continue
            role, new_id, h = by_source[e.id]
            xh = xhat[target_space.edge_index[new_id]]
            if role == "kept":
                mats.append(xh)
            elif role == "post":
                mats.append(xh @ assign_inv[h])
            else:
                mats.append(assign[h] @ xh)
        yield tuple(mats)


def _graded_pieces(space: RepSpace, x: tuple, U: dict):
    for m, (ti, si) in zip(x, space.edge_vertex_indices):
        yield m, U[space.quiver.vertices[si]], U[space.quiver.vertices[ti]]


def is_stable(space: RepSpace, x: tuple, U: dict) -> bool:
    """Whether the graded subspace U (vertex -> Subspace) satisfies
    x_h(U_{h'}) <= U_{h''} for every edge."""
    for m, Us, Ut in _graded_pieces(space, x, U):
        for j in range(Us.dim):
            if not Ut.contains(m.vec(Us.basis.column(j))):
                return False
    return True


def stable_subspaces(space: RepSpace, x: tuple, sub_dims: dict,
                     max_count: int = DEFAULT_MAX_POINTS) -> list[dict]:
    """All x-stable graded subspaces with the given dimension vector."""
    per_vertex = []
    total = 1
    for v in space.quiver.vertices:
        n = space.dims[v]
        k = sub_dims.get(v, 0)
        if k < 0 or k > n:
            return []
        total *= gaussian_binomial(n, k, space.field.q)
    if total > max_count:
        raise EnumerationBoundError(
            f"{total} graded subspaces exceed the bound {max_count}")
    for v in space.quiver.vertices:
        per_vertex.append(enumerate_subspaces(space.field, space.dims[v],
                                              sub_dims.get(v, 0), max_count))
    out = []
    for combo in itertools.product(*per_vertex):
        U = dict(zip(space.quiver.vertices, combo))
        if is_stable(space, x, U):
            out.append(U)
    return out


def sub_point(space: RepSpace, x: tuple, U: dict) -> tuple:
    """The restriction of x to a stable graded subspace, in echelon coordinates."""
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


def quotient_point(space: RepSpace, x: tuple, U: dict) -> tuple:
    """The induced point on the quotient, in the free-row coordinates of U."""
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


def sub_dims_of(U: dict) -> dict:
    return {v: s.dim for v, s in U.items()}


def quotient_dims_of(space: RepSpace, U: dict) -> dict:
    return {v: space.dims[v] - U[v].dim for v in space.quiver.vertices}


def extension_space(space_t: RepSpace, space_w: RepSpace) -> RepSpace:
    if space_t.quiver is not space_w.quiver and space_t.quiver != space_w.quiver:
        raise ValueError("extension requires points on the same graph")
    if space_t.field is not space_w.field:
        raise ValueError("extension requires one field")
    dims = {v: space_t.dims[v] + space_w.dims[v] for v in space_t.quiver.vertices}
    return RepSpace(space_t.quiver, space_t.field, dims)


def extension_count(space_t: RepSpace, space_w: RepSpace) -> int:
    count = 1
    for (tt, ts), (wt, ws) in zip(space_t.edge_shapes, space_w.edge_shapes):
        count *= space_t.field.q ** (wt * ts)
    return count


def extensions_over(space_t: RepSpace, space_w: RepSpace, xt: tuple, xw: tuple,
                    big: RepSpace | None = None,
                    max_count: int = DEFAULT_MAX_POINTS):
    """All points [[xt, 0], [M, xw]] in block form, quotient coordinates first;
    the span of the trailing coordinates is stable with restriction xw."""
    if big is None:
        big = extension_space(space_t, space_w)
    total = extension_count(space_t, space_w)
    if total > max_count:
        raise EnumerationBoundError(
            f"{total} extensions exceed the bound {max_count}")
    field = space_t.field
    shapes = [(wt, ts) for (tt, ts), (wt, ws)
              in zip(space_t.edge_shapes, space_w.edge_shapes)]
    entry_count = sum(r * c for r, c in shapes)
    for digits in itertools.product(range(field.q), repeat=entry_count):
        mats = []
        pos = 0
        for k, (rows, cols) in enumerate(shapes):
            n = rows * cols
            m = Mat.from_flat(field, rows, cols, digits[pos:pos + n])
            pos += n
            tt, ts = space_t.edge_shapes[k]
            wt, ws = space_w.edge_shapes[k]
            mats.append(block2x2(field, xt[k], Mat.zeros(field, tt, ws),
                                 m, xw[k]))
        yield tuple(mats)


def direct_sum_point(space_t: RepSpace, space_w: RepSpace,
                     xt: tuple, xw: tuple) -> tuple:
    field = space_t.field
    mats = []
    for k in range(len(space_t.edge_shapes)):
        tt, ts = space_t.edge_shapes[k]
        wt, ws = space_w.edge_shapes[k]
        mats.append(block2x2(field, xt[k], Mat.zeros(field, tt, ws),
                             Mat.zeros(field, wt, ts), xw[k]))
    return tuple(mats)
