"""Hall algebras of a quiver over a finite field, with exact Q(sqrt q)
coefficients.

Elements are G-invariant functions on representation points, stored as
finitely supported coefficient maps over (dimension vector, orbit id);
HallElement and TensorElement (its tensor square) share one sparse-vector
base for their linear operations, JSON and repr. The product is the
push-pull convolution evaluated through stable graded subspaces, twisted by
q^{-m/2}; the flags are counted on integer point codes by the repspace flag
kernel, never on matrices. Restriction sums over block-triangular
extensions, twisted by q^{-m*/2}, whose counts follow from the same flag
counts by Riedtmann's formula. diagram_star_oracle recomputes the product on
Mat points. A contraction site equips the algebra with the heart subspace
(contraction edges invertible), the transport maps to and from the
contracted quiver's Hall algebra, and the verification suites, which walk
one basis enumeration (_basis, _basis_pairs) and share one site config.
"""

from __future__ import annotations

import itertools
import math

from .cache import OrbitCache
from .ffalg import DEFAULT_MAX_POINTS, Field, check_count
from .quiver import (Quiver, cartan_of, contract_quiver, identity_automorphism,
                     make_orbit_pair)
from .repspace import (RepSpace, act, contract_point, enumerate_group,
                       grade_key, group_order, is_heart, orbits,
                       quotient_point, stable_flag_codes, stable_subspaces,
                       sub_point)
from .scalars import SqrtQScalar


class HallContext:
    """Shared machinery for one (quiver, q): interned representation spaces,
    orbit tables, and memoized structure constants. A public method takes a
    grade as a dict over the vertices or a sequence in vertex order and
    checks it with grade_key; the Hall layer below passes grade keys to the
    underscored ones."""

    def __init__(self, quiver: Quiver, q: int, cache: OrbitCache | None = None,
                 max_points: int = DEFAULT_MAX_POINTS):
        self.quiver = quiver
        self.field = Field(q)
        self.cache = cache
        self.max_points = max_points
        self.cartan = cartan_of(quiver, identity_automorphism(quiver))
        self._spaces: dict = {}
        self._tables: dict = {}
        self._flag_tables: dict = {}
        self._product_grades: dict = {}
        self._ext_tables: dict = {}
        self._oracle_flags: dict = {}
        self._group_profiles: dict = {}

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def zero_key(self) -> tuple:
        return (0,) * len(self.quiver.vertices)

    def space(self, dims) -> RepSpace:
        return self._space(grade_key(self.quiver, dims))

    def _space(self, key: tuple) -> RepSpace:
        if key not in self._spaces:
            self._spaces[key] = RepSpace(self.quiver, self.field, key)
        return self._spaces[key]

    def table(self, dims):
        return self._table(grade_key(self.quiver, dims))

    def _table(self, key: tuple):
        if key not in self._tables:
            self._tables[key] = orbits(self._space(key),
                                       max_points=self.max_points,
                                       cache=self.cache)
        return self._tables[key]

    def sym_pairing(self, d1, d2) -> int:
        """The symmetric form of the attached Cartan datum on dim vectors."""
        return self._pairing(grade_key(self.quiver, d1), grade_key(self.quiver, d2))

    def _pairing(self, k1: tuple, k2: tuple) -> int:
        return sum(a * b * self.cartan.form[i][j]
                   for i, a in enumerate(k1) for j, b in enumerate(k2))

    def scalar(self, a=0, b=0) -> SqrtQScalar:
        return SqrtQScalar(self.q, a, b)


def m_omega(quiver: Quiver, tau: tuple, omega: tuple) -> int:
    """sum_v tau_v omega_v + sum over edges h of tau_{h'} omega_{h''}, on
    grade keys."""
    vindex = quiver.vertex_index
    return (sum(t * w for t, w in zip(tau, omega))
            + sum(tau[vindex[e.source]] * omega[vindex[e.target]]
                  for e in quiver.edges))


def m_star_omega(quiver: Quiver, tau: tuple, omega: tuple) -> int:
    """m_omega with the vertex part negated."""
    return m_omega(quiver, tau, omega) - 2 * sum(t * w for t, w in zip(tau, omega))


def _accum(terms: dict, key, value) -> None:
    if key in terms:
        terms[key] = terms[key] + value
    else:
        terms[key] = value


def _accum_all(terms: dict, element) -> None:
    for key, value in element.terms.items():
        _accum(terms, key, value)


def _prune(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


class _Terms:
    """A finitely supported coefficient map over one context, zero
    coefficients pruned; the vector-space operations return the same class.
    A subclass names each key by _label (JSON) and _name (display), from
    which to_json and repr are built."""

    def __init__(self, ctx: HallContext, terms: dict):
        self.ctx = ctx
        self.terms = _prune(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.ctx is other.ctx
                and self.terms == other.terms)

    def __add__(self, other):
        _same_ctx(self, other)
        terms = dict(self.terms)
        _accum_all(terms, other)
        return type(self)(self.ctx, terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return type(self)(self.ctx, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        if not isinstance(c, SqrtQScalar):
            c = SqrtQScalar(self.ctx.q, c)
        return type(self)(self.ctx, {k: v * c for k, v in self.terms.items()})

    def to_json(self) -> dict:
        terms = [{**self._label(self.ctx, key), "coeff": c.to_json()}
                 for key, c in sorted(self.terms.items())]
        return {"q": self.ctx.q, "quiver": self.ctx.quiver.content_hash(),
                "terms": terms}

    def __repr__(self):
        # a coefficient with both a rational and a sqrt(q) part is a sum
        bits = [f"({c})*{self._name(key)}" if c.a and c.b
                else f"{c}*{self._name(key)}"
                for key, c in sorted(self.terms.items())]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class HallElement(_Terms):
    """Finitely supported coefficient map (dims key, orbit ordinal) -> scalar."""

    @staticmethod
    def _label(ctx: HallContext, key: tuple) -> dict:
        """The JSON name of the basis vector at key = (dims key, ordinal)."""
        return {"dim": dict(zip(ctx.quiver.vertices, key[0])), "orbit": f"o{key[1]}"}

    @staticmethod
    def _name(key: tuple) -> str:
        """The display name P[dims key,o{ordinal}] of the same vector."""
        return f"P[{key[0]},o{key[1]}]"

    def homogeneous(self) -> dict:
        """Grade -> sub-element, grouping the terms by dims key."""
        parts: dict = {}
        for (key, o), c in self.terms.items():
            parts.setdefault(key, {})[(key, o)] = c
        return {key: HallElement(self.ctx, t) for key, t in parts.items()}

    def grades(self) -> list[tuple]:
        return sorted({key for key, _ in self.terms})

    def value_at(self, dims, x) -> SqrtQScalar:
        """Evaluate at a point: the coefficient of the orbit containing x."""
        table = self.ctx.table(dims)
        return self.terms.get((table.space.key, table.ordinal_of(x)),
                              SqrtQScalar.zero(self.ctx.q))

    def support_ids(self) -> list[dict]:
        return [self._label(self.ctx, key) for key in sorted(self.terms)]

    @classmethod
    def from_json(cls, ctx: HallContext, payload: dict) -> "HallElement":
        if not isinstance(payload, dict):
            raise ValueError("an element must be a JSON object")
        if payload.get("q") != ctx.q:
            raise ValueError(f"element is over q={payload.get('q')}, "
                             f"context has q={ctx.q}")
        if payload.get("quiver") != ctx.quiver.content_hash():
            raise ValueError("element belongs to a different graph")
        terms: dict = {}
        for t in payload["terms"]:
            table = ctx.table(t["dim"])
            _accum(terms, (table.space.key, table.ordinal_of_id(t["orbit"])),
                   SqrtQScalar.from_json(ctx.q, t["coeff"]))
        return cls(ctx, terms)


def _same_ctx(f1, f2) -> None:
    if f1.ctx is not f2.ctx:
        raise ValueError("context mismatch")


def zero_element(ctx: HallContext) -> HallElement:
    return HallElement(ctx, {})


def char_function(ctx: HallContext, dims, orbit) -> HallElement:
    """The basis vector P_O: coefficient 1 on one orbit."""
    table = ctx.table(dims)
    ordinal = table.ordinal_of_id(orbit) if isinstance(orbit, str) else orbit
    if not 0 <= ordinal < table.count:
        raise KeyError(f"no orbit {orbit!r} at dims {table.space.key}")
    return _char_function(ctx, table.space.key, ordinal)


def _char_function(ctx: HallContext, key: tuple, ordinal: int) -> HallElement:
    """char_function at a grade key and an orbit ordinal the caller holds
    checked."""
    return HallElement(ctx, {(key, ordinal): SqrtQScalar.one(ctx.q)})


def unit(ctx: HallContext) -> HallElement:
    return char_function(ctx, ctx.zero_key, 0)


def _flag_table(ctx: HallContext, tkey: tuple, wkey: tuple) -> dict:
    """(t, w) -> {big orbit -> number of stable graded U in its representative
    with dim U = wkey, quotient in orbit t, restriction in orbit w}, counted
    by the flag kernel on the representatives' codes."""
    memo_key = (tkey, wkey)
    if memo_key in ctx._flag_tables:
        return ctx._flag_tables[memo_key]
    nkey = tuple(a + b for a, b in zip(tkey, wkey))
    big_space, big_table = ctx._space(nkey), ctx._table(nkey)
    ttable, wtable = ctx._table(tkey), ctx._table(wkey)
    flags = stable_flag_codes(big_space, ctx._space(wkey).dims, ctx.max_points)
    out: dict = {}
    for big, rank in enumerate(big_table.rep_ranks):
        for qcode, scode in flags(rank):
            bucket = out.setdefault((ttable.index[qcode], wtable.index[scode]), {})
            bucket[big] = bucket.get(big, 0) + 1
    ctx._flag_tables[memo_key] = out
    return out


def _product_grade(ctx: HallContext, tkey: tuple, wkey: tuple) -> tuple:
    """(tkey + wkey, q^{-m/2}) for a homogeneous pair, memoized on the
    context: both depend on the grades only."""
    memo_key = (tkey, wkey)
    if memo_key not in ctx._product_grades:
        m = m_omega(ctx.quiver, tkey, wkey)
        ctx._product_grades[memo_key] = (tuple(a + b for a, b in zip(tkey, wkey)),
                                         SqrtQScalar.half_power(ctx.q, -m))
    return ctx._product_grades[memo_key]


def _convolve(f1: HallElement, f2: HallElement, twisted: bool) -> HallElement:
    """Sum over flag-table buckets of c1 c2 times the flag count, each
    homogeneous pair scaled by q^{-m/2} when twisted."""
    _same_ctx(f1, f2)
    ctx = f1.ctx
    terms: dict = {}
    for (tk, t), c1 in f1.terms.items():
        for (wk, w), c2 in f2.terms.items():
            bucket = _flag_table(ctx, tk, wk).get((t, w))
            if not bucket:
                continue
            nk, twist = _product_grade(ctx, tk, wk)
            c = c1 * c2 * twist if twisted else c1 * c2
            for big, count in bucket.items():
                _accum(terms, (nk, big), c * count)
    return HallElement(ctx, terms)


def star(f1: HallElement, f2: HallElement) -> HallElement:
    """The untwisted convolution: (f1 * f2)(y) = sum over y-stable graded U
    with dim U = grade(f2) of f1(y^{V/U}) f2(y^U)."""
    return _convolve(f1, f2, twisted=False)


def circ(f1: HallElement, f2: HallElement) -> HallElement:
    """The Hall product: q^{-m/2} times the convolution, per homogeneous pair."""
    return _convolve(f1, f2, twisted=True)


def diagram_star_oracle(f1: HallElement, f2: HallElement,
                        max_flags: int = 10_000) -> HallElement:
    """The convolution computed the long way round: every stable graded
    subspace together with every pair of graded isomorphisms onto the
    standard quotient and sub spaces, divided by the two group orders.

    Shared with star(): the orbit tables and the enumeration of candidate
    graded subspaces (enumerate_subspaces, under one bound check), nothing
    else. star() counts flags on point codes through the flag kernel; this
    route finds them on Mat points through stable_subspaces, quotient_point
    and sub_point, never reads the flag table, uses no Riedtmann factor,
    and sums each quotient and sub point over its whole group by Mat act()
    rather than assuming it stays in its orbit, so exact agreement with
    star() is a real consistency check.
    Memoized on the context: the flags of each grade pair with their
    points' group profiles, and each point's group profile. The bound on
    |G_t| |G_w| is checked on every call, before any enumeration.
    """
    _same_ctx(f1, f2)
    ctx = f1.ctx
    pairs = [(tk, wk) for tk in sorted({k for k, _ in f1.terms})
             for wk in sorted({k for k, _ in f2.terms})]
    orders = {}
    for tk, wk in pairs:
        ot, ow = group_order(ctx._space(tk)), group_order(ctx._space(wk))
        check_count(ot * ow, "flag isomorphisms", max_flags)
        orders[(tk, wk)] = ot * ow
    zero = SqrtQScalar.zero(ctx.q)
    terms: dict = {}
    for tk, wk in pairs:
        nk = tuple(a + b for a, b in zip(tk, wk))
        c1 = {o: c for (k, o), c in f1.terms.items() if k == tk}
        c2 = {o: c for (k, o), c in f2.terms.items() if k == wk}
        for big, flags in enumerate(_oracle_flags(ctx, tk, wk)):
            total = zero
            for qprofile, sprofile in flags:
                s1 = _group_sum(c1, qprofile)
                if s1 is not None:
                    s2 = _group_sum(c2, sprofile)
                    if s2 is not None:
                        total = total + s1 * s2
            if not total.is_zero():
                _accum(terms, (nk, big), total / orders[(tk, wk)])
    return HallElement(ctx, terms)


def _group_sum(coeffs: dict, profile: dict):
    """sum of coeffs[o] * n over the (orbit o, count n) of a profile, such as
    the group profile of x (giving sum over g in G of f(g.x)) or an extension
    counter; None when no orbit of the profile is in the support."""
    total = None
    for o, n in profile.items():
        if o in coeffs:
            term = coeffs[o] * n
            total = term if total is None else total + term
    return total


def _oracle_flags(ctx: HallContext, tkey: tuple, wkey: tuple) -> list:
    """big orbit -> [(group profile of the quotient point, of the sub point)
    for each stable graded U in its representative with dim U = wkey]."""
    memo_key = (tkey, wkey)
    if memo_key in ctx._oracle_flags:
        return ctx._oracle_flags[memo_key]
    nkey = tuple(a + b for a, b in zip(tkey, wkey))
    big_space, big_table = ctx._space(nkey), ctx._table(nkey)
    omega = ctx._space(wkey).dims
    out = []
    for big in range(big_table.count):
        y = big_table.representative(big)
        out.append([(_group_profile(ctx, tkey, quotient_point(big_space, y, U)),
                     _group_profile(ctx, wkey, sub_point(big_space, y, U)))
                    for U in stable_subspaces(big_space, y, omega,
                                              ctx.max_points)])
    ctx._oracle_flags[memo_key] = out
    return out


def _group_profile(ctx: HallContext, key: tuple, x: tuple) -> dict:
    """Orbit ordinal -> number of g in G with g.x in that orbit, by applying
    every group element to x. The caller has bounded the group order."""
    space = ctx._space(key)
    memo_key = (key, space.point_rank(x))
    if memo_key in ctx._group_profiles:
        return ctx._group_profiles[memo_key]
    table = ctx._table(key)
    profile: dict = {}
    for g in enumerate_group(space, math.inf):
        o = table.ordinal_of(act(space, g, x))
        profile[o] = profile.get(o, 0) + 1
    ctx._group_profiles[memo_key] = profile
    return profile


class TensorElement(_Terms):
    """Finitely supported map ((dims, orbit), (dims, orbit)) -> scalar."""

    @staticmethod
    def _label(ctx: HallContext, key: tuple) -> dict:
        return {"left": HallElement._label(ctx, key[0]),
                "right": HallElement._label(ctx, key[1])}

    @staticmethod
    def _name(key: tuple) -> str:
        return f"{HallElement._name(key[0])}⊗{HallElement._name(key[1])}"


def tensor(f1: HallElement, f2: HallElement) -> TensorElement:
    _same_ctx(f1, f2)
    terms: dict = {}
    for k1, c1 in f1.terms.items():
        for k2, c2 in f2.terms.items():
            _accum(terms, (k1, k2), c1 * c2)
    return TensorElement(f1.ctx, terms)


def _ext_table(ctx: HallContext, tkey: tuple, wkey: tuple) -> dict:
    """(t, w) -> {big orbit -> number of block-triangular extensions of the
    representative pair landing in it}, derived from the flag table by
    Riedtmann's formula ext = flag |Aut T| |Aut W| q^{t.w} / |Aut L|."""
    memo_key = (tkey, wkey)
    if memo_key in ctx._ext_tables:
        return ctx._ext_tables[memo_key]
    nkey = tuple(a + b for a, b in zip(tkey, wkey))
    aut = {}
    for key in (tkey, wkey, nkey):
        order = group_order(ctx._space(key))
        aut[key] = [order // size for size in ctx._table(key).sizes]
    hom = ctx.q ** sum(a * b for a, b in zip(tkey, wkey))
    out: dict = {}
    for (t, w), bucket in _flag_table(ctx, tkey, wkey).items():
        scale = aut[tkey][t] * aut[wkey][w] * hom
        counter = out[(t, w)] = {}
        for big, flags in bucket.items():
            count, rest = divmod(flags * scale, aut[nkey][big])
            if rest:
                raise AssertionError(
                    f"flag count {flags} at {tkey}+{wkey}, pair {(t, w)}, orbit "
                    f"{big} gives a non-integral extension count")
            counter[big] = count
    ctx._ext_tables[memo_key] = out
    return out


def res(f: HallElement, tau, omega) -> TensorElement:
    """Restriction to a split of the grade: coefficient at (t, w) is
    q^{-m*/2} times the sum of f over all extensions of the representatives."""
    quiver = f.ctx.quiver
    return _res(f, grade_key(quiver, tau), grade_key(quiver, omega))


def _res(f: HallElement, tk: tuple, wk: tuple) -> TensorElement:
    """res on grade keys."""
    ctx = f.ctx
    nk = tuple(a + b for a, b in zip(tk, wk))
    part = {o: c for (key, o), c in f.terms.items() if key == nk}
    if not part:
        if f.terms:
            raise ValueError("restriction dims do not sum to a grade of the element")
        return TensorElement(ctx, {})
    mult = SqrtQScalar.half_power(ctx.q, -m_star_omega(ctx.quiver, tk, wk))
    table = _ext_table(ctx, tk, wk)
    terms: dict = {}
    for (t, w), counter in table.items():
        total = _group_sum(part, counter)
        if total:
            terms[((tk, t), (wk, w))] = total * mult
    return TensorElement(ctx, terms)


def coproduct(f: HallElement) -> TensorElement:
    """Sum of res over every splitting of every grade of f."""
    terms: dict = {}
    for nk, part in f.homogeneous().items():
        for tk in itertools.product(*(range(n + 1) for n in nk)):
            wk = tuple(n - t for n, t in zip(nk, tk))
            _accum_all(terms, _res(part, tk, wk))
    return TensorElement(f.ctx, terms)


def tensor_mult(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """Componentwise product with the crossing twist q^{(d2.e1)/2}, where d2
    is the grade of the first element's right factor, e1 of the second
    element's left factor, paired by the symmetric Cartan form."""
    _same_ctx(t1, t2)
    ctx = t1.ctx
    terms: dict = {}
    products: dict = {}

    def _char_circ(k1, o1, k2, o2):
        key = (k1, o1, k2, o2)
        if key not in products:
            products[key] = circ(_char_function(ctx, k1, o1),
                                 _char_function(ctx, k2, o2))
        return products[key]

    for ((ak, ao), (bk, bo)), c1 in t1.terms.items():
        for ((ck, co), (dk, do)), c2 in t2.terms.items():
            twist = SqrtQScalar.half_power(ctx.q, ctx._pairing(bk, ck))
            left = _char_circ(ak, ao, ck, co).scale(c1 * c2 * twist)
            _accum_all(terms, tensor(left, _char_circ(bk, bo, dk, do)))
    return TensorElement(ctx, terms)


class HeartContext:
    """A contraction site on a quiver with identity automorphism: the
    contracted quiver's Hall context, the heart orbits (contraction edge
    invertible), and the orbit correspondence between the two sides."""

    def __init__(self, ctx: HallContext, plus: str, minus: str,
                 edge: str | None = None):
        self.ctx = ctx
        autom = identity_automorphism(ctx.quiver)
        pair = make_orbit_pair(ctx.quiver, autom, plus, minus, edge)
        self.pair = pair
        self.con = contract_quiver(ctx.quiver, autom, pair)
        self.plus_vertex = pair.plus_orbit[0]
        self.minus_vertex = pair.minus_orbit[0]
        self.orbit_size = len(pair.minus_orbit)
        self.hat = HallContext(self.con.quiver, ctx.q, cache=ctx.cache,
                               max_points=ctx.max_points)
        # the contracted quiver keeps every vertex but the minus one, so keys
        # map by index; a lifted key repeats the plus entry at the minus vertex
        big, hat = ctx.quiver.vertex_index, self.con.quiver.vertex_index
        self._plus, self._minus = big[self.plus_vertex], big[self.minus_vertex]
        self._drop = tuple(big[v] for v in self.con.quiver.vertices)
        self._lift = tuple(hat[self.plus_vertex if v == self.minus_vertex else v]
                           for v in ctx.quiver.vertices)
        self._maps: dict = {}

    def is_balanced(self, big_key: tuple) -> bool:
        return big_key[self._plus] == big_key[self._minus]

    def minus_dim(self, big_key: tuple) -> int:
        return big_key[self._minus]

    def lift_key(self, hat_key: tuple) -> tuple:
        if len(hat_key) != len(self._drop):
            raise ValueError(f"a contracted grade key has {len(self._drop)} entries")
        return tuple(hat_key[i] for i in self._lift)

    def drop_key(self, big_key: tuple) -> tuple:
        if len(big_key) != len(self._lift):
            raise ValueError(f"a grade key has {len(self._lift)} entries")
        if not self.is_balanced(big_key):
            raise ValueError("dimension vector is not balanced at the contraction")
        return tuple(big_key[i] for i in self._drop)

    def orbit_maps(self, big_key: tuple) -> tuple[dict, dict]:
        """(heart orbit -> contracted orbit, inverse). Built from the orbit
        representatives; the bijectivity is checked, not assumed."""
        if big_key in self._maps:
            return self._maps[big_key]
        hat_key = self.drop_key(big_key)
        space = self.ctx._space(big_key)
        table = self.ctx._table(big_key)
        hat_space = self.hat._space(hat_key)
        hat_table = self.hat._table(hat_key)
        to_hat: dict = {}
        for k in range(table.count):
            rep = table.representative(k)
            if is_heart(space, self.con, rep):
                to_hat[k] = hat_table.ordinal_of(
                    contract_point(space, self.con, rep, hat_space))
        values = sorted(to_hat.values())
        if values != list(range(hat_table.count)):
            raise AssertionError(
                f"heart orbits at {big_key} do not biject onto the contracted "
                f"orbits: got {values}, expected 0..{hat_table.count - 1}")
        from_hat = {v: k for k, v in to_hat.items()}
        self._maps[big_key] = (to_hat, from_hat)
        return self._maps[big_key]

    def heart_ordinals(self, big_key: tuple):
        """The heart orbits at big_key, as a set-like view."""
        return self.orbit_maps(big_key)[0].keys()


def mu_star(hc: HeartContext, fhat: HallElement, twisted: bool = True) -> HallElement:
    """Pull back along the contraction map: the coefficient moves to the
    matching heart orbit, scaled by q^{-n^2 s/2} where n is the merged-vertex
    dimension and s the contracted orbit size (1 at this layer)."""
    if fhat.ctx is not hc.hat:
        raise ValueError("context mismatch")
    terms: dict = {}
    for (hk, o), c in fhat.terms.items():
        bk = hc.lift_key(hk)
        _, from_hat = hc.orbit_maps(bk)
        if twisted:
            n = hc.minus_dim(bk)
            c = c * SqrtQScalar.half_power(hc.ctx.q, -n * n * hc.orbit_size)
        _accum(terms, (bk, from_hat[o]), c)
    return HallElement(hc.ctx, terms)


def mu_lower_star(hc: HeartContext, f: HallElement) -> HallElement:
    """The inverse of mu_star on heart-supported elements: push one fiber
    point down and undo the twist (the fiber sum divided by #GL gives the
    same value, since the fiber is a single gauge orbit)."""
    if f.ctx is not hc.ctx:
        raise ValueError("context mismatch")
    terms: dict = {}
    for (bk, o), c in f.terms.items():
        to_hat, _ = hc.orbit_maps(bk)
        if o not in to_hat:
            raise ValueError("element is not supported on the heart")
        n = hc.minus_dim(bk)
        c = c * SqrtQScalar.half_power(hc.ctx.q, n * n * hc.orbit_size)
        _accum(terms, (hc.drop_key(bk), to_hat[o]), c)
    return HallElement(hc.hat, terms)


def j_shriek(hc: HeartContext, f: HallElement) -> HallElement:
    """Extension by zero off the heart. Heart elements are already stored as
    functions on the whole space supported on heart orbits, so this validates
    the support and returns the element unchanged."""
    if f.ctx is not hc.ctx:
        raise ValueError("context mismatch")
    for (bk, o), _ in f.terms.items():
        if o not in hc.heart_ordinals(bk):
            raise ValueError("element is not supported on the heart")
    return f


def j_star(hc: HeartContext, f: HallElement) -> HallElement:
    """Restriction to the heart: drop every non-heart term."""
    if f.ctx is not hc.ctx:
        raise ValueError("context mismatch")
    terms = {}
    for (bk, o), c in f.terms.items():
        if o in hc.heart_ordinals(bk):
            terms[(bk, o)] = c
    return HallElement(hc.ctx, terms)


def psi(hc: HeartContext, fhat: HallElement) -> HallElement:
    """The embedding: twisted pullback followed by extension by zero."""
    return j_shriek(hc, mu_star(hc, fhat, twisted=True))


def complement_split(hc: HeartContext, f: HallElement) -> tuple[HallElement, HallElement]:
    """f = (heart part) + (complement part), split along the orbit partition."""
    heart = j_star(hc, f)
    return heart, f - heart


def _half_power_exponent(value: SqrtQScalar, q: int):
    """n with value = q^{n/2} exactly, or None. Since q >= 2, a or b of
    q^{n/2} has a numerator or denominator of at least 2^{(|n|-1)/2}, so
    |n| is below twice the bit length of the largest of them."""
    parts = (value.a, value.b)
    bound = 2 * max(max(abs(x.numerator), x.denominator) for x in parts).bit_length()
    return next((n for n in range(-bound, bound + 1)
                 if SqrtQScalar.half_power(q, n) == value), None)


def _check(name: str, check_id: str, passed: bool, **witness) -> dict:
    """One report entry. A failed check carries its witness, with each
    element serialized by to_json(); a passing one serializes nothing."""
    entry = {"name": name, "check_id": check_id,
             "status": "pass" if passed else "fail"}
    if not passed and witness:
        entry["witness"] = {k: v.to_json() if isinstance(v, _Terms) else v
                            for k, v in witness.items()}
    return entry


def _finish_report(command: str, config: dict, checks: list[dict]) -> dict:
    """A report passes only if it decided at least one check and none
    failed; one that decided none has status "empty"."""
    failures = sum(1 for c in checks if c["status"] == "fail")
    status = "fail" if failures else "pass" if checks else "empty"
    return {"command": command, "config": config, "checks": checks,
            "failures": failures, "status": status}


def _site_config(hc: HeartContext, max_dim: int, **extra) -> dict:
    """The config every contraction-site suite reports."""
    ctx = hc.ctx
    return {"q": ctx.q, "quiver": ctx.quiver.content_hash(), **extra,
            "plus": hc.plus_vertex, "minus": hc.minus_vertex,
            "edge": hc.pair.edge, "max_dim": max_dim}


def _key_pairs_upto(nvertices: int, max_dim: int):
    """All (tau, omega) key pairs with componentwise tau + omega <= max_dim."""
    rng = range(max_dim + 1)
    for tk in itertools.product(rng, repeat=nvertices):
        for wk in itertools.product(*(range(max_dim - t + 1) for t in tk)):
            yield tk, wk


def _keys_upto(nvertices: int, max_dim: int):
    return list(itertools.product(range(max_dim + 1), repeat=nvertices))


def _basis(ctx: HallContext, keys):
    """(key, P, name) for each basis vector P at each dims key in turn, orbits
    in ordinal order; key is (dims key, ordinal) and name its display name."""
    for dims in keys:
        for o in range(ctx._table(dims).count):
            yield (dims, o), _char_function(ctx, dims, o), HallElement._name((dims, o))


def _basis_pairs(ctx: HallContext, key_pairs):
    """(left, right) for each pair of basis vectors at each (tau, omega) in
    turn, each side as _basis yields it."""
    for tk, wk in key_pairs:
        for left in _basis(ctx, [tk]):
            for right in _basis(ctx, [wk]):
                yield left, right


def verify_embedding(hc: HeartContext, max_dim: int = 2) -> dict:
    """Multiplicativity and injectivity of the transport into the big algebra,
    plus the twist bookkeeping identity, exhaustively over basis pairs."""
    ctx, hat = hc.ctx, hc.hat
    nhat = len(hat.quiver.vertices)
    checks = []
    phi1 = hc.orbit_size
    for tk, wk in _key_pairs_upto(nhat, max_dim):
        t_big, w_big = hc.lift_key(tk), hc.lift_key(wk)
        lhs_m = m_omega(hat.quiver, tk, wk)
        rhs_m = m_omega(ctx.quiver, t_big, w_big)
        predicted = -2 * hc.minus_dim(t_big) * hc.minus_dim(w_big) * phi1
        checks.append(_check(
            f"twist identity at {tk}+{wk}", "contraction-twist-exponent",
            lhs_m - rhs_m == predicted,
            m_contracted=lhs_m, m_original=rhs_m,
            predicted_difference=predicted))
        for (_, f, fname), (_, g, gname) in _basis_pairs(hat, [(tk, wk)]):
            lhs = psi(hc, circ(f, g))
            rhs = circ(psi(hc, f), psi(hc, g))
            checks.append(_check(
                f"psi multiplicative on {fname}*{gname}",
                "embedding-multiplicative", lhs == rhs,
                f=f, g=g, psi_of_product=lhs, product_of_psi=rhs))
    for _, f, name in _basis(hat, _keys_upto(nhat, max_dim)):
        back = mu_lower_star(hc, j_star(hc, psi(hc, f)))
        checks.append(_check(
            f"round trip on {name}", "embedding-injective-roundtrip",
            back == f, f=f, back=back))
    config = _site_config(hc, max_dim,
                          contracted_quiver=hat.quiver.content_hash())
    return _finish_report("verify embedding", config, checks)


def verify_pbw(hc: HeartContext, max_dim: int = 2) -> dict:
    """Untwisted transport sends each contracted basis vector to the matching
    heart basis vector; the twisted transport differs by exactly q^{-n^2/2}."""
    ctx, hat = hc.ctx, hc.hat
    checks = []
    for (nk, o), f, name in _basis(hat, _keys_upto(len(hat.quiver.vertices),
                                                   max_dim)):
        bk = hc.lift_key(nk)
        n = hc.minus_dim(bk)
        expected = _char_function(ctx, bk, hc.orbit_maps(bk)[1][o])
        plain = j_shriek(hc, mu_star(hc, f, twisted=False))
        checks.append(_check(
            f"untwisted transport of {name}", "pbw-transport-untwisted",
            plain == expected, transported=plain, expected=expected))
        twisted = psi(hc, f)
        twist = SqrtQScalar.half_power(ctx.q, -n * n * hc.orbit_size)
        checks.append(_check(
            f"twisted transport of {name}", "pbw-transport-twisted",
            twisted == expected.scale(twist), transported=twisted))
    return _finish_report("verify pbw", _site_config(hc, max_dim), checks)


def _lifted_key_pairs(hc: HeartContext, max_dim: int) -> list:
    """The big-quiver (tau, omega) pairs lifted from the contracted ones."""
    return [(hc.lift_key(tk), hc.lift_key(wk))
            for tk, wk in _key_pairs_upto(len(hc.hat.quiver.vertices), max_dim)]


def verify_ideal(hc: HeartContext, max_dim: int = 2) -> dict:
    """Products of a non-heart basis vector with anything (either side) stay
    outside the heart, over all balanced grades in range."""
    checks = []
    for ((tk, o1), f, fname), (_, g, gname) in _basis_pairs(
            hc.ctx, _lifted_key_pairs(hc, max_dim)):
        if o1 in hc.heart_ordinals(tk):
            continue
        for tag, prod in (("left", circ(f, g)), ("right", circ(g, f))):
            heart_part, _ = complement_split(hc, prod)
            checks.append(_check(
                f"{tag} product of non-heart {fname} with {gname} avoids "
                f"the heart", "complement-two-sided-ideal",
                heart_part.is_zero(),
                product=prod, heart_component=heart_part))
    return _finish_report("verify ideal", _site_config(hc, max_dim), checks)


def verify_ses(hc: HeartContext, max_dim: int = 2) -> dict:
    """The split exact sequence: restriction after extension is the identity,
    the kernel of restriction is exactly the non-heart span, the projection
    to the contracted algebra is multiplicative, and heart products never
    leak into the complement (so the sequence splits)."""
    ctx, hat = hc.ctx, hc.hat
    checks = []
    keys = [hc.lift_key(k) for k in _keys_upto(len(hat.quiver.vertices), max_dim)]
    for (bk, o), f, name in _basis(ctx, keys):
        if o in hc.heart_ordinals(bk):
            checks.append(_check(
                f"j* after j_! fixes {name}", "restrict-after-extend",
                j_star(hc, j_shriek(hc, f)) == f, f=f))
            checks.append(_check(
                f"j* keeps heart {name}", "restriction-kernel",
                not j_star(hc, f).is_zero(), f=f))
        else:
            checks.append(_check(
                f"j* kills non-heart {name}", "restriction-kernel",
                j_star(hc, f).is_zero(), f=f, restriction=j_star(hc, f)))

    def project(f):
        return mu_lower_star(hc, j_star(hc, f))

    for ((tk, o1), f, fname), ((wk, o2), g, gname) in _basis_pairs(
            ctx, _lifted_key_pairs(hc, max_dim)):
        prod = circ(f, g)
        lhs = project(prod)
        rhs = circ(project(f), project(g))
        checks.append(_check(
            f"projection multiplicative on {fname}*{gname}",
            "quotient-algebra-map", lhs == rhs,
            projected_product=lhs, product_of_projections=rhs))
        if o1 in hc.heart_ordinals(tk) and o2 in hc.heart_ordinals(wk):
            _, leak = complement_split(hc, prod)
            checks.append(_check(
                f"heart product {fname}*{gname} stays in the heart",
                "heart-subalgebra-split", leak.is_zero(),
                product=prod, complement_component=leak))
    return _finish_report("verify ses", _site_config(hc, max_dim), checks)


def verify_bialgebra(ctx: HallContext, max_dim: int = 2) -> dict:
    """Coproduct is an algebra map for the twisted tensor product, and is
    coassociative, over all basis pairs in range."""
    checks = []
    keys = _keys_upto(len(ctx.quiver.vertices), max_dim)
    for (_, f, fname), (_, g, gname) in _basis_pairs(
            ctx, itertools.product(keys, keys)):
        lhs = coproduct(circ(f, g))
        rhs = tensor_mult(coproduct(f), coproduct(g))
        checks.append(_check(
            f"coproduct multiplicative on {fname}*{gname}",
            "coproduct-algebra-map", lhs == rhs,
            coproduct_of_product=lhs, product_of_coproducts=rhs))
    for _, f, name in _basis(ctx, keys):
        left, right = _coassociativity_sides(ctx, f)
        checks.append(_check(
            f"coassociativity on {name}", "coproduct-coassociative",
            left == right, f=f))
    config = {"q": ctx.q, "quiver": ctx.quiver.content_hash(),
              "max_dim": max_dim}
    return _finish_report("verify bialgebra", config, checks)


def _coassociativity_sides(ctx: HallContext, f: HallElement) -> tuple[dict, dict]:
    """Triple-tensor expansions of (coproduct x id) and (id x coproduct)
    applied to coproduct(f), as pruned coefficient dicts."""
    left: dict = {}
    right: dict = {}
    for (a, b), c in coproduct(f).terms.items():
        for (x, y), c2 in coproduct(_char_function(ctx, *a)).terms.items():
            _accum(left, (x, y, b), c * c2)
        for (x, y), c2 in coproduct(_char_function(ctx, *b)).terms.items():
            _accum(right, (a, x, y), c * c2)
    return _prune(left), _prune(right)


def comult_compat(hc: HeartContext, max_dim: int = 1) -> dict:
    """Experiment, not an assertion: compare the big coproduct of psi(P)
    against psi applied in both tensor factors of the contracted coproduct.
    Records which components agree, the q^{1/2}-power ratio where both sides
    are nonzero, and the components only one side has."""
    ctx, hat = hc.ctx, hc.hat
    cases = []
    for _, f, _ in _basis(hat, _keys_upto(len(hat.quiver.vertices), max_dim)):
        big_side = coproduct(psi(hc, f))
        transported: dict = {}
        for (a, b), c in coproduct(f).terms.items():
            fa = psi(hc, _char_function(hat, *a)).scale(c)
            _accum_all(transported, tensor(fa, psi(hc, _char_function(hat, *b))))
        transported = _prune(transported)
        exponents = set()
        mismatches = []
        only_big = []
        only_hat = []
        for key in sorted(set(big_side.terms) | set(transported)):
            label = TensorElement._label(ctx, key)
            in_big = key in big_side.terms
            in_hat = key in transported
            if in_big and in_hat:
                ratio = big_side.terms[key] / transported[key]
                n = _half_power_exponent(ratio, ctx.q)
                if n is None:
                    mismatches.append({"component": label, "ratio": str(ratio)})
                else:
                    exponents.add(n)
            elif in_big:
                only_big.append({"component": label,
                                 "value": big_side.terms[key].to_json()})
            else:
                only_hat.append({"component": label,
                                 "value": transported[key].to_json()})
        cases.append({
            "element": f.to_json(),
            "shared_component_exponents": sorted(exponents),
            "non_power_ratios": mismatches,
            "components_only_in_big_coproduct": only_big,
            "components_only_in_transported_coproduct": only_hat,
        })
    return {"command": "verify comult-compat", "config": _site_config(hc, max_dim),
            "status": "observed", "cases": cases}
