"""Generalized Cartan data, their edge contractions, root data and reflections.

A datum is a finite label set I with a symmetric integer form i.j and two
weights phi1, phi2 >= 0 subject to

  (1)  i.i = 2*(phi1(i) - phi1(i)*phi2(i)), and
  (2)  i.j <= 0 with phi1(i) | i.j for i != j.

Contraction merges a pair (i+, i-) with equal phi1, both phi2 = 0 and
i+.i- != 0 into a single label whose phi2 counts the collapsed edges:
phi2hat(i0) = -(i+.i-)/phi1(i+) - 1. The form restricts along i0 = i+ + i-.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from operator import mul

from .ffalg import DEFAULT_MAX_POINTS, EnumerationBoundError, check_count


def _ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple, refusing any entry that is not an int (a bool or a
    float is refused, not truncated)."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} entry {v!r} is not an integer")
    return values


@dataclass(frozen=True)
class CartanDatum:
    labels: tuple[str, ...]
    form: tuple[tuple[int, ...], ...]
    phi1: tuple[int, ...]
    phi2: tuple[int, ...]

    @classmethod
    def make(cls, labels, form, phi1, phi2) -> "CartanDatum":
        labels = tuple(str(x) for x in labels)
        if isinstance(phi1, dict):
            phi1 = tuple(phi1[x] for x in labels)
        if isinstance(phi2, dict):
            phi2 = tuple(phi2[x] for x in labels)
        return cls(labels, tuple(_ints(row, "form") for row in form),
                   _ints(phi1, "phi1"), _ints(phi2, "phi2"))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    def value(self, i: str, j: str) -> int:
        return self.form[self.index(i)][self.index(j)]

    def phi1_of(self, label: str) -> int:
        return self.phi1[self.index(label)]

    def phi2_of(self, label: str) -> int:
        return self.phi2[self.index(label)]

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "form": [list(row) for row in self.form],
            "phi1": {x: v for x, v in zip(self.labels, self.phi1)},
            "phi2": {x: v for x, v in zip(self.labels, self.phi2)},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CartanDatum":
        return cls.make(payload["labels"], payload["form"], payload["phi1"], payload["phi2"])


@dataclass(frozen=True)
class ContractionPair:
    plus: str
    minus: str


def validate_cartan(datum: CartanDatum) -> list[str]:
    """All violations of the datum axioms, empty iff valid."""
    labels, form = datum.labels, datum.form
    n = len(labels)
    problems = ["duplicate labels"] if len(set(labels)) != n else []
    shape = _shape_problems(datum)
    if shape:
        return problems + shape
    for i in range(n):
        if datum.phi1[i] < 1:
            problems.append(f"phi1({labels[i]}) = {datum.phi1[i]} must be >= 1")
        if datum.phi2[i] < 0:
            problems.append(f"phi2({labels[i]}) = {datum.phi2[i]} must be >= 0")
    for i in range(n):
        for j in range(i + 1, n):
            if form[i][j] != form[j][i]:
                problems.append(f"form not symmetric at ({labels[i]}, {labels[j]})")
    for i in range(n):
        expected = 2 * (datum.phi1[i] - datum.phi1[i] * datum.phi2[i])
        if form[i][i] != expected:
            problems.append(
                f"{labels[i]}.{labels[i]} = {form[i][i]}, expected {expected} "
                f"from phi1 = {datum.phi1[i]}, phi2 = {datum.phi2[i]}")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = form[i][j]
            if v > 0:
                problems.append(f"{labels[i]}.{labels[j]} = {v} must be <= 0")
            elif datum.phi1[i] > 0 and v % datum.phi1[i] != 0:
                problems.append(
                    f"phi1({labels[i]}) = {datum.phi1[i]} does not divide "
                    f"{labels[i]}.{labels[j]} = {v}")
    return problems


def _shape_problems(datum: CartanDatum) -> list[str]:
    n = len(datum.labels)
    if len(datum.form) != n or any(len(row) != n for row in datum.form):
        return [f"form must be {n}x{n}"]
    if len(datum.phi1) != n or len(datum.phi2) != n:
        return ["phi1/phi2 length mismatch"]
    return []


def validate_pair(datum: CartanDatum, pair: ContractionPair) -> list[str]:
    """All reasons the pair cannot be contracted, empty iff it can. On a
    datum whose form or weights do not fit its labels (validate_cartan says
    which) only unknown labels are reported."""
    problems = []
    for lab in (pair.plus, pair.minus):
        if lab not in datum.labels:
            problems.append(f"unknown label {lab!r}")
    if problems or _shape_problems(datum):
        return problems
    if pair.plus == pair.minus:
        return [f"pair labels must differ, got {pair.plus!r} twice"]
    if merged_label(pair) in datum.labels:
        problems.append(f"merged label {merged_label(pair)!r} is already a label")
    if datum.phi1_of(pair.plus) != datum.phi1_of(pair.minus):
        problems.append(
            f"phi1 mismatch: phi1({pair.plus}) = {datum.phi1_of(pair.plus)} "
            f"!= phi1({pair.minus}) = {datum.phi1_of(pair.minus)}")
    for lab in (pair.plus, pair.minus):
        if datum.phi2_of(lab) != 0:
            problems.append(f"phi2({lab}) = {datum.phi2_of(lab)} must be 0")
    if datum.value(pair.plus, pair.minus) == 0:
        problems.append(f"{pair.plus}.{pair.minus} must be nonzero")
    return problems


def merged_label(pair: ContractionPair) -> str:
    return f"{pair.plus}+{pair.minus}"


def _merge(rows, ip: int, im: int) -> tuple:
    """Row ip becomes row ip + row im and row im is dropped.

    This is left multiplication by the matrix M whose i0 row is
    e_{i+} + e_{i-} and whose other rows are unit vectors. Merging a form
    F's rows and then its columns gives M F M^T, the Gram matrix of M's
    rows: F restricted to the sublattice where i0 = i+ + i- replaces the
    pair, so (M F M^T)[i0][i0] = i+.i+ + 2 i+.i- + i-.i-.
    """
    merged = tuple(a + b for a, b in zip(rows[ip], rows[im]))
    return tuple(merged if k == ip else row
                 for k, row in enumerate(rows) if k != im)


def _merged_labels(labels, pair: ContractionPair) -> tuple[str, ...]:
    """The labels with i+ renamed to i0 in place and i- dropped."""
    i0 = merged_label(pair)
    return tuple(i0 if x == pair.plus else x for x in labels if x != pair.minus)


def _merged_phi2(datum: CartanDatum, pair: ContractionPair) -> int:
    """phi2hat(i0) = -(i+.i-)/phi1(i+) - 1, the edges the contraction collapses."""
    phi1_plus = datum.phi1_of(pair.plus)
    joint = datum.value(pair.plus, pair.minus)
    assert joint % phi1_plus == 0
    return -joint // phi1_plus - 1


def contract_cartan(datum: CartanDatum, pair: ContractionPair) -> CartanDatum:
    """Merge the pair into one label; the new form is the restriction along
    i0 = i+ + i- and phi2hat(i0) = -(i+.i-)/phi1(i+) - 1."""
    bad = validate_cartan(datum) + validate_pair(datum, pair)
    if bad:
        raise ValueError("cannot contract: " + "; ".join(bad))
    ip, im = datum.index(pair.plus), datum.index(pair.minus)
    # M (M F)^T = M F M^T, since the validated form is symmetric
    form = _merge(tuple(zip(*_merge(datum.form, ip, im))), ip, im)
    keep = [k for k in range(len(datum.labels)) if k != im]
    phi1 = tuple(datum.phi1[k] for k in keep)
    phi2 = tuple(_merged_phi2(datum, pair) if k == ip else datum.phi2[k] for k in keep)
    out = CartanDatum(_merged_labels(datum.labels, pair), form, phi1, phi2)
    leftover = validate_cartan(out)
    assert not leftover, f"contraction broke the axioms: {leftover}"
    return out


def is_isomorphic(d1: CartanDatum, d2: CartanDatum):
    """A label bijection matching form, phi1 and phi2, or None.

    Backtracking with signature pruning; fine for the handful of labels these
    data carry.
    """
    if len(d1.labels) != len(d2.labels):
        return None

    def signature(d, i):
        return (d.phi1[i], d.phi2[i], d.form[i][i],
                tuple(sorted(d.form[i][j] for j in range(len(d.labels)) if j != i)))

    n = len(d1.labels)
    candidates = [[j for j in range(n) if signature(d2, j) == signature(d1, i)]
                  for i in range(n)]
    if any(not c for c in candidates):
        return None
    assignment: list[int] = []

    def extend(i):
        if i == n:
            return True
        for j in candidates[i]:
            if j in assignment:
                continue
            if any(d1.form[i][k] != d2.form[j][assignment[k]] for k in range(i)):
                continue
            assignment.append(j)
            if extend(i + 1):
                return True
            assignment.pop()
        return False

    if not extend(0):
        return None
    return {d1.labels[i]: d2.labels[assignment[i]] for i in range(n)}


def realize_graph(datum: CartanDatum):
    """Build a graph with admissible automorphism whose orbit data reproduce
    the datum: phi1(i) vertices per label cycled by a, phi2(i) loop orbits,
    and -i.j cross edges in aligned a-orbits of size lcm(phi1(i), phi1(j)).

    Returns (Quiver, Automorphism). Requires lcm(phi1(i), phi1(j)) | i.j.
    Raises EnumerationBoundError, before building anything, if the graph
    would have more than DEFAULT_MAX_POINTS vertices plus edges.
    """
    from . import quiver as qv

    bad = validate_cartan(datum)
    if bad:
        raise ValueError("invalid datum: " + "; ".join(bad))
    n = len(datum.labels)
    for i in range(n):
        for j in range(i + 1, n):
            step = lcm(datum.phi1[i], datum.phi1[j])
            if datum.form[i][j] % step != 0:
                raise ValueError(
                    f"{datum.labels[i]}.{datum.labels[j]} = {datum.form[i][j]} is not a "
                    f"multiple of lcm(phi1) = {step}; no orbit pattern realizes it")
    size = sum(datum.phi1) + sum(a * b for a, b in zip(datum.phi1, datum.phi2))
    size -= sum(datum.form[i][j] for i in range(n) for j in range(i + 1, n))
    check_count(size, "vertices plus edges of the realized graph", DEFAULT_MAX_POINTS)

    vertices = []
    vperm = {}
    for i, lab in enumerate(datum.labels):
        size = datum.phi1[i]
        names = [f"{lab}@{k}" for k in range(size)]
        vertices.extend(names)
        for k in range(size):
            vperm[names[k]] = names[(k + 1) % size]

    edges = []
    eperm = {}
    for i, lab in enumerate(datum.labels):
        size = datum.phi1[i]
        for t in range(datum.phi2[i]):
            ids = [f"loop:{lab}:{t}:{k}" for k in range(size)]
            for k in range(size):
                edges.append(qv.Edge(ids[k], f"{lab}@{k}", f"{lab}@{k}"))
                eperm[ids[k]] = ids[(k + 1) % size]
    for i in range(n):
        for j in range(i + 1, n):
            total = -datum.form[i][j]
            if total == 0:
                continue
            span = lcm(datum.phi1[i], datum.phi1[j])
            li, lj = datum.labels[i], datum.labels[j]
            for t in range(total // span):
                ids = [f"edge:{li}|{lj}:{t}:{k}" for k in range(span)]
                for k in range(span):
                    edges.append(qv.Edge(
                        ids[k],
                        f"{li}@{k % datum.phi1[i]}",
                        f"{lj}@{k % datum.phi1[j]}"))
                    eperm[ids[k]] = ids[(k + 1) % span]

    quiver = qv.Quiver(tuple(vertices), tuple(edges))
    autom = qv.Automorphism(vperm, eperm)
    return quiver, autom


# ---------------------------------------------------------------------------
# Root data and reflections


@dataclass(frozen=True)
class RootDatum:
    """The simply connected lattice pair for a datum: Y = Z[I], X its dual.

    embed_y sends a label to its basis vector; embed_x sends j to the vector
    of pairings (k.j / phi1(k))_k, so <embed_y(i), embed_x(j)> = i.j/phi1(i).
    """

    labels: tuple[str, ...]
    embed_y: tuple[tuple[int, ...], ...]
    embed_x: tuple[tuple[int, ...], ...]

    @property
    def rank_y(self) -> int:
        return len(self.embed_y[0]) if self.embed_y else 0

    def y_of(self, label: str) -> tuple[int, ...]:
        return self.embed_y[self.labels.index(label)]

    def x_of(self, label: str) -> tuple[int, ...]:
        return self.embed_x[self.labels.index(label)]

    @staticmethod
    def pair(y: tuple[int, ...], x: tuple[int, ...]) -> int:
        return sum(a * b for a, b in zip(y, x))


def build_root_datum(datum: CartanDatum) -> RootDatum:
    bad = validate_cartan(datum)
    if bad:
        raise ValueError("invalid datum: " + "; ".join(bad))
    n = len(datum.labels)
    embed_y = tuple(tuple(int(k == i) for k in range(n)) for i in range(n))
    embed_x = []
    for j in range(n):
        col = []
        for k in range(n):
            v = datum.form[k][j]
            assert v % datum.phi1[k] == 0
            col.append(v // datum.phi1[k])
        embed_x.append(tuple(col))
    return RootDatum(datum.labels, embed_y, tuple(embed_x))


def contract_root_datum(rd: RootDatum, pair: ContractionPair,
                        datum: CartanDatum | None = None) -> RootDatum:
    """Root datum of the contracted datum inside the same lattice: the merged
    label embeds as the sum of the pair's images on both sides."""
    ip, im = rd.labels.index(pair.plus), rd.labels.index(pair.minus)
    new_labels = _merged_labels(rd.labels, pair)
    out = RootDatum(new_labels, _merge(rd.embed_y, ip, im), _merge(rd.embed_x, ip, im))
    if datum is not None:
        # the embedded pairings must match the contracted datum's own pairings
        contracted = contract_cartan(datum, pair)
        for a, la in enumerate(new_labels):
            for b, lb in enumerate(new_labels):
                got = RootDatum.pair(out.embed_y[a], out.embed_x[b])
                want = contracted.form[a][b] // contracted.phi1[a]
                if got != want:
                    raise ValueError(
                        f"pairing mismatch at ({la}, {lb}): embedded {got}, contracted {want}")
    return out


@dataclass(frozen=True)
class WeylElement:
    """An integer matrix acting on Z[labels]; columns are images of basis vectors."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, labels) -> "WeylElement":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        if self.labels != other.labels:
            raise ValueError("label mismatch")
        n = len(self.labels)
        prod = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n))
        return WeylElement(self.labels, prod)

    def apply(self, y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(row[k] * y[k] for k in range(len(y))) for row in self.matrix)

    def to_dict(self) -> dict:
        return {"labels": list(self.labels), "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_dict(cls, payload: dict) -> "WeylElement":
        labels = tuple(payload["labels"])
        matrix = tuple(_ints(row, "matrix") for row in payload["matrix"])
        n = len(labels)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"matrix must be {n}x{n} over the labels")
        return cls(labels, matrix)


def generalized_reflection(rd: RootDatum, coeffs) -> WeylElement:
    """y |-> y - <y, c'> c for c = sum coeffs[i] * i, c' the matching X-vector."""
    n = rd.rank_y
    c = [0] * n
    cx = [0] * n
    for lab, m in coeffs.items():
        yv, xv = rd.y_of(lab), rd.x_of(lab)
        for k in range(n):
            c[k] += m * yv[k]
            cx[k] += m * xv[k]
    cols = []
    for k in range(n):
        basis = tuple(int(t == k) for t in range(n))
        factor = cx[k]
        cols.append(tuple(basis[t] - factor * c[t] for t in range(n)))
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return WeylElement(rd.labels, matrix)


def reflection(rd: RootDatum, label: str) -> WeylElement:
    """The reflection s_label: y |-> y - <y, label'> label."""
    return generalized_reflection(rd, {label: 1})


def check_psi_identity(datum: CartanDatum, pair: ContractionPair):
    """Exact matrix check of s_{i0} = s_{i+} s_{i- + phi2hat(i0) i+} s_{i+}
    on Y = Z[I], where s_{i0}(y) = y - <y, i+' + i-'>(i+ + i-).

    Returns (holds, lhs, rhs) as WeylElements on the uncontracted labels.
    """
    bad = validate_cartan(datum) + validate_pair(datum, pair)
    if bad:
        raise ValueError("invalid input: " + "; ".join(bad))
    rd = build_root_datum(datum)
    lhs = generalized_reflection(rd, {pair.plus: 1, pair.minus: 1})
    s_plus = reflection(rd, pair.plus)
    middle = generalized_reflection(rd, {pair.minus: 1, pair.plus: _merged_phi2(datum, pair)})
    rhs = s_plus @ middle @ s_plus
    return lhs.matrix == rhs.matrix, lhs, rhs


def weyl_word_search(datum: CartanDatum, target: WeylElement, max_depth: int):
    """Breadth-first search for a product of simple reflections equal to the
    target matrix. Returns the word as a label list, or None if no word of
    length <= max_depth matches (which is not a nonexistence proof). Raises
    EnumerationBoundError once more than DEFAULT_MAX_POINTS distinct elements
    have been seen.
    """
    rd = build_root_datum(datum)
    if target.labels != datum.labels:
        raise ValueError("target labels must match the datum")
    # elements are flat row-major tuples, one object each; generators by column
    n = len(datum.labels)
    gens = [(lab, tuple(zip(*reflection(rd, lab).matrix))) for lab in datum.labels]
    ident = sum(WeylElement.identity(datum.labels).matrix, ())
    goal = sum(target.matrix, ())
    if goal == ident:
        return []
    # matrix -> (parent matrix, label); the word is rebuilt only on success
    parent = {ident: None}
    frontier = [ident]
    for _ in range(max_depth):
        nxt = []
        for matrix in frontier:
            for lab, g in gens:
                new = tuple(sum(map(mul, matrix[i:i + n], col))
                            for i in range(0, n * n, n) for col in g)
                if new == goal:
                    word = [lab]
                    step = parent[matrix]
                    while step is not None:
                        word.append(step[1])
                        step = parent[step[0]]
                    return word[::-1]
                if new not in parent:
                    parent[new] = (matrix, lab)
                    if len(parent) > DEFAULT_MAX_POINTS:
                        raise EnumerationBoundError(
                            f"more than {DEFAULT_MAX_POINTS} Weyl group "
                            f"elements within depth {max_depth}")
                    nxt.append(new)
        frontier = nxt
        if not frontier:
            break
    return None
