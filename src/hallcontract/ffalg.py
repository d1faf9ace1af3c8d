"""Exact linear algebra over small finite fields.

Elements of F_q (q = p^e) are plain ints 0..q-1, read as base-p digit
vectors of polynomial coefficients. A Field builds its arithmetic tables
once, so everything downstream is int indexing; matrices are immutable
tuples of row tuples and therefore hashable. One row reduction on those
tables, _rref, is behind Mat.rank, Mat.inverse and the canonical basis of
Subspace.spanned_by; rank and inverse are memoized by value, and results
built internally skip the constructor's checks. Nothing here floats.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

#: Default ceiling for brute-force enumerations (points, group elements).
DEFAULT_MAX_POINTS = 1 << 20


class EnumerationBoundError(Exception):
    """An enumeration would exceed the configured size bound."""


def check_count(total: int, what: str, bound: int) -> None:
    """Raise EnumerationBoundError if total (of what) exceeds bound. A total
    over 2^64 is written by its bit length: str() refuses an int of more
    than 4,300 digits."""
    if total > bound:
        size = total if total.bit_length() <= 64 else f"at least 2^{total.bit_length() - 1}"
        raise EnumerationBoundError(f"{size} {what} exceed the bound {bound}")


class UnsupportedFieldError(ValueError):
    """No modulus is on file for the requested field size."""


# Irreducible monic moduli over F_p, coefficients ascending, leading 1 last.
# Hard-coded so that serialized field elements stay stable across builds.
_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (11, 1): (0, 1),
    (13, 1): (0, 1),
}
#: (p, e) of each field size q = p^e with a modulus on file
_SIZES = {p ** e: (p, e) for p, e in _MODULI}


class Field:
    """The finite field with q = p^e elements, interned per q."""

    _instances: dict[int, "Field"] = {}

    def __new__(cls, q: int) -> "Field":
        inst = cls._instances.get(q)
        if inst is None:
            inst = super().__new__(cls)
            inst._build(q)
            cls._instances[q] = inst
        return inst

    def _build(self, q: int) -> None:
        if q not in _SIZES:
            raise UnsupportedFieldError(f"no modulus on file for q={q}")
        p, e = _SIZES[q]
        self.q, self.p, self.e = q, p, e
        self.modulus = _MODULI[(p, e)]
        self._add = [[self._encode(self._poly_add(self._decode(a), self._decode(b)))
                      for b in range(q)] for a in range(q)]
        self._mul = [[self._encode(self._poly_mul(self._decode(a), self._decode(b)))
                      for b in range(q)] for a in range(q)]
        self._neg = [self._encode(tuple((-d) % p for d in self._decode(a))) for a in range(q)]
        # every nonzero row holds a 1, as the moduli on file are irreducible
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def _decode(self, a: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.e):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def _encode(self, digits) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def _poly_add(self, u, v):
        return tuple((x + y) % self.p for x, y in zip(u, v))

    def _poly_mul(self, u, v):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus of degree e
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * self.modulus[j]) % p
        return tuple(prod[:e])

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def units(self) -> range:
        return range(1, self.q)

    def primitive(self) -> int:
        """Smallest generator of the multiplicative group."""
        target = self.q - 1
        for g in self.units():
            x, order = g, 1
            while x != 1:
                x = self._mul[x][g]
                order += 1
            if order == target:
                return g
        raise UnsupportedFieldError(f"multiplicative group of F_{self.q} not cyclic")

    def __repr__(self) -> str:
        return f"Field({self.q})"


class Mat:
    """Immutable matrix over a Field: tuple-of-row-tuples, hashable, orderable."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, cols: int | None = None):
        data = tuple(tuple(row) for row in data)
        rows = len(data)
        if rows:
            ncols = len(data[0])
            if any(len(r) != ncols for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols does not match data")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            ncols = cols
        _mat(field, data, ncols, self)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return _mat(field, ((0,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return _mat(field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def from_flat(cls, field: Field, rows: int, cols: int, flat) -> "Mat":
        flat = tuple(flat)
        if len(flat) != rows * cols:
            raise ValueError("flat length does not match shape")
        return _mat(field, tuple(flat[i * cols:(i + 1) * cols] for i in range(rows)), cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.data))

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field.q, self.rows, self.cols, self.data))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field is not other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        mul = self.field._mul
        add = self.field._add
        ocols = range(other.cols)
        out = []
        for arow in self.data:
            row = [0] * other.cols
            for a, brow in zip(arow, other.data):
                mrow = mul[a]
                for j in ocols:
                    row[j] = add[row[j]][mrow[brow[j]]]
            out.append(tuple(row))
        return _mat(self.field, tuple(out), other.cols)

    def vec(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Apply to a column vector given as a tuple."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        mul = self.field._mul
        add = self.field._add
        out = [0] * self.rows
        for i, arow in enumerate(self.data):
            acc = 0
            for a, x in zip(arow, v):
                acc = add[acc][mul[a][x]]
            out[i] = acc
        return tuple(out)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def rank(self) -> int:
        return _rank(self.field, self.data)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        inv = _inverse(self.field, self.data)
        if inv is None:
            raise ZeroDivisionError("singular matrix")
        return inv

    def __repr__(self):
        return f"Mat({self.field.q}, {self.data!r}, cols={self.cols})"


_set_field, _set_rows, _set_cols, _set_data = (Mat.__dict__[name].__set__
                                               for name in Mat.__slots__)


def _mat(field: Field, data: tuple, cols: int, into=None) -> Mat:
    """A Mat on rows already tuples of cols entries: no copy, no check. Fills
    `into` (the constructor's instance) or a new one, past the guard."""
    m = object.__new__(Mat) if into is None else into
    _set_field(m, field)
    _set_rows(m, len(data))
    _set_cols(m, cols)
    _set_data(m, data)
    return m


#: Matrices each value memo (rank, inverse; keyed by field and rows) keeps.
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def _rank(field: Field, data: tuple) -> int:
    return len(_rref(field, [list(r) for r in data], len(data[0]) if data else 0))


@lru_cache(maxsize=_MEMO_SIZE)
def _inverse(field: Field, data: tuple) -> Mat | None:
    """The inverse of a square matrix, or None when it is singular."""
    n = len(data)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(data)]
    if _rref(field, work, n) != list(range(n)):
        return None
    return _mat(field, tuple(tuple(row[n:]) for row in work), n)


def _rref(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """Bring rows to reduced row echelon form in place, choosing pivots among
    the first ncols columns only, and return the pivot columns."""
    mul, add, neg, inv = field._mul, field._add, field._neg, field._inv
    pivots: list[int] = []
    r, nrows = 0, len(rows)
    for col in range(ncols):
        for pivot in range(r, nrows):
            if rows[pivot][col]:
                break
        else:
            continue
        prow = rows[pivot]
        if prow[col] != 1:
            scale = mul[inv[prow[col]]]
            prow = [scale[x] for x in prow]
        rows[pivot], rows[r] = rows[r], prow
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != r:
                m = mul[neg[c]]
                rows[i] = [add[x][m[y]] for x, y in zip(row, prow)]
        pivots.append(col)
        r += 1
    return pivots


def block2x2(field: Field, tl: Mat, tr: Mat, bl: Mat, br: Mat) -> Mat:
    """Assemble [[tl, tr], [bl, br]]; shapes must agree along shared edges."""
    if tl.rows != tr.rows or bl.rows != br.rows:
        raise ValueError("row mismatch in blocks")
    if tl.cols != bl.cols or tr.cols != br.cols:
        raise ValueError("column mismatch in blocks")
    top = tuple(a + b for a, b in zip(tl.data, tr.data))
    bot = tuple(a + b for a, b in zip(bl.data, br.data))
    return _mat(field, top + bot, tl.cols + tr.cols)


class Subspace:
    """A k-dimensional subspace of F_q^n, held as its reduced column-echelon basis.

    The basis matrix is n x k with pivot rows forming an identity block, so
    coordinates of a member vector are read off the pivot rows directly. Two
    equal subspaces always produce the identical basis.
    """

    __slots__ = ("field", "ambient", "dim", "basis", "pivots", "free_rows")

    def __init__(self, field: Field, ambient: int, basis: Mat, pivots: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "dim", len(pivots))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)
        pivot_set = set(pivots)
        object.__setattr__(self, "free_rows",
                           tuple(r for r in range(ambient) if r not in pivot_set))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field is other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field.q, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(q={self.field.q}, n={self.ambient}, pivots={self.pivots})"

    @classmethod
    def spanned_by(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """Canonicalize an arbitrary spanning set: its reduced row echelon
        form, read as columns."""
        rows = [list(v) for v in vectors]
        pivots = _rref(field, rows, ambient)
        data = tuple(tuple(row[r] for row in rows[:len(pivots)]) for r in range(ambient))
        return cls(field, ambient, Mat(field, data, cols=len(pivots)), tuple(pivots))

    def coords(self, v: tuple[int, ...]):
        """Coordinates of v in the echelon basis, or None if v is not a member."""
        c = tuple(v[p] for p in self.pivots)
        w = self.basis.vec(c)
        if any(self.field.sub(x, y) for x, y in zip(v, w)):
            return None
        return c

    def reduce(self, v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split v into (pivot coordinates, residue on the free rows).

        The residue is the image of v in the quotient by this subspace, read in
        the free-row coordinate system.
        """
        c = tuple(v[p] for p in self.pivots)
        w = self.basis.vec(c)
        diff = tuple(self.field.sub(x, y) for x, y in zip(v, w))
        return c, tuple(diff[r] for r in self.free_rows)

    def contains(self, v: tuple[int, ...]) -> bool:
        return self.coords(v) is not None


@lru_cache(maxsize=None)
def _subspaces(q: int, n: int, k: int) -> tuple[Subspace, ...]:
    field = Field(q)
    if k < 0 or k > n:
        return ()
    out = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [r for r in range(n) if r not in pivot_set]
        free_positions = [(r, j) for j, p in enumerate(pivots) for r in free if r > p]
        # the n x k basis: a 1 at each pivot, zeros above, free values below
        rows = [[0] * k for _ in range(n)]
        for j, p in enumerate(pivots):
            rows[p][j] = 1
        for values in itertools.product(range(q), repeat=len(free_positions)):
            for (r, j), v in zip(free_positions, values):
                rows[r][j] = v
            out.append(Subspace(field, n, _mat(field, tuple(map(tuple, rows)), k),
                                pivots))
    return tuple(out)


def enumerate_subspaces(field: Field, n: int, k: int,
                        max_count: int = DEFAULT_MAX_POINTS) -> tuple[Subspace, ...]:
    """All k-dimensional subspaces of F_q^n, canonical bases, fixed order."""
    check_count(gaussian_binomial(n, k, field.q),
                f"subspaces of dim {k} in F_{field.q}^{n}", max_count)
    return _subspaces(field.q, n, k)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n; [n, k] = [n, n - k], so
    the product runs over min(k, n - k) factors."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(min(k, n - k)):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def gl_order(n: int, q: int) -> int:
    """Order of GL_n(F_q): q^(n(n-1)/2) prod_{k=1..n} (q^k - 1)."""
    return q ** (n * (n - 1) // 2) * math.prod(q ** k - 1 for k in range(1, n + 1))


@lru_cache(maxsize=None)
def _gl_elements(q: int, n: int) -> tuple[Mat, ...]:
    field = Field(q)
    if n == 0:
        return (Mat(field, (), cols=0),)
    out = []
    for flat in itertools.product(range(q), repeat=n * n):
        m = Mat.from_flat(field, n, n, flat)
        if m.is_invertible():
            out.append(m)
    return tuple(out)


def enumerate_gl(field: Field, n: int) -> tuple[Mat, ...]:
    """All invertible n x n matrices, by brute-force filtering of at most
    DEFAULT_MAX_POINTS candidates."""
    check_count(field.q ** (n * n), f"candidates for GL_{n}(F_{field.q})",
                DEFAULT_MAX_POINTS)
    return _gl_elements(field.q, n)


def gl_generators(field: Field, n: int) -> list[Mat]:
    """A generating set of GL_n(F_q) with at most two elements: [D] at
    n = 1, {C, T} at q = 2 and {D, X} with X = C T at q > 2 for n >= 2.
    Here D = diag(alpha, 1, ..., 1) with alpha primitive, C is the n-cycle
    and T = I + E_12 the transvection; at n = 1, q = 2 the group is trivial.

    {D, C, T} generates GL_n(F_q). Conjugating T by the powers of C gives the
    cyclically adjacent transvections I + E_{i,i+1} (indices mod n), and for
    distinct i, j, k the commutator [I + aE_ij, I + bE_jk] = I + abE_ik, so
    they give every I + E_ij. Conjugating I + E_1j by D^k gives
    I + alpha^k E_1j, and with the commutators every I + aE_ij, a in F_q
    (at n = 2, I + E_21 is T conjugated by C and D scales it alike). These
    generate SL_n(F_q), and det D = alpha generates F_q*, so {D, C, T}
    generates GL_n(F_q); at q = 2, GL_n = SL_n and {C, T} does.

    {D, X} generates the same group at q > 2. C^-1 D C = diag(1, alpha, 1,
    ...) = D', so X^-1 D X = T^-1 D' T = D' + (1 - alpha)E_12 and
    Y = X^-1 D X D^-1 = A(I + bE_12) with A = diag(alpha^-1, alpha, 1, ...)
    and b = alpha(1 - alpha). Then D Y D^-1 = A(I + alpha b E_12), so
    Y^-1 D Y D^-1 = I + cE_12 with c = (alpha - 1)b = -alpha(1 - alpha)^2,
    nonzero as alpha is neither 0 nor 1. Conjugating by D^k gives
    I + alpha^k c E_12, every nonzero multiple of E_12, so T lies in
    <D, X>, and with it C = X T^-1."""
    if n == 0:
        return []

    def eye_with(i: int, j: int, a: int) -> Mat:
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = a
        return Mat(field, tuple(map(tuple, rows)), cols=n)

    if n == 1:
        return [eye_with(0, 0, field.primitive())] if field.q > 2 else []
    cycle = Mat(field, tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                             for i in range(n)), cols=n)
    trans = eye_with(0, 1, 1)
    if field.q == 2:
        return [cycle, trans]
    return [eye_with(0, 0, field.primitive()), cycle @ trans]
