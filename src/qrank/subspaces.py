"""Canonical subspaces of E = F_q^n and the full subspace lattice.

A subspace is represented by the RREF basis of its row space (zero rows
removed), so equality of values is equality of subspaces.  Enumeration
generates RREF matrices directly from pivot-column choices, per
dimension, in a deterministic total order.
"""

from __future__ import annotations

import heapq
from itertools import combinations, product

from .errors import AmbientMismatch, BudgetExceeded, InvalidValue, LengthMismatch
from .gf import FieldContext
from .matspace import kernel_basis, rref_rows
from .qseries import galois_number, gaussian_binomial


class Subspace:
    __slots__ = ("field", "n", "basis")

    def __init__(self, field: FieldContext, n: int, basis):
        # trusted constructor: basis must already be canonical RREF rows
        self.field = field
        self.n = n
        self.basis = tuple(tuple(r) for r in basis)

    @classmethod
    def span(cls, vectors, n: int, field: FieldContext) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != n:
                raise LengthMismatch(f"vector of length {len(v)}, ambient dimension {n}")
        rows, _ = rref_rows(vecs, n, field)
        return cls(field, n, rows)

    @classmethod
    def zero(cls, n: int, field: FieldContext) -> "Subspace":
        return cls(field, n, ())

    @classmethod
    def full(cls, n: int, field: FieldContext) -> "Subspace":
        return cls(field, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.n != other.n or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.basis + other.basis, self.n, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        # (A^perp + B^perp)^perp, reusing the two primitives already needed
        self._check_ambient(other)
        return self.perp().sum(other.perp()).perp()

    def contains(self, other: "Subspace") -> bool:
        """True iff other is a subspace of self."""
        self._check_ambient(other)
        for v in other.basis:
            if not self._member(v):
                return False
        return True

    def _member(self, vec) -> bool:
        field = self.field
        v = list(vec)
        for row in self.basis:
            pivot = next(j for j, c in enumerate(row) if c != 0)
            c = v[pivot]
            if c:
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard inner product."""
        if self.dim == 0:
            return Subspace.full(self.n, self.field)
        return Subspace(self.field, self.n, kernel_basis(self.basis, self.n, self.field))

    def canonical_key(self) -> str:
        return ";".join(",".join(str(v) for v in row) for row in self.basis)

    @classmethod
    def from_key(cls, text: str, n: int, field: FieldContext) -> "Subspace":
        if not text:
            return cls.zero(n, field)
        try:
            rows = [[int(v) for v in part.split(",")] for part in text.split(";")]
        except ValueError:
            raise InvalidValue(f"subspace key {text!r} is not rows of integers") from None
        if not all(0 <= v < field.q for row in rows for v in row):
            raise InvalidValue(f"subspace key entries must lie in [0, {field.q})")
        return cls.span(rows, n, field)

    def sort_key(self):
        return (self.dim, self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.key, self.n, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n}, q={self.field.q}, [{self.canonical_key()}])"


def orthogonal_complement(A: Subspace) -> Subspace:
    return A.perp()


def _rref_bases_with_pivots(n: int, pivots, field: FieldContext):
    # every RREF matrix with these pivot columns, in increasing order: the
    # free entries run through product() in row-major order, the order in
    # which tuples of rows compare
    pivot_set = set(pivots)
    free = [
        (i, j)
        for i in range(len(pivots))
        for j in range(n)
        if j > pivots[i] and j not in pivot_set
    ]
    for assignment in product(field.elements(), repeat=len(free)):
        rows = [[0] * n for _ in pivots]
        for i, j in enumerate(pivots):
            rows[i][j] = 1
        for (i, j), v in zip(free, assignment):
            rows[i][j] = v
        yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(n: int, field: FieldContext, dim_filter: int | None = None):
    """All subspaces of F_q^n, by dimension then lexicographic basis order.

    Streams: each dimension merges the sorted streams of its pivot choices,
    so memory stays at one generator per pivot choice."""
    dims = range(n + 1) if dim_filter is None else [dim_filter]
    for d in dims:
        if not 0 <= d <= n:
            continue
        streams = [_rref_bases_with_pivots(n, pivots, field) for pivots in combinations(range(n), d)]
        for basis in heapq.merge(*streams):
            yield Subspace(field, n, basis)


class SubspaceLattice:
    """The full lattice of subspaces of F_q^n with precomputed structure.

    Intended for the small ambient dimensions the identity checks sweep
    over: a lattice of more than LATTICE_LIMIT subspaces is refused with
    BudgetExceeded before anything is enumerated.  The join, meet and
    containment index tables are built together, lazily, on first use of
    any of them, from member sets (no linear algebra): meet is the AND of
    two member bitmasks, join and containment follow from meet and perp.
    """

    def __init__(self, n: int, field: FieldContext):
        check_subspace_count(n, field.q, LATTICE_LIMIT, "the lattice limit")
        self.n = n
        self.field = field
        self.subspaces = list(enumerate_subspaces(n, field))
        self.index = {S.basis: i for i, S in enumerate(self.subspaces)}
        self.dims = [S.dim for S in self.subspaces]
        self.perp = [self.index[S.perp().basis] for S in self.subspaces]
        self.full_index = self.index[Subspace.full(n, field).basis]
        self.zero_index = 0
        self._below = None
        self._join = None
        self._meet = None

    def __len__(self):
        return len(self.subspaces)

    def index_of(self, S: Subspace) -> int:
        return self.index[S.basis]

    def _member_mask(self, S: Subspace) -> int:
        # bit v is set iff the vector with base-q digits v (first coordinate
        # least significant) lies in S; members are spanned with the field's
        # own add/mul, so extension fields are correct
        field, q = self.field, self.field.q
        members = [(0,) * self.n]
        for row in S.basis:
            multiples = [tuple(field.mul(c, x) for x in row) for c in range(1, q)]
            members += [tuple(map(field.add, u, w)) for u in members for w in multiples]
        places = [q**t for t in range(self.n)]
        bits = bytearray(q**self.n)
        for v in members:
            bits[sum(x * t for x, t in zip(v, places))] = 1
        # one byte per vector, most significant first, read as a base-2 numeral
        return int(bits[::-1].translate(_BINARY_DIGITS), 2)

    def _build_tables(self):
        # A ^ B is the subspace whose member set is the AND of theirs;
        # A + B = (A^perp ^ B^perp)^perp, and B <= A iff A ^ B = B
        masks = [self._member_mask(S) for S in self.subspaces]
        by_mask = {mask: i for i, mask in enumerate(masks)}
        perp = self.perp
        meet = [[by_mask[a & b] for b in masks] for a in masks]
        join = [[perp[row[pj]] for pj in perp] for row in (meet[pi] for pi in perp)]
        below = [tuple(j for j, k in enumerate(row) if k == j) for row in meet]
        self._join, self._meet, self._below = join, meet, below

    @property
    def below(self):
        """below[i] = tuple of indices j with S_j a subspace of S_i."""
        if self._below is None:
            self._build_tables()
        return self._below

    @property
    def join(self):
        if self._join is None:
            self._build_tables()
        return self._join

    @property
    def meet(self):
        if self._meet is None:
            self._build_tables()
        return self._meet


# the edge lattices F_2^6 (2825 subspaces) and F_3^5 (2664) fit; F_2^7
# (29212, tables of 853M entries) does not
LATTICE_LIMIT = 3000

_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def subspace_count_exponent(n: int, dim: int | None = None) -> int:
    """e with at least q^e subspaces of F_q^n (of dimension `dim`, if
    given), more than 2^e when e > 0: [n, d]_q > q^(d(n-d)) for 0 < d < n,
    and the whole lattice holds its middle dimension."""
    d = n // 2 if dim is None else dim
    return d * (n - d) if 0 < d < n else 0


def check_subspace_count(n: int, q: int, limit: int, limit_name: str, dim: int | None = None) -> int:
    """The number of subspaces of F_q^n, of dimension `dim` if given.

    Raises BudgetExceeded, naming `limit_name`, `limit` and the size, when
    it is above `limit`.  A count far above the limit is never formed: it
    is refused from its lower bound 2^e once 2^e reaches limit^2.
    """
    e = subspace_count_exponent(n, dim)
    if e >= 2 * limit.bit_length():
        size = f"more than 2^{e}"
    else:
        size = galois_number(n, q) if dim is None else gaussian_binomial(n, dim, q)
        if size <= limit:
            return size
    of_dim = "" if dim is None else f" of dimension {dim}"
    raise BudgetExceeded(
        f"the subspace lattice of F_{q}^{n} has {size} subspaces{of_dim}, above {limit_name} of {limit}"
    )


_LATTICE_CACHE: dict = {}


def lattice(n: int, field: FieldContext) -> SubspaceLattice:
    key = (field.key, n)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = SubspaceLattice(n, field)
    return _LATTICE_CACHE[key]
