"""Canonical subspaces of E = F_q^n and the full subspace lattice.

A subspace is represented by the RREF basis of its row space (zero rows
removed), so equality of values is equality of subspaces.  Enumeration
generates RREF bases directly, first row then the rest, per dimension,
in lexicographic order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import AmbientMismatch, InvalidValue, LengthMismatch, check_limit
from .gf import FieldContext, Value
from .matspace import rref_kernel, rref_rows
from .qseries import galois_number, gaussian_binomial


class Subspace(Value):
    __slots__ = ("field", "n", "basis")

    def __init__(self, field: FieldContext, n: int, basis):
        # trusted constructor: basis must already be canonical RREF rows, a tuple of row tuples
        self.field = field
        self.n = n
        self.basis = basis

    @classmethod
    def span(cls, vectors, n: int, field: FieldContext) -> "Subspace":
        # rref_rows copies each vector into its work rows, so the vectors
        # go to it as they are; a generator is listed once, to be read twice
        vectors = list(vectors)
        for v in vectors:
            if len(v) != n:
                raise LengthMismatch(f"vector of length {len(v)}, ambient dimension {n}")
        rows, _ = rref_rows(vectors, n, field)
        return cls(field, n, tuple(rows))

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
        """True iff other is a subspace of self: adding its rows keeps the rank."""
        self._check_ambient(other)
        return len(rref_rows(self.basis + other.basis, self.n, self.field)[0]) == self.dim

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard inner product, from the RREF rows as they are."""
        pivots = [row.index(1) for row in self.basis]
        return Subspace(self.field, self.n, tuple(rref_kernel(self.basis, pivots, self.n, self.field)))

    def canonical_key(self) -> str:
        return ";".join(",".join(str(v) for v in row) for row in self.basis)

    @classmethod
    def from_key(cls, text: str, n: int, field: FieldContext) -> "Subspace":
        if text in ("", "0"):  # `qrank lattice` lists the zero subspace as "0"
            return cls.zero(n, field)
        try:
            rows = [[int(v) for v in part.split(",")] for part in text.split(";")]
        except ValueError:
            raise InvalidValue(f"subspace key {text!r} is not rows of integers") from None
        if not all(0 <= v < field.q for row in rows for v in row):
            raise InvalidValue(f"subspace key entries must lie in [0, {field.q})")
        return cls.span(rows, n, field)

    def _key(self):
        return (self.field.key, self.n, self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n}, q={self.field.q}, [{self.canonical_key()}])"


def orthogonal_complement(A: Subspace) -> Subspace:
    return A.perp()


def _rref_bases(n: int, d: int, pivots, q: int):
    # every RREF basis of d rows of F_q^n with its pivots among `pivots`
    # (ascending), in increasing order.  A basis is its first row r_0, with
    # pivot p, then an RREF basis of the rest, whose pivots lie among the
    # later columns where r_0 is 0.  Tuples of rows compare row by row and
    # a later p makes a smaller r_0, so p runs last to first and the
    # entries after it run through product() order.  With no later column
    # to spare, the rest takes them all as pivots, so r_0 is 0 there.
    if not d:
        yield ()
        return
    for i in reversed(range(len(pivots) - d + 1)):
        p, later = pivots[i], pivots[i + 1 :]
        spare = len(later) >= d
        pools = [range(q) if spare or j not in later else (0,) for j in range(p + 1, n)]
        for tail in product(*pools):
            row = (0,) * p + (1,) + tail
            for rest in _rref_bases(n, d - 1, [j for j in later if not row[j]], q):
                yield (row,) + rest


def enumerate_subspaces(n: int, field: FieldContext, dim_filter: int | None = None):
    """All subspaces of F_q^n, by dimension then lexicographic basis order.

    Streams: `_rref_bases` generates each dimension's bases in that order,
    one row at a time, so memory stays at one generator per row."""
    dims = range(n + 1) if dim_filter is None else [dim_filter]
    for d in dims:
        if 0 <= d < n:
            for basis in _rref_bases(n, d, range(n), field.q):
                yield Subspace(field, n, basis)
        elif d == n >= 0:  # F_q^n alone, without nesting n generators
            yield Subspace.full(n, field)


class SubspaceLattice:
    """The full lattice of subspaces of F_q^n with precomputed structure.

    A lattice whose cover build would take more than LATTICE_LIMIT mask
    ANDs is refused with BudgetExceeded before anything is enumerated.
    Each subspace has a point mask: bit j is set iff the one-dimensional
    subspace at lattice index 1 + j (a projective point) lies in it.  A
    subspace is the span of its points, so the mask determines it and
    meet is the AND of two masks.  The lower covers of T are the meets of
    T with the hyperplanes that do not contain it.  perp[i] is the index
    of S_i^perp: a point's is its own `Subspace.perp`, one kernel per
    point, and past the points S = <r_0> + <R> along the plan, so S^perp
    is the meet of <r_0>^perp and <R>^perp, one AND.  The lattice is
    modular, so the polymatroid axioms need only covers and intervals of
    length 2 (see `qpolymatroid.verify_axioms`).

    The plan pairs each nonzero subspace with its parent, the span of its
    RREF rows after the first (an RREF basis one dimension down), and the
    point of its first row.  It is built once per lattice, with the point
    masks, which read their parents from it, and every restriction sweep
    of every code walks it (`qpolymatroid.from_code`).

    The |L|^2 join, meet and containment tables are one cached build from
    the same masks, on first read of any of them, for lattices of at most
    TABLE_LIMIT subspaces.  No check
    reads them; the test suite's exhaustive axiom oracle does.
    """

    def __init__(self, n: int, field: FieldContext):
        check_lattice_work(n, field.q)
        self.n = n
        self.field = field
        self.subspaces = list(enumerate_subspaces(n, field))
        self.index = {S.basis: i for i, S in enumerate(self.subspaces)}
        self.dims = [S.dim for S in self.subspaces]
        self.full_index = len(self) - 1  # enumeration ends with F_q^n
        self.perp = self._perps()

    def __len__(self):
        return len(self.subspaces)

    def index_of(self, S: Subspace) -> int:
        """The index of S; AmbientMismatch unless S lies in this lattice's
        F_q^n."""
        self.subspaces[0]._check_ambient(S)
        return self.index[S.basis]

    @cached_property
    def keys(self):
        """keys[i]: the canonical key of S_i."""
        return [S.canonical_key() for S in self.subspaces]

    @cached_property
    def plan(self):
        """(parents, points): for S_t with RREF rows r_0, R, parents[t] is
        the index of <R>, one dimension down, and points[t] the index of the
        point <r_0>, so S_t = <r_0> + <R>.  Both are 0 at the zero subspace."""
        index = self.index
        bases = [S.basis for S in self.subspaces]
        return [index[b[1:]] for b in bases], [index[b[:1]] for b in bases]

    @cached_property
    def point_masks(self):
        """point_masks[i]: bit j set iff point 1 + j lies in S_i."""
        add, mul, _, _ = self.field.tables
        q, index, parents = self.field.q, self.index, self.plan[0]
        masks = [0] * len(self)
        # by dimension, from the masks one dimension down: with RREF rows
        # r_0, r_1, R, every point of S lies in <r_1, R> or in one of the
        # <r_0 + c r_1, R>, c in F_q; those bases are RREF too
        for i, S in enumerate(self.subspaces):
            basis = S.basis
            if S.dim == 1:
                masks[i] = 1 << (i - 1)
            elif S.dim > 1:
                (r0, r1), rest = basis[:2], basis[2:]
                mask = masks[parents[i]]
                for c in range(q):
                    row = tuple([add[a * q + mul[c * q + b]] for a, b in zip(r0, r1)])
                    mask |= masks[index[(row,) + rest]]
                masks[i] = mask
        return masks

    @cached_property
    def mask_index(self):
        """mask_index[mask]: the index of the subspace with this point mask."""
        return {mask: i for i, mask in enumerate(self.point_masks)}

    def _perps(self):
        # a point's complement is its own Subspace.perp(), one kernel per
        # point; past the points, S_t = <r_0> + <R> along the plan, so S_t^perp
        # is the meet of two complements already found, the AND of their masks
        masks, by_mask, (parents, points) = self.point_masks, self.mask_index, self.plan
        ends = 1 + gaussian_binomial(self.n, 1, self.field.q)
        perp = [self.full_index] + [self.index[S.perp().basis] for S in self.subspaces[1:ends]]
        for t in range(ends, len(self)):
            perp.append(by_mask[masks[perp[parents[t]]] & masks[perp[points[t]]]])
        return perp

    @cached_property
    def covers(self):
        """covers[i]: the indices of the subspaces of dimension dim S_i - 1
        inside S_i, ascending."""
        masks, by_mask = self.point_masks, self.mask_index
        hyperplanes = [mask for mask, dim in zip(masks, self.dims) if dim == self.n - 1]
        covers = []
        for t in masks:
            meets = {t & w for w in hyperplanes}
            meets.discard(t)
            covers.append(tuple(sorted(by_mask[a] for a in meets)))
        return covers

    @cached_property
    def _tables(self):
        # A ^ B is the subspace whose point set is the AND of theirs;
        # A + B = (A^perp ^ B^perp)^perp, and B <= A iff A ^ B = B
        template = (
            "the join, meet and containment tables of F_{q}^{n} would hold {size}^2 entries each, "
            "above the table limit of {limit} subspaces"
        )
        check_limit(len(self), TABLE_LIMIT, template, 0, {"q": self.field.q, "n": self.n})
        masks, by_mask, perp = self.point_masks, self.mask_index, self.perp
        meet = [[by_mask[a & b] for b in masks] for a in masks]
        join = [[perp[row[pj]] for pj in perp] for row in (meet[pi] for pi in perp)]
        below = [tuple(j for j, k in enumerate(row) if k == j) for row in meet]
        return below, join, meet

    @property
    def below(self):
        """below[i] = tuple of indices j with S_j a subspace of S_i."""
        return self._tables[0]

    @property
    def join(self):
        return self._tables[1]

    @property
    def meet(self):
        return self._tables[2]


# the cover build ANDs each of the |L| point masks with each of the
# [n, 1]_q hyperplane masks; F_2^7 (3709924), F_4^5 (4186798), F_8^4 and
# F_37^3 (3962112) fit, F_41^3, F_3^6 and F_2^8 do not
LATTICE_LIMIT = 2**22
# the |L|^2 tables: F_2^6 (2825 subspaces) and F_3^5 (2664) fit
TABLE_LIMIT = 3000


def subspace_count_exponent(n: int, dim: int | None = None) -> int:
    """e with at least q^e subspaces of F_q^n (of dimension `dim`, if
    given), more than 2^e when e > 0: [n, d]_q > q^(d(n-d)) for 0 < d < n,
    and the whole lattice holds its middle dimension.  InvalidValue for
    n < 0."""
    if n < 0:
        raise InvalidValue(f"the ambient dimension n must be >= 0, got {n}")
    d = n // 2 if dim is None else dim
    return d * (n - d) if 0 < d < n else 0


def check_subspace_count(n: int, q: int, limit: int, dim: int | None = None) -> int:
    """The number of subspaces of F_q^n, of dimension `dim` if given, at
    most the budget `limit` (`errors.check_limit`); InvalidValue for n < 0."""
    count = lambda: galois_number(n, q) if dim is None else gaussian_binomial(n, dim, q)
    template = "the subspace lattice of F_{q}^{n} has {size} subspaces{of_dim}, above the budget of {limit}"
    fields = {"q": q, "n": n, "of_dim": "" if dim is None else f" of dimension {dim}"}
    return check_limit(count, limit, template, subspace_count_exponent(n, dim), fields)


def check_lattice_work(n: int, q: int) -> int:
    """|L| * [n, 1]_q, the mask ANDs that finding the covers of the
    subspace lattice L of F_q^n takes, at most LATTICE_LIMIT
    (`errors.check_limit`); |L| > 2^d(n-d) and [n, 1]_q >= 2^(n-1)."""
    template = (
        "the covers of the subspace lattice of F_{q}^{n} take {size} mask ANDs, above the lattice limit of {limit}"
    )
    work = lambda: galois_number(n, q) * gaussian_binomial(n, 1, q)
    return check_limit(work, LATTICE_LIMIT, template, subspace_count_exponent(n) + n - 1, {"q": q, "n": n})


_LATTICE_CACHE: dict = {}


def lattice(n: int, field: FieldContext) -> SubspaceLattice:
    key = (field.key, n)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = SubspaceLattice(n, field)
    return _LATTICE_CACHE[key]
