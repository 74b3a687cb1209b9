"""Delsarte rank-metric codes: F_q-linear subspaces of Mat(n x m, F_q).

Codes are canonicalized at construction (RREF of the vectorized basis),
so equality tests and serialized files are stable.  Counting operations
enumerate codewords under a configurable budget; the restriction C(J)
is computed by a linear solve, never by enumeration.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .errors import AmbientMismatch, BudgetExceeded, ShapeMismatch, ZeroCode
from .gf import FieldContext
from .matspace import MatrixFq, kernel_basis, rref_rows
from .qseries import HomogeneousPoly
from .subspaces import Subspace

DEFAULT_BUDGET = 2**24


def resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("QRANK_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


class RankMetricCode:
    """Canonical rank-metric code, stored as an RREF basis of matrices."""

    __slots__ = ("field", "n", "m", "basis")

    def __init__(self, field: FieldContext, n: int, m: int, basis):
        self.field = field
        self.n = n
        self.m = m
        self.basis = tuple(basis)  # trusted: canonical, linearly independent

    @property
    def k(self) -> int:
        return len(self.basis)

    def size(self) -> int:
        return self.field.q**self.k

    def vectorized_basis(self):
        return tuple(M.entries for M in self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, RankMetricCode)
            and self.field == other.field
            and (self.n, self.m) == (other.n, other.m)
            and self.vectorized_basis() == other.vectorized_basis()
        )

    def __hash__(self):
        return hash((self.field.key, self.n, self.m, self.vectorized_basis()))

    def __repr__(self):
        return f"RankMetricCode(n={self.n}, m={self.m}, q={self.field.q}, k={self.k})"

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "m": self.m,
            "generators": [M.to_rows() for M in self.basis],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RankMetricCode":
        field = FieldContext.from_json(obj["field"])
        n, m = int(obj["n"]), int(obj["m"])
        mats = [MatrixFq.from_rows(field, rows) for rows in obj.get("generators", [])]
        for M in mats:
            if (M.rows, M.cols) != (n, m):
                raise ShapeMismatch("generator shape does not match code shape")
        return code_from_generators(mats, field=field, n=n, m=m)


def code_from_generators(mats, field=None, n=None, m=None) -> RankMetricCode:
    """Canonical code spanned by the given matrices (dependent ones drop)."""
    if mats:
        field = mats[0].field
        n, m = mats[0].rows, mats[0].cols
        for M in mats:
            if M.field != field or (M.rows, M.cols) != (n, m):
                raise ShapeMismatch("generators must share shape and field")
    elif field is None or n is None or m is None:
        raise ShapeMismatch("empty generator list needs explicit field and shape")
    red, _ = rref_rows([M.entries for M in mats], n * m, field)
    basis = tuple(MatrixFq(field, n, m, row) for row in red)
    return RankMetricCode(field, n, m, basis)


def enumerate_codeword_entries(C: RankMetricCode, budget: int | None = None):
    """All q^k codewords as row-major entry tuples, each exactly once."""
    budget = resolve_budget(budget)
    if C.size() > budget:
        raise BudgetExceeded(f"|C| = {C.size()} exceeds budget {budget}")
    field = C.field
    words = [(0,) * (C.n * C.m)]
    for B in C.basis:
        scaled = [B.scale(c).entries for c in field.elements()]
        add = field.add
        words = [
            tuple(add(a, b) for a, b in zip(w, s)) for s in scaled for w in words
        ]
    return words


def enumerate_codewords(C: RankMetricCode, budget: int | None = None):
    """Stream of all codewords as MatrixFq values."""
    for entries in enumerate_codeword_entries(C, budget):
        yield MatrixFq(C.field, C.n, C.m, entries)


def restrict(C: RankMetricCode, J: Subspace) -> RankMetricCode:
    """C(J) = {M in C : col(M) subseteq J}, by a linear solve on the basis."""
    if J.n != C.n or J.field != C.field:
        raise AmbientMismatch("subspace ambient space does not match code rows")
    field = C.field
    if J.dim == C.n or C.k == 0:
        return C
    perp = J.perp().basis
    # constraint rows over the k combination coefficients: for each
    # J^perp basis vector h and each column j, sum_a t_a (h . col_j(B_a)) = 0
    rows = []
    cols_per_basis = [[B.col(j) for j in range(C.m)] for B in C.basis]
    for h in perp:
        for j in range(C.m):
            row = []
            for a in range(C.k):
                col = cols_per_basis[a][j]
                acc = 0
                for hv, cv in zip(h, col):
                    if hv and cv:
                        acc = field.add(acc, field.mul(hv, cv))
                row.append(acc)
            rows.append(tuple(row))
    sol = kernel_basis(rows, C.k, field)
    mats = []
    for t in sol:
        entries = [0] * (C.n * C.m)
        for a, ta in enumerate(t):
            if ta:
                Ba = C.basis[a].entries
                entries = [field.add(x, field.mul(ta, y)) for x, y in zip(entries, Ba)]
        mats.append(MatrixFq(field, C.n, C.m, entries))
    return code_from_generators(mats, field=field, n=C.n, m=C.m)


def dual_code(C: RankMetricCode) -> RankMetricCode:
    """Trace-product dual: kernel of the vectorized basis constraints."""
    field = C.field
    nm = C.n * C.m
    sol = kernel_basis([M.entries for M in C.basis], nm, field)
    mats = [MatrixFq(field, C.n, C.m, v) for v in sol]
    return RankMetricCode(field, C.n, C.m, tuple(mats))


def _rank_of_entries(entries, n, m, field) -> int:
    rows = [list(entries[i * m : (i + 1) * m]) for i in range(n)]
    rank = 0
    sub, mul, inv = field.sub, field.mul, field.inv
    for col in range(m):
        pivot = None
        for i in range(rank, n):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        if pv != 1:
            ipv = inv(pv)
            rows[rank] = [mul(ipv, v) for v in rows[rank]]
        for i in range(rank + 1, n):
            f = rows[i][col]
            if f:
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n:
            break
    return rank


@dataclass(frozen=True)
class RankDistribution:
    counts: tuple

    def __post_init__(self):
        if self.counts[0] != 1:
            raise ValueError("A_0 must be 1")

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def enumerator(self) -> HomogeneousPoly:
        """W^R(x, y) = sum_i A_i x^{n-i} y^i, homogeneous of degree n."""
        return HomogeneousPoly(len(self.counts) - 1, self.counts)


def rank_distribution(C: RankMetricCode, budget: int | None = None) -> RankDistribution:
    """Exact counts A_i = #{M in C : rank(M) = i}, i = 0..n."""
    counts = [0] * (C.n + 1)
    for entries in enumerate_codeword_entries(C, budget):
        counts[_rank_of_entries(entries, C.n, C.m, C.field)] += 1
    return RankDistribution(tuple(counts))


def rank_weight_enumerator(C: RankMetricCode, budget: int | None = None) -> HomogeneousPoly:
    """W_C^R(x, y) = sum_i A_i x^{n-i} y^i, homogeneous of degree n."""
    return rank_distribution(C, budget).enumerator()


def ambient_counts(C: RankMetricCode, R: Subspace, budget: int | None = None):
    """(A, B): A = #{M in C : col(M) = R}, B = |C(R)| = q^{dim C(R)}."""
    CR = restrict(C, R)
    B = C.field.q**CR.k
    A = 0
    target = R.basis
    n, m, field = C.n, C.m, C.field
    for entries in enumerate_codeword_entries(CR, budget):
        cols = [tuple(entries[i * m + j] for i in range(n)) for j in range(m)]
        span, _ = rref_rows(cols, n, field)
        if tuple(span) == target:
            A += 1
    return A, B


def min_rank_distance(C: RankMetricCode, budget: int | None = None):
    """(d, singleton_ok): minimum nonzero-codeword rank and the Singleton
    bound check k <= max(n,m) * (min(n,m) - d + 1)."""
    if C.k == 0:
        raise ZeroCode("minimum distance undefined for the zero code")
    d = None
    for entries in enumerate_codeword_entries(C, budget):
        if all(v == 0 for v in entries):
            continue
        r = _rank_of_entries(entries, C.n, C.m, C.field)
        if d is None or r < d:
            d = r
    singleton_ok = C.k <= max(C.n, C.m) * (min(C.n, C.m) - d + 1)
    return d, singleton_ok


def all_codes(n: int, m: int, field: FieldContext):
    """Every rank-metric code in Mat(n x m, F_q), via the subspace lattice
    of the nm-dimensional vectorization."""
    from .subspaces import enumerate_subspaces

    for S in enumerate_subspaces(n * m, field):
        basis = tuple(MatrixFq(field, n, m, v) for v in S.basis)
        yield RankMetricCode(field, n, m, basis)


def random_code(n: int, m: int, field: FieldContext, dim: int, rng: random.Random) -> RankMetricCode:
    """Seeded random code of the requested dimension."""
    if not 0 <= dim <= n * m:
        raise ValueError("dimension out of range")
    while True:
        mats = [
            MatrixFq(field, n, m, tuple(rng.randrange(field.q) for _ in range(n * m)))
            for _ in range(dim)
        ]
        C = code_from_generators(mats, field=field, n=n, m=m)
        if C.k == dim:
            return C
