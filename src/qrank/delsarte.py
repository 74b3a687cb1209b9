"""Delsarte rank-metric codes: F_q-linear subspaces of Mat(n x m, F_q).

A code is stored as its subspace of the vectorized space F_q^{nm}
(`C.space`), and every codeword is a row-major entry tuple.  The subspace
is canonical, so equality tests and serialized files are stable.  For h
in F_q^n and j < m, v_{h,j} in F_q^k holds entry j of h B_b over the
basis codewords B_b, and W(T) is the span of the v_{h,j} over h in T.  A
codeword sum_b x_b B_b lies in C(J) = {M in C : col(M) subseteq J} iff
h M = 0 for every h in J^perp, iff x is orthogonal to W(J^perp).
`restrict` solves that k-variable system; the lattice sweep never forms
C(J), but grows W by one RREF row at a time along the lattice and
returns rho_C(T) = dim W(T) (see `qpolymatroid.from_code`).  Both read
the v_{h,j} from `_column_images`.  The trace-product dual is the
orthogonal complement of C in F_q^{nm}.

Counting operations enumerate codewords under a budget (`DEFAULT_BUDGET`
unless given, counting all q^k words); restriction never enumerates.  A
rank distribution is the plain tuple (A_0, ..., A_n), and the rank
weight enumerator is the `HomogeneousPoly` with those coefficients.  The
enumeration streams words in Gray-code order in constant memory: each
word is the previous one plus a precomputed multiple alpha^l b_i of one
basis row, alpha^l running over an F_p-basis of F_q, nm reads of the
field's addition table.  Rank is invariant under nonzero scalars, so
`rank_distribution` ranks one word per projective point,
(q^k - 1)/(q - 1) words, and counts each rank q - 1 times; the zero
word adds to A_0.
A word's rank is the dimension of the span of its L-long vectors, L =
min(n, m): its columns when n <= m, its rows otherwise.  They are folded
through the echelon-transition table of F_q^L, one dict step per vector:
each state is a subspace S, named by its fully reduced echelon basis, and
state[v] is the state of S + <v>, filled by one elimination on the field's
flat tables the first time it is read.  The fold stops at F_q^L, and the
rank is the final state's dimension.  One table per (field, L) is cached
for the process, so C, C^perp and every later code of the shape share it.
It is used while its full size, galois_number(L, q) q^L transitions, is
at most RANK_TABLE_LIMIT; above it, each word gets its own elimination.
Over F_2 the same walk runs packed, one int per word with vector t in bits
t L to t L + L - 1: a Gray step is one XOR with a packed basis row, and a
vector is one shift and mask.  XOR is addition only in characteristic 2,
so every other q walks entry tuples and slices the vectors out of them.
`ambient_counts` reads its count off the rank distribution of C(R).
This brute side never calls `rref_rows`, `kernel_basis`, the lattice or
the sweep's echelon extension: its table does its own elimination, so it
stays an independent check of the restriction sweep.

`dual_code` solves for C^perp, a basis of nm - k vectors of F_q^{nm},
and refuses one whose entries exceed `BASIS_LIMIT` before building it.
`restrict` needs no limit of its own: its system holds at most k nm
entries, as many as the basis of C itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import getitem, xor

from .errors import AmbientMismatch, BudgetExceeded, InvalidValue, MalformedCode, ShapeMismatch, ZeroCode
from .gf import FieldContext, _is_int
from .matspace import kernel_basis
from .qseries import HomogeneousPoly, galois_number
from .subspaces import Subspace, size_text

DEFAULT_BUDGET = 2**24
# the most entries, rows times nm, of the C^perp basis `dual_code` builds:
# `qrank dual` on the zero Mat(1 x 1024, F_2) code, at the limit, takes
# 1.3 s at a peak RSS of 116 MiB; at 2^22 entries, 4.8 s and 446 MiB
BASIS_LIMIT = 2**20
# the most transitions, galois_number(L, q) q^L with L = min(n, m), of the
# rank table `rank_distribution` folds words through.  Mat(3 x 3, F_5), at
# 8000, and Mat(5 x 5, F_2), at 11968, are admitted; Mat(4 x 4, F_3), at
# 17172, and Mat(6 x 6, F_2), at 180800, are not.  Filled from cold, a table
# at the limit costs about 0.04 s and under 1 MiB.  Above it the fills can
# outweigh the eliminations they save: cold, Mat(6 x 6, F_2) k = 18 takes
# 1.0 s through the table against 0.58 s without, and Mat(3 x 3, F_8) k = 5
# 0.19 s against 0.03 s (2 cores, Python 3.11.7)
RANK_TABLE_LIMIT = 2**14


@dataclass(frozen=True)
class RankMetricCode:
    """Canonical rank-metric code: its subspace of F_q^{nm}."""

    space: Subspace
    n: int
    m: int

    @property
    def field(self) -> FieldContext:
        return self.space.field

    @property
    def k(self) -> int:
        return self.space.dim

    def size(self) -> int:
        return self.field.q**self.k

    def __repr__(self):
        return f"RankMetricCode(n={self.n}, m={self.m}, q={self.field.q}, k={self.k})"

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "m": self.m,
            "generators": [
                [list(v[i * self.m : (i + 1) * self.m]) for i in range(self.n)] for v in self.space.basis
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "RankMetricCode":
        """The canonical code of a JSON document; MalformedCode if the
        document is not a code."""
        if not isinstance(obj, dict):
            raise MalformedCode("a code is a JSON object with a \"field\" object")
        field = FieldContext.from_json(obj.get("field"))
        n, m = obj.get("n"), obj.get("m")
        if not (_is_int(n) and _is_int(m) and n >= 1 and m >= 1):
            raise MalformedCode(f"n and m must be integers >= 1, got n={n!r}, m={m!r}")
        gens = obj.get("generators", [])
        if not isinstance(gens, list) or not all(_is_matrix(g, n, m, field.q) for g in gens):
            raise MalformedCode(
                f"generators must be a list of {n}x{m} matrices with integer entries in [0, {field.q})"
            )
        return cls(Subspace.span([[v for row in g for v in row] for g in gens], n * m, field), n, m)


def _is_matrix(rows, n: int, m: int, q: int) -> bool:
    return (
        isinstance(rows, list)
        and len(rows) == n
        and all(
            isinstance(row, list) and len(row) == m and all(_is_int(v) and 0 <= v < q for v in row)
            for row in rows
        )
    )


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
    return RankMetricCode(Subspace.span([M.entries for M in mats], n * m, field), n, m)


def check_codeword_budget(C: RankMetricCode, budget: int | None = None, dual: bool = False):
    """Refuse with BudgetExceeded the enumeration of C (of C^perp, of
    dimension nm - k, if `dual`) when its q^k words are above the budget,
    before C^perp is solved.  q^k >= 2^k is above the budget once k
    reaches the budget's bit length, so q^k is formed only below it."""
    if budget is None:
        budget = DEFAULT_BUDGET
    q, k = C.field.q, C.n * C.m - C.k if dual else C.k
    if k >= budget.bit_length() or q**k > budget:
        # q^k, not its value: str() refuses an int of more than 4300 digits
        raise BudgetExceeded(f"|C{'^perp' if dual else ''}| = {q}^{k} exceeds budget {budget}")


def enumerate_codeword_entries(C: RankMetricCode, budget: int | None = None):
    """All q^k codewords as row-major entry tuples, each exactly once, as a
    sized view that streams them in Gray-code order; BudgetExceeded at
    call time if q^k is above the budget."""
    check_codeword_budget(C, budget)
    return _Codewords(C)


class _Codewords:
    """The codewords of C, re-iterable in constant memory.

    Every walk is `_gray_walk` over an F_p-basis of a span of basis rows,
    p the characteristic: the words alpha^l b_i for l < e, alpha^l being
    the field element encoded p^l, span F_q b_i since F_q = F_p^e.  Each
    word is the previous one plus one of these vectors.  As a tuple of
    entries that step is one addition-table row per entry: nm table reads
    and no field method call.
    """

    __slots__ = ("code",)

    def __init__(self, code: RankMetricCode):
        self.code = code

    def __len__(self):
        return self.code.size()

    def __iter__(self):
        C = self.code
        _, steps, apply, p = self._walk_tables(packed=False)
        return _gray_walk([((0,) * (C.n * C.m), len(steps))], steps, apply, p)

    def projective(self, packed: bool = False):
        """One nonzero word per projective point of C, (q^k - 1)/(q - 1) in
        all, as entry tuples (over F_2, as packed ints if `packed`): for each
        i, b_i plus the Gray walk over the F_p-basis of the span of b_0, ...,
        b_{i-1}, q^i words.

        These are the words u whose last nonzero coefficient is 1.  Each
        nonzero word w has a last nonzero coefficient c, at some b_i, and
        w = c u with u = w / c; if c u = c' u' for two such u, u', their
        coefficients agree past i and at b_i, so c = c' and u = u'.  So
        {c u : c != 0} lists each nonzero codeword exactly once, and
        rank(c u) = rank(u) since c is invertible."""
        rows, steps, apply, p = self._walk_tables(packed)
        e = self.code.field.e
        return _gray_walk([(row, i * e) for i, row in enumerate(rows)], steps, apply, p)

    def _walk_tables(self, packed: bool):
        """(basis rows as words, steps, apply, p): steps[i * e + l] is the
        step alpha^l b_i, and apply(step, word) adds it to a word.  A packed
        word is vector-major: its min(n, m)-bit vector t, bits t L to
        t L + L - 1 with L = min(n, m), is column t of the matrix when
        n <= m and row t otherwise, so entry (i, j) is bit j n + i or bit
        i m + j."""
        C = self.code
        n, m = C.n, C.m
        if packed:
            rows = [
                _pack_bits(chain.from_iterable(row[j::m] for j in range(m)) if n <= m else row)
                for row in C.space.basis
            ]
            return rows, rows, xor, 2
        field = C.field
        q = field.q
        add, mul, _, _ = field.tables
        add_rows = [add[a * q : (a + 1) * q] for a in range(q)]
        steps = [
            tuple(add_rows[mul[field.p**l * q + b]] for b in row) for row in C.space.basis for l in range(field.e)
        ]
        return C.space.basis, steps, _add_step, field.p


def _pack_bits(bits) -> int:
    """The int whose bit t is the t-th of these 0s and 1s."""
    return int(bytes(bits)[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)


def _add_step(step, word):
    return tuple(map(getitem, step, word))


def _gray_walk(starts, steps, apply, p):
    """For each (word, j) of `starts`: `word`, then the p^j - 1 further
    words of the p-ary Gray walk over steps[:j], each step of additive
    order p.  Word t of a walk is apply(steps[i], word t - 1), where i is
    the lowest nonzero base-p digit of t; so word t is the start plus
    sum_i g_i steps[i], g the modular p-ary Gray code of t, and each of the
    p^j combinations comes once.  The steps within each block of p^low
    words repeat, so every walk reads them from one list of at most 255."""
    top, digits = _ruler(p)
    ruler = list(map(steps.__getitem__, digits[: p ** min(top, len(steps)) - 1]))
    for word, j in starts:
        yield word
        low = min(top, j)
        block = ruler[: p**low - 1]
        for high in range(p ** (j - low)):
            if high:
                word = apply(steps[low + _lowest_digit(high, p)], word)
                yield word
            for step in block:
                word = apply(step, word)
                yield word


@lru_cache(maxsize=None)
def _ruler(p: int) -> tuple:
    """(top, digits): top the largest l with p^l <= 256, and digits the
    lowest nonzero base-p digit of each t = 1, ..., p^top - 1."""
    top = 1
    while p ** (top + 1) <= 256:
        top += 1
    return top, tuple(_lowest_digit(t, p) for t in range(1, p**top))


def _lowest_digit(t: int, p: int) -> int:
    """The position of the lowest nonzero base-p digit of t > 0."""
    i = 0
    while not t % p:
        t //= p
        i += 1
    return i


def _column_images(support, columns, q, add, mul):
    """The m vectors v_{h,j} of F_q^k, j < m: entry b of v_{h,j} is entry j
    of h B_b.  h is given by its support, the pairs (i, h_i * q) with
    h_i != 0, and columns[j][b] is column j of B_b; q, add and mul are the
    field's order and flat tables."""
    out = []
    for cols in columns:
        vector = []
        for col in cols:
            acc = 0
            for i, f in support:
                acc = add[acc * q + mul[f + col[i]]]
            vector.append(acc)
        out.append(vector)
    return out


def restrict(C: RankMetricCode, J: Subspace) -> RankMetricCode:
    """C(J) = {M in C : col(M) subseteq J}, the codewords sum_b x_b B_b with
    x orthogonal to W(J^perp).  J^perp is spanned by h_f = e_f - sum_i
    r_i[f] e_{p_i} over the non-pivot columns f of J, r_i being J's RREF
    rows and p_i their pivots, so x solves the (n - dim J) m equations
    v_{h_f,j}.  sum_b x_b B_b is x_b at the pivot of B_b, so the words of
    the RREF kernel rows are C(J)'s RREF basis."""
    if J.n != C.n or J.field != C.field:
        raise AmbientMismatch("subspace ambient space does not match code rows")
    n, m, field, basis = C.n, C.m, C.field, C.space.basis
    if not basis or J.dim == n:
        return C
    q = field.q
    add, mul, neg, _ = field.tables
    pivots = [row.index(1) for row in J.basis]
    columns = [[B[j::m] for B in basis] for j in range(m)]
    system = []
    for f in sorted(set(range(n)).difference(pivots)):
        support = [(f, q)] + [(p, neg[row[f]] * q) for p, row in zip(pivots, J.basis) if row[f]]
        system += _column_images(support, columns, q, add, mul)
    words = []
    for x in kernel_basis(system, len(basis), field):
        word = [0] * (n * m)
        for c, B in zip(x, basis):
            if c:
                f = c * q
                word = [add[a * q + mul[f + b]] for a, b in zip(word, B)]
        words.append(word)
    return RankMetricCode(Subspace(field, n * m, words), n, m)


def dual_code(C: RankMetricCode) -> RankMetricCode:
    """Trace-product dual: the orthogonal complement of C in F_q^{nm}.
    BudgetExceeded, before it is built, when its basis of nm - k vectors
    holds more than BASIS_LIMIT entries."""
    entries = (C.n * C.m - C.k) * C.n * C.m
    if entries > BASIS_LIMIT:
        raise BudgetExceeded(
            f"the basis of C^perp holds {size_text(entries, entries.bit_length() - 1)} entries, "
            f"above the basis limit BASIS_LIMIT = {BASIS_LIMIT}"
        )
    return RankMetricCode(C.space.perp(), C.n, C.m)


def _rank_of_entries(entries, n, m, field) -> int:
    """Rank of the n x m matrix with these row-major entries, by elimination
    on its min(n, m)-long side (rank is transpose-invariant) through the
    field's flat tables.  Each nonzero reduced vector joins the echelon
    basis with leading entry 1; reducing by the basis in insertion order
    clears every pivot.  Stops once the rank reaches min(n, m)."""
    q = field.q
    add, mul, neg, inv = field.tables
    if n <= m:
        length, step, starts = n, m, range(m)  # the m columns
    else:
        length, step, starts = m, 1, range(0, n * m, m)  # the n rows
    basis = []
    for s in starts:
        v = entries[s : s + step * length : step]
        for p, b in basis:
            c = v[p]
            if c:
                f = neg[c] * q
                v = [add[a * q + mul[f + x]] for a, x in zip(v, b)]
        for p, c in enumerate(v):
            if c:
                if c != 1:
                    f = inv[c] * q
                    v = [mul[f + x] for x in v]
                basis.append((p, v))
                if len(basis) == length:
                    return length
                break
    return len(basis)


def _rank_of_packed(word: int, length: int) -> int:
    """Rank over F_2 of the matrix whose `length`-bit vectors, its columns
    or its rows, are packed low to high in `word` (see
    `_Codewords._walk_tables`).  Each vector is reduced against an XOR basis
    in insertion order: v ^ b < v iff v holds the top bit of b, so the step
    clears that bit, and every basis vector is zero at the top bits of the
    vectors before it.  Vectors past the last nonzero one are skipped.
    Stops once the rank reaches `length`."""
    mask = (1 << length) - 1
    basis = []
    while word:
        v = word & mask
        word >>= length
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis.append(v)
            if len(basis) == length:
                break
    return len(basis)


class _Echelon(dict):
    """A subspace S of F_q^L, as the map v -> the state of S + <v>: a state
    of an `_EchelonTable`.  `rows` is the fully reduced echelon basis of S,
    so two states are one subspace iff one object.  An entry is filled the
    first time it is read."""

    __slots__ = ("dim", "rows", "table")

    def __init__(self, rows, table):
        self.dim, self.rows, self.table = len(rows), rows, table

    def __missing__(self, v):
        return self.table.fill(self, v)


class _EchelonTable:
    """The echelon-transition table of F_q^L: its states, interned by their
    rows, and one key object per vector shared by every state (vectors are
    ints over F_2, entry tuples otherwise).  `zero` and `full` are the
    states of 0 and of F_q^L; every vector maps `full` to itself."""

    __slots__ = ("field", "states", "vectors", "zero", "full")

    def __init__(self, field: FieldContext, length: int):
        self.field, self.states, self.vectors = field, {}, {}
        self.zero = self.state(())
        self.full = self.state(
            tuple(1 << i for i in reversed(range(length)))
            if field.q == 2
            else tuple(tuple(int(i == j) for j in range(length)) for i in range(length))
        )

    def state(self, rows) -> _Echelon:
        state = self.states.get(rows)
        if state is None:
            state = self.states[rows] = _Echelon(rows, self)
        return state

    def fill(self, state: _Echelon, v) -> _Echelon:
        """Set state[c v], for every c != 0, to the state of S + <v>, which
        is S + <c v>: one join for q - 1 transitions."""
        field = self.field
        if field.q == 2:
            state[v] = target = self.state(_join_bits(state.rows, v))
            return target
        target = self.state(_join_entries(state.rows, v, field))
        q, mul = field.q, field.tables[1]
        for f in range(q, q * q, q):
            w = tuple(mul[f + x] for x in v)
            state[self.vectors.setdefault(w, w)] = target
        return target


def _join_bits(rows, v):
    """The fully reduced echelon basis of <rows> + <v> over F_2, vectors as
    ints: each row's top bit is clear in every other row, and the rows are
    sorted by it, highest first."""
    for b in rows:
        if v ^ b < v:
            v ^= b
    if not v:
        return rows
    top = 1 << v.bit_length() - 1
    return tuple(sorted([v] + [b ^ v if b & top else b for b in rows], reverse=True))


def _join_entries(rows, v, field):
    """The fully reduced echelon basis of <rows> + <v>, vectors as entry
    tuples: each row is 1 at its pivot, its first nonzero entry, and 0 at
    the other rows' pivots.  Sorted descending, the rows run in pivot
    order.  The elimination of `_rank_of_entries`, plus back-reduction."""
    q = field.q
    add, mul, neg, inv = field.tables
    for row in rows:
        c = v[row.index(1)]
        if c:
            f = neg[c] * q
            v = [add[a * q + mul[f + x]] for a, x in zip(v, row)]
    p = next((p for p, c in enumerate(v) if c), None)
    if p is None:
        return rows
    f = inv[v[p]] * q
    v = tuple(mul[f + x] for x in v)
    out = [v]
    for row in rows:
        if row[p]:
            f = neg[row[p]] * q
            row = tuple(add[a * q + mul[f + x]] for a, x in zip(row, v))
        out.append(row)
    return tuple(sorted(out, reverse=True))


_RANK_TABLE_CACHE: dict = {}


def _rank_table(field: FieldContext, length: int):
    """The `_EchelonTable` of F_q^length, cached per field and length; None
    when the full table, galois_number(length, q) q^length transitions, is
    above RANK_TABLE_LIMIT.  q^length alone refuses first, so no subspace
    count of a long side is formed."""
    q = field.q
    if length >= RANK_TABLE_LIMIT.bit_length() or q**length * galois_number(length, q) > RANK_TABLE_LIMIT:
        return None
    key = (field.key, length)
    if key not in _RANK_TABLE_CACHE:
        _RANK_TABLE_CACHE[key] = _EchelonTable(field, length)
    return _RANK_TABLE_CACHE[key]


def rank_distribution(C: RankMetricCode, budget: int | None = None) -> tuple:
    """The tuple (A_0, ..., A_n) of exact counts A_i = #{M in C : rank(M) = i}.

    Each word's rank is the dimension of the state its L-long vectors fold
    to through the rank table, L = min(n, m), from the zero state and
    stopping at F_q^L; above RANK_TABLE_LIMIT, one elimination per word."""
    n, m, field = C.n, C.m, C.field
    length = min(n, m)
    counts = [0] * (n + 1)
    words = enumerate_codeword_entries(C, budget)
    table = _rank_table(field, length)
    if table is None and field.q == 2:
        for word in words.projective(packed=True):
            counts[_rank_of_packed(word, length)] += 1
    elif table is None:
        for entries in words.projective():
            counts[_rank_of_entries(entries, n, m, field)] += 1
    elif field.q == 2:
        zero, full, mask = table.zero, table.full, (1 << length) - 1
        for word in words.projective(packed=True):
            state = zero
            while word and state is not full:
                state = state[word & mask]
                word >>= length
            counts[state.dim] += 1
    else:
        zero, full = table.zero, table.full
        # the L-long vectors of a word: its columns, or its rows
        cuts = [slice(j, None, m) for j in range(m)] if n <= m else [slice(i, i + m) for i in range(0, n * m, m)]
        for entries in words.projective():
            state = zero
            for cut in cuts:
                state = state[entries[cut]]
                if state is full:
                    break
            counts[state.dim] += 1
    # each point stands for its q - 1 nonzero multiples, all of its rank
    counts = [(field.q - 1) * a for a in counts]
    counts[0] += 1
    return tuple(counts)


def rank_weight_enumerator(C: RankMetricCode, budget: int | None = None) -> HomogeneousPoly:
    """W_C^R(x, y) = sum_i A_i x^{n-i} y^i, homogeneous of degree n."""
    return HomogeneousPoly(C.n, rank_distribution(C, budget))


def ambient_counts(C: RankMetricCode, R: Subspace, budget: int | None = None):
    """(A, B): A = #{M in C : col(M) = R}, B = |C(R)| = q^{dim C(R)}.  Every
    M in C(R) has col(M) inside R, so col(M) = R iff rank M = dim R."""
    CR = restrict(C, R)
    return rank_distribution(CR, budget)[R.dim], CR.size()


def min_rank_distance(C: RankMetricCode, budget: int | None = None):
    """(d, singleton_ok): minimum nonzero-codeword rank and the Singleton
    bound check k <= max(n,m) * (min(n,m) - d + 1)."""
    if C.k == 0:
        raise ZeroCode("minimum distance undefined for the zero code")
    d = next(i for i, a in enumerate(rank_distribution(C, budget)) if i and a)
    singleton_ok = C.k <= max(C.n, C.m) * (min(C.n, C.m) - d + 1)
    return d, singleton_ok


def all_codes(n: int, m: int, field: FieldContext):
    """Every rank-metric code in Mat(n x m, F_q), via the subspace lattice
    of the nm-dimensional vectorization."""
    from .subspaces import enumerate_subspaces

    for S in enumerate_subspaces(n * m, field):
        yield RankMetricCode(S, n, m)


def random_code(n: int, m: int, field: FieldContext, dim: int, rng: random.Random) -> RankMetricCode:
    """Seeded random code of the requested dimension."""
    if n < 1 or m < 1:
        raise InvalidValue(f"n and m must be >= 1, got n={n}, m={m}")
    if not 0 <= dim <= n * m:
        raise InvalidValue(f"dimension {dim} out of range [0, {n * m}]")
    while True:
        vectors = [[rng.randrange(field.q) for _ in range(n * m)] for _ in range(dim)]
        S = Subspace.span(vectors, n * m, field)
        if S.dim == dim:
            return RankMetricCode(S, n, m)
