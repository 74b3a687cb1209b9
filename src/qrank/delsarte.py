"""Delsarte rank-metric codes: F_q-linear subspaces of Mat(n x m, F_q).

A code is stored as its subspace of the vectorized space F_q^{nm}
(`C.space`), each basis codeword a row-major entry tuple.  The subspace
is canonical, so equality tests and serialized files are stable.  For h
in F_q^n and j < m, v_{h,j} in F_q^k holds entry j of h B_b over the
basis codewords B_b, and W(T) is the span of the v_{h,j} over h in T.  A
codeword sum_b x_b B_b lies in C(J) = {M in C : col(M) subseteq J} iff
h M = 0 for every h in J^perp, iff x is orthogonal to W(J^perp).
`restrict` solves that k-variable system; the lattice sweep never forms
C(J), but grows W by one RREF row at a time along the lattice and
returns rho_C(T) = dim W(T) (see `qpolymatroid.from_code`).  `restrict`
reads the v_{h,j} from `_column_images`, and so does the sweep over every
field but F_2, where it XORs packed column bits instead.  The
trace-product dual is the orthogonal complement of C in F_q^{nm}.

Counting operations enumerate codewords under a budget (`DEFAULT_BUDGET`
unless given, counting all q^k words); restriction never enumerates.  A
rank distribution is the plain tuple (A_0, ..., A_n), and the rank
weight enumerator is the `HomogeneousPoly` with those coefficients.  Rank
is invariant under nonzero scalars, so `rank_distribution` ranks one word
per projective point, (q^k - 1)/(q - 1) words, and counts each rank q - 1
times; the zero word adds to A_0.  Before a word is walked, the budget
is checked once, then RANK_WORK_LIMIT once (`check_rank_work`), each
verdict priced once per shape and kept only when it admits.  The
projective walk (`_Codewords`) streams those words in memory bounded by
the basis.  A word is vector-major: its L-long vectors, L = min(n, m),
are its columns when n <= m and its rows otherwise; its rank, the
dimension of their span, is folded through the echelon-transition table
of F_q^L when the shape admits one (`_fold_ranks`), else eliminated.  A
word of one key is spanned by `bytes.translate` (`_one_key_words`); a
longer one holds its states as bytes when the table has at most 256 (all
but F_2^5's 374) and walks a basis in reverse echelon form, so most of
its steps are one `bytes.translate` per run of words in one state.  Over
every field the walk's words are tuples of keys added by the key-sum rows
`_KeyRows`, its offsets one `bytes` column per key (`_span_keys`).
`ambient_counts` reads its count off the rank distribution of C(R).
This brute side never calls `rref_rows`, `kernel_basis`, the lattice or
the sweep's echelon extension: its table's states are the key sets of the
subspaces of F_q^L, grown by the key-sum rows, and its basis comes from its
own elimination, so it stays an independent check of the restriction sweep.

`dual_code` solves for C^perp, a basis of nm - k vectors of F_q^{nm},
and refuses one whose entries exceed `BASIS_LIMIT` before building it;
`RankMetricCode.from_json` refuses a document whose generators do before
it reads them.
`restrict` needs no limit of its own: its system holds at most k nm
entries, as many as the basis of C itself.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate, chain, product, repeat
from operator import getitem, itemgetter, mul, xor

from .errors import AmbientMismatch, InvalidValue, MalformedCode, ShapeMismatch, ZeroCode, check_limit
from .gf import FieldContext, Value, _is_int
from .matspace import kernel_basis
from .qseries import HomogeneousPoly, galois_number
from .subspaces import Subspace

DEFAULT_BUDGET = 2**24
# the most entries, rows times nm, of the C^perp basis `dual_code` builds,
# of the basis `random_code` draws and of the generators a code document
# holds (`RankMetricCode.from_json`), and the most counts, n + 1, of a
# rank distribution: `qrank dual` on the zero Mat(1 x 1024, F_2) code, at
# the limit, takes 1.3 s at a peak RSS of 116 MiB; at 2^22 entries, 4.8 s
# and 446 MiB.  Reducing G generators costs about rank G nm table steps:
# 1024 random Mat(32 x 32, F_2) ones, at the limit, load in 44-54 s (2
# cores, Python 3.11.7)
BASIS_LIMIT = 2**20
_HOLDS_ENTRIES = "{what} holds {size} entries, above the basis limit BASIS_LIMIT = {limit}"
# the most keys, q^(g L), and the most entries, galois_number(L, q)
# q^(g L), of a rank table `rank_distribution` folds words through, g
# vectors of F_q^L per key (see `_fold_width`).  Mat(4 x 4, F_3), at 17172
# entries, and Mat(4 x 5, F_2) at g = 2, at 17152, fit; Mat(6 x 6, F_2),
# at 180800, and Mat(3 x 3, F_8), at 512 keys, do not.  Filled from cold,
# the table of Mat(4 x 4, F_3) costs about 5 ms and under 1 MiB (2
# cores, Python 3.11.7), its byte rows about 150 KiB with every key read;
# F_2^4's at g = 2, composed from the transitions by list reads, 125 KiB
FOLD_KEYS = 2**8
RANK_TABLE_LIMIT = 2**15
# the most entries, words times nm, of a walk's offsets: 256 words of up
# to 64 entries, 2^14 / nm of a longer one, about 256 KiB as tuples
BLOCK_ENTRIES = 2**14
# the most work, table reads or elimination steps (see `_rank_work`), of
# a rank distribution.  Warm, a table read takes 10-45 ns and a step
# 50-330 ns (2 cores, Python 3.11.7), so Mat(6 x 6, F_3) k = 14, 5.2e8 steps
# at 140 ns, takes over a minute, and Mat(40 x 40, F_3) k = 15 is refused
RANK_WORK_LIMIT = 2**29


class RankMetricCode(Value):
    """Canonical rank-metric code: its subspace of F_q^{nm}.  Immutable: equal
    and hashed by (space, n, m); its field and k = dim C are read off the space once."""

    __slots__ = ("space", "n", "m", "field", "k")

    def __init__(self, space: Subspace, n: int, m: int):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "field", space.field)
        object.__setattr__(self, "k", len(space.basis))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable RankMetricCode")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable RankMetricCode")

    def __reduce__(self):
        return RankMetricCode, (self.space, self.n, self.m)

    def _key(self):
        return (self.space, self.n, self.m)

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
        document is not a code.  BudgetExceeded, before any entry is read,
        when its generators hold more than BASIS_LIMIT entries."""
        if not isinstance(obj, dict):
            raise MalformedCode("a code is a JSON object with a \"field\" object")
        field = FieldContext.from_json(obj.get("field"))
        n, m = obj.get("n"), obj.get("m")
        if not (_is_int(n) and _is_int(m) and n >= 1 and m >= 1):
            raise MalformedCode(f"n and m must be integers >= 1, got n={n!r}, m={m!r}")
        gens = obj.get("generators", [])
        # refused before an entry is scanned or a generator reduced
        entries = len(gens) * n * m if isinstance(gens, list) else 0
        template = "the generators of the code hold {size} entries, above the basis limit BASIS_LIMIT = {limit}"
        check_limit(entries, BASIS_LIMIT, template, entries.bit_length() - 1, {})
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


def check_codeword_budget(C: RankMetricCode, budget: int | None = None, dual: bool = False) -> int:
    """The q^k words of C (of C^perp, of dimension nm - k, if `dual`) under
    the budget (`errors.check_limit`), checked before C^perp is solved."""
    return _codeword_budget(C.field.q, C.n * C.m - C.k if dual else C.k, budget, dual)


def check_rank_work(C: RankMetricCode, dual: bool = False) -> int:
    """The fold width g, 0 to eliminate each word, with which
    `rank_distribution` ranks C (C^perp, of dimension nm - k, if `dual`),
    once that ranking's work (`_rank_work`) is under RANK_WORK_LIMIT
    (`errors.check_limit`).  The codeword budget is its caller's check."""
    return _rank_work_check(C.field.q, C.n, C.m, C.n * C.m - C.k if dual else C.k, dual)


# each verdict depends on the shape alone, so it is priced once per shape; a refusal raises and is never kept
@lru_cache(maxsize=1024)
def _codeword_budget(q: int, k: int, budget: int | None, dual: bool) -> int:
    budget, template = DEFAULT_BUDGET if budget is None else budget, "|C{perp}| = {q}^{k} exceeds budget {limit}"
    return check_limit(lambda: q**k, budget, template, k, {"perp": "^perp" if dual else "", "q": q, "k": k})


@lru_cache(maxsize=1024)
def _rank_work_check(q: int, n: int, m: int, k: int, dual: bool) -> int:
    g, words, work = _rank_work(q, n, m, k)
    template = (
        "ranking the {words} projective words of C{perp} takes {size} {steps}, "
        "above the rank work limit RANK_WORK_LIMIT = {limit}"
    )
    fields = {"words": words, "perp": "^perp" if dual else "", "steps": "table reads" if g else "elimination steps"}
    check_limit(work, RANK_WORK_LIMIT, template, k - 1, fields)
    return g


def _rank_work(q: int, n: int, m: int, k: int) -> tuple:
    """(g, words, work) of a k-dimensional code in Mat(n x m, F_q): the
    `_fold_width`, the (q^k - 1)/(q - 1) projective words, and the words
    times ceil(max(n, m) / g) table reads if g, else times n m min(n, m)
    entry operations, or n m packed XORs over F_2."""
    g = _fold_width(q, min(n, m), max(n, m))
    words = (q**k - 1) // (q - 1)
    return g, words, words * (-(-max(n, m) // g) if g else n * m * (1 if q == 2 else min(n, m)))


def enumerate_codeword_entries(C: RankMetricCode, budget: int | None = None):
    """The q^k codewords of C as a sized view whose `projective` walk
    streams one word per projective point; BudgetExceeded at call time if
    q^k is above the budget."""
    check_codeword_budget(C, budget)
    return _Codewords(C)


class _Codewords:
    """The codewords of C, re-walkable in memory bounded by the basis.  A
    walk spans the steps alpha^l b_i, l < e, an F_p-basis of F_q b_i
    (F_q = F_p^e, alpha^l the element encoded p^l), p the characteristic."""

    __slots__ = ("code",)

    def __init__(self, code: RankMetricCode):
        self.code = code

    def __len__(self):
        return self.code.size()

    def projective(self):
        """One nonzero word per projective point of C, (q^k - 1)/(q - 1) in
        all, as the int whose bit u is vector-major entry u over F_2 and as
        vector-major entry tuples otherwise: for each row b_i of the walk's
        basis, b_i plus every F_p-combination of the steps of b_{i+1}, ...,
        b_{k-1}, q^(k-1-i) words.

        These are the words u whose first nonzero coefficient is 1.  Each
        nonzero word w has a first nonzero coefficient c, at some b_i, and
        w = c u with u = w / c; if c u = c' u' for two such u, u', their
        coefficients agree before i and at b_i, so c = c' and u = u'.  So
        {c u : c != 0} lists each nonzero codeword exactly once, and
        rank(c u) = rank(u) since c is invertible."""
        q = self.code.field.q
        rows = _key_rows(self.code.field, 8 if q == 2 else 1)
        offsets, blocks = self._walk(rows)
        if q > 2:  # a key is an entry
            return chain.from_iterable(_moved([c[:size] for c in offsets], start, rows) for start, size in blocks)
        # a key of 8 entries is a byte of the word's int, low byte first
        as_int = lambda keys: int.from_bytes(bytes(keys), "little")
        ints = list(map(as_int, zip(*offsets)))
        return chain.from_iterable(map(xor, ints[:size], repeat(as_int(start), size)) for start, size in blocks)

    def _walk(self, rows, echelon: bool = False):
        """(offsets, blocks) of the projective walk, its words tuples of keys
        of `rows.digits` entries, added by the key-sum `rows`.  Its basis is
        C's RREF rows or, if `echelon` and blocks of p^depth words follow, the
        echelon rows `_rank_of_entries` finds in C's reversed vector-major
        rows: each is 1 at its last nonzero entry, those entries distinct,
        b_0 holding the latest.  Its steps run from b_{k-1} back to b_0;
        offsets, the `_span_keys` of the first `depth`, has offsets[j][:p^l]
        key j of the span of the first l.  Walk i is the blocks (start,
        p^min(depth, i e)), start over b_{k-1-i} plus the span of steps depth
        to i e in the order of `_span`; key j of a block's words is start[j]
        + offsets[j][t], t < its size."""
        C = self.code
        field, n, m, k = C.field, C.n, C.m, C.k
        q, p, e, span = field.q, field.p, field.e, rows.digits
        depth = min(_block_depth(p, n * m), max(k - 1, 0) * e)
        # a walk with i e <= depth is one block from its row: no `_span` for it
        short = min(k, depth // e + 1)
        steps = list(map(_vector_major(n, m), C.space.basis))
        if not echelon or short == k:  # the reverse echelon form pays off only with blocks of p^depth words
            steps.reverse()
        else:  # sorted ascending, the rows of the reversed vectors, read back, end at ever later entries
            reduced = _rank_of_entries([x for v in steps for x in v[::-1]], n * m, field)
            steps = [tuple(v[::-1]) for v in sorted(reduced)]
        times = field.tables[1]
        steps = [tuple(times[p**l * q + b] for b in row) if l else row for row in steps for l in range(e)]
        if span > 1:  # key j is that of entries j span to (j + 1) span, the last key taking the entries left
            steps = [tuple([rows.key[s[i : i + span]] for i in range(0, n * m, span)]) for s in steps]
        # the starts of a longer walk come p^depth at a time, each word of the
        # `_span` of b_{k-1-i} over steps 2 depth to i e plus the key columns of
        # steps depth to 2 depth (`_moved`)
        zero = [b"\0"] * -(-n * m // span)
        offsets, runs = (_span_keys(steps[t * depth : t * depth + depth], zero, rows, p) for t in (0, 1))
        plus = lambda a, b: tuple(map(getitem, map(rows.__getitem__, a), b))
        sums = list(accumulate(steps[2 * depth :], plus))
        starts = (
            (start, p**depth)
            for i in range(short, k)
            for word in _span(steps[i * e], sums[: max(i * e - 2 * depth, 0)], plus, p)
            for start in _moved([c[: p ** min(i * e - depth, depth)] for c in runs], word, rows)
        )
        return offsets, chain(zip(steps[: short * e : e], [p ** (i * e) for i in range(short)]), starts)


def _moved(columns, keys, rows):
    """The words `keys` + t, t over these key columns of a span: column j
    translated by the key-sum row of keys[j], read across; `keys` alone when
    the columns hold only the zero word, so a wide word is never split."""
    return zip(*map(bytes.translate, columns, map(rows.__getitem__, keys))) if len(columns[0]) > 1 else [keys]


def _span_keys(steps, columns, rows, p: int) -> list:
    """Key j of each word of the F_p-span of these key tuples added to the
    words of the given key `columns` ([b"\0"] per key for the span alone), in
    the order of `_span`, one new `bytes` column per key: step l makes column j
    its first p^l keys plus c times the step, c < p, each multiple one
    `bytes.translate` of the last by the key-sum row of the step's key j."""
    columns = list(columns)
    for step in steps:
        for j, x in enumerate(step):
            moved = column = columns[j]
            for _ in range(1, p):
                moved = moved.translate(rows[x])
                column += moved
            columns[j] = column
    return columns


def _span(word, sums, plus, p: int):
    """word + sum_t c_t m_t for each c in F_p^len(sums), sums[t] = m_0 + ...
    + m_t, c counting up as the base-p digits of x = 0, 1, ..., c_0 lowest.
    From x - 1 to x the lowest nonzero digit t of x rises and the digits
    under it fall from p - 1 to 0: one plus(sums[t], word), as p m_s = 0.
    A loop, not a recursion, so any number of moves will do."""
    yield word
    for x in range(1, p ** len(sums)):
        t = 0
        while not x % p:
            x //= p
            t += 1
        word = plus(sums[t], word)
        yield word


@lru_cache(maxsize=1024)
def _block_depth(p: int, entries: int) -> int:
    """The largest depth with p^depth <= min(256, BLOCK_ENTRIES // entries),
    blocks of at most 256 words and BLOCK_ENTRIES entries."""
    most, depth = min(256, BLOCK_ENTRIES // entries), 0
    while p ** (depth + 1) <= most:
        depth += 1
    return depth


@lru_cache(maxsize=1024)
def _vector_major(n: int, m: int):
    """The map from the row-major entries of an n x m matrix to vector-major
    ones: its columns in turn when n <= m, else its rows (as for n = 1)."""
    return itemgetter(*(i * m + j for j in range(m) for i in range(n))) if 1 < n <= m else tuple


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
        words.append(tuple(word))
    return RankMetricCode(Subspace(field, n * m, tuple(words)), n, m)


def dual_code(C: RankMetricCode) -> RankMetricCode:
    """Trace-product dual: the orthogonal complement of C in F_q^{nm}.
    BudgetExceeded, before it is built, when its basis of nm - k vectors
    holds more than BASIS_LIMIT entries."""
    entries = (C.n * C.m - C.k) * C.n * C.m
    check_limit(entries, BASIS_LIMIT, _HOLDS_ENTRIES, entries.bit_length() - 1, {"what": "the basis of C^perp"})
    return RankMetricCode(C.space.perp(), C.n, C.m)


def _rank_of_entries(entries, length: int, field) -> list:
    """The echelon rows, whose number is the rank, of the matrix whose
    `length`-long vectors, its columns or its rows, follow each other in
    these vector-major entries (see `_Codewords`), by elimination through
    the field's flat tables.  Each nonzero reduced vector joins the rows
    with leading entry 1, its pivot; reducing by the rows in insertion order
    clears every pivot, so the pivots are distinct, but a row is not cleared
    at the pivots of the rows after it.  Stops once the rank reaches
    `length`."""
    q = field.q
    add, mul, neg, inv = field.tables
    pivots, rows = [], []
    for s in range(0, len(entries), length):
        v = entries[s : s + length]
        for p, b in zip(pivots, rows):
            c = v[p]
            if c:
                f = neg[c] * q
                v = [add[a * q + mul[f + x]] for a, x in zip(v, b)]
        for p, c in enumerate(v):
            if c:
                if c != 1:
                    f = inv[c] * q
                    v = [mul[f + x] for x in v]
                pivots.append(p)
                rows.append(v)
                if len(rows) == length:
                    return rows
                break
    return rows


def _rank_of_packed(word: int, length: int) -> int:
    """Rank over F_2 of the matrix whose `length`-bit vectors, its columns
    or its rows, are packed low to high in `word` (see
    `_Codewords`).  Each vector is reduced against an XOR basis
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


@lru_cache(maxsize=None)
def _transitions(field: FieldContext, length: int):
    """(targets, dims) of the echelon-transition table of F_q^length, cached
    per field and length.  A breadth-first walk from the zero subspace
    numbers each subspace S the first time it is reached, named by the
    sorted keys x = sum_j v_j q^j of its vectors v, and dims[s] = dim S;
    targets[s][x] is the number of S + <v>, v the vector of key x.  S + <v>
    is S's keys spanned by the steps alpha^l v, l < e, through the key-sum
    rows (`_span_keys`), and is the state of each of its keys outside S: one
    span per subspace covering S."""
    q, p, e, times = field.q, field.p, field.e, field.tables[1]
    rows, size = _key_rows(field, length), q**length
    # steps[l][x] is the key of alpha^l v, v the vector of key x, digit by digit
    steps = [
        [sum(times[p**l * q + x // q**j % q] * q**j for j in range(length)) for x in range(size)] for l in range(e)
    ]
    numbers, states, dims, targets = {b"\0": 0}, [b"\0"], [0], []
    for s, keys in enumerate(states):  # grows as new subspaces are reached
        row = [s if x in keys else None for x in range(size)]
        for x in range(size):
            if row[x] is None:
                # S + <v>: S's keys, then those outside S
                (span,) = _span_keys([(step[x],) for step in steps], [keys], rows, p)
                name = bytes(sorted(span))
                t = numbers.setdefault(name, len(states))
                if t == len(states):
                    states.append(name)
                    dims.append(dims[s] + 1)
                for y in span[len(keys) :]:
                    row[y] = t
        targets.append(row)
    return targets, dims


class _KeyRows(dict):
    """The map x -> the key sums x + y over all keys y < q^digits <= 256,
    as `bytes` padded to 256 for `bytes.translate`: a key is the base-q
    number of `digits` entries of F_q, added entry by entry.  A row is
    filled the first time it is read.  `key` maps each tuple of at most
    `digits` entries to its key."""

    __slots__ = ("field", "digits", "key")

    def __init__(self, field: FieldContext, digits: int):
        self.field, self.digits, q = field, digits, field.q
        self.key = {v[::-1]: x for d in range(1, digits + 1) for x, v in enumerate(product(range(q), repeat=d))}

    def __missing__(self, x):
        q, add = self.field.q, self.field.tables[0]
        row = [0]
        for i in range(self.digits):
            # the sums over keys y < q^(i + 1), indexed y_i q^i + lower digits
            shift, weight = x // q**i % q * q, q**i
            row = [v + add[shift + d] * weight for d in range(q) for v in row]
        self[x] = row = bytes(row).ljust(256, b"\0")
        return row


# one per (field, digits), its rows filled as they are read, shared by every fold and walk
_key_rows = lru_cache(maxsize=None)(_KeyRows)


@lru_cache(maxsize=None)
def _fold_table(field: FieldContext, length: int, g: int):
    """(steps, lasts, rows, full) folding g vectors of F_q^length per read,
    cached per field, length and g.  The key of g vectors v_0, ..., v_{g-1}
    is sum_t key(v_t) q^(t L), one of K = q^(g L); from state s the key x
    reaches the state t of `_transitions` that g steps reach: steps[s][x]
    is t, lasts[s][x] is dim t, and full is the state of F_q^length.  A zero
    vector leaves every state where it is, so a word's last, shorter key
    reads the same rows.  Rows of `lasts`, and of `steps` with at most 256
    states, are `bytes` padded to 256, tables of `bytes.translate`; `rows`
    holds the `_KeyRows` of these keys."""
    targets, dims = _transitions(field, length)
    reached = targets
    for _ in range(g - 1):
        # one more vector, as the top digits of the key
        reached = [[targets[t][v] for v in range(len(targets[0])) for t in row] for row in reached]
    pad = lambda row: bytes(row).ljust(256, b"\0")
    steps = list(map(pad, reached)) if len(dims) <= 256 else reached
    lasts = [pad([dims[t] for t in row]) for row in reached]
    return steps, lasts, _key_rows(field, g * length), dims.index(length)


def _fold_width(q: int, length: int, width: int) -> int:
    """The fold width g of the table `rank_distribution` folds words of
    `width` vectors of F_q^length through; 0 when no table fits.  The
    largest g <= `width` whose table reads at most FOLD_KEYS keys, q^(g L),
    and holds at most RANK_TABLE_LIMIT entries, galois_number(L, q)
    q^(g L); then the smallest g that reads a word in as few keys.  So
    Mat(4 x 4, F_3) and Mat(3 x 4, F_3) fold at g = 1, Mat(4 x 5, F_2) at
    g = 2 (17152 entries), and Mat(6 x 6, F_2) (180800 entries) and
    Mat(3 x 3, F_8) (512 keys) never fold."""
    # q^L first, so no subspace count of a long side is formed
    if length >= FOLD_KEYS.bit_length() or q**length > FOLD_KEYS:
        return 0
    states, g = galois_number(length, q), 0
    while g < width and q ** (g * length + length) <= min(FOLD_KEYS, RANK_TABLE_LIMIT // states):
        g += 1
    return g and -(-width // -(-width // g))


def _one_key_words(C: RankMetricCode, rows) -> bytes:
    """The projective words of C (`_Codewords.projective`) as key bytes, a word being one key: for
    each basis row b_i, last first, b_i plus the span of the rows after it, which then grows by
    each multiple c b_i, c != 0, as one `bytes.translate` by the `rows` of its key."""
    n, m, q, times = C.n, C.m, C.field.q, C.field.tables[1]
    powers, words, span = [q**u for u in range(n * m)], [], b"\0"
    for v in map(_vector_major(n, m), reversed(C.space.basis)):
        keys = [sum(map(mul, v, powers))] + [sum(map(mul, [times[c * q + b] for b in v], powers)) for c in range(2, q)]
        moved = [span.translate(rows[x]) for x in keys]
        words.append(moved[0])
        span = b"".join([span, *moved])
    return b"".join(words)


def _fold_ranks(words: _Codewords, g: int) -> list:
    """The number of projective words of each rank, each word folded from the
    zero state through `_fold_table` one key at a time, g vectors per key.
    Key i of a block's words is the offsets' key column i translated by the
    row of `rows` of the start's key i.  A span is the same in any order, so
    the keys fold last first, key 0 through `lasts`.  Key i > 0 of the
    offsets changes only at multiples of runs[i], the first offset where it
    or a later key is nonzero: keys whose run covers a block are its
    start's, folded once, and a block that reaches F_q^L, which maps to
    itself, stops there.  Each later key is one `bytes.translate` per run of
    one state, or a comprehension over runs of under 4 words and F_2^5's 374
    states, held in lists.  The ranks, each at most L <= 8, are counted as
    bytes, BLOCK_ENTRIES at a time at most."""
    C = words.code
    n, m, length, width = C.n, C.m, min(C.n, C.m), max(C.n, C.m)
    steps, lasts, rows, full = _fold_table(C.field, length, g)
    chunks = -(-width // g)
    if chunks == 1:  # a word is one key, so there are at most FOLD_KEYS words: no blocks
        ranks = _one_key_words(C, rows).translate(lasts[0])
        return [*map(ranks.count, range(length + 1))] + [0] * (n - length)
    columns, blocks = words._walk(rows, True)
    tables, small = [lasts] + [steps] * (chunks - 1), len(steps) <= 256
    counts, seen = [0] * (n + 1), bytearray()
    runs = [0, *list(accumulate([len(c) - len(c.lstrip(b"\0")) for c in columns[:0:-1]], min))[::-1]]
    for start, block in blocks:
        i, state = chunks - 1, 0
        while runs[i] >= block:
            state, i = steps[state][start[i]], i - 1
        ranks, run = (state,), block
        for i in range(i, -1, -1):
            if ranks[0] == full and ranks.count(full) == len(ranks):
                counts[length] += block
                break
            moved, table = columns[i][:block].translate(rows[start[i]]), tables[i]
            if run == block:
                ranks = moved.translate(table[state]) if small or not i else list(map(table[state].__getitem__, moved))
            elif run > 3 and (small or not i):
                ranks = b"".join([moved[t : t + run].translate(table[ranks[t]]) for t in range(0, block, run)])
            else:
                ranks = [table[s][o] for s, o in zip(ranks, moved)]
            run = runs[i]
        else:
            seen.extend(ranks)
            if len(seen) >= BLOCK_ENTRIES:
                counts[: length + 1] = map(int.__add__, counts, map(seen.count, range(length + 1)))
                seen.clear()
    counts[: length + 1] = map(int.__add__, counts, map(seen.count, range(length + 1)))
    return counts


def rank_distribution(C: RankMetricCode, budget: int | None = None) -> tuple:
    """The tuple (A_0, ..., A_n) of exact counts A_i = #{M in C : rank(M) = i}.

    Each word of the projective walk (`_Codewords`) is ranked by
    `_fold_ranks` when `_fold_width` admits a table for the shape, else by
    one elimination.  BudgetExceeded when the tuple would
    hold more than BASIS_LIMIT counts, and, before any word is walked, once
    each, when the words exceed the budget or the work RANK_WORK_LIMIT."""
    n, m, field = C.n, C.m, C.field
    q, length = field.q, min(n, m)
    # a code without generators loads at any n
    what = "the rank distribution (A_0, ..., A_n)"
    check_limit(n + 1, BASIS_LIMIT, _HOLDS_ENTRIES, n.bit_length() - 1, {"what": what})
    words = enumerate_codeword_entries(C, budget)
    if not C.k:  # no word to walk, and a walk would hold a zero word of nm entries
        return (1,) + (0,) * n
    g = check_rank_work(C)
    if g:
        counts = _fold_ranks(words, g)
    else:
        counts = [0] * (n + 1)
        for word in words.projective():
            counts[_rank_of_packed(word, length) if q == 2 else len(_rank_of_entries(word, length, field))] += 1
    # each point stands for its q - 1 nonzero multiples, all of its rank
    counts = [(q - 1) * a for a in counts]
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
    """Seeded random code of the requested dimension.  BudgetExceeded,
    before any entry is drawn, when its dim generators hold more than
    BASIS_LIMIT entries."""
    if n < 1 or m < 1:
        raise InvalidValue(f"n and m must be >= 1, got n={n}, m={m}")
    if not 0 <= dim <= n * m:  # n m may be too long for str()
        raise InvalidValue(f"dimension {dim} out of range [0, n m] for n = {n}, m = {m}")
    entries = dim * n * m
    template = (
        "the basis of a random code of dimension {dim} in Mat({n} x {m}) holds {size} entries, "
        "above the basis limit BASIS_LIMIT = {limit}"
    )
    check_limit(entries, BASIS_LIMIT, template, entries.bit_length() - 1, {"dim": dim, "n": n, "m": m})
    while True:
        vectors = [[rng.randrange(field.q) for _ in range(n * m)] for _ in range(dim)]
        S = Subspace.span(vectors, n * m, field)
        if S.dim == dim:
            return RankMetricCode(S, n, m)
