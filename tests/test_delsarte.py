import json
import random
import sys
import time
import tracemalloc
from itertools import accumulate, islice, product
from operator import xor

import pytest
from hypothesis import example, given, settings, strategies as st

from qrank import (
    CodeAnalysis,
    MatrixFq,
    RankMetricCode,
    Subspace,
    all_codes,
    ambient_counts,
    check_all,
    code_from_generators,
    dual_code,
    gf_new,
    min_rank_distance,
    moebius_coefficient,
    random_code,
    rank_distribution,
    rank_weight_enumerator,
    restrict,
    trace_product,
)
import qrank.delsarte
import qrank.identities
from qrank.delsarte import (
    BASIS_LIMIT,
    BLOCK_ENTRIES,
    FOLD_KEYS,
    RANK_TABLE_LIMIT,
    RANK_WORK_LIMIT,
    _KeyRows,
    _block_depth,
    _fold_ranks,
    _fold_table,
    _fold_width,
    _rank_of_entries,
    _rank_work,
    _transitions,
    enumerate_codeword_entries,
)
from qrank.errors import AmbientMismatch, BudgetExceeded, MalformedCode, ShapeMismatch, ZeroCode
from qrank.qpolymatroid import restriction_dims
from qrank.qseries import galois_number, gaussian_binomial
from qrank.subspaces import enumerate_subspaces

from oracles import (
    oracle_codewords,
    oracle_dim,
    oracle_rank_distribution,
    oracle_rank_matrix,
    oracle_restrict,
    span_set,
)

F2 = gf_new(2)
F3 = gf_new(3)


def full_code(n, m, field):
    return code_from_generators(
        [MatrixFq.unit(field, n, m, i, j) for i in range(n) for j in range(m)]
    )


def test_code_from_generators_examples(F2=F2):
    zero = code_from_generators([], field=F2, n=2, m=2)
    assert zero.k == 0
    assert full_code(2, 2, F2).k == 4
    E11 = MatrixFq.unit(F3, 2, 2, 0, 0)
    assert code_from_generators([E11, E11.scale(2)]).k == 1


def test_code_from_generators_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        code_from_generators([MatrixFq.zeros(F2, 2, 2), MatrixFq.zeros(F2, 2, 3)])
    with pytest.raises(ShapeMismatch, match="needs explicit field and shape"):
        code_from_generators([])


def _row_major(word, C):
    """The row-major entry tuple of a word of C's walk: over F_2 an int
    whose bit u is entry u of the vector-major order, otherwise the
    vector-major entry tuple.  Entry (i, j) is entry u = j n + i of that
    order when n <= m, the columns in turn, and u = i m + j otherwise."""
    n, m = C.n, C.m
    at = (lambda u: word >> u & 1) if C.field.q == 2 else word.__getitem__
    return tuple(at(j * n + i if n <= m else i * m + j) for i in range(n) for j in range(m))


def _vector_major(entries, n, m):
    """Row-major entries of an n x m matrix in vector-major order: the
    columns in turn when n <= m, else the rows as they are."""
    return tuple(entries[i * m + j] for j in range(m) for i in range(n)) if n <= m else tuple(entries)


def _from_vector_major(entries, n, m):
    """The row-major entries of the n x m matrix whose vector-major entries
    these are: the inverse of `_vector_major`."""
    return tuple(entries[j * n + i] for i in range(n) for j in range(m)) if n <= m else tuple(entries)


def _all_words(C):
    """The q^k codewords of C as entry tuples: the zero word and the q - 1
    nonzero multiples of each word of the projective walk."""
    field = C.field
    points = [_row_major(w, C) for w in enumerate_codeword_entries(C).projective()]
    return [(0,) * (C.n * C.m)] + [tuple(field.mul(c, x) for x in w) for w in points for c in range(1, field.q)]


def _walk_rows(C, echelon=False):
    """The basis rows of C's projective walk, as row-major entry tuples, in
    the order it takes them, last row first.  That basis is C's RREF rows,
    or, when a fold reads more than one key per word and blocks of p^depth
    words follow (`echelon`), C's basis in reverse echelon form in
    vector-major order: each RREF row in turn, its vector-major entries
    reversed, made 0 at the pivots of the rows before it and 1 at its first
    nonzero entry, its pivot, and not cleared at later pivots.  So each row
    is 1 at its last nonzero entry, those entries are distinct, and the walk
    takes the rows smallest pivot first."""
    n, m, field = C.n, C.m, C.field
    if not echelon:
        return C.space.basis[::-1]
    reverse = {}  # pivot -> row, in insertion order
    for b in C.space.basis:
        v = _vector_major(b, n, m)[::-1]
        for p, row in reverse.items():
            v = tuple(field.sub(a, field.mul(v[p], x)) for a, x in zip(v, row))
        p = next(u for u, x in enumerate(v) if x)
        reverse[p] = tuple(field.mul(field.inv(v[p]), x) for x in v)
    return [_from_vector_major(reverse[p][::-1], n, m) for p in sorted(reverse, reverse=True)]


def _steps(C, echelon=False):
    """The F_p-steps alpha^l b of C's walk, l < e, b over `_walk_rows(C)`,
    as row-major entry tuples, alpha^l being the field element encoded
    p^l."""
    field = C.field
    return [tuple(field.mul(field.p**l, x) for x in b) for b in _walk_rows(C, echelon) for l in range(field.e)]


def _combinations(word, steps, field):
    """word + sum_t c_t steps[t] for each c in F_p^len(steps), c counting up
    as a base-p number whose lowest digit is c_0."""
    out = []
    for digits in product(range(field.p), repeat=len(steps)):
        w = word
        for c, s in zip(reversed(digits), steps):
            w = tuple(field.add(a, field.mul(c, b)) for a, b in zip(w, s))
        out.append(w)
    return out


def _counting_walk(C, echelon=False):
    """The projective walk by its definition: for each row b of
    `_walk_rows(C)`, b plus every F_p-combination of the steps of the rows
    before it in that order, after it in the walk's basis, in counting
    order."""
    e, steps = C.field.e, _steps(C, echelon)
    return [w for i, b in enumerate(_walk_rows(C, echelon)) for w in _combinations(b, steps[: i * e], C.field)]


def test_enumerate_codewords_counts(zero_2x2_f2, e11_2x2_f2, full_2x2_f2):
    assert _all_words(zero_2x2_f2) == [(0, 0, 0, 0)]
    assert len(_all_words(e11_2x2_f2)) == len(enumerate_codeword_entries(e11_2x2_f2)) == 2
    words = _all_words(full_2x2_f2)
    assert len(words) == len(enumerate_codeword_entries(full_2x2_f2)) == 16
    assert len(set(words)) == 16


def test_budget_exceeded(full_2x2_f2):
    with pytest.raises(BudgetExceeded):
        enumerate_codeword_entries(full_2x2_f2, budget=8)


def test_restrict_examples(full_2x2_f2):
    C = full_2x2_f2
    assert restrict(C, Subspace.zero(2, F2)).k == 0
    assert restrict(C, Subspace.full(2, F2)) == C
    J = Subspace.span([(1, 0)], 2, F2)
    assert restrict(C, J).k == 2


@pytest.mark.parametrize("J", [Subspace.full(3, F2), Subspace.full(2, F3)], ids=["F_2^3", "F_3^2"])
def test_restrict_to_a_subspace_of_another_ambient_space(J, full_2x2_f2):
    with pytest.raises(AmbientMismatch):
        restrict(full_2x2_f2, J)


# (n, m, field): n < m and n > m, prime and extension fields
SHAPES = [
    (3, 2, F2),
    (2, 3, gf_new(5)),
    (3, 2, gf_new(5)),
    (2, 2, gf_new(7)),
    (2, 3, gf_new(2, 3)),
    (2, 2, gf_new(3, 2)),
    (3, 2, gf_new(2, 2)),
    (2, 4, F3),
]


def _random_codes(n, m, field, count, rng):
    # dimensions with at most 1000 codewords, so brute force stays cheap
    top = max(k for k in range(n * m + 1) if field.q**k <= 1000)
    return [random_code(n, m, field, rng.randrange(top + 1), rng) for _ in range(count)]


# every order q <= 9 the fields admit, on both sides of the q = 2 split
PROPERTY_FIELDS = [gf_new(2), gf_new(3), gf_new(2, 2), gf_new(5), gf_new(7), gf_new(2, 3), gf_new(3, 2)]


@st.composite
def _codes(draw, shapes, max_words=None):
    """A seeded random code over a field of PROPERTY_FIELDS, of one of the
    (n, m) shapes, with at most `max_words` codewords if given."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    n, m = draw(st.sampled_from(shapes))
    top = max(k for k in range(n * m + 1) if max_words is None or field.q**k <= max_words)
    k = draw(st.integers(0, top), label="k")
    return random_code(n, m, field, k, random.Random(draw(st.integers(0, 2**30), label="seed")))


def _seeded_examples(seed, count):
    """One Hypothesis example per code of the seeded loop over SHAPES that
    draws `count(field)` codes per shape from random.Random(seed)."""
    rng = random.Random(seed)
    codes = [C for n, m, field in SHAPES for C in _random_codes(n, m, field, count(field), rng)]

    def decorate(test):
        for C in codes:
            test = example(C)(test)
        return test

    return decorate


def _oracle_words(C):
    """The q^k codewords of C as entry tuples, spanned by the oracle."""
    return oracle_codewords(C.space.basis, C.field) if C.k else [(0,) * (C.n * C.m)]


@settings(max_examples=40, deadline=None)
@_seeded_examples(7, lambda field: 20 if field.q == 2 else 3)
@given(_codes([(1, 3), (3, 1), (2, 3), (3, 2)], max_words=1000))
def test_restrict_matches_enumeration(C):
    # independent route: brute-force filter of codewords by column membership
    n, m, field = C.n, C.m, C.field
    columns = [{w[j::m] for j in range(m)} for w in _oracle_words(C)]
    for J, dim in zip(enumerate_subspaces(n, field), restriction_dims(C)):
        span = span_set(J.basis, field) if J.dim else {(0,) * n}
        brute = sum(cols <= span for cols in columns)
        assert field.q**dim == field.q ** restrict(C, J).k == brute, (C, J)


@st.composite
def _subspaces(draw, n, field):
    """A subspace of F_q^n: the span of up to n drawn vectors."""
    vectors = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n), max_size=n), label="J")
    return Subspace.span(vectors, n, field)


@settings(max_examples=150, deadline=None)
@given(
    _codes([(1, 4), (4, 1), (2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3), (4, 4), (2, 8), (8, 2)]),
    st.data(),
)
def test_restrict_matches_the_intersection_oracle(C, data):
    # k up to nm: most of these codes are far too large to enumerate
    J = data.draw(_subspaces(C.n, C.field))
    assert restrict(C, J) == oracle_restrict(C, J), (C, J)


def test_restrict_of_a_tall_code_needs_no_basis_limit():
    # one generator in Mat(100000 x 1, F_2): Mat(J)^perp would hold 10^10 entries
    n = 100000
    C = code_from_generators([MatrixFq.unit(F2, n, 1, 5, 0)])
    e5 = Subspace.span([tuple(int(i == 5) for i in range(n))], n, F2)
    for J, dim in [(Subspace.zero(n, F2), 0), (e5, 1)]:
        start = time.perf_counter()
        assert restrict(C, J).k == dim
        assert time.perf_counter() - start < 1


def test_restriction_dims_of_zero_and_full_codes():
    # k = 0 and S = E are the sweep's branches without a row reduction
    for n, m, field in SHAPES:
        subspaces = list(enumerate_subspaces(n, field))
        zero = code_from_generators([], field=field, n=n, m=m)
        assert restriction_dims(zero) == [0] * len(subspaces)
        assert restriction_dims(full_code(n, m, field)) == [m * S.dim for S in subspaces]


@settings(max_examples=60, deadline=None)
@_seeded_examples(8, lambda field: 3)
@given(_codes([(1, 4), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2)]))
def test_dual_code_is_trace_orthogonal(C):
    D = dual_code(C)
    assert C.k + D.k == C.n * C.m
    matrices = [[MatrixFq(C.field, C.n, C.m, v) for v in X.space.basis] for X in (C, D)]
    assert all(trace_product(M, N) == 0 for M in matrices[0] for N in matrices[1]), C


def test_dual_code_examples(zero_2x2_f2, full_2x2_f2, e11_2x2_f2):
    assert dual_code(zero_2x2_f2).k == 4
    assert dual_code(full_2x2_f2).k == 0
    D = dual_code(e11_2x2_f2)
    assert D.k == 3
    assert all(w[0] == 0 for w in _oracle_words(D))


def test_rank_distribution_examples(zero_2x2_f2, full_2x2_f2, e11_2x2_f2):
    assert list(rank_distribution(zero_2x2_f2)) == [1, 0, 0]
    assert list(rank_distribution(full_2x2_f2)) == [1, 9, 6]
    assert list(rank_distribution(e11_2x2_f2)) == [1, 1, 0]


def test_rank_weight_enumerator_examples(full_2x2_f2, i2_2x2_f2):
    zero3 = code_from_generators([], field=F2, n=3, m=2)
    assert str(rank_weight_enumerator(zero3)) == "x^3"
    assert str(rank_weight_enumerator(full_2x2_f2)) == "x^2 + 9*x*y + 6*y^2"
    assert str(rank_weight_enumerator(i2_2x2_f2)) == "x^2 + y^2"


def test_rank_distribution_matches_span_oracle(corpus_2x2_f2):
    for C in corpus_2x2_f2:
        oracle = oracle_rank_distribution(C.space.basis, 2, 2, F2)
        assert list(rank_distribution(C)) == oracle
    # seeded F_2 codes, (n, m, largest k): n = 1, m = 1, n < m, n > m and
    # square; k = nm where the oracle can afford it.  From min(n, m) = 6 no
    # table fits, and the packed kernel ranks each word
    rng = random.Random(13)
    for n, m, top in [(1, 1, 1), (1, 5, 5), (5, 1, 5), (2, 3, 6), (3, 2, 6),
                      (6, 2, 8), (2, 6, 8), (5, 5, 8), (4, 5, 7), (6, 6, 8), (6, 9, 8), (9, 6, 8)]:  # fmt: skip
        dims = [0, top, rng.randrange(1, top + 1), rng.randrange(1, top + 1)]
        for C in (random_code(n, m, F2, k, rng) for k in dims):
            oracle = oracle_rank_distribution(C.space.basis, n, m, F2)
            assert list(rank_distribution(C)) == oracle, C


def test_ambient_counts_match_column_spaces():
    # independent route: group the codewords of C by their column space
    rng = random.Random(9)
    for n, m, field in SHAPES:
        subspaces = list(enumerate_subspaces(n, field))
        for C in _random_codes(n, m, field, 4 if field.q == 2 else 2, rng):
            by_span = {}
            for w in _oracle_words(C):
                key = Subspace.span([w[j::m] for j in range(m)], n, field).basis
                by_span[key] = by_span.get(key, 0) + 1
            for R in subspaces:
                A, B = ambient_counts(C, R)
                assert A == by_span.get(R.basis, 0), (C, R)
                assert B == field.q ** restrict(C, R).k


def test_ambient_counts_examples(full_2x2_f2, e11_2x2_f2):
    assert ambient_counts(full_2x2_f2, Subspace.zero(2, F2)) == (1, 1)
    A, B = ambient_counts(full_2x2_f2, Subspace.span([(1, 0)], 2, F2))
    assert (A, B) == (3, 4)
    _, B = ambient_counts(e11_2x2_f2, Subspace.full(2, F2))
    assert B == e11_2x2_f2.size()


def test_min_rank_distance_examples(full_2x2_f2, i2_2x2_f2, e11_2x2_f2, zero_2x2_f2):
    assert min_rank_distance(full_2x2_f2) == (1, True)
    assert min_rank_distance(i2_2x2_f2) == (2, True)
    assert min_rank_distance(e11_2x2_f2)[0] == 1
    with pytest.raises(ZeroCode):
        min_rank_distance(zero_2x2_f2)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_full_space_restriction_size(n, m):
    # |V(J)| = q^{m dim J}
    V = full_code(n, m, F2)
    for J in enumerate_subspaces(n, F2):
        assert restrict(V, J).k == m * J.dim


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_full_space_restriction_duality(n, m):
    # V(R)^perp = V(R^perp)
    V = full_code(n, m, F2)
    for R in enumerate_subspaces(n, F2):
        assert dual_code(restrict(V, R)) == restrict(V, R.perp())


def test_exact_sequence_dimensions(corpus_2x2_f2):
    for C in corpus_2x2_f2:
        D = dual_code(C)
        for R in enumerate_subspaces(2, F2):
            assert restrict(D, R).k + C.k == C.m * R.dim + restrict(C, R.perp()).k


def test_distribution_sums_and_moebius_roundtrip(corpus_2x2_f2):
    subs = list(enumerate_subspaces(2, F2))
    for C in corpus_2x2_f2:
        assert sum(rank_distribution(C)) == C.size()
        AB = {S.basis: ambient_counts(C, S) for S in subs}
        for R in subs:
            inside = [S for S in subs if R.contains(S)]
            assert AB[R.basis][1] == sum(AB[S.basis][0] for S in inside)
            recovered = sum(
                moebius_coefficient(R.dim - S.dim, 2) * AB[S.basis][1] for S in inside
            )
            assert recovered == AB[R.basis][0]


dim_strategy = st.integers(0, 6)


@settings(max_examples=30, deadline=None)
@given(dim_strategy, dim_strategy, st.integers(0, 2**30))
def test_dual_involution_and_intersection_law(d1, d2, seed):
    rng = random.Random(seed)
    C = random_code(3, 2, F2, d1, rng)
    D = random_code(3, 2, F2, d2, rng)
    assert dual_code(dual_code(C)) == C
    assert dual_code(C).k == 6 - C.k
    # (C cap D)^perp = C^perp + D^perp, with the intersection computed on
    # the vectorized subspaces (independent route)
    lhs = dual_code(RankMetricCode(C.space.intersect(D.space), 3, 2))
    assert lhs.space == dual_code(C).space.sum(dual_code(D).space)


def test_a_code_is_immutable_and_equal_by_value(full_2x2_f2, e11_2x2_f2):
    import copy
    import pickle

    C = full_2x2_f2
    twin = RankMetricCode(space=C.space, n=C.n, m=C.m)
    assert twin == C and hash(twin) == hash(C) and twin != e11_2x2_f2
    assert len({C, twin, e11_2x2_f2}) == 2
    for name in ("space", "n", "m", "other"):
        with pytest.raises(AttributeError):
            setattr(C, name, None)
        with pytest.raises(AttributeError):
            delattr(C, name)
    assert copy.copy(C) == pickle.loads(pickle.dumps(C)) == C


def test_json_roundtrip_canonical(full_2x2_f2, e11_2x2_f2):
    for C in [full_2x2_f2, e11_2x2_f2]:
        text = json.dumps(C.to_json())
        assert RankMetricCode.from_json(json.loads(text)) == C
    # non-canonical generators load to the same canonical code
    obj = {
        "field": {"q": 2},
        "n": 2,
        "m": 2,
        "generators": [[[1, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 1], [0, 0]]],
    }
    C = RankMetricCode.from_json(obj)
    assert C.k == 2
    assert C.to_json()["generators"] == [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]


def _refuse_entry_reads(*args, **kwargs):
    raise AssertionError("a generator was scanned or reduced")


def test_a_code_file_above_the_basis_limit_is_refused_before_any_generator_is_read(monkeypatch):
    # limit 24: five Mat(1 x 5) generators hold 25 entries, four Mat(2 x 3) ones 24
    monkeypatch.setattr(qrank.delsarte, "BASIS_LIMIT", 24)
    over = {"field": {"q": 2}, "n": 1, "m": 5, "generators": [[[1, 0, 0, 0, 0]]] * 5}
    at = {"field": {"q": 3}, "n": 2, "m": 3, "generators": [[[1, 2, 0], [0, 0, 1]], [[0, 1, 0], [2, 0, 0]]] * 2}
    with monkeypatch.context() as patched:
        patched.setattr(qrank.delsarte, "_is_matrix", _refuse_entry_reads)
        for module in vars(qrank).values():
            if getattr(module, "rref_rows", None) is qrank.matspace.rref_rows:
                patched.setattr(module, "rref_rows", _refuse_entry_reads)
        with pytest.raises(BudgetExceeded) as refusal:
            RankMetricCode.from_json(over)
    assert str(refusal.value) == "the generators of the code hold 25 entries, above the basis limit BASIS_LIMIT = 24"
    assert RankMetricCode.from_json(at).k == 2
    # malformed entries under the limit are still named as such
    with pytest.raises(MalformedCode, match="generators must be a list of 1x5 matrices"):
        RankMetricCode.from_json(dict(over, generators=[[[2, 0, 0, 0, 0]]]))


def test_all_codes_counts():
    assert sum(1 for _ in all_codes(2, 2, F2)) == 67
    assert sum(1 for _ in all_codes(2, 2, F3)) == 212


def test_codeword_entry_order_deterministic(full_2x2_f2):
    view = enumerate_codeword_entries(full_2x2_f2)
    a = list(view.projective())
    assert a == list(view.projective()) == list(enumerate_codeword_entries(full_2x2_f2).projective())


def test_codeword_stream_matches_span_oracle():
    rng = random.Random(11)
    for n, m, field in SHAPES:
        zero = code_from_generators([], field=field, n=n, m=m)
        assert len(enumerate_codeword_entries(zero)) == 1
        assert list(enumerate_codeword_entries(zero).projective()) == []
        for C in _random_codes(n, m, field, 4, rng):
            assert len(enumerate_codeword_entries(C)) == C.size()
            assert sorted(_all_words(C)) == _oracle_words(C), C
            # the walk's invariant: offsets[j][:p^l] is key j of the span of
            # the first l F_p-steps in counting order, and each block's words
            # are its start plus the first `size` offsets
            view = enumerate_codeword_entries(C)
            offsets, blocks = view._walk(_KeyRows(field, 1))
            offsets = [_keys_to_row_major(o, 1, C) for o in zip(*offsets)]
            steps, l = _steps(C), 0
            while field.p**l <= len(offsets):
                assert offsets[: field.p**l] == _combinations(offsets[0], steps[:l], field), (C, l)
                l += 1
            assert field.p ** (l - 1) == len(offsets) and not any(offsets[0]), C
            starts = [(_keys_to_row_major(start, 1, C), size) for start, size in blocks]
            words = [tuple(map(field.add, start, o)) for start, size in starts for o in offsets[:size]]
            assert words == [_row_major(w, C) for w in view.projective()] == _counting_walk(C), C


def test_the_starts_of_a_long_walk_span_its_later_steps_in_counting_order():
    # walk i has p^(i e - depth) starts, b_{k-1-i} plus each F_p-combination of
    # steps depth to i e in counting order: past 2 depth steps they are words
    # of `_span` plus the key columns of steps depth to 2 depth, and at depth 0,
    # a word of over BLOCK_ENTRIES / p entries, words of `_span` alone.  Over
    # F_2 with the 8-entry keys of `projective()` and over F_4 and F_7 with
    # one-entry keys, in both walk forms
    rng = random.Random(32)
    for n, m, field, k, depth in [(2, 3, gf_new(7), 6, 2), (1, 2000, F2, 9, 3), (1, 2000, gf_new(2, 2), 5, 3),
                                  (1, 5000, F2, 4, 1), (1, 8200, F2, 3, 0)]:  # fmt: skip
        p, e, span = field.p, field.e, 8 if field.q == 2 else 1
        C = random_code(n, m, field, k, rng)
        assert min(_block_depth(p, n * m), (k - 1) * e) == depth and (k - 1) * e > 2 * depth, C
        short = depth // e + 1
        for echelon in (False, True):
            blocks = list(enumerate_codeword_entries(C)._walk(_KeyRows(field, span), echelon)[1])
            rows, steps = _walk_rows(C, echelon), _steps(C, echelon)
            starts = [_keys_to_row_major(start, span, C) for start, _ in blocks[short:]]
            expected = [start for i in range(short, k)
                        for start in _combinations(rows[i], steps[depth : i * e], field)]  # fmt: skip
            assert starts == expected, (C, echelon)
            sizes = [p ** (i * e) for i in range(short)] + [p**depth] * len(starts)
            assert [size for _, size in blocks] == sizes, (C, echelon)


def _random_matrix(n, m, rank, field, rng):
    # an n x rank times rank x m product: rank at most `rank`
    q = field.q
    A = [[rng.randrange(q) for _ in range(rank)] for _ in range(n)]
    B = [[rng.randrange(q) for _ in range(m)] for _ in range(rank)]
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = 0
            for t in range(rank):
                acc = field.add(acc, field.mul(A[i][t], B[t][j]))
            row.append(acc)
        rows.append(row)
    return rows


def test_rank_of_entries_matches_span_oracle():
    rng = random.Random(12)
    for n, m, field in SHAPES + [(4, 2, F3), (2, 4, gf_new(2, 2))]:
        matrices = [[[rng.randrange(field.q) for _ in range(m)] for _ in range(n)] for _ in range(10)]
        for r in range(min(n, m)):
            matrices += [_random_matrix(n, m, r, field, rng) for _ in range(5)]
        for rows in matrices:
            length = min(n, m)
            entries = _vector_major([v for row in rows for v in row], n, m)
            echelon = _rank_of_entries(entries, length, field)
            assert len(echelon) == oracle_rank_matrix(rows, field), (rows, field)
            # independent rows, each 1 at its first nonzero entry, those entries distinct, spanning the vectors
            pivots = [next(u for u, x in enumerate(row) if x) for row in echelon]
            assert all(row[u] == 1 for u, row in zip(pivots, echelon)) and len(set(pivots)) == len(pivots)
            span = span_set(echelon, field) if echelon else {(0,) * length}
            vectors = {tuple(entries[s : s + length]) for s in range(0, n * m, length)}
            assert vectors <= span and len(span) == field.q ** len(echelon), (rows, field)


def test_rank_distribution_memory_does_not_grow_with_the_code():
    # 2^16 and 3^10 codewords; held as a list of entry tuples the first
    # takes about 16 MiB
    rng = random.Random(5)
    for C in (random_code(2, 8, F2, 16, rng), random_code(2, 5, F3, 10, rng)):
        tracemalloc.start()
        try:
            dist = rank_distribution(C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(dist) == C.size()
        assert peak < 2**20, (C, peak)


def _table_kernel_counts(C):
    counts = [0] * (C.n + 1)
    for entries in _all_words(C):
        counts[len(_rank_of_entries(_vector_major(entries, C.n, C.m), min(C.n, C.m), C.field))] += 1
    return counts


def test_rank_distribution_matches_the_all_words_table_kernel(corpus_2x2_f2, corpus_3x2_f2, corpus_2x2_f3):
    # one rank per projective point, packed over F_2, against one per word
    for C in corpus_2x2_f2 + corpus_3x2_f2 + corpus_2x2_f3:
        for code in (C, dual_code(C)):
            assert list(rank_distribution(code)) == _table_kernel_counts(code), code


def test_packed_walk_unpacks_to_the_tuple_view():
    # over F_2 the walk's ints unpack to the entry tuples of the walk's
    # definition, in its order
    rng = random.Random(14)
    # nm = 8 fills one 8-entry key exactly, Mat(1 x 9) ends on a one-entry
    # key and Mat(6 x 6) is eliminated per word
    for n, m in [(1, 1), (3, 4), (4, 3), (2, 6), (6, 2), (5, 5), (2, 4), (1, 9), (6, 6)]:
        # k with at most 2^10 words
        top = min(n * m, 10)
        for k in sorted({0, 1, top, rng.randrange(top + 1)}):
            C = random_code(n, m, F2, k, rng)
            points = list(enumerate_codeword_entries(C).projective())
            assert all(isinstance(w, int) for w in points), (n, m, k)
            assert [_row_major(w, C) for w in points] == _counting_walk(C), (n, m, k)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PROPERTY_FIELDS), st.data())
def test_rank_distribution_matches_span_oracle_property(field, data):
    q = field.q
    # n < m, n > m and n = m, with q^min(n, m) <= 2^10; each field has shapes
    # on both sides of the fold gate, such as (5, 5) over F_3 and (6, 6)
    # over F_2 without a table
    shapes = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 5), (5, 2), (4, 4), (5, 5), (6, 6)]
    n, m = data.draw(st.sampled_from([s for s in shapes if q ** min(s) <= 2**10]), label="shape")
    # the oracle spans q^min(n, m) vectors per word: q^k <= 2^10 words and
    # q^(k + min(n, m)) nm <= 2^18 keep it cheap
    top = max(k for k in range(n * m + 1) if q**k <= 2**10 and q ** (k + min(n, m)) * n * m <= 2**18)
    k = data.draw(st.integers(0, top), label="k")
    C = random_code(n, m, field, k, random.Random(data.draw(st.integers(0, 2**30), label="seed")))
    oracle = oracle_rank_distribution(C.space.basis, n, m, field)
    # the path depends on the shape alone: a code folds through the table
    # iff one fits, first with every rank table cold, then with this
    # shape's tables filled
    g = _fold_width(q, min(n, m), max(n, m))
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qrank.delsarte, "_fold_ranks", lambda words, g: taken.append(g) or _fold_ranks(words, g))
        _clear_rank_tables()
        assert list(rank_distribution(C)) == oracle, C
        assert list(rank_distribution(C)) == oracle, C
    assert taken == ([g, g] if g and k else []), (C, g)


def _clear_rank_tables():
    """Empty the transition, fold-table and key-sum-row caches, so the next ranking fills them."""
    _transitions.cache_clear()
    _fold_table.cache_clear()
    qrank.delsarte._key_rows.cache_clear()


def _refuse(*args, **kwargs):
    raise AssertionError("the brute side called an engine of the restriction sweep")


def test_rank_distribution_needs_no_engine_of_the_sweep(monkeypatch):
    # on both sides of the fold gate, over F_2 and q > 2 (Mat(6 x 6, F_2) and
    # Mat(3 x 3, F_8) below without a table), n < m and n > m
    rng = random.Random(16)
    shapes = [(4, 5, F2, 8), (5, 4, F2, 8), (6, 6, F2, 6), (2, 20, F2, 8), (3, 4, F3, 5), (4, 3, F3, 5),
              (4, 4, F3, 4), (3, 3, gf_new(2, 2), 4), (3, 3, gf_new(5), 3), (2, 3, gf_new(3, 2), 3)]  # fmt: skip
    codes = [random_code(n, m, field, k, rng) for n, m, field, k in shapes]
    expected = [oracle_rank_distribution(C.space.basis, C.n, C.m, C.field) for C in codes]
    # the three shapes of the benchmark's enumeration workload, an F_8 shape
    # and Mat(5 x 5, F_2), whose 374 states fold as lists, through the table,
    # and Mat(3 x 3, F_8), 512 keys, without one; one elimination per
    # codeword for these
    for n, m, field, k in [(4, 5, F2, 16), (3, 4, F3, 9), (3, 3, gf_new(2, 2), 7), (2, 3, gf_new(2, 3), 5),
                           (5, 5, F2, 12), (3, 3, gf_new(2, 3), 4)]:  # fmt: skip
        C = random_code(n, m, field, k, rng)
        codes.append(C)
        expected.append(_table_kernel_counts(C))
    # every binding of each name, in every qrank module that imported it
    for module in [mod for name, mod in sys.modules.items() if name == "qrank" or name.startswith("qrank.")]:
        for name in ("rref_rows", "kernel_basis", "lattice", "_extend", "_extend_packed", "_column_images"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    # cleared under the patch, so a warm table cannot hide a fill that eliminates
    _clear_rank_tables()
    for C, dist in zip(codes, expected):
        assert list(rank_distribution(C)) == dist, C


def test_fold_width_depends_on_the_shape_alone():
    # (q, L, width) -> g for Mat(L x width, F_q): g is the widest width of at
    # most 2^8 keys, q^(g L), and 2^15 entries, galois_number(L, q) q^(g L),
    # narrowed to the fewest that read a word in as few keys
    assert (FOLD_KEYS, RANK_TABLE_LIMIT) == (2**8, 2**15)
    widths = {
        (2, 4, 5): 2,  # 67 * 16 = 1072 transitions and 17152 entries at g = 2
        (3, 3, 4): 1,  # 28 * 27 = 756 transitions; g = 2 would read 729 keys
        (4, 3, 3): 1,  # 44 * 64 = 2816
        (5, 3, 3): 1,  # 64 * 125 = 8000
        (3, 4, 4): 1,  # 212 * 81 = 17172
        (3, 2, 2): 2,  # 6 * 81 = 486 entries at g = 2
        (4, 2, 2): 2,
        (4, 2, 3): 2,  # 7 * 256 = 1792 entries at g = 2 fold 3 vectors in 2 keys
        (2, 2, 5): 3,  # 5 * 256 = 1280 at g = 4 folds 5 vectors in 2 keys, as g = 3 at 320 does
        (2, 3, 5): 2,  # 16 * 64 = 1024 entries at g = 2 fold 5 vectors in 3 keys
        (2, 3, 3): 2,
        (8, 3, 3): 0,  # 8^3 = 512 keys
        (8, 2, 3): 1,  # 11 * 64 = 704
        (2, 6, 6): 0,  # 2825 * 64 = 180800 entries, above the limit
        (2, 5, 5): 1,  # 374 * 32 = 11968; g = 2 would read 1024 keys
        (2, 2, 20): 4,
        (5, 2, 4): 1,
        (2, 400, 400): 0,
        (3, 1, 2): 2,
    }
    assert {key: _fold_width(*key) for key in widths} == widths
    # a one-word code fills the transitions and one fold table, and no more
    _clear_rank_tables()
    rank_distribution(random_code(3, 3, F2, 1, random.Random(23)))
    filled = [_transitions.cache_info(), _fold_table.cache_info()]
    assert [info.currsize for info in filled] == [1, 1]
    # F_2^3's transitions and its table at g = 2: reading them again fills nothing
    _transitions(F2, 3), _fold_table(F2, 3, 2)
    assert [_transitions.cache_info().misses, _fold_table.cache_info().misses] == [info.misses for info in filled]


def _state_keys(targets):
    """The keys of each state S of a transition table: S + <v> = S iff v
    lies in S, so those x with targets[s][x] = s."""
    return [frozenset(x for x, t in enumerate(row) if t == s) for s, row in enumerate(targets)]


def _oracle_basis(vectors, field):
    """A basis of the span of these vectors, drawn from them in order, and
    that span (`span_set`)."""
    basis, span = [], {(0,) * len(vectors[0])}
    for v in vectors:
        if v not in span:
            basis.append(v)
            span = span_set(basis, field)
    return basis, span


def test_rank_table_states_are_exactly_the_subspaces():
    # every transition of F_2^4, F_3^3, F_4^3 and F_5^3, filled from cold:
    # one state per subspace, named by its keys, and each state's
    # dimension is its rank
    _clear_rank_tables()
    rng = random.Random(22)
    for field, length in [(F2, 4), (F3, 3), (gf_new(2, 2), 3), (gf_new(5), 3)]:
        q = field.q
        targets, dims = _transitions(field, length)
        seen, todo = {0}, [0]
        while todo:
            for target in targets[todo.pop()]:
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
        states = _state_keys(targets)
        assert len(dims) == len(set(states)) == len(seen) == galois_number(length, q), (field, length)
        assert sum(map(len, targets)) == galois_number(length, q) * q**length
        assert max(dims) == length
        vectors = [tuple(x // q**j % q for j in range(length)) for x in range(q**length)]
        for keys, row, dim in zip(states, targets, dims):
            rows = tuple(_oracle_basis([vectors[x] for x in sorted(keys)], field)[0])
            assert None not in row and len(keys) == q**dim == q ** oracle_dim(rows, field), (field, rows)
            # S + <v> has the dimension of the span of S's rows and v
            for x in rng.sample(range(q**length), 8):
                assert dims[row[x]] == oracle_dim(rows + (vectors[x],), field), (field, rows, x)


def test_every_state_is_the_span_of_an_oracle_basis_and_steps_to_its_sum():
    # over PROPERTY_FIELDS, at every length a fold admits: a state's keys are
    # those of the span of an oracle basis of dims[s] vectors drawn from
    # them, and targets[s][x] is the state whose keys are those of S + <v>
    for field in PROPERTY_FIELDS:
        q = field.q
        for length in [L for L in range(1, 9) if _fold_width(q, L, L)]:
            targets, dims = _transitions(field, length)
            vectors = [tuple(x // q**j % q for j in range(length)) for x in range(q**length)]
            key = {v: x for x, v in enumerate(vectors)}
            states = _state_keys(targets)
            number = {keys: s for s, keys in enumerate(states)}
            assert len(number) == len(dims) == galois_number(length, q), (field, length)
            for s, keys in enumerate(states):
                basis, span = _oracle_basis([vectors[x] for x in sorted(keys)], field)
                assert {key[v] for v in span} == keys and len(basis) == dims[s], (field, length, s)
                # each cover T = S + <v> of S once: every key of T outside S steps to T
                todo = set(range(q**length)) - keys
                while todo:
                    joined = frozenset(key[v] for v in span_set(basis + [vectors[min(todo)]], field))
                    assert {targets[s][x] for x in joined - keys} == {number[joined]}, (field, length, s)
                    todo -= joined


def test_a_cold_fill_makes_one_span_per_cover_pair(monkeypatch):
    # S + <v> is one `_span_keys` call for each subspace T covering S, shared
    # by the keys of T outside S: sum_d [L, d]_q [L - d, 1]_q calls, not one
    # per state and key
    spans, span_keys = [], qrank.delsarte._span_keys
    monkeypatch.setattr(qrank.delsarte, "_span_keys", lambda *args: spans.append(1) or span_keys(*args))
    for field, length, covers in [(F2, 5, 2077), (F3, 4, 1120)]:
        q = field.q
        assert covers == sum(gaussian_binomial(length, d, q) * gaussian_binomial(length - d, 1, q) for d in range(length))
        _clear_rank_tables()
        spans.clear()
        _transitions(field, length)
        assert len(spans) == covers, (field, length)


def test_a_long_side_is_refused_a_rank_table_before_its_subspaces_are_counted():
    # one generator in Mat(400 x 400, F_2): 2^400 alone is above the limit;
    # galois_number(400, 2) would take seconds
    C = random_code(400, 400, F2, 1, random.Random(17))
    start = time.perf_counter()
    dist = rank_distribution(C)
    assert time.perf_counter() - start < 0.1
    assert dist[0] == 1 and sum(dist) == 2


def test_rank_table_memory_at_the_largest_admitted_table():
    # Mat(3 x 3, F_5), 64 states of 125 transitions each, and Mat(4 x 4, F_3),
    # the largest admitted table at 212 states of 81: each built from cold by
    # a 5^7- and a 3^10-word code, held under the bound of the test above
    rng = random.Random(18)
    for n, m, field, k, states in [(3, 3, gf_new(5), 7, 64), (4, 4, F3, 10, 212)]:
        _clear_rank_tables()
        C = random_code(n, m, field, k, rng)
        tracemalloc.start()
        try:
            dist = rank_distribution(C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(dist) == C.size()
        # the measured call filled the table: the cache was empty before it
        assert _transitions.cache_info().misses == 1, C
        targets, dims = _transitions(C.field, min(n, m))
        assert len(targets) == len(dims) == states
        # the call read its byte rows: the key-sum rows of its blocks are filled
        assert len(_fold_table(C.field, min(n, m), 1)[2]) > 0, C
        assert peak < 2**20, (C, peak)


def test_a_wide_code_walks_in_memory_bounded_by_its_basis():
    # Mat(2 x 5000, F_3) k = 5 and Mat(2 x 5000, F_5) k = 3 take the table
    # at g = 2 and 1, and Mat(2 x 5000, F_17) k = 2 is refused one, 17^2
    # keys: offsets for blocks of 81, 25 and 17 words of 10^4 entries would
    # take about 6, 2 and 1.4 MiB as tuples, twice with their add-rows; the
    # basis steps, their add-rows and the offsets' key columns take under
    # 1 MiB
    rng = random.Random(21)
    for field, k in [(F3, 5), (gf_new(5), 3), (gf_new(17), 2)]:
        _clear_rank_tables()
        C = random_code(2, 5000, field, k, rng)
        assert bool(_fold_width(field.q, 2, 5000)) == (field.q != 17), C
        tracemalloc.start()
        try:
            dist = rank_distribution(C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(dist) == C.size()
        assert peak < 2**21, (C, peak)
    # a block is 256 words of 64 entries, or 128 of 65: each key column
    # holds one key of each offset
    assert BLOCK_ENTRIES == 2**14
    for n, m, size in [(8, 8, 256), (5, 13, 128)]:
        offsets = enumerate_codeword_entries(random_code(n, m, F2, 9, rng))._walk(_KeyRows(F2, 1))[0]
        assert len(offsets) == n * m and {len(column) for column in offsets} == {size}, (n, m)


def _fold_widths(q, length):
    """Every fold width g whose table reads at most FOLD_KEYS keys; a g
    above a word's width folds it in one key."""
    return [g for g in range(1, FOLD_KEYS.bit_length()) if q ** (g * length) <= FOLD_KEYS]


def _eliminate(*args):
    raise AssertionError("a word was eliminated although a rank table fits its shape")


def _key(entries, q):
    return sum(x * q**u for u, x in enumerate(entries))


def test_every_fold_width_and_walk_form_matches_the_oracles(monkeypatch):
    # _fold_ranks at each g the key limit allows, packed over F_2 and as key
    # tuples elsewhere, against one elimination of the vector-major entries
    # of each projective word and the span oracle over all q^k words, from
    # cold tables and warm
    rng = random.Random(19)
    for field in PROPERTY_FIELDS:
        q = field.q
        for n, m in [(1, 3), (3, 1), (2, 3), (3, 2)]:
            length, width = min(n, m), max(n, m)
            # k = nm where q^nm <= 2^10 (every field on 1 x 3 and 3 x 1), else
            # the largest k with q^k <= 2^10
            top = max(k for k in range(n * m + 1) if q**k <= 2**10)
            for k in sorted({0, 1, top}):
                C = random_code(n, m, field, k, rng)
                words = enumerate_codeword_entries(C)
                per_word = [0] * (n + 1)
                for w in words.projective():
                    per_word[len(_rank_of_entries(_vector_major(_row_major(w, C), n, m), length, field))] += 1
                everything = [(q - 1) * a for a in per_word]
                everything[0] += 1
                assert everything == oracle_rank_distribution(C.space.basis, n, m, field), C
                for g in _fold_widths(q, length):
                    _clear_rank_tables()
                    assert _fold_ranks(words, g) == per_word, (C, g)
                    assert _fold_ranks(words, g) == per_word, (C, g)
                # every code of these shapes folds from cold, however few its words
                _clear_rank_tables()
                with monkeypatch.context() as patch:
                    patch.setattr(qrank.delsarte, "_rank_of_entries", _eliminate)
                    patch.setattr(qrank.delsarte, "_rank_of_packed", _eliminate)
                    assert list(rank_distribution(C)) == everything, C


def _pivot_code(n, m, field, pivots, rng, tail=()):
    """The code whose basis in reverse echelon form in vector-major order
    has these ascending pivots: row t is 1 at pivots[t], 0 after it and at
    the other pivots, random elsewhere, and the row of the last pivot ends
    with the entries `tail`."""
    rows = []
    for p in pivots:
        rows.append([0 if u in pivots else rng.randrange(field.q) for u in range(p)] + [1] + [0] * (n * m - p - 1))
    rows[-1][n * m - len(tail) :] = tail
    return RankMetricCode(Subspace.span([_from_vector_major(row, n, m) for row in rows], n * m, field), n, m)


def test_every_shared_key_depth_folds_to_the_oracle():
    # codes of chosen vector-major pivots, each with blocks of p^depth words:
    # in the fold's walk a block's offsets span the steps of the d = ceil(depth
    # / e) rows of smallest pivot, so they are zero on every key after the one
    # of pivots[d - 1], and `_fold_ranks` folds those keys once per block,
    # from its start.  Each shape takes every number of shared keys its d
    # smallest pivots leave room for, (d - 1) // span keys at least holding
    # them; F_7, k = 4 of 6 entries, cannot put pivots[1] in the last key
    rng = random.Random(29)
    F4, F7 = gf_new(2, 2), gf_new(7)
    # a last row whose last two vectors are independent: with the offsets
    # zero on them, a block of its walk starts at F_q^2 and reads no further
    tail = (1, 0, 0, 1)
    # (n, m, field): [(pivots, tail)]; k = 10 over F_2, 7 over F_3, 6 over
    # F_4 and 4 over F_7 walk blocks of p^depth words after their short blocks
    cases = {
        (2, 9, F2): [([0, 1, 2, 3, 4, 5, 6, 7, 8, 17], tail), ([0, 1, 2, 3, 4, 5, 6, 12, 13, 17], ())],
        (9, 2, F2): [([0, 1, 2, 3, 4, 5, 6, 7, 8, 17], tail), ([0, 1, 2, 3, 4, 5, 6, 12, 13, 17], ())],
        (1, 20, F2): [([0, 1, 2, 3, 4, 5, 6, 8, 10, 19], ()), ([0, 1, 2, 3, 4, 5, 6, 15, 16, 19], ())],
        (2, 6, F3): [([0, 1, 2, 3, 4, 5, 11], tail), ([0, 1, 2, 3, 8, 9, 11], ())],
        (6, 2, F3): [([0, 1, 2, 3, 4, 5, 11], tail), ([0, 1, 2, 3, 8, 9, 11], ())],
        (1, 12, F3): [([0, 1, 2, 3, 4, 5, 11], ()), ([0, 1, 2, 3, 8, 9, 11], ())],
        (2, 6, F4): [([0, 1, 2, 3, 4, 11], tail), ([0, 1, 2, 5, 6, 11], tail), ([0, 1, 2, 8, 9, 11], ())],
        (6, 2, F4): [([0, 1, 2, 3, 4, 11], tail), ([0, 1, 2, 5, 6, 11], tail), ([0, 1, 2, 8, 9, 11], ())],
        (1, 9, F4): [([0, 1, 2, 3, 5, 8], ()), ([0, 1, 2, 6, 7, 8], ())],
        (2, 3, F7): [([0, 1, 2, 5], ()), ([0, 2, 3, 5], ())],
    }
    for (n, m, field), codes in cases.items():
        q, p, e, length = field.q, field.p, field.e, min(n, m)
        g = _fold_width(q, length, max(n, m))
        chunks, span = -(-max(n, m) // g), g * length
        depths = set()
        d = -(-_block_depth(p, n * m) // e)
        for pivots, last in codes:
            C = _pivot_code(n, m, field, pivots, rng, last)
            k = C.k
            assert k == len(pivots) and (k - 1) * e > _block_depth(p, n * m), (C, pivots)
            columns = enumerate_codeword_entries(C)._walk(_fold_table(field, length, g)[2], True)[0]
            assert len(columns) == chunks, (C, pivots)
            shared = next(i for i, column in enumerate(columns[::-1] + [[1]]) if any(column))
            assert shared == chunks - 1 - pivots[d - 1] // span, (C, pivots)
            depths.add(shared)
            if last:
                entries = _vector_major(_walk_rows(C, True)[-1], n, m)
                vectors = [entries[i : i + length] for i in range((chunks - shared) * span, n * m, length)]
                assert oracle_rank_matrix(vectors, field) == length, (C, pivots)
            assert list(rank_distribution(C)) == oracle_rank_distribution(C.space.basis, n, m, field), (C, pivots)
        assert depths == set(range(field is F7, chunks - (d - 1) // span)), (n, m, field, depths)
    # random codes from cold: Mat(4 x 4, F_3), 212 states, the largest table
    # whose states fit a byte, and Mat(5 x 5, F_2), 374 states, held in
    # lists; Mat(4 x 10, F_2) at g = 2 and Mat(5 x 10, F_2) at g = 1
    for n, m, field, k, states, rows_as in [(4, 4, F3, 6, 212, bytes), (5, 5, F2, 10, 374, list),
                                            (4, 10, F2, 10, 67, bytes), (5, 10, F2, 10, 374, list)]:  # fmt: skip
        C = random_code(n, m, field, k, rng)
        _clear_rank_tables()
        assert list(rank_distribution(C)) == oracle_rank_distribution(C.space.basis, n, m, field), C
        # the path follows the state count: byte rows up to 256 states, lists above
        steps = _fold_table(field, min(n, m), _fold_width(field.q, min(n, m), max(n, m)))[0]
        assert len(steps) == states and {type(row) for row in steps} == {rows_as}, C


def _keys_to_row_major(word, span, C):
    """The row-major entries of a word of the walk, a tuple of keys of
    `span` base-q digits, vector-major entries low digit first."""
    q, n, m = C.field.q, C.n, C.m
    return _from_vector_major(tuple(x // q**u % q for x in word for u in range(span))[: n * m], n, m)


# every shape of the benchmark's enumeration and CLI workloads, n < m and
# n > m, Mat(3 x 3, F_2) of its corpus, F_2^5's list rows, F_8, whose
# depth 8 is no multiple of e = 3, and F_16, e = 4: each folds more than
# one key a word
MULTI_KEY_SHAPES = [(4, 5, F2), (5, 4, F2), (3, 3, F2), (5, 3, F2), (5, 2, F2), (3, 4, F3), (4, 3, F3),
                    (3, 3, gf_new(2, 2)), (2, 3, gf_new(2, 3)), (5, 5, F2), (2, 4, gf_new(2, 4))]  # fmt: skip


def test_the_fold_walk_keeps_each_key_constant_on_aligned_runs():
    # for a code with blocks of p^depth words (the fewest rows that give
    # them) and a short one: the blocks list each projective point once, in
    # the order of the walk's definition; key j of the offsets is constant
    # on aligned runs of p^r_j, r_j the leading steps zero on keys j and
    # later, and p^r_j is the run `_fold_ranks` reads off the offsets; in
    # reverse echelon form the keys after the last offset step's pivot are
    # zero in every offset
    rng = random.Random(30)
    for n, m, field in MULTI_KEY_SHAPES:
        q, p, e, length = field.q, field.p, field.e, min(n, m)
        g = _fold_width(q, length, max(n, m))
        chunks, span, deepest = -(-max(n, m) // g), g * length, _block_depth(p, n * m)
        assert g and chunks > 1, (n, m, field)
        for k in sorted({min(deepest // e + 2, n * m), 3}):
            C = random_code(n, m, field, k, rng)
            echelon, depth = (k - 1) * e > deepest, min(deepest, (k - 1) * e)
            columns, blocks = enumerate_codeword_entries(C)._walk(_fold_table(field, length, g)[2], True)
            assert len(columns) == chunks and {type(c) for c in columns} == {bytes}, C
            offsets = [_keys_to_row_major(o, span, C) for o in zip(*columns)]
            words = [tuple(map(field.add, _keys_to_row_major(start, span, C), o))
                     for start, size in blocks for o in offsets[:size]]  # fmt: skip
            assert words == _counting_walk(C, echelon), C
            assert len({_point(w, field) for w in words}) == len(words) == (q**k - 1) // (q - 1), C
            # offset p^l is step l of the walk's definition
            steps = _steps(C, echelon)[:depth]
            assert [offsets[p**l] for l in range(depth)] == steps, C
            steps, size = [_vector_major(s, n, m) for s in steps], len(offsets)
            for j, column in enumerate(columns):
                r = next((l for l, s in enumerate(steps) if any(s[j * span :])), depth)
                assert next((t for t in range(size) if any(c[t] for c in columns[j:])), size) == p**r, (C, j)
                assert all(column[t] == column[t - t % p**r] for t in range(size)), (C, j)
            if echelon:
                pivot = max(u for u, x in enumerate(steps[-1]) if x)
                assert not any(b"".join(columns[pivot // span + 1 :])), C


def _fold_paths(C, monkeypatch):
    """The paths `_fold_ranks` takes on C, read off a spy on its tables and
    its walk's blocks: "shared" (a block folds keys from its start),
    "full" (a block reaches F_q^L there and reads no further), "one" (one
    translate from a block's state), "runs" (a translate per run of words
    in one state), "words" (a comprehension over the words) and "lists"
    (F_2^5's rows, held in lists); with the block sizes in walk order."""
    log, fold_table, walk = [], qrank.delsarte._fold_table, qrank.delsarte._Codewords._walk

    def spied(kind, mark):
        # logs `mark` on each read: an entry of a table row, which
        # `bytes.translate` does not read, or a row of key sums
        class Spied(kind):
            def __getitem__(self, x):
                log.append(mark)
                return kind.__getitem__(self, x)

        return Spied

    ByteRow, ListRow, Rows = spied(bytes, "i"), spied(list, "i"), spied(_KeyRows, "R")

    class Table(list):
        def __getitem__(self, s):
            row = list.__getitem__(self, s)
            log.append("l" if isinstance(row, list) else "b")
            return row

    def spy_table(field, length, g):
        steps, lasts, _, full = fold_table(field, length, g)
        tables = [Table(ByteRow(row) if type(row) is bytes else ListRow(row) for row in t) for t in (steps, lasts)]
        return *tables, Rows(field, g * length), full

    def spy_walk(self, rows, echelon=False):
        # the walk's own key sums, unlogged, on rows of its own
        offsets, blocks = walk(self, _KeyRows(rows.field, rows.digits), echelon)
        return offsets, (log.append(size) or (start, size) for start, size in blocks)

    with monkeypatch.context() as patch:
        patch.setattr(qrank.delsarte, "_fold_table", spy_table)
        patch.setattr(qrank.delsarte._Codewords, "_walk", spy_walk)
        dist = rank_distribution(C)
    paths, sizes = set(), [x for x in log if isinstance(x, int)]
    events = "".join("|" if isinstance(x, int) else x for x in log)
    for size, block in zip(sizes, events.split("|")[1:]):
        scalar, *keys = block.split("R")
        paths.update(["shared"] if size > 1 and scalar and keys else ["full"] if size > 1 and not keys else [])
        for j, reads in enumerate(keys):
            if size > 1:
                paths.add("lists" if "l" in reads else "words" if "i" in reads else "runs" if j else "one")
    return dist, paths, sizes


def test_every_fold_path_matches_the_oracle(monkeypatch):
    # each path of `_fold_ranks`, taken first with every rank table cold,
    # then warm, and the walk's short blocks and those of F_8, whose depth
    # is no multiple of e, against the span oracle
    rng = random.Random(31)
    F8 = gf_new(2, 3)
    # offsets on keys 0 and 1 only, key 1 from step 4 on: key 2 is shared and
    # key 0 folds per run of 16 words, both for n < m and n > m
    runs = [0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19]
    cases = [
        (_pivot_code(4, 5, F2, runs, rng), {"shared", "one", "runs"}),
        (_pivot_code(5, 4, F2, runs, rng), {"shared", "one", "runs"}),
        # two keys vary word by word: the comprehension stays
        (random_code(3, 4, F3, 7, rng), {"shared", "one", "runs", "words"}),
        (random_code(4, 3, F3, 7, rng), {"shared", "one", "runs", "words"}),
        (random_code(5, 5, F2, 10, rng), {"shared", "lists"}),
        # the last row's last two vectors span F_2^2 in the shared key
        (_pivot_code(9, 2, F2, [0, 1, 2, 3, 4, 5, 6, 7, 8, 17], rng, (1, 0, 0, 1)), {"full"}),
        (random_code(3, 3, F2, 6, rng), {"one", "words"}),
        (random_code(2, 3, F8, 4, rng), {"shared", "one", "runs"}),
    ]
    for C, taken in cases:
        q, p, e, k = C.field.q, C.field.p, C.field.e, C.k
        oracle = oracle_rank_distribution(C.space.basis, C.n, C.m, C.field)
        _clear_rank_tables()
        cold, paths, sizes = _fold_paths(C, monkeypatch)
        warm, again, _ = _fold_paths(C, monkeypatch)
        assert list(cold) == list(warm) == oracle and paths == again and taken <= paths, (C, paths)
        # one block per walk while i e <= depth, then blocks of p^depth words
        depth = min(_block_depth(p, C.n * C.m), (k - 1) * e)
        short = [p ** (i * e) for i in range(min(k, depth // e + 1))]
        assert sizes == short + [p**depth] * (((q**k - 1) // (q - 1) - sum(short)) // p**depth), C
    # Mat(3 x 3, F_2) k = 6 walks short blocks alone, and F_8 ends on blocks of
    # 2^8 words: its depth is no multiple of e = 3
    assert cases[6][0].k - 1 <= _block_depth(2, 9) and _block_depth(2, 6) == 8


def test_fold_tables_fix_the_full_space_and_add_keys_entrywise():
    rng = random.Random(20)
    for field in PROPERTY_FIELDS:
        q = field.q
        for length in (1, 2):
            targets, dims = _transitions(field, length)
            full = dims.index(length)
            assert targets[full] == [full] * q**length and dims.count(length) == 1
            for g in _fold_widths(q, length):
                steps, lasts, rows, full_state = _fold_table(field, length, g)
                keys = q ** (g * length)
                # byte rows padded to 256, the length `bytes.translate` reads
                assert len(steps) == len(lasts) == len(dims) and full_state == full
                assert {len(row) for row in steps + lasts} == {256}
                # the full state maps to itself under every key: a word's
                # fold needs no test for it
                assert list(steps[full][:keys]) == [full] * keys and list(lasts[full][:keys]) == [length] * keys
                for _ in range(20):
                    u = [rng.randrange(q) for _ in range(g * length)]
                    w = [rng.randrange(q) for _ in range(g * length)]
                    total = [field.add(a, b) for a, b in zip(u, w)]
                    assert rows[_key(u, q)][_key(w, q)] == _key(total, q), (field, u, w)
                    # a state's rows step the key and read the target's dimension
                    s, x = rng.randrange(len(dims)), _key(u, q)
                    assert lasts[s][x] == dims[steps[s][x]], (field, s, x)


def _point(word, field):
    """The multiple of a nonzero word whose last nonzero entry is 1."""
    f = field.inv(next(x for x in reversed(word) if x))
    return tuple(field.mul(f, x) for x in word)


def test_projective_walk_visits_each_point_once():
    rng = random.Random(15)
    for field in PROPERTY_FIELDS:
        q = field.q
        for n, m in [(1, 3), (3, 1), (2, 3), (3, 2)]:
            # k = nm where q^nm <= 2^12 words
            top = max(k for k in range(n * m + 1) if q**k <= 2**12)
            for k in sorted({0, 1, top}):
                C = random_code(n, m, field, k, rng)
                view = enumerate_codeword_entries(C)
                points = [_row_major(w, C) for w in view.projective()]
                assert len(view) == q**k
                assert len(points) == (q**k - 1) // (q - 1), C
                assert all(any(w) for w in points), C
                # no two proportional
                assert len({_point(w, field) for w in points}) == len(points), C
                # {c w : c != 0} and the zero word: each codeword exactly once
                assert sorted(_all_words(C)) == _oracle_words(C), C


def test_the_walk_does_not_recurse():
    # full spaces from Subspace.full, so no elimination: k e = 1200 and 1400
    # steps, past the recursion limit, under a budget that admits their words
    F4 = gf_new(2, 2)
    for m, field in [(1200, F2), (700, F4)]:
        C = RankMetricCode(Subspace.full(m, field), 1, m)
        assert C.k * field.e > sys.getrecursionlimit()
        start = time.perf_counter()
        words = list(islice(enumerate_codeword_entries(C, budget=2**3000).projective(), 10))
        assert time.perf_counter() - start < 1, C
        if field is F2:
            # b_i is bit i and the walks start from the last row, so the
            # words count up in the bits read from the top down
            assert words == [int(format(x, f"0{m}b")[::-1], 2) for x in range(1, 11)]
        else:
            # b_i is entry i; the walk of b_i adds each F_2-combination of
            # b_j, alpha b_j (j > i), from b_{m-1} down
            tails = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3),
                     (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 1, 0)]  # fmt: skip
            assert [w[-3:] for w in words] == tails and not any(any(w[:-3]) for w in words)
    # a span over more moves than the recursion limit, as a late walk's starts
    sums = list(accumulate((1 << i for i in range(sys.getrecursionlimit() + 200)), xor))
    assert list(islice(qrank.delsarte._span(0, sums, xor, 2), 10)) == list(range(10))


def _refuse_walk(*args):
    raise AssertionError("a word was walked")


def test_a_ranking_above_the_work_limit_is_refused_before_any_word_is_walked(monkeypatch):
    # random Mat(40 x 40, F_3) k = 15: its 3^15 words fit the budget, but
    # one elimination of 64000 entry operations per projective word would
    # run for hours
    C = random_code(40, 40, F3, 15, random.Random(1))
    monkeypatch.setattr(qrank.delsarte._Codewords, "_walk", _refuse_walk)
    monkeypatch.setattr(qrank.identities, "from_code", _refuse_walk)
    message = (r"ranking the 7174453 projective words of C takes 459164992000 elimination steps, "
               r"above the rank work limit RANK_WORK_LIMIT = 536870912")  # fmt: skip
    for call in (rank_distribution, min_rank_distance, check_all):
        with pytest.raises(BudgetExceeded, match=message):
            call(C)
    # C^perp of Mat(6 x 6, F_3) codes under budgets that admit its words,
    # refused before it is solved: 3^15 words of a k = 21 code, and 3^26 of
    # a k = 10 code that check_all would rank
    monkeypatch.setattr(qrank.identities, "dual_code", _refuse_walk)
    with pytest.raises(BudgetExceeded, match=r"words of C\^perp takes 1549681848 elimination steps"):
        CodeAnalysis(random_code(6, 6, F3, 21, random.Random(2)), budget=3**21).dual_distribution
    with pytest.raises(BudgetExceeded, match=r"words of C\^perp takes \d+ elimination steps"):
        check_all(random_code(6, 6, F3, 10, random.Random(3)), budget=3**26)


def test_the_work_limit_admits_what_the_suite_ci_and_benchmark_rank():
    # (q, n, m, k) of the largest rankings: CI's Mat(6 x 6, F_2) k = 18
    # eliminated, its folded codes and the benchmark's enumeration shapes
    ranked = [(2, 6, 6, 18), (2, 5, 5, 20), (2, 4, 5, 18), (3, 3, 4, 12), (5, 2, 4, 8), (2, 2, 20, 16),
              (3, 4, 4, 10), (4, 3, 3, 9), (8, 3, 3, 5), (2, 4, 5, 16), (3, 3, 4, 9), (4, 3, 3, 7)]  # fmt: skip
    assert all(_rank_work(*shape)[2] <= RANK_WORK_LIMIT for shape in ranked)
    # one elimination per word: Mat(6 x 6, F_3) is admitted up to k = 14,
    # about a minute, and over F_2 a packed XOR counts once
    assert _rank_work(3, 6, 6, 14)[2] <= RANK_WORK_LIMIT < _rank_work(3, 6, 6, 15)[2]
    assert _rank_work(2, 6, 6, 23) == (0, 2**23 - 1, (2**23 - 1) * 36)


class _NoDraws(random.Random):
    def randrange(self, *args):
        raise AssertionError("an entry was drawn")


def test_random_code_refuses_a_basis_above_the_limit_before_drawing():
    # 1024 generators of 1025 entries are 1049600 > BASIS_LIMIT; 1023 fit
    with pytest.raises(BudgetExceeded, match=r"the basis of a random code of dimension 1024 in Mat\(1 x 1025\) "
                       r"holds 1049600 entries, above the basis limit BASIS_LIMIT = 1048576"):  # fmt: skip
        random_code(1, 1025, F2, 1024, _NoDraws())
    # a size too long for str() is named by a bound
    n = 10**3000
    with pytest.raises(BudgetExceeded, match=r"holds more than 2\^19931 entries"):
        random_code(n, n, F2, 1, _NoDraws())
    with pytest.raises(AssertionError, match="an entry was drawn"):
        random_code(1, 1025, F2, 1023, _NoDraws())


def test_basis_limit_admits_its_own_size_and_refuses_one_row_more():
    # C^perp of the zero Mat(1 x 1024, F_2) code: 1024 x 1024 = BASIS_LIMIT entries
    assert 1024 * 1024 == BASIS_LIMIT
    assert dual_code(code_from_generators([], field=F2, n=1, m=1024)).k == 1024
    # in Mat(1 x 1025, F_2), C^perp of 1023 rows fits (1048575 entries) and of 1024 does not
    units = [MatrixFq.unit(F2, 1, 1025, 0, j) for j in range(2)]
    assert dual_code(code_from_generators(units)).k == 1023
    with pytest.raises(BudgetExceeded, match="basis of C\\^perp holds 1049600 entries, above the basis limit"):
        dual_code(code_from_generators(units[:1]))
    with pytest.raises(BudgetExceeded, match="C\\^perp holds 1050625 entries"):
        dual_code(code_from_generators([], field=F2, n=1, m=1025))
