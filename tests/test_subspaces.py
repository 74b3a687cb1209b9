import random
import re
import sys
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrank import (
    Subspace,
    enumerate_subspaces,
    galois_number,
    gaussian_binomial,
    gf_new,
    lattice,
    orthogonal_complement,
)
from qrank.delsarte import RankMetricCode, dual_code, random_code, restrict
from qrank.errors import AmbientMismatch, BudgetExceeded, InvalidValue, LengthMismatch
from qrank.subspaces import (
    LATTICE_LIMIT,
    TABLE_LIMIT,
    check_lattice_work,
    check_subspace_count,
    subspace_count_exponent,
)

from qrank.matspace import kernel_basis

from oracles import oracle_rref_bases
from test_delsarte import PROPERTY_FIELDS, SHAPES

F2 = gf_new(2)
F3 = gf_new(3)


def test_span_examples():
    assert Subspace.span([], 2, F2).dim == 0
    assert Subspace.span([(1, 0), (1, 0)], 2, F2).dim == 1
    assert Subspace.span([(1, 1), (0, 1)], 2, F2) == Subspace.full(2, F2)


def test_every_constructor_path_stores_a_tuple_of_row_tuples():
    # the trusted constructor keeps the basis it is given, so every path
    # that builds a subspace or a code hands it a tuple of row tuples
    for field in PROPERTY_FIELDS:
        X = Subspace.span([[1, 0, 1], [0, 1, 1]], 3, field)
        Y = Subspace.from_key("0,0,1", 3, field)
        spaces = [X, Y, X.perp(), X.sum(Y), X.intersect(Y), Subspace.zero(3, field), Subspace.full(3, field)]
        spaces += [*enumerate_subspaces(3, field, 1), *lattice(2, field).subspaces]
        C = random_code(2, 2, field, 2, random.Random(1))
        J = Subspace.span([[1, 1]], 2, field)
        codes = [C, dual_code(C), restrict(C, J), RankMetricCode.from_json(C.to_json())]
        for S in spaces + [D.space for D in codes]:
            assert type(S.basis) is tuple and all(type(row) is tuple for row in S.basis), (field, S)


def test_span_hands_its_vectors_to_one_elimination_uncopied():
    # rref_rows copies each vector into its work rows; span makes no copy
    # of its own, so its peak stays near one copy of the vectors, not two
    vectors = [[1] + [0] * 63 for _ in range(4096)]
    size = sum(sys.getsizeof(v) for v in vectors)
    tracemalloc.start()
    try:
        S = Subspace.span(vectors, 64, F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.basis == (tuple(vectors[0]),)
    assert peak < 1.5 * size, (peak, size)
    assert Subspace.span((v for v in vectors[:2]), 64, F2) == S  # a generator spans too


def test_span_length_mismatch():
    with pytest.raises(LengthMismatch):
        Subspace.span([(1, 0, 0)], 2, F2)


def test_lattice_op_examples():
    X = Subspace.span([(1, 0)], 2, F2)
    zero = Subspace.zero(2, F2)
    assert X.sum(zero) == X
    e1 = Subspace.span([(1, 0)], 2, F2)
    e2 = Subspace.span([(0, 1)], 2, F2)
    assert e1.intersect(e2) == zero
    diag = Subspace.span([(1, 1)], 2, F2)
    assert e1.sum(diag) == Subspace.full(2, F2)
    assert e1.intersect(diag) == zero
    assert e1.contains(zero) is True
    assert zero.contains(e1) is False


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.zero(2, F2).sum(Subspace.zero(3, F2))
    with pytest.raises(AmbientMismatch):
        Subspace.zero(2, F2).sum(Subspace.zero(2, F3))


def test_orthogonal_complement_examples():
    assert orthogonal_complement(Subspace.zero(2, F2)) == Subspace.full(2, F2)
    e1 = Subspace.span([(1, 0)], 2, F2)
    assert e1.perp() == Subspace.span([(0, 1)], 2, F2)
    diag = Subspace.span([(1, 1)], 2, F2)
    assert diag.perp() == diag  # self-orthogonal over F_2


def test_enumeration_counts_small():
    assert len(list(enumerate_subspaces(1, F2))) == 2
    assert len(list(enumerate_subspaces(2, F2))) == 5
    assert len(list(enumerate_subspaces(4, F2))) == 67
    assert list(enumerate_subspaces(3, F2, 5)) == []  # no 5-dimensional subspace of F_2^3


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_gaussian_binomials(field, n):
    q = field.q
    for d in range(n + 1):
        count = sum(1 for _ in enumerate_subspaces(n, field, dim_filter=d))
        assert count == gaussian_binomial(n, d, q)
    assert len(list(enumerate_subspaces(n, field))) == galois_number(n, q)


def test_enumeration_order_and_uniqueness():
    subs = list(enumerate_subspaces(3, F2))
    keys = [(S.dim, S.basis) for S in subs]
    assert keys == sorted(keys)
    assert len(set(S.basis for S in subs)) == len(subs)


def test_canonicity():
    for S in enumerate_subspaces(3, F3):
        assert Subspace.span(S.basis, 3, F3) == S


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_modular_law_and_duality_exhaustive(field, n):
    subs = list(enumerate_subspaces(n, field))
    for A in subs:
        assert A.perp().perp() == A
        assert A.perp().dim == n - A.dim
        for B in subs:
            s, i = A.sum(B), A.intersect(B)
            assert A.dim + B.dim == s.dim + i.dim
            assert i.perp() == A.perp().sum(B.perp())
            if B.contains(A):
                assert A.perp().contains(B.perp())


@pytest.mark.parametrize(
    "p,e,n",
    [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 2), (3, 2, 2)],
)
def test_lattice_tables_match_subspace_operations(p, e, n):
    lat = lattice(n, gf_new(p, e))
    subs, join, meet, below = lat.subspaces, lat.join, lat.meet, lat.below
    for i, A in enumerate(subs):
        assert below[i] == tuple(j for j, B in enumerate(subs) if A.contains(B))
        for j, B in enumerate(subs):
            assert subs[join[i][j]] == A.sum(B)
            assert subs[meet[i][j]] == A.intersect(B)


COVER_LATTICES = sorted({(n, f) for n, _, f in SHAPES} | {(3, gf_new(37))}, key=lambda s: (s[1].q, s[0]))


@pytest.mark.parametrize("n,field", COVER_LATTICES, ids=[f"F{f.q}^{n}" for n, f in COVER_LATTICES])
def test_covers_are_the_subspaces_one_dimension_down(n, field):
    lat = lattice(n, field)
    q = field.q
    for T, covers in zip(lat.subspaces, lat.covers):
        assert len(set(covers)) == len(covers) == (q**T.dim - 1) // (q - 1)
        for i in covers:
            A = lat.subspaces[i]
            assert A.dim == T.dim - 1 and T.contains(A)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROPERTY_FIELDS), st.integers(0, 8), st.data())
def test_perp_from_its_rref_rows_is_the_kernel_of_its_basis(field, n, data):
    # perp reads the pivots off the RREF rows and skips the first
    # elimination of kernel_basis; both give the one RREF basis of S^perp
    dim = data.draw(st.integers(0, n), label="dim")
    rng = random.Random(data.draw(st.integers(0, 2**30), label="seed"))
    spaces = [Subspace.span([[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)], n, field),
              Subspace.zero(n, field), Subspace.full(n, field)]  # fmt: skip
    for S in spaces:
        expected = Subspace.span(kernel_basis(S.basis, n, field), n, field)
        assert S.perp() == expected and S.perp().basis == expected.basis
        assert S.perp().dim == n - S.dim and S.perp().perp() == S


PLAN_LATTICES = [(4, F2), (3, F3), (3, gf_new(2, 2)), (0, F2), (1, F3)]


@pytest.mark.parametrize("n,field", PLAN_LATTICES, ids=[f"F{f.q}^{n}" for n, f in PLAN_LATTICES])
def test_plan_splits_each_subspace_into_a_point_and_its_parent(n, field):
    lat = lattice(n, field)
    parents, points = lat.plan
    assert len(parents) == len(points) == len(lat)
    for t in range(1, len(lat)):
        parent, point = parents[t], points[t]
        assert parent < t and lat.dims[parent] == lat.dims[t] - 1
        assert lat.dims[point] == 1
        rows = lat.subspaces[point].basis + lat.subspaces[parent].basis
        assert Subspace.span(rows, n, field) == lat.subspaces[t]
        if lat.dims[t] == 1:
            assert parent == 0


PERP_LATTICES = COVER_LATTICES + [(6, F2), (4, F3)]


@pytest.mark.parametrize("n,field", PERP_LATTICES, ids=[f"F{f.q}^{n}" for n, f in PERP_LATTICES])
def test_lattice_perp_matches_subspace_perp(n, field):
    lat = lattice(n, field)
    assert lat.perp == [lat.index[S.perp().basis] for S in lat.subspaces]


@pytest.mark.parametrize("n,field", [(4, F2), (3, F3), (2, gf_new(3, 2))])
def test_lattice_build_takes_one_kernel_per_point(n, field, monkeypatch):
    import qrank.subspaces

    calls = []
    original = qrank.subspaces.rref_kernel

    def counted(red, pivots, width, field):
        calls.append(tuple(red))
        return original(red, pivots, width, field)

    monkeypatch.setattr(qrank.subspaces, "rref_kernel", counted)
    lat = qrank.subspaces.SubspaceLattice(n, field)
    points = [S.basis for S in lat.subspaces if S.dim == 1]
    assert sorted(calls) == sorted(points) and len(points) == gaussian_binomial(n, 1, field.q)


def test_lattice_limit():
    # the limit counts the mask ANDs of the cover build, |L| * [n, 1]_q
    assert check_lattice_work(6, 2) == 2825 * 63
    assert check_lattice_work(5, 3) == 2664 * 121
    assert check_lattice_work(4, 8) == 5917 * 585 <= LATTICE_LIMIT
    assert check_lattice_work(7, 2) == 29212 * 127 == 3709924 <= LATTICE_LIMIT
    assert check_lattice_work(5, 4) == 12278 * 341 == 4186798 <= LATTICE_LIMIT
    assert check_lattice_work(3, 37) == 2816 * 1407 == 3962112 <= LATTICE_LIMIT
    assert len(lattice(5, gf_new(2, 2))) == 12278
    start = time.perf_counter()
    for n, q, work in [(8, 2, 417199 * 255), (6, 3, 56632 * 364), (3, 41, 3448 * 1723)]:
        message = f"F_{q}^{n} take {work} mask ANDs, above the lattice limit of {LATTICE_LIMIT}"
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            lattice(n, gf_new(q))
    with pytest.raises(BudgetExceeded, match="more than 2"):
        lattice(10**6, F2)
    assert time.perf_counter() - start < 1


def test_negative_ambient_dimension_is_invalid():
    for call in (
        lambda: subspace_count_exponent(-1),
        lambda: check_subspace_count(-1, 2, 2**24),
        lambda: lattice(-1, F2),
    ):
        with pytest.raises(InvalidValue, match="the ambient dimension n must be >= 0, got -1"):
            call()
    assert len(lattice(0, F2)) == 1


def test_lattice_tables_refused_above_the_table_limit():
    lat = lattice(7, F2)
    assert len(lat) == 29212 > TABLE_LIMIT
    start = time.perf_counter()
    for table in ("below", "join", "meet"):
        with pytest.raises(BudgetExceeded, match=f"29212\\^2 entries each, above the table limit of {TABLE_LIMIT}"):
            getattr(lat, table)
    assert time.perf_counter() - start < 1


REFERENCE_SHAPES = [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3), (2, 1, 7), (7, 1, 3), (2, 3, 3), (3, 2, 3)]
REFERENCE_SHAPES += [(2, 1, 0), (2, 1, 1), (3, 2, 0), (3, 2, 1)]


@pytest.mark.parametrize("p,e,n", REFERENCE_SHAPES)
def test_enumerate_subspaces_matches_sorted_reference(p, e, n):
    # the recursion on the first row gives the order of sorting each
    # dimension whole, over every dimension filter, in range or not
    field = gf_new(p, e)
    reference = {d: oracle_rref_bases(n, d, field) for d in range(-1, n + 2)}
    assert [S.basis for S in enumerate_subspaces(n, field)] == [b for d in range(n + 1) for b in reference[d]]
    for d in range(-1, n + 2):
        assert [S.basis for S in enumerate_subspaces(n, field, d)] == reference[d], d


def test_first_subspace_of_a_dimension_streams_in_little_memory():
    # F_2^14 holds [14, 7]_2 ~ 2^49 subspaces of dimension 7; the first
    # is built one row at a time
    tracemalloc.start()
    try:
        S = next(enumerate_subspaces(14, F2, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.basis == tuple(tuple(int(j == p) for j in range(14)) for p in range(7, 14))
    assert peak < 2**20, peak


def test_the_whole_space_is_listed_at_any_dimension():
    # F_q^n comes whole, not from a recursion n rows deep
    assert list(enumerate_subspaces(3000, F2, 3000)) == [Subspace.full(3000, F2)]


@pytest.mark.parametrize("n,field", [(10, F2), (6, F3)])
def test_enumeration_tries_few_first_rows_that_lead_nowhere(n, field, monkeypatch):
    # the rows of a hyperplane's basis have at most one later column to
    # spare; a row with none is 0 at every later column, which the rest
    # takes as pivots, so few first rows are tried that yield no basis
    import qrank.subspaces

    tried = [0]

    def counted(*pools):
        for tail in product(*pools):
            tried[0] += 1
            yield tail

    monkeypatch.setattr(qrank.subspaces, "product", counted)
    count = sum(1 for _ in enumerate_subspaces(n, field, n - 1))
    assert count == gaussian_binomial(n, n - 1, field.q) and tried[0] < 4 * count, tried


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_points_over_f2_spell_their_lattice_index_in_binary(n):
    # qpolymatroid.from_code reads the images of the point at index t off
    # t's binary digits, entry 0 the most significant
    subspaces = lattice(n, F2).subspaces
    for t in range(1, 2**n):
        assert subspaces[t].basis == (tuple(t >> (n - 1 - j) & 1 for j in range(n)),), t
    assert [S.dim for S in subspaces[: 2**n]] == [0] + [1] * (2**n - 1)


def test_check_subspace_count():
    assert check_subspace_count(4, 2, 67) == 67
    assert check_subspace_count(4, 2, 35, dim=2) == 35
    assert check_subspace_count(4, 2, 1, dim=9) == 0
    with pytest.raises(BudgetExceeded, match="67 subspaces, above the budget of 66"):
        check_subspace_count(4, 2, 66)
    with pytest.raises(BudgetExceeded, match="35 subspaces of dimension 2, above the budget of 34"):
        check_subspace_count(4, 2, 34, dim=2)
    start = time.perf_counter()
    # the counts are refused from their lower bounds, never formed
    with pytest.raises(BudgetExceeded, match=r"more than 2\^25000000 subspaces, above the budget"):
        check_subspace_count(10**4, 2, 2**24)
    with pytest.raises(BudgetExceeded, match=r"more than 2\^25000000 subspaces of dimension 5000"):
        check_subspace_count(10**4, 2, 2**24, dim=5000)
    assert time.perf_counter() - start < 1


def test_canonical_key_roundtrip():
    for S in enumerate_subspaces(3, F2):
        assert Subspace.from_key(S.canonical_key(), 3, F2) == S
    assert Subspace.full(2, F2).canonical_key() == "1,0;0,1"
    assert Subspace.zero(2, F2).canonical_key() == ""
