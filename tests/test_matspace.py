import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qrank import MatrixFq, Subspace, column_space, gf_new, rref_decompose, trace_product
from qrank.matspace import kernel, kernel_basis, rank, rref_rows
from qrank.errors import ShapeMismatch

from oracles import oracle_perp_set, oracle_rank_matrix, span_set
from test_delsarte import SHAPES

F2 = gf_new(2)
F3 = gf_new(3)


def test_rref_zero_matrix():
    Z = MatrixFq.zeros(F2, 2, 3)
    R, rk, pivots = rref_decompose(Z)
    assert R == Z and rk == 0 and pivots == []


def test_rref_identity():
    I3 = MatrixFq.identity(F2, 3)
    R, rk, pivots = rref_decompose(I3)
    assert R == I3 and rk == 3 and pivots == [0, 1, 2]


def test_rref_rank_one():
    M = MatrixFq.from_rows(F2, [[1, 1], [1, 1]])
    R, rk, pivots = rref_decompose(M)
    assert R.to_rows() == [[1, 1], [0, 0]]
    assert rk == 1 and pivots == [0]


def test_rref_idempotent():
    for entries in product(range(3), repeat=6):
        M = MatrixFq(F3, 2, 3, entries)
        R, _, _ = rref_decompose(M)
        R2, _, _ = rref_decompose(R)
        assert R == R2


def test_kernel_examples():
    assert kernel(MatrixFq.identity(F2, 2)) == []
    assert len(kernel(MatrixFq.zeros(F2, 2, 2))) == 2
    assert kernel(MatrixFq.from_rows(F2, [[1, 1]])) == [(1, 1)]


def test_kernel_dimension():
    for entries in product(range(2), repeat=6):
        M = MatrixFq(F2, 2, 3, entries)
        _, rk, _ = rref_decompose(M)
        assert len(kernel(M)) == 3 - rk


def test_column_space_examples():
    assert column_space(MatrixFq.zeros(F2, 2, 2)) == Subspace.zero(2, F2)
    assert column_space(MatrixFq.identity(F2, 2)) == Subspace.full(2, F2)
    E11 = MatrixFq.unit(F2, 2, 2, 0, 0)
    assert column_space(E11) == Subspace.span([(1, 0)], 2, F2)


def test_trace_product_examples():
    I2 = MatrixFq.identity(F2, 2)
    assert trace_product(I2, I2) == 0  # Tr(I) = 2 = 0 in F_2
    E11 = MatrixFq.unit(F2, 2, 2, 0, 0)
    assert trace_product(E11, E11) == 1


def test_a_matrix_minus_itself_is_zero():
    M = MatrixFq.from_rows(F3, [[1, 2, 0], [0, 1, 2]])
    assert (-M).to_rows() == [[2, 1, 0], [0, 2, 1]]
    assert -(-M) == M and M - M == MatrixFq.zeros(F3, 2, 3)
    assert M - MatrixFq.zeros(F3, 2, 3) == M


def test_trace_product_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        trace_product(MatrixFq.zeros(F2, 2, 2), MatrixFq.zeros(F2, 2, 3))


def _matrix_trace_route(M, N):
    # independent route: literal Tr(M N^T)
    field = M.field
    acc = 0
    for i in range(M.rows):
        # (M N^T)_{ii} = sum_j M_ij N_ij
        for j in range(M.cols):
            acc = field.add(acc, field.mul(M.entries[i * M.cols + j], N.entries[i * N.cols + j]))
    return acc


def _column_route(M, N):
    field = M.field
    acc = 0
    for j in range(M.cols):
        for a, b in zip(M.col(j), N.col(j)):
            acc = field.add(acc, field.mul(a, b))
    return acc


mat_f3_3x2 = st.tuples(*([st.integers(0, 2)] * 6))


@given(mat_f3_3x2, mat_f3_3x2)
def test_trace_product_routes_agree(e1, e2):
    M = MatrixFq(F3, 3, 2, e1)
    N = MatrixFq(F3, 3, 2, e2)
    t = trace_product(M, N)
    assert t == _matrix_trace_route(M, N) == _column_route(M, N)
    assert t == trace_product(N, M)


@given(mat_f3_3x2, mat_f3_3x2, mat_f3_3x2, st.integers(0, 2), st.integers(0, 2))
def test_trace_product_bilinear(e1, e2, e3, alpha, beta):
    M, Mp, N = (MatrixFq(F3, 3, 2, e) for e in (e1, e2, e3))
    lhs = trace_product(M.scale(alpha) + Mp.scale(beta), N)
    rhs = F3.add(F3.mul(alpha, trace_product(M, N)), F3.mul(beta, trace_product(Mp, N)))
    assert lhs == rhs


@pytest.mark.parametrize("field,shape", [(F2, (2, 2)), (F2, (2, 3)), (F3, (2, 2)), (F3, (2, 3))])
def test_rank_transpose_exhaustive(field, shape):
    n, m = shape
    for entries in product(list(field.elements()), repeat=n * m):
        M = MatrixFq(field, n, m, entries)
        assert rank(M) == rank(M.transpose())


def test_rank_matches_span_oracle():
    for entries in product(range(2), repeat=4):
        M = MatrixFq(F2, 2, 2, entries)
        assert rank(M) == oracle_rank_matrix(M.row_tuples(), F2)


def test_column_space_of_sum_contained():
    mats = [MatrixFq(F2, 2, 2, e) for e in product(range(2), repeat=4)]
    for M1 in mats:
        for M2 in mats:
            lhs = column_space(M1 + M2)
            rhs = column_space(M1).sum(column_space(M2))
            assert rhs.contains(lhs)


RREF_FIELDS = sorted({f for _, _, f in SHAPES}, key=lambda f: f.q)


@pytest.mark.parametrize("field", RREF_FIELDS, ids=[f"F{f.q}" for f in RREF_FIELDS])
def test_rref_rows_against_span_oracles(field):
    # seeded matrices of low rank too (repeated and combined rows), with
    # the reduced form checked against span sets, not against the library
    rng = random.Random(f"rref/{field.key}")
    for _ in range(40):
        rows_n, width = rng.randint(1, 3), rng.randint(1, 4)
        rows = [tuple(rng.randrange(field.q) for _ in range(width)) for _ in range(rows_n)]
        if rng.random() < 0.5:
            c = rng.randrange(field.q)
            rows.append(tuple(field.mul(c, v) for v in rows[0]))
        red, pivots = rref_rows(rows, width, field)
        assert len(red) == len(pivots) == oracle_rank_matrix(rows, field)
        zero = [(0,) * width]
        assert span_set(red + zero, field) == span_set(rows, field)
        assert pivots == sorted(set(pivots))
        for row, p in zip(red, pivots):
            assert row[p] == 1 and not any(row[:p])
            assert all(other[p] == 0 for other in red if other is not row)
        kern = kernel_basis(rows, width, field)
        assert span_set(kern + zero, field) == oracle_perp_set(rows, width, field)
