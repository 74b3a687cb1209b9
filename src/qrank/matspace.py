"""Matrices over F_q: RREF, rank, kernel, column space, trace product.

Matrices are immutable values: every operation returns a new value.
`rref_rows` and `kernel_basis` work on plain row tuples and eliminate
through the field's flat tables (`FieldContext.tables`).
"""

from __future__ import annotations

from .errors import InvalidValue, ShapeMismatch
from .gf import FieldContext, Value


def rref_rows(rows, width: int, field: FieldContext):
    """Reduced row echelon form of a list of row tuples.

    Returns (rows, pivots): rows with zero rows dropped, pivots strictly
    increasing.  Leftmost pivot, scale to unit, eliminate above and below,
    all through the field's flat tables.
    """
    q = field.q
    add, mul, neg, inv = field.tables
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        if r == len(work):  # every row has a pivot, so no row is left to scan
            break
        for pivot_row in range(r, len(work)):
            if work[pivot_row][col]:
                break
        else:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        c = work[r][col]
        if c != 1:
            f = inv[c] * q
            work[r] = [mul[f + v] for v in work[r]]
        prow = work[r]
        for i, row in enumerate(work):
            c = row[col]
            if c and i != r:
                f = neg[c] * q
                work[i] = [add[a * q + mul[f + b]] for a, b in zip(row, prow)]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in work[:r]], pivots


def kernel_basis(rows, width: int, field: FieldContext):
    """Canonical (RREF) basis of {x : Mx = 0} for M given as row tuples."""
    return rref_kernel(*rref_rows(rows, width, field), width, field)


def rref_kernel(red, pivots, width: int, field: FieldContext):
    """`kernel_basis` of rows already in RREF with these pivots: for each
    non-pivot column f, e_f - sum_i red[i][f] e_{pivots[i]}, in RREF."""
    neg, basis = field.tables[2], []
    for f in sorted(set(range(width)).difference(pivots)):
        vec = [0] * width
        vec[f] = 1
        for row, p in zip(red, pivots):
            vec[p] = neg[row[f]]
        basis.append(vec)
    return rref_rows(basis, width, field)[0]


class MatrixFq(Value):
    """Immutable n x m matrix over F_q, entries row-major packed ints."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldContext, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        if any(not 0 <= v < field.q for v in entries):
            raise InvalidValue("entry out of field range")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ShapeMismatch("ragged rows")
            flat.extend(r)
        return cls(field, rows, cols, flat)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def unit(cls, field, rows, cols, i, j):
        return cls(
            field, rows, cols, tuple(1 if (a, b) == (i, j) else 0 for a in range(rows) for b in range(cols))
        )

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_tuples(self):
        return tuple(self.row(i) for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return MatrixFq(
            self.field,
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other):
        self._check_shape(other)
        add = self.field.add
        return MatrixFq(
            self.field, self.rows, self.cols, tuple(add(a, b) for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self):
        neg = self.field.neg
        return MatrixFq(self.field, self.rows, self.cols, tuple(neg(a) for a in self.entries))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        mul = self.field.mul
        return MatrixFq(self.field, self.rows, self.cols, tuple(mul(c, a) for a in self.entries))

    def _check_shape(self, other):
        if (
            not isinstance(other, MatrixFq)
            or other.field != self.field
            or other.rows != self.rows
            or other.cols != self.cols
        ):
            raise ShapeMismatch("matrices must share shape and field")

    def _key(self):
        return (self.field.key, self.rows, self.cols, self.entries)

    def __repr__(self):
        return f"MatrixFq({self.to_rows()} over F_{self.field.q})"


def rref_decompose(M: MatrixFq):
    """Unique RREF of M: returns (R, rank, pivots)."""
    red, pivots = rref_rows(M.row_tuples(), M.cols, M.field)
    flat = []
    for r in red:
        flat.extend(r)
    flat.extend([0] * (M.cols * (M.rows - len(red))))
    R = MatrixFq(M.field, M.rows, M.cols, flat)
    return R, len(pivots), pivots


def rank(M: MatrixFq) -> int:
    _, rk, _ = rref_decompose(M)
    return rk


def kernel(M: MatrixFq):
    """Canonical basis vectors of the right kernel {x : Mx = 0}."""
    return kernel_basis(M.row_tuples(), M.cols, M.field)


def column_space(M: MatrixFq):
    """The subspace of F_q^n spanned by the columns of M."""
    from .subspaces import Subspace

    return Subspace.span([M.col(j) for j in range(M.cols)], M.rows, M.field)


def trace_product(M: MatrixFq, N: MatrixFq) -> int:
    """Tr(M N^T) = sum of entrywise products; symmetric and bilinear."""
    M._check_shape(N)
    field = M.field
    acc = 0
    for a, b in zip(M.entries, N.entries):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc
