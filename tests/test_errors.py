import ast
from pathlib import Path

import pytest

import qrank
from qrank import HomogeneousMPoly, HomogeneousPoly, MatrixFq, QPolymatroid, gf_new, lattice
from qrank.errors import BudgetExceeded, InvalidValue, QrankError, ShapeMismatch, check_limit, more_than
from qrank.qseries import moebius_coefficient, p_j_coeff

TEMPLATE = "{what} is {size}, above {limit}"


@pytest.mark.parametrize("limit", [1, 66, 2**24, 10**4300 - 1])
def test_a_size_at_the_limit_is_admitted_and_one_more_refused(limit):
    e = limit.bit_length() - 1
    assert check_limit(limit, limit, TEMPLATE, e, {"what": "x"}) == limit
    assert check_limit(lambda: limit, limit, TEMPLATE, e, {"what": "x"}) == limit
    for size in (limit + 1, lambda: limit + 1):
        with pytest.raises(BudgetExceeded) as refusal:
            check_limit(size, limit, TEMPLATE, e, {"what": "x"})
        assert str(refusal.value).startswith("x is ")


def test_a_refusal_names_the_size_the_limit_and_the_fields():
    with pytest.raises(BudgetExceeded, match=r"^the basis is 67, above 66$"):
        check_limit(67, 66, TEMPLATE, 6, {"what": "the basis"})


def test_a_callable_is_never_called_once_its_bound_reaches_the_limit_squared():
    def forbidden():
        raise AssertionError("the size was formed")

    for limit in (1, 66, 2**24):
        e = 2 * limit.bit_length()
        with pytest.raises(BudgetExceeded, match=rf"^x is more than 2\^{e}, above {limit}$"):
            check_limit(forbidden, limit, TEMPLATE, e, {"what": "x"})
        # one below, the size is formed and named exactly
        assert check_limit(lambda: limit, limit, TEMPLATE, e - 1, {"what": "x"}) == limit
        with pytest.raises(BudgetExceeded, match=rf"^x is {limit + 1}, above"):
            check_limit(lambda: limit + 1, limit, TEMPLATE, e - 1, {"what": "x"})


def test_sizes_and_fields_too_long_for_str_are_named_by_a_bound():
    huge = 2**20000  # 6021 digits: str() refuses it
    with pytest.raises(BudgetExceeded, match=r"^x is more than 2\^19999, above 16$"):
        check_limit(huge, 16, TEMPLATE, 19999, {"what": "x"})
    with pytest.raises(BudgetExceeded, match=r"^\(more than 2\^20000\) is 17, above 16$"):
        check_limit(17, 16, TEMPLATE, 4, {"what": huge})
    with pytest.raises(BudgetExceeded, match=r"^x is more than 2\^20000, above \(more than 2\^20000\)$"):
        check_limit(huge + 1, huge, TEMPLATE, 20000, {"what": "x"})
    # a bound whose exponent is itself too long for str()
    with pytest.raises(BudgetExceeded, match=r"^x is more than 2\^\(2\^20000\), above 16$"):
        check_limit(lambda: 0, 16, TEMPLATE, huge, {"what": "x"})


def test_budget_exceeded_is_raised_only_by_check_limit():
    raisers = []
    for path in sorted(Path(qrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "check_limit"]
        inside = {id(node) for f in helper for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and "BudgetExceeded" in ast.unparse(node.exc):
                raisers.append((path.name, id(node) in inside))
    assert raisers == [("errors.py", True)]


F2 = gf_new(2)

# each refusal of a bad argument: (call, error, message); the InvalidValue
# ones were bare ValueErrors once, so `except ValueError` still catches them
REFUSALS = {
    "matrix-entry-count": (lambda: MatrixFq(F2, 2, 2, [0, 1, 1]), ShapeMismatch, "expected 4 entries, got 3"),
    "matrix-entry-range": (lambda: MatrixFq(F2, 1, 2, [0, 2]), InvalidValue, "entry out of field range"),
    "matrix-ragged-rows": (lambda: MatrixFq.from_rows(F2, [[0, 1], [1]]), ShapeMismatch, "ragged rows"),
    "rank-table-length": (lambda: QPolymatroid(lattice(2, F2), 2, [0, 1]), InvalidValue, "cover the whole lattice"),
    "moebius-negative-k": (lambda: moebius_coefficient(-1, 2), InvalidValue, "k must be >= 0"),
    "poly-coefficient-count": (lambda: HomogeneousPoly(2, (1, 0)), InvalidValue, r"length degree\+1"),
    "mpoly-oracle-length": (lambda: HomogeneousMPoly(2, lambda m: (1, m)).at(3), InvalidValue, "wrong coefficient"),
    "p-j-i-above-n": (lambda: p_j_coeff(3, 0, 2, 2, 2), InvalidValue, r"require 0 <= i, j <= n"),
    "p-j-j-negative": (lambda: p_j_coeff(0, -1, 2, 2, 2), InvalidValue, r"require 0 <= i, j <= n"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal_is_a_qrank_error(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message) as refusal:
        call()
    assert isinstance(refusal.value, QrankError)
    assert isinstance(refusal.value, ValueError) == (error is InvalidValue)


def test_the_library_raises_only_qrank_errors():
    # AttributeError aside, which a frozen value raises on assignment as
    # Python's own frozen types do
    raised = set()
    for path in sorted(Path(qrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    assert "AttributeError" in raised
    others = raised - {"AttributeError"}
    assert [name for name in sorted(others) if not issubclass(vars(qrank.errors).get(name, object), QrankError)] == []
