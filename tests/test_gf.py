import copy
import pickle

import pytest

import qrank
from qrank import gf_new
from qrank.errors import (
    DivisionByZero,
    InvalidValue,
    MalformedCode,
    NonPrimeCharacteristic,
    ReducibleModulus,
)
from qrank.gf import FIELD_LIMIT, Value, field_of_order


def test_characteristic_two():
    F = gf_new(2, 1)
    assert F.add(1, 1) == 0


def test_f3_inverse():
    F = gf_new(3, 1)
    assert F.inv(2) == 2


def _poly_mul_mod(a, b, modulus, p):
    # independent oracle: schoolbook product reduced mod the modulus
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for i in range(deg):
                prod[-deg + i] = (prod[-deg + i] - lead * modulus[i]) % p
    return prod


def test_f4_x_times_x():
    # oracle first: x * x mod x^2+x+1 over F_2
    assert _poly_mul_mod([0, 1], [0, 1], [1, 1, 1], 2) == [1, 1]
    F = gf_new(2, 2, [1, 1, 1])
    assert F.mul(2, 2) == 3


def test_f4_multiplicative_order():
    F = gf_new(2, 2)
    assert F.pow(2, 3) == 1


def test_default_modulus_deterministic():
    assert gf_new(2, 2).modulus == (1, 1, 1)
    assert gf_new(2, 3).modulus == (1, 1, 0, 1)
    assert gf_new(3, 2).modulus == (1, 0, 1)  # x^2 + 1 is irreducible over F_3


def test_errors():
    with pytest.raises(NonPrimeCharacteristic):
        gf_new(4)
    with pytest.raises(ReducibleModulus):
        gf_new(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(DivisionByZero):
        gf_new(5).inv(0)
    with pytest.raises(InvalidValue):
        gf_new(2, 0)


def test_a_modulus_of_the_wrong_degree_is_refused():
    with pytest.raises(ReducibleModulus, match="modulus must be monic of degree 2"):
        gf_new(2, 2, [1, 1])
    # at e = 1 too: a constant, a cubic and a non-monic line name no field
    for p, modulus in [(2, [5]), (2, [1, 2, 3, 4]), (3, [1, 2]), (2, [])]:
        with pytest.raises(ReducibleModulus, match=r"^modulus must be monic of degree 1 \(constant term first\)$"):
            gf_new(p, 1, modulus)


def test_every_monic_line_gives_the_prime_field():
    # x + c for every c, and its coefficients reduced mod p: F_p, stored without a modulus
    for p in (2, 3, 5):
        for modulus in ([c, 1] for c in range(-p, 2 * p)):
            F = gf_new(p, 1, modulus)
            assert F == gf_new(p) and F.modulus is None and F.to_json() == {"q": p}
    assert gf_new(2, 1, [1, 3]) == gf_new(2)


def test_a_field_is_named_by_its_order():
    # (q, p, e) by trial division, independent of gf's factoring
    primes = [p for p in range(2, FIELD_LIMIT + 1) if all(p % d for d in range(2, p))]
    powers = sorted((p**e, p, e) for p in primes for e in range(1, 9) if p**e <= FIELD_LIMIT)
    assert len(powers) == 70 and powers[-1] == (256, 2, 8)
    for q, p, e in powers:
        F = field_of_order(q)
        assert F == gf_new(p, e) and (F.p, F.e, F.q) == (p, e, q)
    orders = {q for q, _, _ in powers}
    for q in range(2, FIELD_LIMIT + 1):  # 6 and 255 among them
        if q not in orders:
            with pytest.raises(NonPrimeCharacteristic, match=f"^{q} is not a prime power$"):
                field_of_order(q)
    for q in (-1, 0, 1, 257, 10**50):
        with pytest.raises(InvalidValue, match=rf"q = {q} is outside \[2, {FIELD_LIMIT}\]$"):
            field_of_order(q)


def test_a_negative_power_is_a_power_of_the_inverse():
    F = gf_new(3)
    assert F.pow(2, -1) == 2
    with pytest.raises(DivisionByZero):
        F.pow(0, -1)


def test_field_limit():
    assert gf_new(2, 8).q == 256 == FIELD_LIMIT
    assert gf_new(251).q == 251
    for p, e in [(257, 1), (2, 9), (2305843009213693951, 1), (2, 10**12)]:
        with pytest.raises(InvalidValue, match=f"above the field limit of {FIELD_LIMIT}"):
            gf_new(p, e)


def _digits(v, p, e):
    return [v // p**i % p for i in range(e)]


def _undigits(digits, p):
    return sum(c * p**i for i, c in enumerate(digits))


# every admitted q = p^e with e >= 2, each with its default modulus, and
# x^4+x^3+x^2+x+1 over F_2: irreducible, but x has order 5, not 15
EXTENSIONS = [(p, e, None) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 9) if p**e <= FIELD_LIMIT]
EXTENSIONS.append((2, 4, [1, 1, 1, 1, 1]))


@pytest.mark.parametrize("p,e,modulus", EXTENSIONS, ids=[f"{p}^{e}{'-' if m else ''}" for p, e, m in EXTENSIONS])
def test_extension_tables_match_polynomial_reference(p, e, modulus):
    F = gf_new(p, e, modulus)
    mod = list(F.modulus)
    elements = [_digits(v, p, e) for v in range(F.q)]
    for a, da in enumerate(elements):
        assert [F.add(a, b) for b in F.elements()] == [
            _undigits([(x + y) % p for x, y in zip(da, db)], p) for db in elements
        ]
        assert [F.mul(a, b) for b in F.elements()] == [
            _undigits(_poly_mul_mod(da, db, mod, p), p) for db in elements
        ]
        assert F.neg(a) == _undigits([-x % p for x in da], p)
        if a:
            assert _undigits(_poly_mul_mod(da, elements[F.inv(a)], mod, p), p) == 1


def test_prime_field_tables_are_integer_arithmetic_mod_p():
    # F_p comes from the log/antilog builder as the case e = 1; integer
    # arithmetic mod p is its reference
    primes = [p for p in range(2, FIELD_LIMIT + 1) if all(p % d for d in range(2, p))]
    assert len(primes) == 54
    for p in primes:
        F = gf_new(p)
        assert F.modulus is None and F.key == (p, 1, None)
        add, mul, neg, inv = F.tables
        assert add == tuple((a + b) % p for a in range(p) for b in range(p))
        assert mul == tuple(a * b % p for a in range(p) for b in range(p))
        assert neg == tuple(-a % p for a in range(p))
        assert inv == (0,) + tuple(pow(a, p - 2, p) for a in range(1, p))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_frobenius_exhaustive(p, e):
    F = gf_new(p, e)
    assert F.q <= 16
    for a in F.elements():
        assert F.pow(a, F.q) == a


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    F = gf_new(p, e)
    assert F.q <= 9
    els = list(F.elements())
    for a in els:
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_element_operators():
    F = gf_new(3)
    assert F.add(2, 2) == 1
    assert F.mul(2, 2) == 1
    assert F.sub(2, 2) == 0
    assert F.mul(2, F.inv(2)) == 1
    assert F.pow(2, 4) == 1


def test_json_roundtrip():
    from qrank import FieldContext

    for ctx in [gf_new(2), gf_new(3), gf_new(2, 2), gf_new(3, 2)]:
        assert FieldContext.from_json(ctx.to_json()) == ctx
    assert FieldContext.from_json({"q": 5}) == gf_new(5)
    # any order: a file names a field as the CLI's --q does
    assert FieldContext.from_json({"q": 4}) == gf_new(2, 2)
    assert FieldContext.from_json({"q": 243}) == gf_new(3, 5)
    assert FieldContext.from_json({"p": 3, "modulus": [2, 1]}) == gf_new(3)
    for obj, error in [({"q": 6}, NonPrimeCharacteristic), ({"q": 257}, InvalidValue),
                       ({"p": 2, "modulus": [5]}, ReducibleModulus)]:  # fmt: skip
        with pytest.raises(error):
            FieldContext.from_json(obj)
    assert FieldContext.from_json({"p": 2, "e": 2, "modulus": [1, 1, 1]}) == gf_new(2, 2)
    assert FieldContext.from_json({"p": 3}) == gf_new(3)
    assert FieldContext.from_json({"p": 2, "e": 2}) == gf_new(2, 2)


@pytest.mark.parametrize(
    "obj",
    [
        None,
        [2],
        {},
        {"q": [2]},
        {"q": 2.5},
        {"q": True},
        {"q": 1},
        {"q": "2"},
        {"q": 2, "p": 2},
        {"p": 2.0},
        {"p": 2, "e": 0},
        {"p": 2, "e": True},
        {"p": 2, "e": 2, "modulus": "x^2+x+1"},
        {"p": 2, "e": 2, "modulus": [1, 1.0, 1]},
        {"p": 2, "extra": 1},
    ],
)
def test_from_json_rejects_malformed_fields(obj):
    from qrank import FieldContext

    with pytest.raises(MalformedCode):
        FieldContext.from_json(obj)


def _e11():
    return qrank.MatrixFq.unit(gf_new(2), 2, 2, 0, 0)


# one fresh value of each value type per call; the last two are unhashable
VALUES = {
    "FieldContext": lambda: gf_new(2, 2),
    "Subspace": lambda: qrank.Subspace.span([(1, 2)], 2, gf_new(3)),
    "MatrixFq": _e11,
    "RankMetricCode": lambda: qrank.code_from_generators([_e11()]),
    "HomogeneousPoly": lambda: qrank.HomogeneousPoly(2, (1, 9, 6)),
    "MultiPoly": lambda: qrank.MultiPoly({(1, 0, 0, 0): 2, (0, 0, 1, 1): -1}),
    "QPolymatroid": lambda: qrank.from_code(qrank.code_from_generators([_e11()])),
    "IdentityReport": lambda: qrank.IdentityReport("greene", {"q": 2}, "x", "y", False, "x^1"),
}


@pytest.mark.parametrize("name", VALUES)
def test_one_equality_rule_for_every_value_type(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name and isinstance(a, Value) and a is not b
    # Value adds no __dict__ to a slotted class
    assert hasattr(a, "__dict__") == ("__slots__" not in vars(type(a)))
    assert a == b and not a != b
    # a value is never its own key, nor a value of another class
    assert a != a._key() and a._key() != a
    assert all(a != make() for other, make in VALUES.items() if other != name)
    if name in ("QPolymatroid", "IdentityReport"):
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(a._key())
    if name in ("RankMetricCode", "Subspace"):
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert twin == a and hash(twin) == hash(a)
