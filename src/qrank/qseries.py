"""q-combinatorics: Gaussian binomials, lattice Moebius coefficients,
q-products/powers/transforms of homogeneous bivariate polynomials, and
the P_j coefficients of the rank-metric MacWilliams identity.

Coefficients are exact rationals internally (m-shifts can pass through
q^{m-i} with m-i < 0); every externally exposed value is asserted
integral before return.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidValue, NegativeExponent, NonIntegralResult
from .gf import Value


def qpow(q: int, k: int):
    """q^k as an exact number, valid for negative k."""
    if k >= 0:
        return q**k
    return Fraction(1, q**-k)


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of F_q^a; 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)  # [a, b]_q = [a, a - b]_q
    num = 1
    # product formula; after step i, num is [a, i + 1]_q, an integer, so
    # each floor division is exact
    for i in range(b):
        num = num * (q ** (a - i) - 1) // (q ** (i + 1) - 1)
    return num


def galois_number(n: int, q: int) -> int:
    """Total number of subspaces of F_q^n, 0 for n < 0: by the recurrence
    G_{i+1} = 2 G_i + (q^i - 1) G_{i-1}, n steps and not n^2."""
    last, count, power = 0, int(n >= 0), 1
    for _ in range(n):
        last, count, power = count, 2 * count + (power - 1) * last, power * q
    return count


def moebius_coefficient(k: int, q: int) -> int:
    """(-1)^k q^{k(k-1)/2}: the Moebius kernel on the subspace lattice."""
    if k < 0:
        raise InvalidValue("k must be >= 0")
    return (-1) ** k * q ** (k * (k - 1) // 2)


def _poly_str(names, terms) -> str:
    """Signed text of (exponents, coefficient) terms in the variables
    `names`: zero terms drop out, a monomial shows the factors of nonzero
    exponents (`X1^2*X3`), an exponent only above 1 or below 0, and a unit
    coefficient shows only on a constant."""
    out = []
    for exps, c in terms:
        if c == 0:
            continue
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if out:
            out.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out) or "0"


class HomogeneousPoly(Value):
    """Homogeneous bivariate polynomial: coeffs[i] multiplies x^{r-i} y^i."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != degree + 1:
            raise InvalidValue("coefficient list must have length degree+1")
        self.degree = degree
        self.coeffs = coeffs

    def _key(self):
        return (self.degree, self.coeffs)

    def __str__(self):
        r = self.degree
        return _poly_str(("x", "y"), (((r - i, i), c) for i, c in enumerate(self.coeffs)))

    def __repr__(self):
        return f"HomogeneousPoly({self})"


class HomogeneousMPoly:
    """Homogeneous bivariate polynomial whose coefficients are functions
    of the integer parameter m, as required by the q-product's m-shift."""

    __slots__ = ("degree", "_oracle")

    def __init__(self, degree: int, oracle):
        self.degree = degree
        self._oracle = oracle

    @classmethod
    def constant(cls, coeffs) -> "HomogeneousMPoly":
        coeffs = tuple(coeffs)
        return cls(len(coeffs) - 1, lambda m: coeffs)

    def at(self, m: int):
        coeffs = tuple(self._oracle(m))
        if len(coeffs) != self.degree + 1:
            raise InvalidValue("oracle returned wrong coefficient count")
        return coeffs


def x_poly() -> HomogeneousMPoly:
    return HomogeneousMPoly.constant((1, 0))


def y_poly() -> HomogeneousMPoly:
    return HomogeneousMPoly.constant((0, 1))


def x_minus_y() -> HomogeneousMPoly:
    return HomogeneousMPoly.constant((1, -1))


def x_plus_qm_minus_1_y(q: int) -> HomogeneousMPoly:
    """The polynomial x + (q^m - 1) y."""
    return HomogeneousMPoly(1, lambda m: (1, qpow(q, m) - 1))


def q_product(a: HomogeneousMPoly, b: HomogeneousMPoly, q: int) -> HomogeneousMPoly:
    """Non-commutative q-product: c_u(m) = sum_i q^{is} a_i(m) b_{u-i}(m-i)."""
    r, s = a.degree, b.degree

    def oracle(m):
        ac = a.at(m)
        bc = [b.at(m - i) if ac[i] else None for i in range(r + 1)]
        out = []
        for u in range(r + s + 1):
            acc = 0
            for i in range(max(0, u - s), min(r, u) + 1):
                if ac[i]:
                    acc += qpow(q, i * s) * ac[i] * bc[i][u - i]
            out.append(acc)
        return tuple(out)

    return HomogeneousMPoly(r + s, oracle)


def q_power(a: HomogeneousMPoly, n: int, q: int) -> HomogeneousMPoly:
    """a^{[n]}: a^{[0]} = 1, a^{[n]} = a^{[n-1]} * a."""
    if n < 0:
        raise NegativeExponent("q-power exponent must be >= 0")
    acc = HomogeneousMPoly.constant((1,))
    for _ in range(n):
        acc = q_product(acc, a, q)
    return acc


def q_transform(a: HomogeneousMPoly, q: int) -> HomogeneousMPoly:
    """sum_i a_i(m) y^{[i]} * x^{[r-i]}, operand order as stated."""
    r = a.degree
    pieces = [q_product(q_power(y_poly(), i, q), q_power(x_poly(), r - i, q), q) for i in range(r + 1)]

    def oracle(m):
        ac = a.at(m)
        out = [0] * (r + 1)
        for i in range(r + 1):
            if ac[i]:
                pc = pieces[i].at(m)
                for u in range(r + 1):
                    out[u] += ac[i] * pc[u]
        return tuple(out)

    return HomogeneousMPoly(r, oracle)


def p_j_coeff(i: int, j: int, m: int, n: int, q: int) -> int:
    """P_j(i; m, n) from the rank-metric MacWilliams expansion:
    the coefficient of y^j x^{n-j} in (x-y)^{[i]} * (x+(q^m-1)y)^{[n-i]}.

    The Gaussian factor is [i choose l]_q; `tests/test_qseries.py` pins
    it to the q-product expansion (`test_p_j_matches_q_product_expansion`)
    and to the dual-enumerator sum (`test_p_j_matches_dual_enumerator_kernel`).
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise InvalidValue("require 0 <= i, j <= n")
    total = Fraction(0)
    for l in range(j + 1):
        g = gaussian_binomial(i, l, q) * gaussian_binomial(n - i, j - l, q)
        if g == 0:
            continue
        term = Fraction(g) * (-1) ** l * q ** (l * (l - 1) // 2) * qpow(q, l * (n - i))
        for u in range(j - l):
            term *= qpow(q, m - l) - q**u
        total += term
    if total.denominator != 1:
        raise NonIntegralResult(f"expected integer, got {total}")
    return total.numerator


@lru_cache(maxsize=None)
def g_poly(q: int, l: int):
    """Coefficients of g^l(X, Y) = prod_{i<l} (X - q^i Y): returns the
    tuple (c_0, ..., c_l) with c_u multiplying X^{l-u} Y^u."""
    coeffs = [1]
    for i in range(l):
        nxt = [0] * (len(coeffs) + 1)
        for u, c in enumerate(coeffs):
            nxt[u] += c
            nxt[u + 1] -= c * q**i
        coeffs = nxt
    return tuple(coeffs)


class MultiPoly(Value):
    """Sparse exact-integer polynomial in up to four variables; exponent
    tuples may be negative internally (Laurent workspace)."""

    __slots__ = ("terms",)

    VARS = ("X1", "X2", "X3", "X4")

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exps, c in dict(terms).items():
                self.add_term(exps, c)

    def add_term(self, exps, coeff):
        if coeff == 0:
            return
        exps = tuple(exps)
        new = self.terms.get(exps, 0) + coeff
        if new:
            self.terms[exps] = new
        else:
            del self.terms[exps]

    def __sub__(self, other):
        out = MultiPoly(self.terms)
        for e, c in other.terms.items():
            out.add_term(e, -c)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_records(self):
        """Records [e1, e2, e3, e4, coefficient], lexicographically sorted."""
        return [[*e, c] for e, c in self.sorted_terms()]

    def swap_x1_x2(self) -> "MultiPoly":
        out = MultiPoly()
        out.terms = {(e2, e1, e3, e4): c for (e1, e2, e3, e4), c in self.terms.items()}
        return out

    def _key(self):
        return frozenset(self.terms.items())

    def __str__(self):
        return _poly_str(self.VARS, self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self})"
