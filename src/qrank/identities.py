"""End-to-end identity checks, each computed by at least two independent
routes and compared as exact polynomial (or table) equalities: RGF
duality, for one, reads R_{P*} off the sweep of C^perp (P_C^* =
P_{C^perp}) and R-hat_P off the sweep of C.  A report keeps its sides as
values and prints them only when they are read, one value for both sides
of a pass, and the axioms of P_C^* get a pass of their own only when P_C
fails one (`_axiom_checks`).

The Greene-type substitution works in an auxiliary variable z with
y = z^m, which keeps every intermediate value an exact Laurent
polynomial; the assembled right-hand side must come out a true
polynomial whose z-exponents are multiples of m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .delsarte import RankMetricCode, check_codeword_budget, check_rank_work, dual_code, rank_distribution
from .errors import NonIntegralResult
from .gf import Value
from .qpolymatroid import from_code, rgf_counts, rgf_poly, verify_axioms
from .qseries import (
    HomogeneousPoly,
    g_poly,
    gaussian_binomial,
    moebius_coefficient,
    p_j_coeff,
    q_power,
    q_product,
    x_minus_y,
    x_plus_qm_minus_1_y,
)


class IdentityReport(Value):
    """One identity's outcome on one code: its two sides, whether they are
    equal and, if not, a witness.  A side is given as text or as a value
    whose str() is its text (a `HomogeneousPoly`, a `MultiPoly`, a
    `QPolymatroid`); `lhs` and `rhs` are that text, formed on first read
    and kept, a value given for both sides printed once.  Equal by value
    (the text), unhashable; each report holds its own copy of `params`."""

    __slots__ = ("name", "params", "_sides", "passed", "witness")
    __hash__ = None

    def __init__(self, name: str, params: dict, lhs, rhs, passed: bool, witness: str | None = None):
        self.name, self.params, self._sides = name, dict(params), (lhs, rhs)
        self.passed, self.witness = passed, witness

    def _texts(self):
        # str() of a side already printed is that text itself
        lhs, rhs = self._sides
        text = str(lhs)
        self._sides = text, text if rhs is lhs else str(rhs)
        return self._sides

    lhs = property(lambda self: self._texts()[0])
    rhs = property(lambda self: self._texts()[1])

    def _key(self):
        return self.name, self.params, *self._texts(), self.passed, self.witness

    def __repr__(self):
        names = "name", "params", "lhs", "rhs", "passed", "witness"
        return "IdentityReport({})".format(", ".join(f"{name}={value!r}" for name, value in zip(names, self._key())))

    def as_dict(self) -> dict:
        return {
            "identity": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "witness": self.witness,
        }

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name} {self.params}"
        if not self.passed:
            line += f"\n  lhs: {self.lhs}\n  rhs: {self.rhs}\n  witness: {self.witness}"
        return line


class _once(cached_property):
    """`functools.cached_property` without the lock that Python 3.10 and 3.11 take on each first read."""

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class CodeAnalysis:
    """Every per-code table the identity checks read, each computed at most
    once, on first use.

    P_C and P_{C^perp} come from one lattice sweep each, and P_C^* is
    derived from P_C.  The brute-force rank distributions enumerate
    codewords and never read a polymatroid, so each identity keeps two
    independent sides.
    """

    def __init__(self, C: RankMetricCode, budget: int | None = None):
        self.code = C
        self.budget = budget
        self._params = {"q": C.field.q, "n": C.n, "m": C.m, "k": C.k}

    def _admit(self, dual: bool = False):
        """Refuse C, or C^perp by its shape if `dual`, for its words over the budget, then its rank work."""
        check_codeword_budget(self.code, self.budget, dual)
        check_rank_work(self.code, dual)

    @_once
    def dual(self) -> RankMetricCode:
        return dual_code(self.code)

    @_once
    def polymatroid(self):
        """P_C, from one lattice sweep of C."""
        return from_code(self.code)

    @_once
    def counts(self) -> dict:
        """P_C's count table: Greene, RGF duality and the Moebius route read P_C off it."""
        return rgf_counts(self.polymatroid)

    @_once
    def dual_polymatroid(self):
        """P_C^*, the dual of P_C."""
        return self.polymatroid.dual()

    @_once
    def polymatroid_of_dual(self):
        """P_{C^perp}, from its own lattice sweep."""
        return from_code(self.dual)

    @_once
    def distribution(self):
        """Rank distribution of C by brute-force enumeration."""
        return rank_distribution(self.code, self.budget)

    @_once
    def dual_distribution(self):
        """Rank distribution of C^perp by brute-force enumeration, C^perp
        admitted (`_admit`) before it is solved."""
        self._admit(dual=True)
        return rank_distribution(self.dual, self.budget)


def _poly_report(name, a: CodeAnalysis, lhs: HomogeneousPoly, route):
    """The report of lhs = route(a): a pass gives lhs for both sides; a
    non-integral route fails with rhs "-", its message the witness."""
    try:
        rhs = route(a)
    except NonIntegralResult as exc:
        return IdentityReport(name, a._params, lhs, "-", False, str(exc))
    passed = lhs == rhs
    witness = None if passed else next(
        f"coefficient of x^{lhs.degree - i}*y^{i}: lhs {x}, rhs {y}"
        for i, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs))
        if x != y
    )
    return IdentityReport(name, a._params, lhs, lhs if passed else rhs, passed, witness)


def greene_rhs(q: int, m: int, n: int, k: int, table: dict) -> HomogeneousPoly:
    """Assemble y^{n - k / m} R(q y^{1/m}, y^{-1/m}, x, y) as a degree-n
    homogeneous polynomial in (x, y), via y = z^m, from the count table
    {(e1, e2, l): N} of R (`rgf_counts`); R = R_{P_C} and k = dim C give
    W_C.

    The term X1^e1 X2^e2 X3^{l-u} X4^u becomes q^e1 x^{l-u} z^ze with ze =
    e1 - e2 + m u + (mn - k), of degree l - u + ze / m in (x, y): every
    term of a triple shares ze mod m, the degree and e1, and u = 0 has the
    least ze.  So a triple's u = 0 term fails first if any does, and the
    triples are met in the order of R's terms."""
    shift = m * n - k
    coeffs = [0] * (n + 1)
    for (e1, e2, l), count in table.items():
        ze = e1 - e2 + shift
        if ze < 0 or ze % m != 0:
            raise NonIntegralResult(f"residual z-exponent {ze} in Greene assembly (term {(e1, e2, l, 0)})")
        i = ze // m
        if l + i != n:
            raise NonIntegralResult(f"non-homogeneous Greene term x^{l} y^{i}")
        if e1 < 0:
            raise NonIntegralResult(f"negative power q^{e1} in Greene assembly (term {(e1, e2, l, 0)})")
        w = count * q**e1
        for u, c in enumerate(g_poly(q, l)):
            coeffs[i + u] += w * c
    return HomogeneousPoly(n, coeffs)


def greene_check(a: CodeAnalysis) -> IdentityReport:
    """Greene-type identity: brute-force enumerator vs the R_P route."""
    C = a.code
    route = lambda a: greene_rhs(C.field.q, C.m, C.n, C.k, a.counts)
    return _poly_report("greene", a, HomogeneousPoly(C.n, a.distribution), route)


def rgf_duality_check(a: CodeAnalysis) -> IdentityReport:
    """R_{P*}(X1,X2,X3,X4) = R-hat_P(X2,X1,X3,X4), exactly, with P* =
    P_{C^perp} from its own sweep: R_{P_{C^perp}}'s count table against
    R-hat_{P_C}'s (P_C's, l read as n - l) with e1 and e2 swapped, equal
    iff the polynomials are (`rgf_poly`).  A pass gives R_{P*} for both
    sides; R-hat_P's polynomial and the witness are built only when the
    tables differ."""
    q, n = a.code.field.q, a.code.n
    lhs = rgf_counts(a.polymatroid_of_dual)
    rhs = {(e2, e1, n - l): count for (e1, e2, l), count in a.counts.items()}
    passed = lhs == rhs
    lhs = rgf_poly(q, lhs)
    rhs = lhs if passed else rgf_poly(q, rhs)
    witness = None if passed else "exponents {}: coefficient differs by {}".format(*(lhs - rhs).sorted_terms()[0])
    return IdentityReport("rgf-duality", a._params, lhs, rhs, passed, witness)


def dual_polymatroid_check(a: CodeAnalysis) -> IdentityReport:
    """P_C^* = P_{C^perp}: rank tables compared pointwise."""
    lhs, rhs = a.dual_polymatroid, a.polymatroid_of_dual
    # one lattice, so equal ranks print equal tables
    passed = lhs.ranks == rhs.ranks
    witness = None if passed else next(
        f'subspace "{key}": {x} vs {y}' for key, x, y in zip(lhs.lattice.keys, lhs.ranks, rhs.ranks) if x != y
    )
    return IdentityReport("dual-polymatroid", a._params, lhs, lhs if passed else rhs, passed, witness)


def exact_sequence_check(a: CodeAnalysis) -> IdentityReport:
    """dim C^perp(R) + dim C = m dim R + dim C(R^perp) for every R, with
    dim C^perp(R) = dim C^perp - rho_{C^perp}(R^perp) and
    dim C(R^perp) = dim C - rho_C(R)."""
    C = a.code
    rho_c, rho_d = a.polymatroid.ranks, a.polymatroid_of_dual.ranks
    lat = a.polymatroid.lattice
    m, k, k_d = C.m, C.k, a.dual.k
    witness = None
    for i, p in enumerate(lat.perp):
        lhs = k_d - rho_d[p] + k
        rhs = m * lat.dims[i] + k - rho_c[i]
        if lhs != rhs:
            witness = f'subspace "{lat.keys[i]}": {lhs} != {rhs}'
            break
    texts = "dim C^perp(R) + dim C", "m dim R + dim C(R^perp)"
    return IdentityReport("exact-sequence", a._params, *texts, witness is None, witness)


def lattice_rank_distribution(a: CodeAnalysis):
    """a_d = #{M in C : rank M = d}, d = 0..n, from P_C alone: Moebius
    inversion on the subspace lattice, summed by dimension,
    a_d = sum_t b_t [n-t, d-t]_q (-1)^{d-t} q^{C(d-t,2)}, with binomial
    moments b_t = sum_{dim T = t} q^{dim C(T)}, dim C(T) = k - rho_C(T^perp):
    with D = T^perp, triple (e1, e2, l) of P_C's count table adds
    N q^{k - rho(E) + e1} to b_{n-l}, a negative exponent NonIntegralResult."""
    C = a.code
    q, n, k = C.field.q, C.n, C.k
    top = a.polymatroid.rho_full()
    b = [0] * (n + 1)
    for (e1, _, l), count in a.counts.items():
        e = k - top + e1
        if e < 0:
            raise NonIntegralResult(f"negative power q^{e} in binomial moment b_{n - l}")
        b[n - l] += count * q**e
    return [sum(map(mul, b, column)) for column in _moebius_columns(q, n)]


@lru_cache(maxsize=1024)
def _moebius_columns(q: int, n: int):
    """columns[d][t] = [n-t, d-t]_q (-1)^{d-t} q^{C(d-t,2)}, t <= d: the weights of the b_t in a_d."""
    mu = [moebius_coefficient(s, q) for s in range(n + 1)]
    return tuple(tuple(gaussian_binomial(n - t, d - t, q) * mu[d - t] for t in range(d + 1)) for d in range(n + 1))


@lru_cache(maxsize=None)
def _formula_kernel(q: int, m: int, n: int):
    """K[i][j] = P_j(i; m, n), the closed-form MacWilliams coefficients."""
    return tuple(tuple(p_j_coeff(i, j, m, n, q) for j in range(n + 1)) for i in range(n + 1))


@lru_cache(maxsize=None)
def _transform_kernel(q: int, m: int, n: int):
    """K[i] = (x-y)^{[i]} * (x+(q^m-1)y)^{[n-i]} at m, by the q-product
    engine with its m-shift."""
    xmy, xq = x_minus_y(), x_plus_qm_minus_1_y(q)
    return tuple(q_product(q_power(xmy, i, q), q_power(xq, n - i, q), q).at(m) for i in range(n + 1))


def _macwilliams(C: RankMetricCode, A, K) -> HomogeneousPoly:
    """(1/|C|) A K, asserted integral: row i of K expands rank i."""
    size, coeffs = C.size(), []
    for column in zip(*K):
        w = sum(map(mul, A, column))
        c, rest = divmod(w, size)
        if rest:
            raise NonIntegralResult(f"expected integer, got {Fraction(w, size)}")
        coeffs.append(c)
    return HomogeneousPoly(C.n, coeffs)


def macwilliams_dual_enumerator(a: CodeAnalysis) -> HomogeneousPoly:
    """W_{C^perp}^R by the closed-form kernel P_j applied to the rank
    distribution read off P_C, without any enumeration of the dual code."""
    C = a.code
    return _macwilliams(C, lattice_rank_distribution(a), _formula_kernel(C.field.q, C.m, C.n))


def macwilliams_transform(a: CodeAnalysis) -> HomogeneousPoly:
    """(1/|C|) sum_i A_i (x-y)^{[i]} * (x+(q^m-1)y)^{[n-i]} on the
    brute-force rank distribution of C."""
    C = a.code
    return _macwilliams(C, a.distribution, _transform_kernel(C.field.q, C.m, C.n))


def macwilliams_checks(a: CodeAnalysis):
    """Both MacWilliams routes against brute-force dual enumeration."""
    brute = HomogeneousPoly(a.code.n, a.dual_distribution)
    return [
        _poly_report("macwilliams-formula", a, brute, macwilliams_dual_enumerator),
        _poly_report("macwilliams-transform", a, brute, macwilliams_transform),
    ]


def _axiom_report(name, a: CodeAnalysis, P) -> IdentityReport:
    lines = verify_axioms(P)
    rhs = "\n".join(lines) or "all axioms hold"
    return IdentityReport(name, a._params, "axioms", rhs, not lines, lines[0] if lines else None)


def _axiom_checks(a: CodeAnalysis):
    """The axiom reports of P_C and P_C^*; P* gets a pass of its own only
    when P fails, so that its report names P*'s own violations.  S ->
    S^perp reverses the lattice: it maps each cover A < B to B^perp <
    A^perp and each [X, Y] of length 2 to [Y^perp, X^perp].  With rho*(S)
    = rho(S^perp) + r dim S - rho(E), a cover has rho*(B) - rho*(A) = r -
    (rho(A^perp) - rho(B^perp)), so R2 of P* is the rank-difference bound
    of P on B^perp < A^perp, and the bound of P* is R2 of P.  R3 of P* on
    [X, Y] is R3 of P on [Y^perp, X^perp], the r dim terms cancelling.  R1
    of P* at S is R2 and the bound of P on S^perp <= E, which telescope
    from the covers.  So when P passes, P* passes: no second pass."""
    primal = _axiom_report("axioms-primal", a, a.polymatroid)
    if primal.passed:
        dual = IdentityReport("axioms-dual", a._params, "axioms", primal.rhs, True)
    else:
        dual = _axiom_report("axioms-dual", a, a.dual_polymatroid)
    return [primal, dual]


# name -> runner of one shared analysis, in check_all's order; each runner
# looks its check up when called, so a rebound check is the one that runs
IDENTITY_CHECKS = {
    "greene": lambda a: [greene_check(a)],
    "rgf-duality": lambda a: [rgf_duality_check(a)],
    "dual-polymatroid": lambda a: [dual_polymatroid_check(a)],
    "exact-sequence": lambda a: [exact_sequence_check(a)],
    "macwilliams": lambda a: macwilliams_checks(a),
    "axioms": lambda a: _axiom_checks(a),
}


def check_all(C: RankMetricCode, budget=None):
    """Every identity for one code, from one analysis; deterministic
    report order.  Refused before any work when C or C^perp has more
    codewords than the budget, or takes more work to rank than
    RANK_WORK_LIMIT, C admitted before C^perp."""
    a = CodeAnalysis(C, budget)
    a._admit()
    a._admit(dual=True)
    return [report for run in IDENTITY_CHECKS.values() for report in run(a)]
