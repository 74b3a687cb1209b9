import collections
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import qrank.cli
import qrank.delsarte
import qrank.errors
import qrank.identities
import qrank.qseries
import qrank.subspaces
from qrank import (
    CodeAnalysis,
    MatrixFq,
    QPolymatroid,
    all_codes,
    check_all,
    code_from_generators,
    dual_code,
    dual_polymatroid_check,
    exact_sequence_check,
    from_code,
    gf_new,
    greene_check,
    macwilliams_dual_enumerator,
    macwilliams_transform,
    random_code,
    rank_distribution,
    rank_generating_function,
    rank_weight_enumerator,
    rgf_duality_check,
)
from qrank.errors import BudgetExceeded, NonIntegralResult
from qrank.identities import (
    IDENTITY_CHECKS,
    IdentityReport,
    _axiom_report,
    _formula_kernel,
    _macwilliams,
    _poly_report,
    _transform_kernel,
    greene_rhs,
    lattice_rank_distribution,
    macwilliams_checks,
)
from qrank.qpolymatroid import rgf_counts
from qrank.qseries import HomogeneousPoly, MultiPoly, g_poly, gaussian_binomial

from oracles import oracle_rgf_duality
from test_delsarte import PROPERTY_FIELDS, SHAPES, _clear_rank_tables

F2 = gf_new(2)
F3 = gf_new(3)


def test_identity_report_repr_equality_and_unhashability():
    report = IdentityReport("greene", {"q": 2}, "x", "x", True)
    assert repr(report) == (
        "IdentityReport(name='greene', params={'q': 2}, lhs='x', rhs='x', passed=True, witness=None)"
    )
    assert report == IdentityReport("greene", {"q": 2}, "x", "x", True, None)
    assert report != IdentityReport("greene", {"q": 2}, "x", "y", False, "x^0")
    fields = ("greene", {"q": 2}, "x", "x", True, None)
    assert report.__eq__(fields) is NotImplemented and report != fields
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_greene_zero_code(n, m):
    C = code_from_generators([], field=F2, n=n, m=m)
    rep = greene_check(CodeAnalysis(C))
    assert rep.passed
    assert rep.lhs == f"x^{n}" if n > 1 else rep.lhs == "x"


def test_greene_full_code(full_2x2_f2):
    rep = greene_check(CodeAnalysis(full_2x2_f2))
    assert rep.passed
    assert rep.lhs == "x^2 + 9*x*y + 6*y^2"
    # hand-expanded RHS: 16y^2 + 12y(x-y) + (x-y)(x-2y)
    assert str(greene_rhs(2, 2, 2, 4, CodeAnalysis(full_2x2_f2).counts)) == "x^2 + 9*x*y + 6*y^2"


def test_greene_sample_3x2(corpus_3x2_f2):
    for C in corpus_3x2_f2[::97]:
        assert greene_check(CodeAnalysis(C)).passed


def test_rgf_duality_zero_code():
    C = code_from_generators([], field=F2, n=2, m=2)
    rep = rgf_duality_check(CodeAnalysis(C))
    assert rep.passed
    # both sides sum_d [n d]_q X1^{m(n-d)} g^d (rho* is free)
    expected = MultiPoly()
    for d in range(3):
        count = gaussian_binomial(2, d, 2)
        for u, c in enumerate(g_poly(2, d)):
            expected.add_term((2 * (2 - d), 0, d - u, u), count * c)
    assert rank_generating_function(from_code(C).dual()) == expected


def test_rgf_duality_full_code(full_2x2_f2):
    rep = rgf_duality_check(CodeAnalysis(full_2x2_f2))
    assert rep.passed
    # both sides 1 + 3 X2^2 (X3-X4) + X2^4 (X3-X4)(X3-2X4)
    expected = MultiPoly(
        {
            (0, 0, 0, 0): 1,
            (0, 2, 1, 0): 3,
            (0, 2, 0, 1): -3,
            (0, 4, 2, 0): 1,
            (0, 4, 1, 1): -3,
            (0, 4, 0, 2): 2,
        }
    )
    assert rank_generating_function(from_code(full_2x2_f2).dual()) == expected


def test_rgf_duality_reads_no_dual_of_p_c(monkeypatch, corpus_2x2_f2, corpus_2x2_f3):
    # R_{P*} comes from the sweep of C^perp, so a P_C^* = P_C.dual() that
    # cannot be computed leaves the check passing
    def refuse(P):
        raise AssertionError("rgf-duality computed P_C^* from P_C")

    monkeypatch.setattr(QPolymatroid, "dual", refuse)
    for C in corpus_2x2_f2 + corpus_2x2_f3:
        assert rgf_duality_check(CodeAnalysis(C)).passed, C


def test_dual_polymatroid_examples(zero_2x2_f2, e11_2x2_f2):
    rep = dual_polymatroid_check(CodeAnalysis(zero_2x2_f2))
    assert rep.passed
    P = from_code(zero_2x2_f2).dual()
    assert P.ranks == tuple(2 * d for d in P.lattice.dims)  # dual of zero is free
    assert dual_polymatroid_check(CodeAnalysis(e11_2x2_f2)).passed


def test_dual_polymatroid_exhaustive_f3(corpus_2x2_f3):
    for C in corpus_2x2_f3:
        assert dual_polymatroid_check(CodeAnalysis(C)).passed


def test_macwilliams_dual_enumerator_examples(zero_2x2_f2, full_2x2_f2, e11_2x2_f2):
    assert str(macwilliams_dual_enumerator(CodeAnalysis(zero_2x2_f2))) == "x^2 + 9*x*y + 6*y^2"
    assert str(macwilliams_dual_enumerator(CodeAnalysis(full_2x2_f2))) == "x^2"
    brute = rank_weight_enumerator(dual_code(e11_2x2_f2))
    assert macwilliams_dual_enumerator(CodeAnalysis(e11_2x2_f2)) == brute


def test_macwilliams_transform_examples(zero_2x2_f2, full_2x2_f2):
    assert str(macwilliams_transform(CodeAnalysis(zero_2x2_f2))) == "x^2 + 9*x*y + 6*y^2"
    assert str(macwilliams_transform(CodeAnalysis(full_2x2_f2))) == "x^2"


def test_macwilliams_three_way_sample(corpus_2x2_f3):
    for C in corpus_2x2_f3[::11]:
        brute = rank_weight_enumerator(dual_code(C))
        assert macwilliams_dual_enumerator(CodeAnalysis(C)) == brute
        assert macwilliams_transform(CodeAnalysis(C)) == brute


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PROPERTY_FIELDS),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.data(),
)
def test_macwilliams_routes_match_dual_enumeration_property(field, shape, data):
    n, m = shape
    q = field.q
    # both C and C^perp are enumerated: at most 2^10 words each
    dims = [k for k in range(n * m + 1) if max(q**k, q ** (n * m - k)) <= 2**10]
    k = data.draw(st.sampled_from(dims), label="k")
    C = random_code(n, m, field, k, random.Random(data.draw(st.integers(0, 2**30), label="seed")))
    brute = rank_weight_enumerator(dual_code(C))
    assert macwilliams_dual_enumerator(CodeAnalysis(C)) == brute
    assert macwilliams_transform(CodeAnalysis(C)) == brute


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PROPERTY_FIELDS),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.data(),
)
def test_greene_on_the_swapped_hatted_table_of_p_c_is_the_dual_enumerator_property(field, shape, data):
    # the paper's MacWilliams route: R_{P_{C^perp}} = R-hat_{P_C} with X1 and
    # X2 swapped, so the Greene substitution at k^perp = nm - k on P_C's
    # table, relabeled (e1, e2, l) -> (e2, e1, n - l), is W_{C^perp}
    n, m = shape
    q = field.q
    # C^perp is enumerated: at most 2^10 words
    k = data.draw(st.sampled_from([k for k in range(n * m + 1) if q ** (n * m - k) <= 2**10]), label="k")
    C = random_code(n, m, field, k, random.Random(data.draw(st.integers(0, 2**30), label="seed")))
    table = {(e2, e1, n - l): N for (e1, e2, l), N in CodeAnalysis(C).counts.items()}
    assert greene_rhs(q, m, n, n * m - k, table) == HomogeneousPoly(n, rank_distribution(dual_code(C))), C


def test_macwilliams_kernels_are_built_once_per_shape_and_stay_apart(monkeypatch):
    qrank.identities._formula_kernel.cache_clear()
    qrank.identities._transform_kernel.cache_clear()
    products, p_js = [], []
    q_product, p_j_coeff = qrank.qseries.q_product, qrank.identities.p_j_coeff

    def counting_q_product(a, b, q):
        products.append(q)
        return q_product(a, b, q)

    def counting_p_j_coeff(*args):
        p_js.append(args)
        return p_j_coeff(*args)

    monkeypatch.setattr(qrank.qseries, "q_product", counting_q_product)
    monkeypatch.setattr(qrank.identities, "q_product", counting_q_product)
    monkeypatch.setattr(qrank.identities, "p_j_coeff", counting_p_j_coeff)
    rng = random.Random(5)
    C, D = random_code(2, 3, F3, 2, rng), random_code(2, 3, F3, 4, rng)
    a = CodeAnalysis(C)
    macwilliams_dual_enumerator(a)
    assert products == [] and len(p_js) == 9  # the formula route: P_j only
    p_js.clear()
    macwilliams_transform(a)
    assert products and p_js == []  # the transform route: q-products only
    assert "dual_distribution" not in vars(a)  # neither route enumerates C^perp
    assert all(r.passed for r in macwilliams_checks(a))
    products.clear()
    assert all(r.passed for r in macwilliams_checks(CodeAnalysis(D)))
    assert products == [] and p_js == []  # same shape: both kernels are cached


def test_exact_sequence_check(full_2x2_f2, e11_2x2_f2):
    assert exact_sequence_check(CodeAnalysis(full_2x2_f2)).passed
    assert exact_sequence_check(CodeAnalysis(e11_2x2_f2)).passed


def test_a_perturbed_polymatroid_of_the_dual_fails_both_checks_at_its_subspace():
    C = list(all_codes(3, 2, F2))[1234]
    a = CodeAnalysis(C)
    P = a.polymatroid_of_dual
    lat = P.lattice
    assert dual_polymatroid_check(a).passed and exact_sequence_check(a).passed
    for i in range(len(lat)):
        ranks = list(P.ranks)
        ranks[i] += 1
        a.polymatroid_of_dual = QPolymatroid(lat, P.r, ranks)
        report = dual_polymatroid_check(a)
        assert not report.passed
        assert report.witness == f'subspace "{lat.keys[i]}": {a.dual_polymatroid.ranks[i]} vs {ranks[i]}'
        assert report.rhs == "; ".join(a.polymatroid_of_dual.rank_table_lines()) != report.lhs
        # rho_{C^perp}(S) sets dim C^perp(S^perp), so the sequence breaks at R = S^perp
        j = lat.perp[i]
        rhs = C.m * lat.dims[j] + C.k - a.polymatroid.ranks[j]
        report = exact_sequence_check(a)
        assert not report.passed
        assert report.witness == f'subspace "{lat.keys[j]}": {rhs - 1} != {rhs}'


def _with_rank(C, i, delta):
    """An analysis of C whose cached P_C has rho(S_i) raised by delta."""
    a = CodeAnalysis(C)
    P = a.polymatroid
    ranks = list(P.ranks)
    ranks[i] += delta
    a.polymatroid = QPolymatroid(P.lattice, P.r, ranks)
    return a


FULL_2X2_PARAMS = "{'q': 2, 'n': 2, 'm': 2, 'k': 4}"


def test_greene_reports_a_top_rank_off_by_one_as_a_residual_z_exponent(full_2x2_f2):
    # rho(E) = k + 1 = 5: the zero subspace's term X1^5 has z-exponent
    # 5 + (mn - k) = 5, not a multiple of m = 2
    a = _with_rank(full_2x2_f2, -1, 1)
    witness = "residual z-exponent 5 in Greene assembly (term (5, 0, 0, 0))"
    with pytest.raises(NonIntegralResult, match=re.escape(witness)):
        greene_rhs(2, 2, 2, 4, a.counts)
    assert str(greene_check(a)) == (
        f"[FAIL] greene {FULL_2X2_PARAMS}\n  lhs: x^2 + 9*x*y + 6*y^2\n  rhs: -\n  witness: {witness}"
    )


def test_greene_reports_a_top_rank_off_by_m_as_non_homogeneous(full_2x2_f2):
    # rho(E) = k + m: every z-exponent grows by m, so every y-degree by 1
    a = _with_rank(full_2x2_f2, -1, 2)
    witness = "non-homogeneous Greene term x^0 y^3"
    with pytest.raises(NonIntegralResult, match=re.escape(witness)):
        greene_rhs(2, 2, 2, 4, a.counts)
    report = greene_check(a)
    assert (report.passed, report.rhs, report.witness) == (False, "-", witness)


def test_greene_reports_a_rank_above_the_top_rank_as_a_negative_power_of_q(i2_2x2_f2):
    # rho(<(0, 1)>) = 2 > rho(E) = 1: its terms carry X1^-1, and q^-1 is no integer
    a = _with_rank(i2_2x2_f2, 1, 1)
    assert a.polymatroid.lattice.keys[1] == "0,1" and a.polymatroid.rho_full() == 1
    witness = "negative power q^-1 in Greene assembly (term (-1, 0, 1, 0))"
    with pytest.raises(NonIntegralResult, match=re.escape(witness)):
        greene_rhs(2, 2, 2, 1, a.counts)
    assert str(greene_check(a)) == (
        "[FAIL] greene {'q': 2, 'n': 2, 'm': 2, 'k': 1}\n  lhs: x^2 + y^2\n  rhs: -\n"
        f"  witness: {witness}"
    )


def test_an_interior_rank_off_by_one_fails_greene_at_a_coefficient_and_the_axioms(full_2x2_f2):
    a = _with_rank(full_2x2_f2, 1, 1)  # rho(<(0, 1)>) = 3 > m dim = 2
    assert a.polymatroid.lattice.keys[1] == "0,1"
    report = greene_check(a)
    assert (report.lhs, report.rhs) == ("x^2 + 9*x*y + 6*y^2", "x^2 + 7*x*y + 8*y^2")
    assert report.witness == "coefficient of x^1*y^1: lhs 9, rhs 7"
    # R_{P*} comes from the unmoved sweep of C^perp, so R-hat_P's moved triple shows
    report = rgf_duality_check(a)
    assert report == oracle_rgf_duality(a)
    assert report.witness == "exponents (-1, 1, 0, 1): coefficient differs by 1"
    primal, dual = IDENTITY_CHECKS["axioms"](a)
    assert str(primal) == (
        f"[FAIL] axioms-primal {FULL_2X2_PARAMS}\n  lhs: axioms\n"
        "  rhs: R1 violated at 0,1: rho=3 not in [0, 2]\n"
        "rank-difference violated at 0 <= 0,1: rho gap 3 exceeds r*dim gap 2\n"
        "  witness: R1 violated at 0,1: rho=3 not in [0, 2]"
    )
    assert dual.witness == "R2 violated at 1,0 <= 1,0;0,1: rho(1,0)=1 > rho(1,0;0,1)=0"
    assert dual.witness == dual.rhs.splitlines()[0]


def test_a_nonzero_rank_of_the_zero_subspace_fails_rgf_duality_and_r1(full_2x2_f2):
    a = _with_rank(full_2x2_f2, 0, 1)
    report = rgf_duality_check(a)
    assert report == oracle_rgf_duality(a) and not report.passed
    assert report.witness == "exponents (-1, 3, 0, 2): coefficient differs by -2"
    primal, _ = IDENTITY_CHECKS["axioms"](a)
    assert not primal.passed
    assert primal.rhs == (
        "R1 violated at 0: rho=1 not in [0, 0]\n"
        "R3 violated at 0 < 0,1, 1,0 < 1,0;0,1: rho(X)+rho(Y)=5 > rho(A)+rho(B)=4"
    )
    assert primal.witness == "R1 violated at 0: rho=1 not in [0, 0]"


@pytest.mark.parametrize("n,m,field", SHAPES, ids=[f"{n}x{m}F{f.q}" for n, m, f in SHAPES])
def test_rgf_duality_reports_as_the_polynomial_comparison_on_perturbed_tables(n, m, field):
    # P_C of seeded codes with 0-3 ranks moved, rho(0) among them half the
    # time, against R_{P*} from the unmoved sweep of C^perp: the moves break
    # the duality unless they cancel
    rng = random.Random(f"rgf-duality/{n}x{m}F{field.q}")
    verdicts = set()
    for _ in range(16):
        a = CodeAnalysis(random_code(n, m, field, rng.randrange(n * m + 1), rng))
        P = a.polymatroid
        ranks = list(P.ranks)
        for _ in range(rng.randint(0, 3)):
            ranks[rng.choice([0, rng.randrange(len(ranks))])] += rng.choice([-2, -1, 1, 2])
        a.polymatroid = QPolymatroid(P.lattice, P.r, ranks)
        report = rgf_duality_check(a)
        assert report == oracle_rgf_duality(a), ranks
        verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_the_rgf_duality_lhs_prints_r_of_p_star(corpus_2x2_f3):
    reports = [rgf_duality_check(CodeAnalysis(C)) for C in corpus_2x2_f3]
    assert [r.lhs for r in reports] == [str(rank_generating_function(from_code(C).dual())) for C in corpus_2x2_f3]


def test_a_table_of_many_triples_prints_its_polynomial():
    # P_{C^perp} replaced by random ranks on the 374 subspaces of F_2^5: a
    # table of hundreds of triples, each printed
    rng = random.Random(24)
    a = CodeAnalysis(random_code(5, 2, F2, 4, rng))
    lat = a.polymatroid.lattice
    P = QPolymatroid(lat, 2, [rng.randrange(1000) for _ in lat.dims])
    a.polymatroid_of_dual = P
    assert len(rgf_counts(P)) > 128
    report = rgf_duality_check(a)
    assert report.lhs == str(rank_generating_function(P)) and not report.passed


def _property_field_codes():
    """One seeded code of Mat(2x3) and one of Mat(3x2) over each field of
    PROPERTY_FIELDS, C and C^perp of at most 2^12 words each."""
    rng = random.Random("text on read")
    codes = []
    for field in PROPERTY_FIELDS:
        for n, m in ((2, 3), (3, 2)):
            k = rng.choice([k for k in range(n * m + 1) if field.q ** max(k, n * m - k) <= 2**12])
            codes.append(random_code(n, m, field, k, rng))
    return codes


def test_check_all_prints_no_side_until_it_is_read(monkeypatch):
    codes = _property_field_codes()
    with monkeypatch.context() as patch:
        refuse = lambda *args: pytest.fail("a report side was printed before it was read")
        patch.setattr(qrank.qseries, "_poly_str", refuse)
        patch.setattr(QPolymatroid, "rank_table_lines", refuse)
        lazy = [check_all(C) for C in codes]
        for reports in lazy:
            assert all(r.passed and str(r) == f"[PASS] {r.name} {r.params}" for r in reports)

    class Eager(IdentityReport):
        """A report whose sides are printed when it is built."""

        __slots__ = ()

        def __init__(self, name, params, lhs, rhs, passed, witness=None):
            super().__init__(name, params, str(lhs), str(rhs), passed, witness)

    monkeypatch.setattr(qrank.identities, "IdentityReport", Eager)
    eager = [check_all(C) for C in codes]
    assert all(r.__class__ is Eager for reports in eager for r in reports)
    assert [[r.as_dict() for r in reports] for reports in lazy] == [[r.as_dict() for r in reports] for reports in eager]


def _axioms_by_two_passes(a):
    """The axiom reports with a verify_axioms pass for P_C and one for P_C^*."""
    return [
        _axiom_report("axioms-primal", a, a.polymatroid),
        _axiom_report("axioms-dual", a, a.dual_polymatroid),
    ]


def _counting_verify_axioms(monkeypatch):
    calls = []
    verify_axioms = qrank.identities.verify_axioms

    def counting(P):
        calls.append(P)
        return verify_axioms(P)

    monkeypatch.setattr(qrank.identities, "verify_axioms", counting)
    return calls


def test_one_axiom_pass_reports_p_star_as_two_passes_would(monkeypatch, corpus_2x2_f2, corpus_2x2_f3, corpus_3x2_f2):
    # every code of the exhaustive corpora: P_C holds, so one pass reports both
    calls = _counting_verify_axioms(monkeypatch)
    for C in corpus_2x2_f2 + corpus_2x2_f3 + corpus_3x2_f2:
        a = CodeAnalysis(C)
        calls.clear()
        reports = IDENTITY_CHECKS["axioms"](a)
        assert calls == [a.polymatroid], C
        assert reports == _axioms_by_two_passes(a), C


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_a_failing_p_gets_a_second_pass_for_p_star(monkeypatch, q, n):
    # P_C of a random code with 1-2 ranks moved: each of R1, R2, R3 and the
    # rank-difference bound fails in some table, and P^* is checked on its own
    calls = _counting_verify_axioms(monkeypatch)
    field, rng = gf_new(q), random.Random(f"axioms/{q}/{n}")
    failed = set()
    for _ in range(60):
        m = rng.choice([1, 2])
        a = CodeAnalysis(random_code(n, m, field, rng.randrange(n * m + 1), rng))
        ranks = list(a.polymatroid.ranks)
        for _ in range(rng.randint(1, 2)):
            ranks[rng.randrange(len(ranks))] += rng.choice([-1, 1])
        a.polymatroid = QPolymatroid(a.polymatroid.lattice, m, ranks)
        calls.clear()
        primal, dual = IDENTITY_CHECKS["axioms"](a)
        assert calls == ([a.polymatroid] if primal.passed else [a.polymatroid, a.dual_polymatroid]), ranks
        assert [primal, dual] == _axioms_by_two_passes(a), ranks
        if not primal.passed:
            failed.update(line.split(" violated at ")[0] for line in primal.rhs.splitlines())
    assert failed == {"R1", "R2", "R3", "rank-difference"}


def test_check_all_zero_code(zero_2x2_f2):
    reports = check_all(zero_2x2_f2)
    assert len(reports) == 8
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert names == [
        "greene",
        "rgf-duality",
        "dual-polymatroid",
        "exact-sequence",
        "macwilliams-formula",
        "macwilliams-transform",
        "axioms-primal",
        "axioms-dual",
    ]


def test_check_all_sweeps_and_enumerates_each_code_once(monkeypatch):
    C = list(all_codes(3, 2, F2))[1234]
    swept, enumerated = [], []
    from_code = qrank.identities.from_code
    enumerate_entries = qrank.delsarte.enumerate_codeword_entries

    def counting_from_code(code):
        swept.append(code)
        return from_code(code)

    def counting_enumerate(code, budget=None):
        enumerated.append(code)
        return enumerate_entries(code, budget)

    monkeypatch.setattr(qrank.identities, "from_code", counting_from_code)
    monkeypatch.setattr(qrank.delsarte, "enumerate_codeword_entries", counting_enumerate)
    with pytest.raises(BudgetExceeded):
        check_all(C, budget=C.size() - 1)
    assert swept == []  # refused at the Greene step, before any sweep
    enumerated.clear()
    assert all(r.passed for r in check_all(C))
    D = dual_code(C)
    # one restriction sweep of the lattice for C, one for C^perp
    assert swept == [C, D]
    assert enumerated == [C, D]


def test_check_all_counts_each_polymatroid_once(monkeypatch):
    # P_C's count table is the one input of Greene, RGF duality and the
    # Moebius route; P_{C^perp}'s is RGF duality's other side
    C = list(all_codes(3, 2, F2))[1234]
    counted = []
    rgf_counts = qrank.identities.rgf_counts

    def spy(P, *args, **kwargs):
        counted.append(P)
        return rgf_counts(P, *args, **kwargs)

    monkeypatch.setattr(qrank.identities, "rgf_counts", spy)
    assert all(r.passed for r in check_all(C))
    assert counted == [from_code(C), from_code(dual_code(C))] and counted[0] != counted[1]


LIMITS = {"exceeds budget": "budget", "RANK_WORK_LIMIT": "work", "BASIS_LIMIT": "basis"}


def test_check_all_admits_each_side_once(monkeypatch):
    # every errors.check_limit call, by the limit its template names: the
    # budget and work verdicts are priced once per shape, C and C^perp each
    # admitted on the first check of the shape, and never again; the public
    # ranking path checks its counts on every call
    C = list(all_codes(3, 2, F2))[1234]
    check_all(C)  # a warm lattice makes no lattice check
    calls = collections.Counter()
    check_limit = qrank.errors.check_limit

    def counting_check_limit(size, limit, template, e, fields):
        calls[next((kind for text, kind in LIMITS.items() if text in template), template)] += 1
        return check_limit(size, limit, template, e, fields)

    for module in (qrank.delsarte, qrank.subspaces, qrank.cli):
        monkeypatch.setattr(module, "check_limit", counting_check_limit)
    qrank.delsarte._codeword_budget.cache_clear()
    qrank.delsarte._rank_work_check.cache_clear()
    reports = check_all(C)
    assert all(r.passed for r in reports)
    assert calls == {"budget": 2, "work": 2, "basis": 3}
    # no two reports share one mutable params dict
    assert len({id(r.params) for r in reports}) == len(reports) == 8
    calls.clear()
    assert all(r.passed for r in check_all(list(all_codes(3, 2, F2))[1235]))
    assert calls == {"basis": 3}
    calls.clear()
    rank_distribution(C)
    assert calls == {"basis": 1}


# the caches keyed by a shape: the admission verdicts of one side and the
# Moebius weights of the lattice route
SHAPE_CACHES = [qrank.delsarte._codeword_budget, qrank.delsarte._rank_work_check, qrank.identities._moebius_columns]


def _verdict(check, *args):
    try:
        return check(*args)
    except BudgetExceeded as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROPERTY_FIELDS), st.integers(1, 8), st.integers(1, 8), st.data())
def test_every_shape_cache_equals_its_uncached_formula(field, n, m, data):
    q = field.q
    for cache in SHAPE_CACHES:
        cache.cache_clear()
    # a_d = sum_t b_t [n-t, d-t]_q (-1)^{d-t} q^{C(d-t,2)}, term by term
    columns = qrank.identities._moebius_columns(q, n)
    assert columns == tuple(
        tuple(gaussian_binomial(n - t, d - t, q) * (-1) ** (d - t) * q ** ((d - t) * (d - t - 1) // 2)
              for t in range(d + 1))
        for d in range(n + 1)
    )
    # each side's verdict, priced once or read back: the size it admits or the refusal it raises
    k = data.draw(st.integers(0, n * m), label="k")
    budget = data.draw(st.sampled_from([None, 1, q**k - 1, q**k, q ** (n * m - k) - 1]), label="budget")
    C = random_code(n, m, field, k, random.Random(k)) if q ** (n * m) <= 2**12 else None
    for dual in (False, True):
        side = n * m - k if dual else k
        limit = 2**24 if budget is None else budget
        perp = "^perp" if dual else ""
        expected = q**side if q**side <= limit else f"|C{perp}| = {q}^{side} exceeds budget {limit}"
        g, words, work = qrank.delsarte._rank_work(q, n, m, side)
        steps = "table reads" if g else "elimination steps"
        expected_work = g if work <= qrank.delsarte.RANK_WORK_LIMIT else (
            f"ranking the {words} projective words of C{perp} takes {work} {steps}, "
            f"above the rank work limit RANK_WORK_LIMIT = {qrank.delsarte.RANK_WORK_LIMIT}"
        )  # fmt: skip
        for _ in range(2):  # priced, then read back
            assert _verdict(qrank.delsarte._codeword_budget, q, side, budget, dual) == expected
            assert _verdict(qrank.delsarte._rank_work_check, q, n, m, side, dual) == expected_work
            if C is not None:
                assert _verdict(qrank.delsarte.check_codeword_budget, C, budget, dual) == expected
                assert _verdict(qrank.delsarte.check_rank_work, C, dual) == expected_work


def test_no_cached_admission_outlives_a_budget_change():
    # admitted under the default budget, then checked again in the same
    # process under a budget below |C|: refused with the same text as a
    # first check, C named before C^perp when both are over it
    rng = random.Random(36)
    for k, message in [(3, "|C| = 2^3 exceeds budget 7"), (2, "|C^perp| = 2^4 exceeds budget 7"),
                       (4, "|C| = 2^4 exceeds budget 7")]:  # fmt: skip
        C = random_code(2, 3, F2, k, rng)
        assert all(r.passed for r in check_all(C))
        with pytest.raises(BudgetExceeded) as refusal:
            check_all(C, 7)
        assert str(refusal.value) == message
        assert all(r.passed for r in check_all(C, 2**6))


def test_no_shape_cache_is_keyed_by_a_code():
    # 300 distinct codes of one (q, n, m): each cache holds at most one
    # entry per (q, n, m, k, side) shape it saw, not one per code
    for cache in SHAPE_CACHES:
        cache.cache_clear()
    codes, shapes = random.Random(36).sample(list(all_codes(3, 2, F2)), 300), set()
    for C in codes:
        assert all(r.passed for r in check_all(C))
        shapes |= {(2, 3, 2, C.k, False), (2, 3, 2, 6 - C.k, True)}
    assert len(set(codes)) == 300 and len(shapes) <= 14
    for cache in SHAPE_CACHES:
        assert 0 < cache.cache_info().currsize <= len(shapes), cache


def test_failing_report_carries_witness(monkeypatch, full_2x2_f2, e11_2x2_f2):
    lhs = rank_weight_enumerator(full_2x2_f2)
    rhs = rank_weight_enumerator(e11_2x2_f2)
    rep = _poly_report("synthetic", CodeAnalysis(full_2x2_f2), lhs, lambda a: rhs)
    assert not rep.passed
    assert rep.witness is not None and "coefficient" in rep.witness
    assert (rep.lhs, rep.rhs) == (str(lhs), str(rhs)) and rep.lhs != rep.rhs
    # a pass gives its lhs value for both sides, printed once, on first read, and kept
    same = rank_weight_enumerator(full_2x2_f2)
    printed = []
    monkeypatch.setattr(qrank.qseries, "_poly_str", lambda names, terms: printed.append(names) or "LHS")
    rep = _poly_report("synthetic", CodeAnalysis(full_2x2_f2), lhs, lambda a: same)
    assert printed == []
    assert (rep.passed, rep.lhs, rep.rhs, rep.witness) == (True, "LHS", "LHS", None) and len(printed) == 1
    assert rep == IdentityReport("synthetic", rep.params, "LHS", "LHS", True) and len(printed) == 1


def test_failing_reports_print_their_own_rhs(full_2x2_f2):
    # rgf-duality: rho(0) = 1 breaks R_{P*} = R-hat_P swapped
    a = _with_rank(full_2x2_f2, 0, 1)
    report = rgf_duality_check(a)
    lhs = rank_generating_function(a.polymatroid_of_dual)
    rhs = rank_generating_function(a.polymatroid, hatted=True).swap_x1_x2()
    assert not report.passed
    assert (report.lhs, report.rhs) == (str(lhs), str(rhs)) and report.lhs != report.rhs
    # both MacWilliams routes against a brute dual enumeration moved by one word
    a = CodeAnalysis(random_code(2, 2, F2, 2, random.Random(3)))
    dist = list(a.dual_distribution)
    dist[1], dist[2] = dist[1] + 1, dist[2] - 1
    a.dual_distribution = tuple(dist)
    formula, transform = macwilliams_checks(a)
    assert not formula.passed and not transform.passed
    assert formula.lhs == transform.lhs == str(HomogeneousPoly(2, dist))
    assert formula.rhs == transform.rhs == str(macwilliams_dual_enumerator(a)) == str(macwilliams_transform(a))
    assert formula.lhs != formula.rhs


def test_a_non_integral_macwilliams_route_fails_as_a_report(monkeypatch):
    # rho(S_1) raised by 1: (1/|C|) A K of the Moebius route's A(C) is no
    # integer, and check_all reports it as it reports Greene's coefficient
    C = random_code(2, 2, F2, 3, random.Random(3))
    a = _with_rank(C, 1, 1)
    formula, transform = IDENTITY_CHECKS["macwilliams"](a)
    expected = (
        "[FAIL] macwilliams-formula {'q': 2, 'n': 2, 'm': 2, 'k': 3}\n  lhs: x^2 + x*y\n  rhs: -\n"
        "  witness: expected integer, got 1/2"
    )
    assert str(formula) == expected
    assert transform.passed  # the transform route reads the brute A(C)
    assert greene_check(a).witness == "coefficient of x^1*y^1: lhs 5, rhs 4"
    from_code = qrank.identities.from_code
    monkeypatch.setattr(qrank.identities, "from_code", lambda code: a.polymatroid if code is C else from_code(code))
    reports = {report.name: report for report in check_all(C)}
    assert str(reports["macwilliams-formula"]) == expected and reports["macwilliams-transform"].passed


def test_a_zero_subspace_rank_above_k_fails_the_moebius_route_as_a_report():
    # rho(0) = 3 > k = 2: the binomial moment b_2 would take q^-1, which is
    # no integer; the route never forms a float
    a = _with_rank(random_code(2, 2, F2, 2, random.Random(1)), 0, 3)
    witness = "negative power q^-1 in binomial moment b_2"
    with pytest.raises(NonIntegralResult, match=re.escape(witness)):
        lattice_rank_distribution(a)
    formula, transform = IDENTITY_CHECKS["macwilliams"](a)
    assert (formula.passed, formula.lhs, formula.rhs, formula.witness) == (False, "x^2 + 2*x*y + y^2", "-", witness)
    assert transform.passed


@pytest.mark.parametrize(
    "dist,fraction", [([2, 0, 0], "1/8"), ([16, 0, 1], "17/16"), ([12, 2, 2], "13/2"), ([15, 0, 1], "33/4")]
)
def test_a_distribution_not_divisible_by_the_code_size_is_refused(full_2x2_f2, dist, fraction):
    # |C| = 16: the first coefficient of (1/|C|) A K that 16 does not divide,
    # in lowest terms as `Fraction` prints it
    for kernel in (_formula_kernel(2, 2, 2), _transform_kernel(2, 2, 2)):
        with pytest.raises(NonIntegralResult, match=f"^expected integer, got {re.escape(fraction)}$"):
            _macwilliams(full_2x2_f2, dist, kernel)


def test_extension_field_code():
    F4 = gf_new(2, 2)
    C = code_from_generators([MatrixFq.identity(F4, 2), MatrixFq.unit(F4, 2, 2, 0, 1)])
    assert all(r.passed for r in check_all(C))


def test_check_all_at_the_n6_edge():
    C = random_code(6, 2, F2, 5, random.Random(1))
    assert all(r.passed for r in check_all(C)), C


@pytest.mark.parametrize("n,m,field", SHAPES, ids=[f"{n}x{m}F{f.q}" for n, m, f in SHAPES])
def test_check_all_and_lattice_distribution_across_fields(n, m, field):
    """A property per shape of SHAPES, which together cover every field of
    PROPERTY_FIELDS with n < m, n > m and n = m; the four seeded codes of
    each shape are explicit examples.  Both Greene and MacWilliams rank
    C and C^perp through the rank table."""
    # dimensions where both C and C^perp have at most ~3000 codewords
    dims = [k for k in range(n * m + 1) if max(field.q**k, field.q ** (n * m - k)) <= 3000]
    codes = st.builds(
        random_code, st.just(n), st.just(m), st.just(field), st.sampled_from(dims),
        st.builds(random.Random, st.integers(0, 2**30)),
    )

    @settings(max_examples=25, deadline=None)
    @given(codes)
    def check(C):
        assert all(r.passed for r in check_all(C)), C
        # lattice route: Moebius inversion of the restriction table by dimension
        assert list(rank_distribution(C)) == lattice_rank_distribution(CodeAnalysis(C)), C

    rng = random.Random(f"{n}x{m}F{field.q}")
    for _ in range(4):
        check = example(random_code(n, m, field, rng.choice(dims), rng))(check)
    check()


# the engines of each side of the identities: the brute side enumerates
# and ranks codewords, the sweep side reads P_C and P_{C^perp} off the lattice
BRUTE_ENGINES = ("_fold_ranks", "_rank_of_entries", "_rank_of_packed", "_transitions")
SWEEP_ENGINES = ("lattice", "from_code", "_extend", "_extend_packed", "_column_images")
# over F_2, F_3 and F_4, n < m and n > m
ROUTE_CODES = [(2, 3, F2, 3), (3, 2, F2, 4), (2, 3, F3, 2), (3, 2, F3, 3), (2, 3, gf_new(2, 2), 2),
               (3, 2, gf_new(2, 2), 3)]  # fmt: skip


def _refuse_every_binding(monkeypatch, names, side):
    """Patch every binding of each name, in every qrank module that has one, to fail the test."""
    def refuse(*args, **kwargs):
        pytest.fail(f"the other side called an engine of the {side} side")

    for module in [mod for name, mod in sys.modules.items() if name == "qrank" or name.startswith("qrank.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    return refuse


def _route_analyses():
    rng = random.Random(35)
    return [CodeAnalysis(random_code(n, m, field, k, rng)) for n, m, field, k in ROUTE_CODES]


def _sweep_side(a):
    C = a.code
    return (
        greene_rhs(C.field.q, C.m, C.n, C.k, a.counts),
        lattice_rank_distribution(a),
        macwilliams_dual_enumerator(a),
        a.counts,
        rgf_counts(a.polymatroid_of_dual),
    )


def test_the_sweep_side_needs_no_engine_of_the_brute_side(monkeypatch):
    # Greene's route, the Moebius distribution, the closed-form MacWilliams
    # route and both count tables of RGF duality, from the lattice sweeps alone
    expected = [_sweep_side(a) for a in _route_analyses()]
    monkeypatch.setattr(qrank.delsarte._Codewords, "_walk", _refuse_every_binding(monkeypatch, BRUTE_ENGINES, "brute"))
    analyses = _route_analyses()
    assert [_sweep_side(a) for a in analyses] == expected
    # the refusal bites: the brute side itself cannot rank a word
    for a in analyses:
        with pytest.raises(pytest.fail.Exception, match="the brute side"):
            rank_distribution(a.code)


def test_the_brute_side_needs_no_engine_of_the_sweep(monkeypatch):
    # the brute dual distribution and the q-product MacWilliams route, from
    # enumeration alone; the rank tables are cleared so none is read warm
    expected = [(a.dual_distribution, macwilliams_transform(a)) for a in _route_analyses()]
    _refuse_every_binding(monkeypatch, SWEEP_ENGINES, "sweep")
    _clear_rank_tables()
    analyses = _route_analyses()
    assert [(a.dual_distribution, macwilliams_transform(a)) for a in analyses] == expected
    for a in analyses:
        with pytest.raises(pytest.fail.Exception, match="the sweep side"):
            a.polymatroid
