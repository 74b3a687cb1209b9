"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line directly to the terminal (bypassing pytest capture)."""

import time
from fractions import Fraction

import pytest

from qrank import (
    CodeAnalysis,
    check_all,
    code_from_generators,
    dual_code,
    from_code,
    gf_new,
    greene_check,
    macwilliams_dual_enumerator,
    macwilliams_transform,
    p_j_coeff,
    q_power,
    q_product,
    rank_generating_function,
    rank_weight_enumerator,
    rgf_duality_check,
    verify_axioms,
)
from qrank.delsarte import restrict
from qrank.qseries import MultiPoly, gaussian_binomial, qpow, x_minus_y, x_plus_qm_minus_1_y
from qrank.subspaces import enumerate_subspaces, lattice

from oracles import oracle_code_rgf, oracle_rank_distribution, qm_y


def _report(capsys, number, description, passed):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():  # the gate lines always show on the terminal
        print(f"ACCEPTANCE criterion {number}: {status} - {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def corpora(corpus_2x2_f2, corpus_2x2_f3, corpus_3x2_f2):
    return [corpus_2x2_f2, corpus_2x2_f3, corpus_3x2_f2]


def test_criterion_1_greene_exhaustive(capsys, corpora):
    sizes = [len(c) for c in corpora]
    assert sizes == [67, 212, 2825]
    start = time.monotonic()
    failures = [
        (C, rep)
        for corpus in corpora
        for C in corpus
        for rep in [greene_check(CodeAnalysis(C))]
        if not rep.passed
    ]
    elapsed = time.monotonic() - start
    _report(
        capsys,
        1,
        f"Greene identity exact on all 67+212+2825 codes ({elapsed:.1f}s, limit 120s)",
        not failures and elapsed < 120,
    )


def test_criterion_2_macwilliams_three_way(capsys, corpora, random_corpus):
    assert len(random_corpus) == 200
    assert any(C.field.q == 4 for C in random_corpus)
    bad = 0
    for corpus in corpora + [random_corpus]:
        for C in corpus:
            brute = rank_weight_enumerator(dual_code(C))
            a = CodeAnalysis(C)
            if macwilliams_dual_enumerator(a) != brute or macwilliams_transform(a) != brute:
                bad += 1
    _report(
        capsys,
        2,
        "MacWilliams three-way agreement (brute = formula = q-transform) on all corpora + 200 random codes",
        bad == 0,
    )


def test_criterion_3_polymatroid_axioms_and_duality(capsys, corpora, random_corpus):
    ok = True
    for corpus in corpora + [random_corpus]:
        for C in corpus:
            P = from_code(C)
            Pd = P.dual()
            if verify_axioms(P) or verify_axioms(Pd):
                ok = False
            if Pd.dual() != P:
                ok = False
            if Pd.ranks != from_code(dual_code(C)).ranks:
                ok = False
            if not rgf_duality_check(CodeAnalysis(C)).passed:
                ok = False
    _report(
        capsys,
        3,
        "polymatroid axioms, involution, P_C* = P_{C^perp}, and RGF duality on all corpus codes",
        ok,
    )


def test_criterion_4_exact_sequence(capsys, corpora):
    ok = True
    for corpus in corpora:
        for C in corpus:
            lat = lattice(C.n, C.field)
            D = dual_code(C)
            dims_c = [restrict(C, S).k for S in lat.subspaces]
            dims_d = [restrict(D, S).k for S in lat.subspaces]
            for i in range(len(lat)):
                if dims_d[i] + C.k != C.m * lat.dims[i] + dims_c[lat.perp[i]]:
                    ok = False
    _report(capsys, 4, "exact-sequence dimension identity over every subspace and corpus code", ok)


def test_criterion_5_q_calculus_suite(capsys):
    ok = True
    # Gaussian binomials vs subspace enumeration
    for q in (2, 3):
        field = gf_new(q) if q != 4 else gf_new(2, 2)
        for a in range(6):
            for b in range(a + 1):
                count = sum(1 for _ in enumerate_subspaces(a, field, dim_filter=b))
                if count != gaussian_binomial(a, b, q):
                    ok = False
    # four q-binomial identities, indices <= 8
    from math import comb

    for q in (2, 3, 4):
        for a in range(9):
            for b in range(a + 1):
                gb = gaussian_binomial
                if a >= 1 and (
                    gb(a, b, q) != gb(a - 1, b, q) + q ** (a - b) * gb(a - 1, b - 1, q)
                    or gb(a, b, q) != q**b * gb(a - 1, b, q) + gb(a - 1, b - 1, q)
                ):
                    ok = False
                for c in range(b + 1):
                    if gb(a, b, q) * gb(b, c, q) != gb(a, b - c, q) * gb(a - b + c, c, q):
                        ok = False
                for n in range(a + 1):
                    total = sum(
                        Fraction(qpow(q, i * (a - b - n + i))) * gb(n, i, q) * gb(a - n, b - i, q)
                        for i in range(n + 1)
                    )
                    if total != gb(a, b, q):
                        ok = False
                if comb(a + b, 2) != comb(a, 2) + a * b + comb(b, 2):
                    ok = False
    # q-product lemma (1) and (2), n <= 5, m <= 4
    for q in (2, 3):
        for n in range(6):
            for m in range(1, 5):
                if q_power(qm_y(q), n, q).at(m) != (0,) * n + (q ** (m * n),):
                    ok = False
                for l in range(n + 1):
                    lhs = q_product(
                        q_power(x_minus_y(), l, q), q_power(qm_y(q), n - l, q), q
                    ).at(m)
                    base = q_power(x_minus_y(), l, q).at(m)
                    if lhs != (0,) * (n - l) + tuple(q ** (m * (n - l)) * c for c in base):
                        ok = False
    # P_j identity, independently extracted from the q-product expansion
    for q in (2, 3):
        for n in range(5):
            for m in range(1, 5):
                for i in range(n + 1):
                    expansion = q_product(
                        q_power(x_minus_y(), i, q), q_power(x_plus_qm_minus_1_y(q), n - i, q), q
                    ).at(m)
                    for j in range(n + 1):
                        if p_j_coeff(i, j, m, n, q) != expansion[j]:
                            ok = False
    _report(capsys, 5, "q-calculus suite (Gaussian counts, 4 identities, q-product lemma, P_j)", ok)


def test_criterion_6_pinned_values(capsys, full_2x2_f2):
    F2 = gf_new(2)
    ok = True
    # oracle 1: brute-force span rank distribution
    oracle_dist = oracle_rank_distribution(full_2x2_f2.space.basis, 2, 2, F2)
    ok &= oracle_dist == [1, 9, 6]
    ok &= str(rank_weight_enumerator(full_2x2_f2)) == "x^2 + 9*x*y + 6*y^2"
    # oracle 2: RGF assembled from brute-force rho and plain poly ops
    lat = lattice(2, F2)
    oracle = oracle_code_rgf(full_2x2_f2, lat.subspaces)
    pinned_rgf = MultiPoly(
        {
            (4, 0, 0, 0): 1,
            (2, 0, 1, 0): 3,
            (2, 0, 0, 1): -3,
            (0, 0, 2, 0): 1,
            (0, 0, 1, 1): -3,
            (0, 0, 0, 2): 2,
        }
    )
    ok &= oracle == pinned_rgf.terms
    ok &= rank_generating_function(from_code(full_2x2_f2)) == pinned_rgf
    # oracle 3: (x+3y)^[2] at q=m=2 must equal the brute-force enumerator
    # of the dual of the zero code (the full space)
    zero = code_from_generators([], field=F2, n=2, m=2)
    brute_dual = rank_weight_enumerator(dual_code(zero))
    expansion = q_power(x_plus_qm_minus_1_y(2), 2, 2).at(2)
    ok &= tuple(brute_dual.coeffs) == expansion == (1, 9, 6)
    _report(capsys, 6, "pinned golden values reproduced by independent brute-force oracles", ok)


def test_criterion_7_performance(capsys, corpus_3x2_f2):
    start = time.monotonic()
    ok = all(all(r.passed for r in check_all(C)) for C in corpus_3x2_f2)
    elapsed = time.monotonic() - start
    start2 = time.monotonic()
    count = sum(1 for _ in enumerate_subspaces(6, gf_new(2)))
    lattice_elapsed = time.monotonic() - start2
    ok = ok and elapsed < 600 and count == 2825 and lattice_elapsed < 1.0
    _report(
        capsys,
        7,
        f"check_all over 2825 codes in {elapsed:.1f}s (limit 600s); "
        f"F_2^6 lattice enumerated in {lattice_elapsed:.3f}s (limit 1s)",
        ok,
    )
