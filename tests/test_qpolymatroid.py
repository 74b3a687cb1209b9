import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qrank import (
    MatrixFq,
    QPolymatroid,
    Subspace,
    code_from_generators,
    dual_code,
    from_code,
    gf_new,
    random_code,
    rank_generating_function,
    verify_axioms,
)
import qrank.qpolymatroid
from qrank.errors import AmbientMismatch
from qrank.qpolymatroid import restriction_dims, rgf_counts, rgf_poly
from qrank.qseries import MultiPoly
from qrank.subspaces import SubspaceLattice, lattice

from oracles import oracle_axiom_lines, oracle_axioms, oracle_code_rgf, oracle_restriction_dims, oracle_rgf, oracle_rho
from test_delsarte import PROPERTY_FIELDS, SHAPES, _codes

F2 = gf_new(2)
F3 = gf_new(3)
F4 = gf_new(2, 2)


def free_polymatroid(n, r, field):
    lat = lattice(n, field)
    return QPolymatroid(lat, r, [r * d for d in lat.dims])


def zero_polymatroid(n, r, field):
    lat = lattice(n, field)
    return QPolymatroid(lat, r, [0] * len(lat))


def test_from_code_zero(zero_2x2_f2):
    P = from_code(zero_2x2_f2)
    assert P.r == 2
    assert all(r == 0 for r in P.ranks)


def test_from_code_full(full_2x2_f2):
    P = from_code(full_2x2_f2)
    assert P.ranks == tuple(2 * d for d in P.lattice.dims)
    assert P.rho_full() == full_2x2_f2.k


def test_from_code_e11(e11_2x2_f2):
    P = from_code(e11_2x2_f2)
    assert P.rho(Subspace.span([(1, 0)], 2, F2)) == 1


def test_from_code_matches_brute_rho(corpus_2x2_f2):
    for C in corpus_2x2_f2[::7]:
        P = from_code(C)
        for S in P.lattice.subspaces:
            assert P.rho(S) == oracle_rho(C, S)


def test_a_rank_table_must_cover_the_lattice():
    with pytest.raises(ValueError, match="cover the whole lattice"):
        QPolymatroid(lattice(2, F2), 2, [0, 1])


def test_verify_axioms_free():
    assert verify_axioms(free_polymatroid(2, 3, F2)) == []


def test_verify_axioms_r1_violation():
    lat = lattice(2, F2)
    ranks = [0] * len(lat)
    ranks[0] = 1  # S_0 is the zero subspace
    report = verify_axioms(QPolymatroid(lat, 1, ranks))
    assert report[0] == "R1 violated at 0: rho=1 not in [0, 0]"


def test_verify_axioms_r2_violation():
    lat = lattice(2, F2)
    # rho = 1 on the zero-set... construct monotonicity break: line has 1, full has 0
    ranks = [0] * len(lat)
    for i, d in enumerate(lat.dims):
        if d == 1:
            ranks[i] = 1
    report = verify_axioms(QPolymatroid(lat, 1, ranks))
    assert any(line.startswith("R2 violated at ") for line in report)


def test_verify_axioms_r3_names_the_two_smallest_intermediates():
    lat = lattice(2, F2)
    # rho(0) + rho(F_2^2) = 1 > 0 = rho(<0,1>) + rho(<1,0>); the line <1,1> has rank 1
    ranks = [0, 0, 0, 1, 1]
    report = verify_axioms(QPolymatroid(lat, 1, ranks))
    assert report == ["R3 violated at 0 < 0,1, 1,0 < 1,0;0,1: rho(X)+rho(Y)=1 > rho(A)+rho(B)=0"]


def test_a_passing_axiom_check_builds_no_keys():
    # a fresh lattice, not the cached one other tests have read keys from
    lat = SubspaceLattice(3, F2)
    C = random_code(3, 2, F2, 3, random.Random(19))
    assert verify_axioms(QPolymatroid(lat, 2, from_code(C).ranks)) == []
    assert "keys" not in lat.__dict__
    ranks = [0] * len(lat)
    ranks[0] = 1  # S_0 is the zero subspace
    assert verify_axioms(QPolymatroid(lat, 2, ranks))[0] == "R1 violated at 0: rho=1 not in [0, 0]"
    assert "keys" in lat.__dict__


def _violated(report):
    return {line.split(" violated at ")[0] for line in report}


def test_local_axioms_match_the_exhaustive_oracle_on_corpora(corpus_2x2_f2, corpus_2x2_f3, corpus_3x2_f2):
    for C in corpus_2x2_f2 + corpus_2x2_f3 + corpus_3x2_f2:
        P = from_code(C)
        for X in (P, P.dual()):
            assert _violated(verify_axioms(X)) == _violated(oracle_axioms(X)), C


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3)])
def test_local_axioms_match_the_exhaustive_oracle_on_perturbed_tables(q, n):
    # P_C or P_C^* of a random code, with 0-2 of its ranks moved by 1
    field, rng = gf_new(q), random.Random(f"perturbed/{q}/{n}")
    lat = lattice(n, field)
    seen = []
    for _ in range(60):
        m = rng.choice([1, 2])
        P = from_code(random_code(n, m, field, rng.randrange(n * m + 1), rng))
        ranks = list(P.dual().ranks if rng.random() < 0.5 else P.ranks)
        for _ in range(rng.randint(0, 2)):
            ranks[rng.randrange(len(ranks))] += rng.choice([-1, 1])
        Q = QPolymatroid(lat, m, ranks)
        violated = _violated(verify_axioms(Q))
        assert violated == _violated(oracle_axioms(Q)), ranks
        seen.append(violated)
    assert set().union(*seen) == {"R1", "R2", "rank-difference", "R3"}
    assert set() in seen


def _r3_over_one_dropping_cover(P):
    """(ranks, x, y): P's ranks with rho(X) raised so that R3 fails on a
    length-2 interval [X, Y] where at most one intermediate has rank below
    rho(Y) while two or more covers of Y do; None if P has no such
    interval.  P must satisfy R2, so the raise also breaks R2 under a cover
    of Y, the one case where the R3 pass must regroup every cover."""
    covers, ranks = P.lattice.covers, P.ranks
    for y, lower in enumerate(covers):
        dropping = {a for a in lower if ranks[a] < ranks[y]}
        if len(dropping) < 2:
            continue
        inside = {}
        for a in lower:
            for x in covers[a]:
                inside.setdefault(x, []).append(a)
        for x, group in inside.items():
            low = dropping.intersection(group)
            if len(low) <= 1:
                out = list(ranks)
                # R2 makes the other intermediates rank rho(Y), so the two
                # smallest sum to at most 2 rho(Y) - 1 with one dropping, 2 rho(Y)
                # with none: both below rho(X) + rho(Y)
                out[x] = ranks[y] + (not low)
                return out, x, y
    return None


def _perturbed_tables(field, n, m):
    """Seeded rank tables on the lattice of F_q^n with r = m: P_C or P_C^*
    of random codes, 12 with 0-3 ranks moved by 1 or 2, then 3 with R3
    broken over at most one rank-dropping cover
    (`_r3_over_one_dropping_cover`).  Yields (QPolymatroid, (x, y) of the
    broken interval or None)."""
    rng = random.Random(f"perturbed/{field.q}/{n}/{m}")
    lat = lattice(n, field)

    def draw():
        P = from_code(random_code(n, m, field, rng.randrange(n * m + 1), rng))
        return P.dual() if rng.random() < 0.5 else P

    for _ in range(12):
        ranks = list(draw().ranks)
        for _ in range(rng.randint(0, 3)):
            ranks[rng.randrange(len(ranks))] += rng.choice([-2, -1, 1, 2])
        yield QPolymatroid(lat, m, ranks), None
    broken = 0
    while broken < 3:
        forced = _r3_over_one_dropping_cover(draw())
        if forced:
            broken += 1
            yield QPolymatroid(lat, m, forced[0]), forced[1:]


# sha256 of the verify_axioms lines of each shape's `_perturbed_tables`,
# one table's lines joined by "\n" and the tables by "\n\n", recorded
# before the R3 pass regrouped only rank-dropping covers
PERTURBED_LINES = {
    (2, 4, 3): "c0be63e0abda659f78110708b9d4da3b4bbabed6140d484e33d0cc9504070e08",
    (2, 4, 5): "2d609b74d5999b1da6ad3f50a4038e65f8a7ad7b0d261de0fa937ea274e55c8c",
    (3, 4, 3): "8c252a28447fa35a9bb1560c14519f87dd52a363d08563a99bffc2c56f2abd9a",
    (3, 4, 5): "d0eaa7e35f90e253a4f5a472f46f1e8e1272511539563373004a091559822c64",
    (4, 4, 3): "16810b613560d730ed002cf9a62a6bb85637940f11ee5e005072ac65e4e6fa81",
    (4, 4, 5): "9486148dcd29e75ddeeb07ee853e445ab4b92a9d8bb252dac9d993a3ed58b052",
    (5, 3, 2): "0f2480f8c54f865e6c2823077007c8c1b2cdfdc04e0c187d1141b68f2fd9c379",
    (5, 3, 4): "797168604af63a1849c04c0fb59f7b0b940b85f02ddbf8a62db8d0525f8d47b8",
    (7, 3, 2): "f8e62d27d89e00d2d8e616797c94144a9c38100a90dff4a065daef39d138da0b",
    (7, 3, 4): "c7fb43972e8be47e054245edec9d015e4f52c6d70a529ee892d14b132deafa4a",
    (8, 3, 2): "2757f11e2d9349a7806e8e734225bb6ec333163305f13e92c3c47e6ee8554683",
    (8, 3, 4): "89a702373c2ad2e738ff70ed7f020e866105ad32a70c09c3ca6d9ce73d9af316",
    (9, 3, 2): "6aec2217564bbc8da5fdafde89361effb6c3e9453c319461f44e261d5f282a49",
    (9, 3, 4): "50e78fb5fa488ddd11bbf72b4241d39cd593f5e8788800952e7f383311fcad31",
}


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=lambda field: f"q{field.q}")
@pytest.mark.parametrize("above", [False, True], ids=["n<m", "n>m"])
def test_local_axioms_give_pinned_lines_on_perturbed_tables(field, above):
    n = 4 if field.q <= 4 else 3
    m = n - 1 if above else n + 1
    reports = []
    for Q, interval in _perturbed_tables(field, n, m):
        report = verify_axioms(Q)
        reports.append("\n".join(report))
        if len(Q.lattice) <= 250:
            assert _violated(report) == _violated(oracle_axioms(Q)), Q.ranks
        if interval:
            x, y = (Q.lattice.keys[i] or "0" for i in interval)
            assert any(line.startswith(f"R3 violated at {x} < ") and f" < {y}: " in line for line in report)
    digest = hashlib.sha256("\n\n".join(reports).encode()).hexdigest()
    assert digest == PERTURBED_LINES[field.q, n, m]


@settings(max_examples=80, deadline=None)
@given(_codes([(2, 3), (3, 4), (3, 2), (3, 1)]), st.data())
def test_local_axioms_print_the_lines_of_the_regroup_over_every_cover(C, data):
    # P_C, P_C^*, either with 0-3 ranks moved by 1 or 2, and either with R3
    # broken over at most one rank-dropping cover: the same lines, in order
    P = from_code(C)
    lat = P.lattice
    X = P.dual() if data.draw(st.booleans(), label="dual") else P
    moves = data.draw(st.lists(st.tuples(st.integers(0, len(lat) - 1), st.sampled_from([-2, -1, 1, 2])), max_size=3))
    ranks = list(X.ranks)
    for i, delta in moves:
        ranks[i] += delta
    tables = [P, P.dual(), QPolymatroid(lat, X.r, ranks)]
    forced = _r3_over_one_dropping_cover(X)
    if forced:
        tables.append(QPolymatroid(lat, X.r, forced[0]))
    for Y in tables:
        assert verify_axioms(Y) == oracle_axiom_lines(Y), (C, Y.ranks)


def test_all_codes_give_polymatroids(corpus_2x2_f2):
    for C in corpus_2x2_f2:
        assert verify_axioms(from_code(C)) == []


def test_dual_examples():
    free = free_polymatroid(2, 2, F2)
    assert free.dual().ranks == zero_polymatroid(2, 2, F2).ranks
    assert zero_polymatroid(2, 2, F2).dual().ranks == free.ranks


def test_dual_involution(corpus_2x2_f2):
    for C in corpus_2x2_f2:
        P = from_code(C)
        assert P.dual().dual() == P


def test_dual_closed_form(corpus_2x2_f2):
    # rho*(J) = m dim J - dim C(J), pointwise
    from qrank import restrict

    for C in corpus_2x2_f2[::5]:
        P = from_code(C)
        Pd = P.dual()
        for S in P.lattice.subspaces:
            assert Pd.rho(S) == C.m * S.dim - restrict(C, S).k


@pytest.mark.parametrize(
    "S", [Subspace.span([(1, 0, 0)], 3, F3), Subspace.span([(1, 0, 0, 0)], 4, F2)], ids=["F3^3", "F2^4"]
)
def test_rho_refuses_a_subspace_of_another_ambient_space(S):
    # <(1, 0, 0)> over F_3 has the basis tuple of a subspace of F_2^3
    P = from_code(random_code(3, 2, F2, 3, random.Random(1)))
    for lookup in (P.rho, P.lattice.index_of):
        with pytest.raises(AmbientMismatch, match="different ambient spaces"):
            lookup(S)


def test_rgf_zero_polymatroid_n1():
    P = zero_polymatroid(1, 1, F2)
    R = rank_generating_function(P)
    expected = MultiPoly({(0, 0, 0, 0): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): -1})
    assert R == expected


def test_rgf_full_code_pinned(full_2x2_f2):
    # oracle first: assemble from brute-force rho and plain poly ops
    lat = lattice(2, F2)
    oracle = oracle_code_rgf(full_2x2_f2, lat.subspaces)
    R = rank_generating_function(from_code(full_2x2_f2))
    assert dict(R.terms) == oracle
    # pinned: X1^4 + 3 X1^2 (X3 - X4) + (X3 - X4)(X3 - 2 X4)
    expected = MultiPoly(
        {
            (4, 0, 0, 0): 1,
            (2, 0, 1, 0): 3,
            (2, 0, 0, 1): -3,
            (0, 0, 2, 0): 1,
            (0, 0, 1, 1): -3,
            (0, 0, 0, 2): 2,
        }
    )
    assert R == expected


def test_rgf_hatted_full_code(full_2x2_f2):
    lat = lattice(2, F2)
    oracle = oracle_code_rgf(full_2x2_f2, lat.subspaces, hatted=True)
    R = rank_generating_function(from_code(full_2x2_f2), hatted=True)
    assert dict(R.terms) == oracle
    # X1^4 (X3-X4)(X3-2X4) + 3 X1^2 (X3-X4) + 1
    expected = MultiPoly(
        {
            (4, 0, 2, 0): 1,
            (4, 0, 1, 1): -3,
            (4, 0, 0, 2): 2,
            (2, 0, 1, 0): 3,
            (2, 0, 0, 1): -3,
            (0, 0, 0, 0): 1,
        }
    )
    assert R == expected


@settings(max_examples=80, deadline=None)
@given(_codes([(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]), st.data())
def test_rank_generating_function_matches_the_per_subspace_oracle(C, data):
    # P_C, P_C^* and a table of either with ranks moved, rho(0) among them:
    # counted per (e1, e2, l) against one add_term per subspace and term
    P = from_code(C)
    lat = P.lattice
    X = P.dual() if data.draw(st.booleans(), label="dual") else P
    moves = data.draw(st.lists(st.tuples(st.integers(0, len(lat) - 1), st.sampled_from([-2, -1, 1, 2])), max_size=3))
    ranks = list(X.ranks)
    for i, delta in [(0, data.draw(st.sampled_from([0, 1, -1]), label="rho(0)"))] + moves:
        ranks[i] += delta
    for Y in (P, P.dual(), QPolymatroid(lat, X.r, ranks)):
        # the count table, one count per subspace, expands to R, and read
        # with l as n - l to R-hat
        counts = rgf_counts(Y)
        assert sum(counts.values()) == len(lat), (C, Y.ranks)
        hatted_counts = {(e1, e2, C.n - l): count for (e1, e2, l), count in counts.items()}
        for hatted, table in ((False, counts), (True, hatted_counts)):
            R = oracle_rgf(Y, hatted)
            assert rgf_poly(C.field.q, table) == R == rank_generating_function(Y, hatted), (C, Y.ranks, hatted)


def test_f_and_g_structure(full_2x2_f2):
    from qrank.qseries import g_poly

    assert g_poly(2, 0) == (1,)
    for l in range(1, 5):
        assert len(g_poly(2, l)) == l + 1
    P = from_code(full_2x2_f2)
    R = rank_generating_function(P)
    # the D = 0 term contributes X1^{rho(E)}
    assert R.terms[(P.rho_full(), 0, 0, 0)] == 1


def test_rank_table_export(e11_2x2_f2):
    P = from_code(e11_2x2_f2)
    lines = P.rank_table_lines()
    assert lines[0] == '"": 0'
    assert len(lines) == 5
    table = P.rank_table()
    assert table["1,0;0,1"] == 1


# seeded shapes beyond test_delsarte.SHAPES: F_4, F_8 and F_9 with n < m
# and n > m, and the edge lattices of F_2^5 and F_3^4
SWEEP_SHAPES = SHAPES + [
    (2, 3, gf_new(2, 2)),
    (3, 2, gf_new(2, 3)),
    (3, 2, gf_new(3, 2)),
    (2, 3, gf_new(3, 2)),
    (5, 2, F2),
    (5, 3, F2),
    (4, 2, F3),
    (4, 3, F3),
]


def _assert_sweep_matches_oracle(C):
    for X in (C, dual_code(C)):
        assert restriction_dims(X) == oracle_restriction_dims(X), X


def test_restriction_sweep_matches_the_oracle_on_corpora(corpus_2x2_f2, corpus_2x2_f3, corpus_3x2_f2):
    for C in corpus_2x2_f2 + corpus_2x2_f3 + corpus_3x2_f2:
        _assert_sweep_matches_oracle(C)


@pytest.mark.parametrize("n,m,field", SWEEP_SHAPES, ids=lambda v: getattr(v, "q", v))
def test_restriction_sweep_matches_the_oracle_on_seeded_codes(n, m, field):
    rng = random.Random(f"sweep/{n}/{m}/{field.key}")
    for k in sorted(rng.sample(range(n * m + 1), min(6, n * m + 1))):
        _assert_sweep_matches_oracle(random_code(n, m, field, k, rng))


# `qrank random-code --q 2 --n 3 --m 30 --dim 70 --seed 1`: packed over
# F_2, each v_{h,j} of C is 70 bits wide, wider than a machine word
W70 = random_code(3, 30, F2, 70, random.Random(1))


@settings(max_examples=60, deadline=None)
@given(_codes([(2, 3), (3, 2), (2, 2)]))
@example(random_code(2, 3, F4, 0, random.Random(0)))
@example(random_code(3, 2, F3, 6, random.Random(0)))
@example(W70)
def test_restriction_sweep_matches_the_oracle_property(C):
    _assert_sweep_matches_oracle(C)


def _refuse_path(*args, **kwargs):
    raise AssertionError("the sweep reduced through the other field's extension")


def test_f2_sweep_reduces_packed_ints_only(monkeypatch):
    monkeypatch.setattr(qrank.qpolymatroid, "_extend", _refuse_path)
    rng = random.Random(21)
    for n, m, k in [(3, 2, 3), (2, 3, 4), (4, 3, 6), (3, 3, 9), (5, 2, 5), (1, 4, 2)]:
        _assert_sweep_matches_oracle(random_code(n, m, F2, k, rng))


def test_other_fields_sweep_through_the_flat_tables_only(monkeypatch):
    monkeypatch.setattr(qrank.qpolymatroid, "_extend_packed", _refuse_path)
    rng = random.Random(21)
    for n, m, field, k in [(3, 2, F3, 3), (2, 3, F3, 4), (4, 2, F3, 5), (3, 3, F4, 4), (2, 2, F4, 3), (3, 2, F4, 6)]:
        _assert_sweep_matches_oracle(random_code(n, m, field, k, rng))


def test_restriction_sweep_calls_no_rref_rows(monkeypatch):
    import qrank

    C = random_code(4, 3, F2, 6, random.Random(5))
    lattice(C.n, C.field)  # the lattice build may reduce rows; the sweep may not
    calls = []
    original = qrank.matspace.rref_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in vars(qrank).values():
        if getattr(module, "rref_rows", None) is original:
            monkeypatch.setattr(module, "rref_rows", counted)
    assert qrank.subspaces.rref_rows is counted
    dims = restriction_dims(C)
    assert calls == []
    assert dims == oracle_restriction_dims(C)
