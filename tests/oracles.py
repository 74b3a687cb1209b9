"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's linear-algebra paths: rank is
measured by counting the row span, subspace membership by span-size
comparison, and polynomials are expanded with a plain dict-based
multiplier.  Field arithmetic itself comes from the (separately,
exhaustively axiom-tested) FieldContext tables.
"""

from functools import lru_cache
from itertools import product

from qrank.delsarte import RankMetricCode
from qrank.identities import IdentityReport
from qrank.matspace import rref_rows
from qrank.qseries import HomogeneousMPoly, MultiPoly, g_poly, qpow
from qrank.subspaces import Subspace, enumerate_subspaces


def span_set(vectors, field):
    """The full set of F_q-linear combinations of the given vectors."""
    vecs = [tuple(v) for v in vectors]
    width = len(vecs[0]) if vecs else 0
    out = set()
    for coeffs in product(list(field.elements()), repeat=len(vecs)):
        acc = (0,) * width
        for c, v in zip(coeffs, vecs):
            if c:
                acc = tuple(field.add(a, field.mul(c, b)) for a, b in zip(acc, v))
        out.add(acc)
    return out


def oracle_dim(vectors, field):
    """log_q of the span size."""
    size = len(span_set(vectors, field))
    d = 0
    while field.q**d < size:
        d += 1
    assert field.q**d == size
    return d


def oracle_rank_matrix(rows, field):
    return oracle_dim(rows, field)


def oracle_codewords(basis_entries, field):
    """All combinations of the vectorized basis, as entry tuples."""
    width = len(basis_entries[0]) if basis_entries else 0
    if not basis_entries:
        return [()]
    return sorted(span_set(basis_entries, field))


def oracle_rank_distribution(basis_entries, n, m, field):
    counts = [0] * (n + 1)
    if not basis_entries:
        counts[0] = 1
        return counts
    for entries in span_set(basis_entries, field):
        # rank is transpose-invariant: span the rows or the columns, whichever are fewer
        vectors = [entries[i * m : (i + 1) * m] for i in range(n)] if n <= m else [entries[j::m] for j in range(m)]
        counts[oracle_rank_matrix(vectors, field)] += 1
    return counts


def in_span(vector, vectors, field):
    """Membership by span-size comparison."""
    base = span_set(vectors, field)
    return tuple(vector) in base


def oracle_perp_set(basis, n, field):
    """All vectors orthogonal to every basis vector, by full enumeration."""
    out = set()
    for vec in product(list(field.elements()), repeat=n):
        ok = True
        for b in basis:
            acc = 0
            for x, y in zip(vec, b):
                if x and y:
                    acc = field.add(acc, field.mul(x, y))
            if acc:
                ok = False
                break
        if ok:
            out.add(vec)
    return out


def oracle_rho(code, J):
    """rho(J) = dim C - dim C(J^perp), counting codewords whose columns
    all lie in J^perp."""
    field, n, m = code.field, code.n, code.m
    perp_span = oracle_perp_set(J.basis, n, field)
    count = 0
    basis_entries = code.space.basis
    words = span_set(basis_entries, field) if basis_entries else {(0,) * (n * m)}
    for entries in words:
        cols = [tuple(entries[i * m + j] for i in range(n)) for j in range(m)]
        if all(c in perp_span for c in cols):
            count += 1
    d = 0
    while field.q**d < count:
        d += 1
    assert field.q**d == count
    return code.k - d


@lru_cache(maxsize=None)
def _perp_bases(n, field):
    return [S.perp().basis for S in enumerate_subspaces(n, field)]


def oracle_restriction_dims(C):
    """dim C(S) for every subspace S in lattice order, by one row reduction
    per S: C(S) is the kernel on C of M -> H M, where the rows h of H are
    the RREF basis of S^perp (from `Subspace.perp`, not the lattice).  So
    dim C(S) = k - rank of the k x m(n - dim S) matrix whose row b
    concatenates h B_b over the rows h of H."""
    field, n, m, k = C.field, C.n, C.m, C.k
    dims = []
    for H in _perp_bases(n, field):
        rows = []
        for B in C.space.basis:
            row = []
            for h in H:
                for j in range(m):
                    acc = 0
                    for i in range(n):
                        acc = field.add(acc, field.mul(h[i], B[i * m + j]))
                    row.append(acc)
            rows.append(row)
        rank = len(rref_rows(rows, m * len(H), field)[0]) if H and k else 0
        dims.append(k - rank)
    return dims


def mat_basis(J, m):
    """RREF basis of Mat(J) = {M : col(M) subseteq J} in F_q^{nm}: each basis
    row of J placed in each of the m columns, ordered by (row, column)."""
    n = J.n
    return [
        tuple(v[i] if j == c else 0 for i in range(n) for j in range(m))
        for v in J.basis
        for c in range(m)
    ]


def oracle_restrict(C, J):
    """C(J) = C cap Mat(J), intersected in F_q^{nm} through
    `Subspace.intersect`, (C^perp + Mat(J)^perp)^perp."""
    mat_J = Subspace(C.field, C.n * C.m, mat_basis(J, C.m))
    return RankMetricCode(C.space.intersect(mat_J), C.n, C.m)


def oracle_axioms(P) -> list:
    """Exhaustive check of (R1), (R2), (R3) and the rank-difference
    inequality over all |L|^2 pairs of subspaces, through the lattice's
    join, meet and containment tables: one line
    "{axiom} violated at {where}: {detail}" per violation."""
    lat, r, ranks = P.lattice, P.r, P.ranks
    report = []
    keys = [key or "0" for key in lat.keys]
    for i in range(len(lat)):
        if not 0 <= ranks[i] <= r * lat.dims[i]:
            report.append(f"R1 violated at {keys[i]}: rho={ranks[i]} not in [0, {r * lat.dims[i]}]")
    for i, below in enumerate(lat.below):
        for j in below:
            # S_j subseteq S_i
            if ranks[j] > ranks[i]:
                report.append(f"R2 violated at {keys[j]} <= {keys[i]}: rho={ranks[j]} > rho={ranks[i]}")
            if ranks[i] - ranks[j] > r * (lat.dims[i] - lat.dims[j]):
                report.append(f"rank-difference violated at {keys[j]} <= {keys[i]}: gap {ranks[i] - ranks[j]}")
    join, meet = lat.join, lat.meet
    for i in range(len(lat)):
        for j in range(i, len(lat)):
            if ranks[join[i][j]] + ranks[meet[i][j]] > ranks[i] + ranks[j]:
                report.append(f"R3 violated at {keys[i]}, {keys[j]}: rho(A+B)+rho(A^B) > rho(A)+rho(B)")
    return report


def oracle_axiom_lines(P) -> list:
    """The lines `qpolymatroid.verify_axioms` prints, with R3 regrouped over
    every cover of every Y: R1 at each subspace, then R2 and the
    rank-difference bound on each cover pair A < Y, then R3 on each
    length-2 interval [X, Y] from its two smallest-ranked intermediates,
    each in lattice order.  `verify_axioms` regroups only the rank-dropping
    covers of a Y with no R2 failure below them; its lines equal these."""
    lat, r, ranks = P.lattice, P.r, P.ranks
    keys = [key or "0" for key in lat.keys]
    r1 = [
        f"R1 violated at {keys[i]}: rho={ranks[i]} not in [0, {r * d}]"
        for i, d in enumerate(lat.dims)
        if not 0 <= ranks[i] <= r * d
    ]
    r2, r3 = [], []
    for y, lower in enumerate(lat.covers):
        for a in lower:
            if ranks[a] > ranks[y]:
                r2.append(f"R2 violated at {keys[a]} <= {keys[y]}: rho({keys[a]})={ranks[a]} > rho({keys[y]})={ranks[y]}")
            if ranks[y] - ranks[a] > r:
                r2.append(
                    f"rank-difference violated at {keys[a]} <= {keys[y]}: "
                    f"rho gap {ranks[y] - ranks[a]} exceeds r*dim gap {r}"
                )
        # the covers in ascending rank, ties in lattice order
        inside = {}
        for a in sorted(lower, key=lambda a: ranks[a]):
            for x in lat.covers[a]:
                inside.setdefault(x, []).append(a)
        for x, group in inside.items():
            if len(group) < 2:
                continue
            a, b = group[:2]
            if ranks[x] + ranks[y] > ranks[a] + ranks[b]:
                r3.append(
                    f"R3 violated at {keys[x]} < {keys[a]}, {keys[b]} < {keys[y]}: "
                    f"rho(X)+rho(Y)={ranks[x] + ranks[y]} > rho(A)+rho(B)={ranks[a] + ranks[b]}"
                )
    return r1 + r2 + r3


# -- plain dict-based polynomial helpers (independent of MultiPoly) -----


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def oracle_poly_str(terms) -> str:
    """Signed text of (coefficient, ((variable, exponent), ...)) terms,
    factor lists built term by term: zero terms and zero exponents drop
    out, a unit coefficient shows only on a constant, and an exponent
    shows only above 1 or below 0.  The reference for the cached printer
    behind str() of `HomogeneousPoly` and `MultiPoly`."""
    out = []
    for c, powers in terms:
        if c == 0:
            continue
        factors = [v if e == 1 else f"{v}^{e}" for v, e in powers if e != 0]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if out:
            out.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out) or "0"


def qm_y(q: int) -> HomogeneousMPoly:
    """The polynomial q^m y, coefficient a function of m."""
    return HomogeneousMPoly(1, lambda m: (0, qpow(q, m)))


def oracle_g_poly(q: int, l: int) -> dict:
    """prod_{i<l} (X3 - q^i X4) as a 4-exponent dict."""
    acc = {(0, 0, 0, 0): 1}
    for i in range(l):
        acc = poly_mul(acc, {(0, 0, 1, 0): 1, (0, 0, 0, 1): -(q**i)})
    return acc


def oracle_code_rgf(code, subspace_list, hatted=False) -> dict:
    """Rank generating function assembled from oracle_rho and the plain
    polynomial helpers."""
    q, r = code.field.q, code.m
    full = max(subspace_list, key=lambda S: S.dim)
    rho_top = oracle_rho(code, full)
    out = {}
    for D in subspace_list:
        rho = oracle_rho(code, D)
        l = (code.n - D.dim) if hatted else D.dim
        mono = {(rho_top - rho, r * D.dim - rho, 0, 0): 1}
        out = poly_add(out, poly_mul(mono, oracle_g_poly(q, l)))
    return out


def oracle_rgf(P, hatted=False) -> MultiPoly:
    """R_P (or its hatted variant) term by term from its definition: for
    each subspace D, X1^{rho(E)-rho(D)} X2^{r dim D - rho(D)} g^l(X3, X4),
    l = dim D (or dim D^perp), added into one MultiPoly by `add_term`."""
    lat, r, ranks = P.lattice, P.r, P.ranks
    top = P.rho_full()
    out = MultiPoly()
    for i in range(len(lat)):
        d = lat.dims[i]
        l = lat.dims[lat.perp[i]] if hatted else d
        for u, c in enumerate(g_poly(P.field.q, l)):
            out.add_term((top - ranks[i], r * d - ranks[i], l - u, u), c)
    return out


def oracle_rgf_duality(a) -> IdentityReport:
    """The rgf-duality report of a `CodeAnalysis` by polynomial comparison:
    R_{P*}, P* = P_{C^perp} from its own sweep, against R-hat_{P_C} with X1
    and X2 swapped, each expanded term by term (`oracle_rgf`), compared,
    printed and witnessed as MultiPolys."""
    lhs = oracle_rgf(a.polymatroid_of_dual)
    rhs = oracle_rgf(a.polymatroid, hatted=True).swap_x1_x2()
    text, passed = str(lhs), lhs == rhs
    witness = None if passed else "exponents {}: coefficient differs by {}".format(*(lhs - rhs).sorted_terms()[0])
    return IdentityReport("rgf-duality", a._params, text, text if passed else str(rhs), passed, witness)
