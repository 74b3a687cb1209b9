"""(q,r)-polymatroids: rank tables over the full subspace lattice,
axiom verification, duality, and the four-variable rank generating
functions (plain and hatted)."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .delsarte import RankMetricCode
from .gf import FieldContext
from .matspace import rref_rows
from .qseries import MultiPoly, g_poly
from .subspaces import SubspaceLattice, lattice


class QPolymatroid:
    """Rank function on the whole lattice of subspaces of F_q^n."""

    __slots__ = ("lattice", "r", "ranks")

    def __init__(self, lat: SubspaceLattice, r: int, ranks):
        ranks = tuple(ranks)
        if len(ranks) != len(lat):
            raise ValueError("rank table must cover the whole lattice")
        self.lattice = lat
        self.r = r
        self.ranks = ranks

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def field(self) -> FieldContext:
        return self.lattice.field

    def rho(self, S) -> int:
        return self.ranks[self.lattice.index_of(S)]

    def rho_full(self) -> int:
        return self.ranks[self.lattice.full_index]

    def rank_table(self) -> dict:
        return {
            S.canonical_key(): r for S, r in zip(self.lattice.subspaces, self.ranks)
        }

    def rank_table_lines(self):
        return [f'"{S.canonical_key()}": {r}' for S, r in zip(self.lattice.subspaces, self.ranks)]

    def dual(self) -> "QPolymatroid":
        """rho*(J) = rho(J^perp) + r dim J - rho(E)."""
        lat, r = self.lattice, self.r
        top = self.rho_full()
        ranks = [
            self.ranks[lat.perp[i]] + r * lat.dims[i] - top for i in range(len(lat))
        ]
        return QPolymatroid(lat, r, ranks)

    def __eq__(self, other):
        return (
            isinstance(other, QPolymatroid)
            and self.r == other.r
            and self.lattice.n == other.lattice.n
            and self.lattice.field == other.lattice.field
            and self.ranks == other.ranks
        )

    def __repr__(self):
        return f"QPolymatroid(n={self.n}, q={self.field.q}, r={self.r})"


def restriction_dims(C: RankMetricCode):
    """dim C(S) for every lattice subspace S, aligned with lattice order.

    C(S) is the kernel on C of M -> H M, where the rows h of H are the RREF
    basis of S^perp.  So dim C(S) = k - rank of the k x m(n - dim S) matrix
    whose row b concatenates h B_b over the rows h of H, B_b being basis
    codeword b as an n x m matrix.  Each h B is computed once per sweep.
    """
    lat = lattice(C.n, C.field)
    m, k, field = C.m, C.k, C.field
    # h -> [h B_b for each basis codeword b], over every row h of an RREF
    # basis in the lattice (the bases of S^perp are those of all S)
    images = {
        h: [tuple(_dot(field, h, B[j::m]) for j in range(m)) for B in C.space.basis]
        for h in {h for S in lat.subspaces for h in S.basis}
    }
    dims = []
    for p in lat.perp:
        H = lat.subspaces[p].basis
        if not H or not k:
            dims.append(k)
            continue
        rows = [sum(parts, ()) for parts in zip(*(images[h] for h in H))]
        dims.append(k - len(rref_rows(rows, m * len(H), field)[0]))
    return dims


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def from_restriction_dims(C: RankMetricCode, dims) -> QPolymatroid:
    """P_C from the restriction table of C: rho(J) = dim C - dim C(J^perp);
    r = m."""
    lat = lattice(C.n, C.field)
    return QPolymatroid(lat, C.m, [C.k - dims[p] for p in lat.perp])


def from_code(C: RankMetricCode) -> QPolymatroid:
    """P_C, from one restriction sweep of C over the lattice."""
    return from_restriction_dims(C, restriction_dims(C))


@dataclass
class AxiomReport:
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, witness: str, detail: str):
        self.violations.append((axiom, witness, detail))

    def __str__(self):
        if self.ok:
            return "all axioms hold"
        return "\n".join(f"{a} violated at {w}: {d}" for a, w, d in self.violations)


def verify_axioms(P: QPolymatroid) -> AxiomReport:
    """Exhaustive check of (R1), (R2), (R3) and the rank-difference
    inequality rho(B) - rho(A) <= r (dim B - dim A) for A subseteq B."""
    lat, r, ranks = P.lattice, P.r, P.ranks
    report = AxiomReport()
    keys = [S.canonical_key() for S in lat.subspaces]
    for i, S in enumerate(lat.subspaces):
        if not 0 <= ranks[i] <= r * lat.dims[i]:
            report.add("R1", keys[i], f"rho={ranks[i]} not in [0, {r * lat.dims[i]}]")
    below = lat.below
    for i in range(len(lat)):
        for j in below[i]:
            if j == i:
                continue
            # S_j subseteq S_i
            if ranks[j] > ranks[i]:
                report.add("R2", f"{keys[j]} <= {keys[i]}", f"rho({keys[j]})={ranks[j]} > rho({keys[i]})={ranks[i]}")
            if ranks[i] - ranks[j] > r * (lat.dims[i] - lat.dims[j]):
                report.add(
                    "rank-difference",
                    f"{keys[j]} <= {keys[i]}",
                    f"rho gap {ranks[i] - ranks[j]} exceeds r*dim gap {r * (lat.dims[i] - lat.dims[j])}",
                )
    join, meet = lat.join, lat.meet
    for i in range(len(lat)):
        for j in range(i, len(lat)):
            if ranks[join[i][j]] + ranks[meet[i][j]] > ranks[i] + ranks[j]:
                report.add(
                    "R3",
                    f"{keys[i]}, {keys[j]}",
                    f"rho(A+B)+rho(A^B)={ranks[join[i][j]] + ranks[meet[i][j]]} > rho(A)+rho(B)={ranks[i] + ranks[j]}",
                )
    return report


def rank_generating_function(P: QPolymatroid, hatted: bool = False) -> MultiPoly:
    """R_P (or the hatted variant) as an exact 4-variable polynomial:
    sum over D of X1^{rho(E)-rho(D)} X2^{r dim D - rho(D)} g^l(X3, X4)
    with l = dim D (plain) or dim D^perp (hatted)."""
    lat, r, ranks = P.lattice, P.r, P.ranks
    q = P.field.q
    top = P.rho_full()
    out = MultiPoly()
    for i in range(len(lat)):
        d = lat.dims[i]
        e1 = top - ranks[i]
        e2 = r * d - ranks[i]
        l = lat.dims[lat.perp[i]] if hatted else d
        for u, c in enumerate(g_poly(q, l)):
            if c:
                out.add_term((e1, e2, l - u, u), c)
    return out
