"""(q,r)-polymatroids: rank tables over the full subspace lattice,
axiom verification, duality, and the four-variable rank generating
functions (plain and hatted), counted per (e1, e2, l)."""

from __future__ import annotations

from .delsarte import RankMetricCode, _column_images
from .errors import InvalidValue
from .gf import FieldContext, Value
from .qseries import MultiPoly, g_poly
from .subspaces import SubspaceLattice, lattice


class QPolymatroid(Value):
    """Rank function on the whole lattice of subspaces of F_q^n."""

    __slots__ = ("lattice", "r", "ranks")
    __hash__ = None

    def __init__(self, lat: SubspaceLattice, r: int, ranks):
        ranks = tuple(ranks)
        if len(ranks) != len(lat):
            raise InvalidValue("rank table must cover the whole lattice")
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
        return dict(zip(self.lattice.keys, self.ranks))

    def rank_table_lines(self):
        return [f'"{key}": {r}' for key, r in zip(self.lattice.keys, self.ranks)]

    def __str__(self):
        """The rank table on one line, as a dual-polymatroid report prints it."""
        return "; ".join(self.rank_table_lines())

    def dual(self) -> "QPolymatroid":
        """rho*(J) = rho(J^perp) + r dim J - rho(E)."""
        lat, r = self.lattice, self.r
        top = self.rho_full()
        ranks = [
            self.ranks[lat.perp[i]] + r * lat.dims[i] - top for i in range(len(lat))
        ]
        return QPolymatroid(lat, r, ranks)

    def _key(self):
        return (self.r, self.lattice.n, self.lattice.field, self.ranks)

    def __repr__(self):
        return f"QPolymatroid(n={self.n}, q={self.field.q}, r={self.r})"


def from_code(C: RankMetricCode) -> QPolymatroid:
    """P_C, the (q, m)-polymatroid rho_C(T) = dim C - dim C(T^perp), from
    one sweep of the lattice.

    With v_{h,j} and W(T) as in `delsarte`, dim C(S) = k - dim W(S^perp),
    so rho_C(T) = dim W(T).

    h -> v_{h,j} is linear, so W(T) = W(T') + <v_{h0,j} : j < m>, where h0
    is the first RREF row of T and T' is the span of the other rows: an
    RREF basis one dimension down in the lattice.  The lattice's plan
    (`SubspaceLattice.plan`) names T' and the point <h0> of every T, so
    the sweep walks the lattice by dimension and extends the echelon basis
    of W(T') by the m vectors of h0, held in a list indexed by point and
    computed once per code, keeping only the previous dimension's
    echelons.  Over F_2 each v_{h,j} is one k-bit int, bit b being entry j
    of h B_b: the XOR, over the support of h, of the column bits of the
    basis, which are packed once per code.  An echelon row is then a
    (pivot, int) pair and a reduction step one XOR (`_extend_packed`).
    Every other field reduces entry lists through its flat tables
    (`_extend`).
    """
    lat = lattice(C.n, C.field)
    m, k, n = C.m, C.k, C.n
    q = C.field.q
    ranks = [0] * len(lat)  # dim W(T)
    if not k:
        return QPolymatroid(lat, m, ranks)
    basis = C.space.basis
    if q == 2:
        # bits[e]: bit b set iff entry e of B_b is 1
        bits = [0] * (n * m)
        for B in reversed(basis):
            bits = [c << 1 | e for c, e in zip(bits, B)]
        # rows[i]: the m column bits of entry n - 1 - i.  The point at
        # lattice index t spells t in binary, entry 0 first, so its images
        # are those of t & (t - 1) XOR the row of t's lowest set bit
        rows = [bits[i * m : i * m + m] for i in reversed(range(n))]
        images = [[0] * m]
        for t in range(1, 1 << n):
            images.append([a ^ b for a, b in zip(images[t & t - 1], rows[(t & -t).bit_length() - 1])])
        extend, args = _extend_packed, (k,)
    else:
        add, mul, neg, inv = C.field.tables
        # column j of each basis codeword, as entries of F_q^n
        columns = [[B[j::m] for B in basis] for j in range(m)]
        # images[t]: the m vectors of the point at lattice index t >= 1
        images = [None]
        for S in lat.subspaces[1 : 1 + (q**n - 1) // (q - 1)]:
            support = [(i, c * q) for i, c in enumerate(S.basis[0]) if c]
            images.append(_column_images(support, columns, q, add, mul))
        extend, args = _extend, (k, q, add, mul, neg, inv)
    (parents, points), dims = lat.plan, lat.dims
    previous, current, d = {0: ()}, {}, 1
    for t in range(1, len(lat)):
        if dims[t] != d:
            previous, current, d = current, {}, dims[t]
        echelon = previous[parents[t]]
        if len(echelon) < k:
            echelon = extend(echelon, images[points[t]], *args)
        current[t] = echelon
        ranks[t] = len(echelon)
    return QPolymatroid(lat, m, ranks)


def restriction_dims(C: RankMetricCode):
    """dim C(S) = k - rho_C(S^perp) for every lattice subspace S, aligned
    with lattice order."""
    P = from_code(C)
    return [C.k - P.ranks[p] for p in P.lattice.perp]


def _extend(echelon, vectors, k, q, add, mul, neg, inv):
    """The echelon basis of W + <vectors>, W given by its echelon basis:
    (pivot, row) pairs, each row 1 at its pivot and 0 at the pivots before
    it.  Reducing a vector by the rows in order clears every pivot."""
    out = list(echelon)
    for v in vectors:
        for p, row in out:
            c = v[p]
            if c:
                f = neg[c] * q
                v = [add[a * q + mul[f + b]] for a, b in zip(v, row)]
        for p, c in enumerate(v):
            if c:
                if c != 1:
                    f = inv[c] * q
                    v = [mul[f + b] for b in v]
                out.append((p, v))
                break
        if len(out) == k:
            break
    return out


def _extend_packed(echelon, vectors, k):
    """`_extend` over F_2, each vector a k-bit int and each row a (pivot,
    int) pair, the pivot being the row's lowest set bit: a row is clear
    at the pivots before it."""
    out = list(echelon)
    for v in vectors:
        for pivot, row in out:
            if v & pivot:
                v ^= row
        if v:
            out.append((v & -v, v))
            if len(out) == k:
                break
    return out


def verify_axioms(P: QPolymatroid) -> list:
    """Check (R1), (R2), (R3) and the rank-difference inequality
    rho(B) - rho(A) <= r (dim B - dim A) for A subseteq B, on the lattice's
    covers and length-2 intervals only.  Returns one line
    "{axiom} violated at {where}: {detail}" per violation, the zero
    subspace named 0: the R1 lines, then the R2 and rank-difference lines,
    then the R3 lines, each in lattice order.  The list is empty when every
    axiom holds, and the lattice's keys are then never built.

    The subspace lattice is modular.  So R2 and the rank-difference bound
    hold for all A <= B iff they hold on cover pairs, by telescoping along
    a maximal chain; and R3 holds for all A, B iff it holds on each
    interval [X, Y] with dim Y = dim X + 2, by induction on the distances
    of A and B to A ^ B.  Any two of the q + 1 subspaces strictly inside
    such an interval meet in X and join to Y, so R3 there reads
    rho(X) + rho(Y) <= the sum of their two smallest ranks.

    One walk of the lattice, in lattice order, checks all of it.  At each
    Y it checks R1, then each cover A < Y by one gap rho(Y) - rho(A), then
    regroups the intervals [X, Y] from the covers of Y in ascending rank:
    all of them once any R2 line exists, else the first ones, those with
    rho(A) < rho(Y).  The pruned regroup loses no line.  Let A, B be the
    two smallest, rho(A) <= rho(B).  If rho(B) >= rho(Y), R2 on X < A gives
    rho(A) + rho(B) >= rho(X) + rho(Y); so R3 fails at such an X only where
    R2 fails at X < A, a line written when A, one dimension down, was
    visited.
    """
    lat, r, ranks, dims = P.lattice, P.r, P.ranks, P.lattice.dims
    covers = lat.covers

    def key(i):
        # the lattice's keys are built only once a line needs one
        return lat.keys[i] or "0"

    r1, r2, r3 = [], [], []
    for y, lower in enumerate(covers):
        rho_y = ranks[y]
        if not 0 <= rho_y <= r * dims[y]:
            r1.append(f"R1 violated at {key(y)}: rho={rho_y} not in [0, {r * dims[y]}]")
        for a in lower:
            gap = rho_y - ranks[a]
            if gap < 0:
                r2.append(f"R2 violated at {key(a)} <= {key(y)}: rho({key(a)})={ranks[a]} > rho({key(y)})={rho_y}")
            if gap > r:
                r2.append(f"rank-difference violated at {key(a)} <= {key(y)}: rho gap {gap} exceeds r*dim gap {r}")
        meet = lower if r2 else [a for a in lower if ranks[a] < rho_y]
        if len(meet) < 2:
            continue
        # the intermediates of each [X, Y], met in ascending rank, so the
        # first two are the two smallest
        inside = {}
        for a in sorted(meet, key=ranks.__getitem__):
            for x in covers[a]:
                inside.setdefault(x, []).append(a)
        for x, group in inside.items():
            if len(group) > 1:
                a, b = group[0], group[1]
                if ranks[x] + rho_y > ranks[a] + ranks[b]:
                    r3.append(
                        f"R3 violated at {key(x)} < {key(a)}, {key(b)} < {key(y)}: "
                        f"rho(X)+rho(Y)={ranks[x] + rho_y} > rho(A)+rho(B)={ranks[a] + ranks[b]}"
                    )
    return r1 + r2 + r3


def rgf_counts(P: QPolymatroid) -> dict:
    """The count table of R_P: N(e1, e2, l), the number of subspaces D
    with e1 = rho(E) - rho(D), e2 = r dim D - rho(D) and l = dim D, keyed
    in the lattice order of each triple's first subspace.  R_P depends on
    P only through this table (`rgf_poly`), and the hatted R-hat_P's is
    the same table with l read as dim D^perp = n - l."""
    r, ranks = P.r, P.ranks
    top = P.rho_full()
    counts = {}
    for rank, d in zip(ranks, P.lattice.dims):
        triple = top - rank, r * d - rank, d
        counts[triple] = counts.get(triple, 0) + 1
    return counts


def rgf_poly(q: int, counts: dict) -> MultiPoly:
    """sum N X1^e1 X2^e2 g^l(X3, X4) over a count table {(e1, e2, l): N}.

    Terms of distinct triples never meet, as l = e3 + e4, and no
    coefficient c_u = (-1)^u q^C(u,2) [l, u]_q of g^l is zero; so each
    triple's l + 1 terms are its own, and two tables give the same
    polynomial iff they are equal."""
    out = MultiPoly()
    for (e1, e2, l), count in counts.items():
        for u, c in enumerate(g_poly(q, l)):
            out.terms[e1, e2, l - u, u] = count * c
    return out


def rank_generating_function(P: QPolymatroid, hatted: bool = False) -> MultiPoly:
    """R_P (or the hatted variant) as an exact 4-variable polynomial:
    sum over D of X1^{rho(E)-rho(D)} X2^{r dim D - rho(D)} g^l(X3, X4)
    with l = dim D (plain) or dim D^perp (hatted), expanded from its
    count table (`rgf_counts`), relabeled l -> n - l if hatted."""
    counts = rgf_counts(P)
    if hatted:
        counts = {(e1, e2, P.n - l): count for (e1, e2, l), count in counts.items()}
    return rgf_poly(P.field.q, counts)
