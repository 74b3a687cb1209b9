"""Outside-in tracer for qrank: wraps public functions from the benchmark's
side, leaving `src/qrank` untouched.

A wrapped function is rebound in its defining module and in every
`qrank.*` module that imported it (`from .delsarte import restrict` makes a
second binding that patching `qrank.delsarte` alone would miss). Methods
and properties are replaced on their class, so every caller sees them.

Each wrapped call is a span. Spans are aggregated in memory per name
(calls, inclusive seconds, self seconds); a span's self time is its
duration minus the time covered by its child spans. Field arithmetic is
too hot for spans: `FieldContext` operations are only counted.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path, span name); the span name is "<module>.<name>".
SPANS = [
    ("matspace", "rref_rows", "rref_rows"),
    ("matspace", "kernel_basis", "kernel_basis"),
    ("matspace", "rref_decompose", "rref_decompose"),
    ("matspace", "rank", "rank"),
    ("matspace", "kernel", "kernel"),
    ("matspace", "column_space", "column_space"),
    ("matspace", "trace_product", "trace_product"),
    ("subspaces", "Subspace.span", "span"),
    ("subspaces", "Subspace.sum", "sum"),
    ("subspaces", "Subspace.intersect", "intersect"),
    ("subspaces", "Subspace.contains", "contains"),
    ("subspaces", "Subspace.perp", "perp"),
    ("subspaces", "orthogonal_complement", "orthogonal_complement"),
    ("subspaces", "lattice", "lattice"),
    ("subspaces", "SubspaceLattice.below", "below"),
    ("subspaces", "SubspaceLattice.join", "join"),
    ("subspaces", "SubspaceLattice.meet", "meet"),
    ("qseries", "gaussian_binomial", "gaussian_binomial"),
    ("qseries", "galois_number", "galois_number"),
    ("qseries", "moebius_coefficient", "moebius_coefficient"),
    ("qseries", "q_product", "q_product"),
    ("qseries", "q_power", "q_power"),
    ("qseries", "q_transform", "q_transform"),
    ("qseries", "p_j_coeff", "p_j_coeff"),
    ("qseries", "g_poly", "g_poly"),
    ("qseries", "HomogeneousMPoly.at", "at"),
    ("delsarte", "RankMetricCode.from_json", "from_json"),
    ("delsarte", "code_from_generators", "code_from_generators"),
    ("delsarte", "enumerate_codeword_entries", "enumerate"),
    ("delsarte", "restrict", "restrict"),
    ("delsarte", "dual_code", "dual_code"),
    ("delsarte", "rank_distribution", "rank_distribution"),
    ("delsarte", "rank_weight_enumerator", "rank_weight_enumerator"),
    ("delsarte", "ambient_counts", "ambient_counts"),
    ("delsarte", "min_rank_distance", "min_rank_distance"),
    ("delsarte", "random_code", "random_code"),
    ("qpolymatroid", "from_code", "from_code"),
    ("qpolymatroid", "restriction_dims", "restriction_dims"),
    ("qpolymatroid", "verify_axioms", "verify_axioms"),
    ("qpolymatroid", "rank_generating_function", "rgf"),
    ("qpolymatroid", "QPolymatroid.dual", "dual"),
    ("identities", "check_all", "check_all"),
    ("identities", "greene_check", "greene"),
    ("identities", "rgf_duality_check", "rgf-duality"),
    ("identities", "dual_polymatroid_check", "dual-polymatroid"),
    ("identities", "exact_sequence_check", "exact-sequence"),
    ("identities", "macwilliams_checks", "macwilliams"),
    # check_all and the CLI both reach the axiom identity through this
    # helper; the from_code calls feeding it are its caller's children
    ("identities", "_axiom_report", "axioms"),
    ("cli", "main", "main"),
]

GF_OPS = ("add", "sub", "mul", "neg", "inv", "pow")

LATTICE_TABLE_SPANS = (
    "subspaces.lattice",
    "subspaces.below",
    "subspaces.join",
    "subspaces.meet",
)


class Tracer:
    """Span aggregates and counters for one traced process.

    `install()` patches qrank; `uninstall()` restores every binding it
    replaced. Use it as a context manager.
    """

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {"gf.ops": 0, "delsarte.codewords": 0}
        self.lattice_sizes = set()
        self.restrict_distinct = 0
        self._request_pairs = set()
        self._stack = []  # child time accumulated by each open span
        self._patches = []  # (owner, attribute, original value)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self._end_request()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gf_op(self, fn):
        counts = self.counts

        def wrapper(*args):
            counts["gf.ops"] += 1
            return fn(*args)

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _note_restrict(self, args):
        C, J = args[0], args[1]
        self._request_pairs.add((C, J.basis))

    def _note_codewords(self, words):
        self.counts["delsarte.codewords"] += len(words)

    def _note_lattice(self, lat):
        self.lattice_sizes.add(len(lat))

    def _end_request(self):
        # distinct (code, subspace) pairs are counted per outermost call
        self.restrict_distinct += len(self._request_pairs)
        self._request_pairs.clear()

    # -- patching -------------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qrank" or mod_name.startswith("qrank.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_member(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(make(raw.fget))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self):
        hooks = {
            "delsarte.restrict": (self._note_restrict, None),
            "delsarte.enumerate": (None, self._note_codewords),
            "subspaces.lattice": (None, self._note_lattice),
        }
        for mod_name, path, short in SPANS:
            mod = importlib.import_module(f"qrank.{mod_name}")
            name = f"{mod_name}.{short}"
            before, after = hooks.get(name, (None, None))
            make = lambda fn, name=name, b=before, a=after: self._span(name, fn, b, a)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_member(getattr(mod, cls_name), attr, make)
            else:
                original = getattr(mod, path)
                self._rebind_everywhere(original, make(original))
        field_cls = importlib.import_module("qrank.gf").FieldContext
        for op in GF_OPS:
            self._patch_member(field_cls, op, self._gf_op)
        return self

    def request(self, fn, *args):
        """Run fn(*args) as one outermost span, so that per-request
        counters close when it returns."""
        return self._span("request", fn)(*args)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded, for JSON transport."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "lattice_sizes": sorted(self.lattice_sizes),
            "restrict_distinct": self.restrict_distinct,
        }


def merge(snapshots) -> dict:
    """Sum several snapshots (one per traced process) into one."""
    out = {"spans": {}, "counts": {}, "lattice_sizes": [], "restrict_distinct": 0}
    sizes = set()
    for snap in snapshots:
        for name, (calls, total, own) in snap["spans"].items():
            rec = out["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for name, value in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        sizes.update(snap["lattice_sizes"])
        out["restrict_distinct"] += snap["restrict_distinct"]
    out["lattice_sizes"] = sorted(sizes)
    return out


def deterministic_part(snap: dict) -> dict:
    """The counters that must repeat exactly across runs with one seed."""
    out = {f"{name}.calls": rec[0] for name, rec in snap["spans"].items()}
    out.update(snap["counts"])
    out["subspaces.lattice_sizes"] = list(snap["lattice_sizes"])
    out["delsarte.restrict.distinct"] = snap["restrict_distinct"]
    return out


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric values (without units) derived from a snapshot."""
    spans = snap["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def module_self(mod):
        return sum(rec[2] for name, rec in spans.items() if name.startswith(mod + "."))

    restrict_calls = calls("delsarte.restrict")
    out = {
        "delsarte.restrict.calls": restrict_calls,
        "delsarte.restrict.self_s": own("delsarte.restrict"),
        "delsarte.restrict.useful_ratio": (
            snap["restrict_distinct"] / restrict_calls if restrict_calls else 0.0
        ),
        "qpolymatroid.from_code.calls": calls("qpolymatroid.from_code"),
        "qpolymatroid.restriction_dims.calls": calls("qpolymatroid.restriction_dims"),
        "subspaces.lattice_size": max(snap["lattice_sizes"], default=0),
        "subspaces.lattice_tables_s": sum(total(n) for n in LATTICE_TABLE_SPANS),
        "subspaces.sum.calls": calls("subspaces.sum"),
        "subspaces.intersect.calls": calls("subspaces.intersect"),
        "subspaces.contains.calls": calls("subspaces.contains"),
        "subspaces.perp.calls": calls("subspaces.perp"),
        "matspace.rref_rows.calls": calls("matspace.rref_rows"),
        "matspace.kernel_basis.calls": calls("matspace.kernel_basis"),
        "qpolymatroid.verify_axioms.self_s": own("qpolymatroid.verify_axioms"),
        "delsarte.codewords": snap["counts"].get("delsarte.codewords", 0),
        "delsarte.enumerate.self_s": own("delsarte.enumerate"),
        "delsarte.rank_distribution.self_s": own("delsarte.rank_distribution"),
        "delsarte.dual_code.calls": calls("delsarte.dual_code"),
        "gf.ops": snap["counts"].get("gf.ops", 0),
        "qseries.q_product.calls": calls("qseries.q_product"),
        "qpolymatroid.rgf.self_s": own("qpolymatroid.rgf"),
    }
    for mod in ("matspace", "subspaces", "qseries", "delsarte", "qpolymatroid", "identities"):
        out[f"{mod}.self_s"] = module_self(mod)
    for ident in ("greene", "rgf-duality", "dual-polymatroid", "exact-sequence", "macwilliams", "axioms"):
        out[f"identities.{ident}.self_s"] = own(f"identities.{ident}")
        out[f"identities.{ident}.total_s"] = total(f"identities.{ident}")
    return out
