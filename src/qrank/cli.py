"""qrank command-line front end.

Subcommands: wd, rgf, dual, restrict, polymatroid, check, random-code,
lattice.  JSON is the single interchange format; exit code 2 on
malformed input, 1 on failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .delsarte import (
    BASIS_LIMIT,
    DEFAULT_BUDGET,
    RankMetricCode,
    dual_code,
    random_code,
    rank_distribution,
    restrict,
)
from .errors import MalformedCode, QrankError, check_limit
from .gf import field_of_order
from .identities import IDENTITY_CHECKS, CodeAnalysis, check_all
from .qpolymatroid import from_code, rank_generating_function
from .qseries import HomogeneousPoly, galois_number, gaussian_binomial
from .subspaces import Subspace, check_subspace_count, enumerate_subspaces, subspace_count_exponent


def _load_code(path: str) -> RankMetricCode:
    """The code of a JSON file of at most 32 characters for each entry
    BASIS_LIMIT admits; a longer file is refused before it is parsed, and is
    never held whole.  A file of more than 4 bytes for each of those
    characters (the most a UTF-8 character takes) is refused unread; one of
    more bytes than those characters, but not that many, has its characters
    counted 2^16 at a time, is refused once the count passes the limit, and
    is read again from its start if it fits.  qrank writes at most 29
    characters an entry (Mat(n x 1) at indent 2, entries of 3 digits), so
    every code file it writes at the limit loads."""
    most = 32 * BASIS_LIMIT
    with open(path, encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        # the fewest characters the file's bytes can hold
        count = -(-size // 4)
        try:
            if size > most >= count:  # too few bytes to refuse unread, too many to read whole
                count = 0
                while count <= most and (chunk := fh.read(2**16)):
                    count += len(chunk)
                fh.seek(0)
            text = fh.read(most + 1 if count <= most else 0)
        except ValueError as exc:  # not UTF-8
            raise MalformedCode(f"{path} is not a code file: {exc}") from None
    template = "{path} holds more than {limit} characters, 32 for each of the BASIS_LIMIT = {basis} entries of a code"
    count = max(count, len(text))
    check_limit(count, most, template, count.bit_length() - 1, {"path": path, "basis": BASIS_LIMIT})
    try:
        doc = json.loads(text)
    except RecursionError:
        raise MalformedCode(f"{path} is nested too deeply to be a code file") from None
    except ValueError as exc:  # not JSON, or an integer of more than 4300 digits
        raise MalformedCode(f"{path} is not a code file: {exc}") from None
    return RankMetricCode.from_json(doc)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _code_text(C: RankMetricCode, extra: dict | None = None) -> str:
    obj = C.to_json()
    if extra:
        obj.update(extra)
    return json.dumps(obj, indent=2) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # here and in each sub-parser: main reports it as any malformed input
        raise QrankError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrank", description=__doc__)
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="cap on codewords enumerated and subspaces listed (default 2^24)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("code", help="code JSON file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("-o", "--output", default=None)
        return p

    add_code_cmd("wd", "rank distribution and rank weight enumerator")
    p = add_code_cmd("rgf", "four-variable rank generating function of P_C")
    p.add_argument("--hat", action="store_true", help="use the hatted variant")
    p = sub.add_parser("dual", help="trace-product dual code")
    p.add_argument("code")
    p.add_argument("-o", "--output", default=None)
    p = sub.add_parser("restrict", help="restriction C(J) to a subspace")
    p.add_argument("code")
    p.add_argument("subspace", help='basis rows, e.g. "1,0;0,1" ("0" or "" for zero)')
    p.add_argument("-o", "--output", default=None)
    add_code_cmd("polymatroid", "rank table of P_C over the subspace lattice")
    p = sub.add_parser("check", help="verify identities; exit 0 iff all pass")
    p.add_argument("identity", choices=sorted([*IDENTITY_CHECKS, "all"]))
    p.add_argument("code")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p = sub.add_parser("random-code", help="seeded random code file")
    p.add_argument("--q", type=int, required=True, help="field order, a prime power up to 256")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p = sub.add_parser("lattice", help="subspace lattice counts / listing")
    p.add_argument("--q", type=int, required=True, help="field order, a prime power up to 256")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    return parser


# the most subspace-key entries one `qrank lattice` listing writes; F_2^8
# (13350368) fits, a single key of F_2^4100 does not
LISTING_LIMIT = 2**24


def _run(args) -> int:
    budget = args.budget
    if budget < 1:
        raise QrankError("budget must be >= 1")

    if args.command == "wd":
        C = _load_code(args.code)
        dist = list(rank_distribution(C, budget))
        enum = HomogeneousPoly(C.n, dist)
        obj = {"rank_distribution": dist, "enumerator": str(enum)}
        if args.format == "json":
            _emit(json.dumps(obj) + "\n", args.output)
        else:
            _emit(f"rank distribution: {dist}\nenumerator: {enum}\n", args.output)
        return 0

    if args.command == "rgf":
        C = _load_code(args.code)
        R = rank_generating_function(from_code(C), hatted=args.hat)
        if args.format == "json":
            _emit(json.dumps({"terms": R.to_records()}) + "\n", args.output)
        else:
            lines = [" ".join(str(v) for v in rec) for rec in R.to_records()]
            _emit("\n".join(lines) + "\n", args.output)
        return 0

    if args.command == "dual":
        C = _load_code(args.code)
        _emit(_code_text(dual_code(C)), args.output)
        return 0

    if args.command == "restrict":
        C = _load_code(args.code)
        J = Subspace.from_key(args.subspace, C.n, C.field)
        _emit(_code_text(restrict(C, J)), args.output)
        return 0

    if args.command == "polymatroid":
        C = _load_code(args.code)
        P = from_code(C)
        if args.format == "json":
            _emit(json.dumps({"r": P.r, "rank_table": P.rank_table()}) + "\n", args.output)
        else:
            _emit("\n".join(P.rank_table_lines()) + "\n", args.output)
        return 0

    if args.command == "check":
        C = _load_code(args.code)
        if args.identity == "all":
            reports = check_all(C, budget)
        else:
            reports = IDENTITY_CHECKS[args.identity](CodeAnalysis(C, budget))
        if args.format == "json":
            sys.stdout.write(json.dumps([r.as_dict() for r in reports]) + "\n")
        else:
            for r in reports:
                sys.stdout.write(str(r) + "\n")
        return 0 if all(r.passed for r in reports) else 1

    if args.command == "random-code":
        field = field_of_order(args.q)
        rng = random.Random(args.seed)
        C = random_code(args.n, args.m, field, args.dim, rng)
        _emit(_code_text(C, {"seed": args.seed}), args.output)
        return 0

    if args.command == "lattice":
        field = field_of_order(args.q)
        n, q, dim = args.n, field.q, args.dim
        e = subspace_count_exponent(n, dim)
        fields = {"q": q, "n": n, "of_dim": "" if dim is None else f" of dimension {dim}"}
        if args.count_only:
            # CPython refuses str() of a longer int (since 3.11 and 3.10.7); 0 means no limit
            digits = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)
            count = lambda: galois_number(n, q) if dim is None else gaussian_binomial(n, dim, q)
            template = "the number of subspaces of F_{q}^{n}{of_dim} has more than {digits} digits"
            # at least q^e >= 2^(e (q.bit_length() - 1)) subspaces: a count far above the limit is never formed
            e, fields = e * (q.bit_length() - 1), dict(fields, digits=digits)
            sys.stdout.write(f"{check_limit(count, 10**digits - 1, template, e, fields)}\n")
            return 0
        check_subspace_count(n, q, budget, dim)
        # [n, d]_q keys of d x n entries for each listed dimension d, formed once the budget admits the count
        entries = sum(gaussian_binomial(n, d, q) * d * n for d in (range(n + 1) if dim is None else [dim]))
        template = (
            "the listing of the subspaces of F_{q}^{n}{of_dim} writes {size} key entries, "
            "above the listing limit of {limit}"
        )
        check_limit(entries, LISTING_LIMIT, template, e, fields)
        for S in enumerate_subspaces(n, field, dim):
            sys.stdout.write(f"{S.canonical_key() or '0'}\n")
        return 0


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except (QrankError, OSError) as exc:
        print(f"qrank: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
