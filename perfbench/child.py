"""Child processes the benchmark starts; not meant to be run by hand.

    child.py setup --workload W --seed N
        do one workload set-up, then print "ready" (the parent times
        process start to that line)
    child.py pass --workload W --seed N --traced 0|1
        run the workload's fixed trace work list in this fresh process,
        traced or not, and print one JSON line with times and counters
    child.py cli --trace-out FILE QRANK-ARGS...
        run the qrank CLI traced and write the trace to FILE
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from tracer import Tracer


def do_pass(workload: str, seed: int, traced: bool) -> dict:
    inputs = workloads.setup(workload, seed)
    work = workloads.trace_work(workload, seed, inputs)
    digests = workloads.load_digests()
    # a traced pass starts from a cold lattice cache, so table builds show
    from qrank.subspaces import _LATTICE_CACHE

    _LATTICE_CACHE.clear()
    import qrank.identities as identities

    tracer = Tracer()
    elapsed, failed, points = 0.0, 0, 0
    if traced:
        tracer.install()
        check = lambda C: tracer.request(identities.check_all, C)
    else:
        check = identities.check_all
    try:
        for _, key, code in work:
            dt, data, passed = workloads.check_in_process(code, check)
            elapsed += dt
            failed += not (passed and workloads.digest(data) == digests[key])
            points += workloads.lattice_points(code)
    finally:
        tracer.uninstall()
    return {
        "elapsed": elapsed,
        "attempted": len(work),
        "failed": failed,
        "lattice_points": points,
        "trace": tracer.snapshot() if traced else None,
    }


def do_cli(trace_out: str, argv) -> int:
    workloads.import_qrank()
    import qrank.cli as cli

    tracer = Tracer().install()
    try:
        code = tracer.request(cli.main, argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "pass"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
        p.add_argument("--seed", type=int, required=True)
        if mode == "pass":
            p.add_argument("--traced", type=int, choices=(0, 1), required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace-out", required=True)
    p.add_argument("qrank_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.mode == "pass":
        print(json.dumps(do_pass(args.workload, args.seed, bool(args.traced))))
        return 0
    return do_cli(args.trace_out, args.qrank_args)


if __name__ == "__main__":
    sys.exit(main())
