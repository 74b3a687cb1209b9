"""Recompute `digests.json`: the digest of the report bytes of every code
any workload can visit.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter qrank's report output; the
benchmark counts every code whose bytes differ from the record as failed.
"""

from __future__ import annotations

import json

import workloads


def main():
    workloads.import_qrank()
    from qrank import all_codes, check_all

    codes = {}
    for shape in workloads.CORPUS_EXHAUSTIVE:
        for i, C in enumerate(all_codes(shape.n, shape.m, shape.field())):
            codes[f"all-{shape.name}:{i}"] = C
    for shape in workloads.CORPUS_RANDOM:
        for i in range(shape.pool):
            codes[f"rnd-{shape.name}:{i}"] = workloads.pool_code(shape, i)
    codes.update(workloads.pool_items(workloads.EDGE_CYCLE))
    codes.update(workloads.pool_items(workloads.ENUM_CYCLE))
    digests = {}
    for key, C in codes.items():
        reports = check_all(C)
        if not all(r.passed for r in reports):
            raise SystemExit(f"record_digests: {key} fails a check; not recording it")
        digests[key] = workloads.digest(workloads.report_bytes(reports))
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS.name}")


if __name__ == "__main__":
    main()
