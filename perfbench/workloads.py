"""Inputs, set-up and the unit of work for each benchmark workload.

Every code comes from a fixed pool: the exhaustive corpora, or seeded
random codes whose report digests are recorded in `digests.json`. The
run's `--seed` picks codes from the pools and the order they are visited
in; qrank itself only ever sees the generated codes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"


def import_qrank():
    """Import qrank from this checkout's `src`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import qrank
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qrank from {SRC}: {exc}") from exc

    if Path(qrank.__file__).resolve().parent != SRC / "qrank":
        raise SystemExit(f"perfbench: qrank imported from {qrank.__file__}, not {SRC}")
    return qrank


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    m: int
    p: int
    e: int
    dim: int | None  # None: drawn per code, as the test suite's random corpus does
    pool: int  # pool size; 0 for an exhaustive corpus

    def field(self):
        from qrank import gf_new

        return gf_new(self.p, self.e)


CORPUS_EXHAUSTIVE = [
    Shape("2x2F2", 2, 2, 2, 1, None, 0),
    Shape("2x2F3", 2, 2, 3, 1, None, 0),
    Shape("3x2F2", 3, 2, 2, 1, None, 0),
]
CORPUS_RANDOM = [
    Shape("3x2F2", 3, 2, 2, 1, None, 100),
    Shape("3x3F2", 3, 3, 2, 1, None, 100),
    Shape("2x2F3", 2, 2, 3, 1, None, 100),
    Shape("2x2F4", 2, 2, 2, 2, None, 100),
]
CORPUS_RANDOM_PICK = 50  # codes drawn per random shape
# one cycle visits these shapes in this order; a run measures whole cycles
EDGE_CYCLE = [
    Shape("5x3F2", 5, 3, 2, 1, 7, 8),
    Shape("4x3F3", 4, 3, 3, 1, 6, 8),
    Shape("5x2F2", 5, 2, 2, 1, 5, 8),
]
ENUM_CYCLE = [
    Shape("4x5F2", 4, 5, 2, 1, 16, 8),
    Shape("3x4F3", 3, 4, 3, 1, 9, 8),
    Shape("3x3F4", 3, 3, 2, 2, 7, 8),
]
WORKLOADS = ("corpus", "edge-cli", "enum")
# codes in the traced work list: a prefix of the run's visit order
TRACE_CODES = {"corpus": 400, "edge-cli": 2, "enum": 3}


def pool_code(shape: Shape, i: int):
    """Code i of a random pool; depends on nothing but the shape and i."""
    from qrank import random_code

    rng = random.Random(f"perfbench/{shape.name}/{i}")
    dim = shape.dim if shape.dim is not None else rng.randrange(shape.n * shape.m + 1)
    return random_code(shape.n, shape.m, shape.field(), dim, rng)


def report_bytes(reports) -> bytes:
    """The bytes `qrank check all CODE --format json` prints for these reports."""
    return (json.dumps([r.as_dict() for r in reports]) + "\n").encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def lattice_points(code) -> int:
    from qrank.qseries import galois_number

    return galois_number(code.n, code.field.q)


# -- workload inputs ------------------------------------------------------------


def corpus_items(seed: int):
    """(key, code) pairs: the exhaustive corpora plus 50 pool codes per
    random shape, in a seeded visit order."""
    from qrank import all_codes

    rng = random.Random(seed)
    items = []
    for shape in CORPUS_EXHAUSTIVE:
        codes = all_codes(shape.n, shape.m, shape.field())
        items.extend((f"all-{shape.name}:{i}", C) for i, C in enumerate(codes))
    for shape in CORPUS_RANDOM:
        for i in sorted(rng.sample(range(shape.pool), CORPUS_RANDOM_PICK)):
            items.append((f"rnd-{shape.name}:{i}", pool_code(shape, i)))
    rng.shuffle(items)
    return items


def cycle_keys(seed: int, cycle):
    """Endless stream of cycles; each cycle is one pool key per shape."""
    rng = random.Random(seed)
    while True:
        yield [f"{shape.name}:{rng.randrange(shape.pool)}" for shape in cycle]


def pool_items(cycle):
    """Every pool code of the shapes in a cycle, by key."""
    return {
        f"{shape.name}:{i}": pool_code(shape, i) for shape in cycle for i in range(shape.pool)
    }


def warm_lattices(codes):
    """Build the lattice tables a check will read, as a long-lived process would."""
    from qrank.subspaces import lattice

    for n, field in {(C.n, C.field) for C in codes}:
        lat = lattice(n, field)
        lat.below, lat.join, lat.meet


def code_path(key: str) -> Path:
    return WORK / "edge-cli" / f"{key.replace(':', '-')}.json"


def setup(workload: str, seed: int):
    """Everything a run does before its first timed operation.

    Returns the workload's inputs: a list of (key, code) for `corpus`, a
    dict key -> code for `enum`, and a dict key -> code file for `edge-cli`.
    """
    import_qrank()
    if workload == "corpus":
        items = corpus_items(seed)
        warm_lattices([C for _, C in items])
        return items
    if workload == "enum":
        pool = pool_items(ENUM_CYCLE)
        warm_lattices(pool.values())
        return pool
    if workload == "edge-cli":
        (WORK / "edge-cli").mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, C in pool_items(EDGE_CYCLE).items():
            path = code_path(key)
            path.write_text(json.dumps(C.to_json()))
            paths[key] = path
        return paths
    raise ValueError(f"unknown workload {workload!r}")


def cycle_of(workload: str):
    return {"edge-cli": EDGE_CYCLE, "enum": ENUM_CYCLE}.get(workload)


def work_sequence(workload: str, seed: int, inputs):
    """Endless (shape, key, input) stream in visit order. The corpus is
    one shape; the cycle workloads visit their shapes in turn."""
    if workload == "corpus":
        while True:
            for key, code in inputs:
                yield "corpus", key, code
    cycle = cycle_of(workload)
    for keys in cycle_keys(seed, cycle):
        for shape, key in zip(cycle, keys):
            yield shape.name, key, inputs[key]


def min_codes(workload: str, inputs) -> int:
    """Codes a run checks even past its deadline: the whole corpus once, or
    one whole cycle, so that every shape of the workload has a sample."""
    if workload == "corpus":
        return len(inputs)
    return len(cycle_of(workload))


def trace_work(workload: str, seed: int, inputs):
    """The fixed work list of a traced pass: a prefix of the visit order."""
    return list(islice(work_sequence(workload, seed, inputs), TRACE_CODES[workload]))


# -- the unit of work -------------------------------------------------------------


def check_in_process(code, check_all):
    """One `check_all(C)`; returns (seconds, report bytes, all passed)."""
    t0 = time.perf_counter()
    try:
        reports = check_all(code)
    except Exception:  # a check that raises fails its code; the run goes on
        traceback.print_exc()
        return time.perf_counter() - t0, b"", False
    dt = time.perf_counter() - t0
    return dt, report_bytes(reports), all(r.passed for r in reports)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv):
    """Run one child to completion; returns (seconds, stdout, exit code,
    peak RSS in MiB of that child alone). Its stderr passes through."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    dt = time.perf_counter() - t0
    return dt, out, proc.returncode, usage.ru_maxrss / 1024


def cli_check_argv(path: Path):
    return [sys.executable, "-m", "qrank.cli", "check", "all", str(path), "--format", "json"]


def traced_cli_check_argv(path: Path, trace_out: Path):
    return [
        sys.executable, str(HERE / "child.py"), "cli", "--trace-out", str(trace_out),
        "check", "all", str(path), "--format", "json",
    ]  # fmt: skip
