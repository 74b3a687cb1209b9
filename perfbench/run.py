"""qrank benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing traced, its
times scaled to a reference host speed (see hostspeed.py).
`--trace 1` runs the workload's fixed trace work list once untraced and
twice traced, each in a fresh process, and reports per-layer metrics;
the two traced passes must give identical counters. Human-readable lines
come first; the last line of stdout is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter

import hostspeed
import workloads
from tracer import deterministic_part, layer_metrics, merge

SETUP_PROBES = 11  # set-ups timed per run; setup_s is their median
FLOOR_PROBES = 3  # trivial CLI children timed per traced run


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def probe_setup(workload: str, seed: int):
    """(start, seconds) from starting a fresh process to the end of its set-up."""
    argv = [sys.executable, str(workloads.HERE / "child.py"), "setup",
            "--workload", workload, "--seed", str(seed)]  # fmt: skip
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=workloads.child_env()) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up of {workload} failed (exit {proc.returncode})")
    return t0, dt


def balanced_stats(samples):
    """(codes per second, median seconds) of the workload's fixed shape mix.

    Each shape weighs the same however many of its codes fit in the run:
    the rate is shapes over the sum of per-shape mean times, and the
    median weighs each sample by one over its shape's sample count.
    """
    by_shape = {}
    for shape, seconds in samples:
        by_shape.setdefault(shape, []).append(seconds)
    rate = len(by_shape) / sum(statistics.fmean(ts) for ts in by_shape.values())
    half, acc = len(by_shape) / 2, 0.0
    for seconds, weight in sorted((t, 1 / len(by_shape[s])) for s, t in samples):
        acc += weight
        if acc >= half:
            return rate, seconds


def check_once(workload: str, item, check_all):
    """One check of one code: (seconds, report bytes, passed, child RSS MiB)."""
    if workload == "edge-cli":
        dt, data, code, rss = workloads.run_child(workloads.cli_check_argv(item))
        return dt, data, code == 0, rss
    dt, data, passed = workloads.check_in_process(item, check_all)
    return dt, data, passed, 0.0


def timed_run(workload: str, seed: int, seconds: float):
    with hostspeed.SpeedProbe() as probe:
        setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
        inputs = workloads.setup(workload, seed)
        digests = workloads.load_digests()
        from qrank.identities import check_all

        samples, failed, child_rss = [], 0, 0.0  # samples: (shape, start, seconds)
        floor = workloads.min_codes(workload, inputs)
        deadline = time.perf_counter() + seconds
        for shape, key, item in workloads.work_sequence(workload, seed, inputs):
            t0 = time.perf_counter()
            dt, data, passed, rss = check_once(workload, item, check_all)
            samples.append((shape, t0, dt))
            failed += not (passed and workloads.digest(data) == digests[key])
            child_rss = max(child_rss, rss)
            if len(samples) >= floor and time.perf_counter() >= deadline:
                break
    if workload == "edge-cli":
        peak = child_rss
    else:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(samples)
    setup_s = statistics.median(dt * probe.scale(t0, dt) for t0, dt in setups)
    rate, median = balanced_stats([(s, dt * probe.scale(t0, dt)) for s, t0, dt in samples])
    raw_rate, raw_median = balanced_stats([(s, dt) for s, _, dt in samples])
    metrics = {
        "setup_s": (setup_s, "s"),
        "codes_per_s": (rate * (n - failed) / n, "1/s"),
        "check_ms.p50": (1000 * median, "ms"),
        "peak_rss_mib": (peak, "MiB"),
    }
    counts = ", ".join(f"{s} {c}" for s, c in Counter(s for s, _, _ in samples).items())
    lines = [
        f"workload {workload}, seed {seed}: {n} codes ({counts}), "
        f"{failed} failed (failed_ratio {failed / n:.4f})",
        f"  host speed: mean calibration slice {1e3 * probe.mean_slice_s():.4f} ms, "
        f"reference {1e3 * hostspeed.REFERENCE_SLICE_S:.4f} ms; times below are scaled to it",
        f"  setup_s        {setup_s:.4f} s (median of {SETUP_PROBES} set-ups)",
        f"  codes_per_s    {metrics['codes_per_s'][0]:.4f} 1/s (raw {raw_rate:.4f}; n={n})",
        f"  check_ms.p50   {metrics['check_ms.p50'][0]:.3f} ms (raw {1000 * raw_median:.3f}; n={n})",
    ]
    # a percentile is reported only with at least ten samples beyond it
    if n >= 1000:
        scaled = [dt * probe.scale(t0, dt) for _, t0, dt in samples]
        p99 = 1000 * statistics.quantiles(scaled, n=100)[98]
        lines.append(f"  check_ms.p99   {p99:.3f} ms (n={n})")
    lines.append(f"  peak_rss_mib   {peak:.2f} MiB")
    return n, failed, metrics, lines


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    argv = [sys.executable, str(workloads.HERE / "child.py"), "pass", "--workload", workload,
            "--seed", str(seed), "--traced", str(int(traced))]  # fmt: skip
    _, out, code, _ = workloads.run_child(argv)
    if code != 0:
        raise SystemExit(f"perfbench: {'traced' if traced else 'untraced'} pass exited {code}")
    return json.loads(out.decode().splitlines()[-1])


def cli_pass(seed: int, work, traced: bool, digests) -> dict:
    """The edge-cli trace work list as CLI children, one at a time."""
    from qrank import RankMetricCode

    elapsed, failed, points, snaps = 0.0, 0, 0, []
    trace_dir = workloads.WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for i, (_, key, path) in enumerate(work):
        if traced:
            out_path = trace_dir / f"cli-{seed}-{i}.json"
            argv = workloads.traced_cli_check_argv(path, out_path)
        else:
            argv = workloads.cli_check_argv(path)
        dt, data, code, _ = workloads.run_child(argv)
        elapsed += dt
        failed += not (code == 0 and workloads.digest(data) == digests[key])
        points += workloads.lattice_points(RankMetricCode.from_json(json.loads(path.read_text())))
        if traced:
            snaps.append(json.loads(out_path.read_text()))
    return {
        "elapsed": elapsed,
        "attempted": len(work),
        "failed": failed,
        "lattice_points": points,
        "trace": merge(snaps) if traced else None,
    }


def traced_run(workload: str, seed: int):
    floor_argv = [sys.executable, "-m", "qrank.cli", "lattice", "--q", "2", "--n", "1", "--count-only"]
    floors = []
    failed = 0
    for _ in range(FLOOR_PROBES):
        dt, data, code, _ = workloads.run_child(floor_argv)
        floors.append(dt)
        failed += not (code == 0 and data == b"2\n")
    if workload == "edge-cli":
        inputs = workloads.setup(workload, seed)
        work = workloads.trace_work(workload, seed, inputs)
        digests = workloads.load_digests()
        passes = [cli_pass(seed, work, traced, digests) for traced in (False, True, True)]
    else:
        passes = [run_pass(workload, seed, traced) for traced in (False, True, True)]
    plain, first, second = passes
    counters_a, counters_b = deterministic_part(first["trace"]), deterministic_part(second["trace"])
    mismatched = sorted(k for k in counters_a.keys() | counters_b.keys()
                        if counters_a.get(k) != counters_b.get(k))  # fmt: skip
    values = layer_metrics(first["trace"])
    values["delsarte.restrict.sweeps_per_code"] = values["delsarte.restrict.calls"] / first["lattice_points"]
    values["cli.floor_s"] = statistics.median(floors)
    values["trace.overhead_ratio"] = first["elapsed"] / plain["elapsed"]
    metrics = {name: (value, unit_of(name)) for name, value in sorted(values.items())}
    attempted = FLOOR_PROBES + sum(p["attempted"] for p in passes)
    failed += sum(p["failed"] for p in passes)
    lines = [
        f"workload {workload}, seed {seed}: traced work list of {plain['attempted']} codes; "
        f"untraced {plain['elapsed']:.2f} s, traced {first['elapsed']:.2f} s and {second['elapsed']:.2f} s",
        f"  lattice sizes built: {first['trace']['lattice_sizes']}",
        "  counters repeat across the two traced passes: "
        + ("yes" if not mismatched else "NO, differing: " + ", ".join(mismatched)),
    ]
    lines += [f"  {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    (workloads.WORK / "trace").mkdir(parents=True, exist_ok=True)
    dump = workloads.WORK / "trace" / f"{workload}-{seed}.json"
    dump.write_text(json.dumps(first["trace"], indent=1, sort_keys=True))
    lines.append(f"  span table written to {dump.relative_to(workloads.ROOT)}")
    return attempted, failed, metrics, lines, not mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads.import_qrank()  # fails, and prints no result, without the library
    hostspeed.pin_to_one_cpu()
    if args.trace:
        attempted, failed, metrics, lines, repeat = traced_run(args.workload, args.seed)
    else:
        attempted, failed, metrics, lines = timed_run(args.workload, args.seed, args.seconds)
        repeat = True
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
