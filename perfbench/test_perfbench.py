"""Tests of the benchmark's own tracer and inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.import_qrank()

import qrank.delsarte  # noqa: E402
import qrank.identities  # noqa: E402
import qrank.qpolymatroid  # noqa: E402
from qrank import all_codes, gf_new  # noqa: E402
from qrank.subspaces import lattice  # noqa: E402

from tracer import Tracer, deterministic_part, layer_metrics  # noqa: E402


def _code_3x2():
    return list(all_codes(3, 2, gf_new(2)))[1234]


def test_patching_only_the_defining_module_misses_calls():
    # qpolymatroid binds restrict at import, so this patch never sees check_all's calls
    C = _code_3x2()
    original = qrank.delsarte.restrict
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    qrank.delsarte.restrict = counting
    try:
        qrank.identities.check_all(C)
    finally:
        qrank.delsarte.restrict = original
    assert calls == []


def test_tracer_sees_every_restrict_call_of_check_all():
    C = _code_3x2()
    tracer = Tracer()
    with tracer:
        tracer.request(qrank.identities.check_all, C)
    size = len(lattice(3, C.field))
    assert size == 16
    assert tracer.spans["delsarte.restrict"][0] == 9 * size == 144


def test_from_code_makes_one_restrict_call_per_lattice_point():
    C = _code_3x2()
    tracer = Tracer()
    with tracer:
        qrank.qpolymatroid.from_code(C)
    assert tracer.spans["delsarte.restrict"][0] == len(lattice(C.n, C.field))


def test_rank_distribution_enumerates_every_codeword_once():
    C = workloads.pool_code(workloads.ENUM_CYCLE[1], 0)  # Mat(3x4, F_3), k = 9
    tracer = Tracer()
    with tracer:
        qrank.delsarte.rank_distribution(C)
    assert tracer.counts["delsarte.codewords"] == 3**9
    assert tracer.spans["delsarte.enumerate"][0] == 1


def test_uninstall_restores_every_binding():
    before = (
        qrank.delsarte.restrict,
        qrank.qpolymatroid.restrict,
        qrank.restrict,
        qrank.gf.FieldContext.__dict__["add"],
        qrank.subspaces.SubspaceLattice.__dict__["join"],
        qrank.subspaces.Subspace.__dict__["span"],
    )
    with Tracer():
        assert qrank.qpolymatroid.restrict is not before[1]
    after = (
        qrank.delsarte.restrict,
        qrank.qpolymatroid.restrict,
        qrank.restrict,
        qrank.gf.FieldContext.__dict__["add"],
        qrank.subspaces.SubspaceLattice.__dict__["join"],
        qrank.subspaces.Subspace.__dict__["span"],
    )
    assert after == before


def test_counters_repeat_and_self_time_is_bounded():
    C = _code_3x2()
    snaps = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            tracer.request(qrank.identities.check_all, C)
        snaps.append(tracer.snapshot())
    assert deterministic_part(snaps[0]) == deterministic_part(snaps[1])
    m = layer_metrics(snaps[0])
    # C and its dual: two distinct restriction sweeps out of nine
    assert m["delsarte.restrict.useful_ratio"] == 2 / 9
    root = snaps[0]["spans"]["request"][1]
    assert sum(rec[2] for rec in snaps[0]["spans"].values()) <= root * (1 + 1e-9)


def test_inputs_depend_only_on_the_seed():
    a = workloads.corpus_items(7)
    b = workloads.corpus_items(7)
    c = workloads.corpus_items(8)
    assert [k for k, _ in a] == [k for k, _ in b]
    assert [k for k, _ in a] != [k for k, _ in c]
    assert len(a) == 67 + 212 + 2825 + 200
    digests = workloads.load_digests()
    for key, C in a[:50]:
        reports = qrank.identities.check_all(C)
        assert workloads.digest(workloads.report_bytes(reports)) == digests[key]


def test_speed_probe_scales_by_the_slices_near_an_interval():
    import math
    import time

    import hostspeed

    assert hostspeed.slice_work() == hostspeed.slice_work()
    with hostspeed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        time.sleep(0.1)
    factor = probe.scale(t0, 0.1)
    assert factor > 0
    w = hostspeed.WINDOW_S
    near = [dt for start, dt in probe._slices if t0 - w <= start <= t0 + 0.1 + w]
    assert math.isclose(factor, hostspeed.REFERENCE_SLICE_S / (sum(near) / len(near)))


def test_a_check_that_raises_fails_its_code_without_stopping_the_run():
    def raising(code):
        raise ValueError("broken check")

    _, data, passed = workloads.check_in_process(None, raising)
    assert (data, passed) == (b"", False)
