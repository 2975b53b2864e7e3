"""Isolated layer probes for the traced run: the probe-kernel and offset-CRLB
throughput table that a closed-form kernel or a batched objective should
move, measured outside any workload.

Offsets are drawn from a fixed generator, so the probes do the same work on
every run.  Each figure is the median of several timed repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (8, 64, 256)
KERNEL_BATCHES = (1, 500)     # shapes (3, 2) and (500, 3, 2)
REPEATS = 5
MIN_REPEAT_S = 0.02
# 65,536 sets is the offset search's own chunk size.  At 256 x 256 one such
# chunk holds about 0.8 GB per complex temporary, so that size evaluates
# 8,192 sets per call instead.
OBJECTIVE_SETS = {8: 65536, 64: 65536, 256: 8192}
OBJECTIVE_MIN_S = 1.0     # repeat a call (at most 3 times) to fill this


def _median_call_s(fn, calls_per_repeat: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls_per_repeat):
            fn()
        times.append((time.perf_counter() - start) / calls_per_repeat)
    return statistics.median(times)


def _calls_for(fn) -> int:
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(1, int(MIN_REPEAT_S / max(once, 1e-9)))


def _offset_sets(rng, count):
    return rng.uniform(-0.9, 0.9, size=(count, 3, 2))


def kernel_probes():
    from beamtrack.arrays import probe_kernels
    rng = np.random.default_rng(0)
    out = {}
    for m in SIZES:
        for batch in KERNEL_BATCHES:
            deltas = _offset_sets(rng, batch)
            if batch == 1:
                deltas = deltas[0]
            rows = deltas.size // 2

            def call():
                probe_kernels(deltas, m, m)
            per_call = _median_call_s(call, _calls_for(call), REPEATS)
            out[f"arrays.probe_kernels.ns_per_row.m{m}.b{batch}"] = (
                1e9 * per_call / rows, "ns")
    return out


def objective_probes():
    from beamtrack.estimation import di_offsets_crlb, static_offsets_crlb
    rng = np.random.default_rng(1)
    out = {}
    for fn in (static_offsets_crlb, di_offsets_crlb):
        extra = () if fn is static_offsets_crlb else (1.0,)
        for m in SIZES:
            sets = _offset_sets(rng, OBJECTIVE_SETS[m])
            times = []
            while len(times) < 3 and sum(times) < OBJECTIVE_MIN_S:
                start = time.perf_counter()
                fn(sets, m, m, *extra)
                times.append(time.perf_counter() - start)
            per_call = statistics.median(times)
            out[f"estimation.{fn.__name__}.sets_per_s.m{m}"] = (
                len(sets) / per_call, "1/s")
    return out


def run_all():
    return {**kernel_probes(), **objective_probes()}
