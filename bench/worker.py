"""One workload in a fresh interpreter; started by run.py.

Modes:
  setup  import the package, write and parse the configs, report the set-up
         time and exit;
  run    set up, then repeat passes over the workload's commands until the
         time budget is spent, timing each command;
  trace  set up, run one untraced pass and one traced pass (both serial),
         then the isolated layer probes.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package():
    """Import beamtrack from this checkout's source tree, nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import beamtrack
    import beamtrack.cli
    if not os.path.abspath(beamtrack.__file__).startswith(src + os.sep):
        raise ImportError(f"beamtrack imported from {beamtrack.__file__}, "
                          f"not from {src}")


def _setup(args):
    _import_package()
    import workloads
    from beamtrack.harness import load_experiment
    wl = workloads.build(args.workload, args.seed, args.outdir)
    workloads.write_configs(wl)
    for cmd in wl.commands:
        if cmd.config is not None:
            load_experiment(cmd.argv[cmd.argv.index("--config") + 1])
    return wl


# Calibration: a fixed loop of small numpy calls, like the ones the tracking
# loop makes, with no beamtrack code in it.  On a shared machine the speed of
# a core drifts with other tenants' load (on the 2-vCPU machine the benchmark
# was written on, one fixed loop took anywhere from 1.0x to 1.9x its fastest
# time within minutes, with no steal time reported).  A command's time is
# therefore divided by the time of one calibration unit sampled while it ran:
# a SIGALRM handler runs one unit every SAMPLE_PERIOD_S in the command's own
# thread, and the handler's time is taken out of the command's time.
CALIB_ITERS = 500
BLOCK_UNITS = 5
SAMPLE_PERIOD_S = 0.25
_CAL_A = 4.0 * np.eye(4) + np.arange(16.0).reshape(4, 4) / 16.0
_CAL_V = np.exp(1j * np.arange(3.0))


def calib_unit() -> float:
    """Seconds of one calibration unit."""
    start = time.perf_counter()
    for _ in range(CALIB_ITERS):
        np.linalg.solve(_CAL_A, _CAL_A[0])
        np.exp(-2j * np.pi * _CAL_V).sum()
        np.abs(_CAL_V).max()
    return time.perf_counter() - start


class Sampler:
    """Calibration units timed from a SIGALRM handler while a command runs.
    ``units`` holds their times and ``spent`` the handlers' total time,
    which the caller subtracts from the command's time."""

    def __init__(self):
        self.units = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.units.append(calib_unit())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_pass(wl, calibrate: bool):
    """Issue each command when the previous one returns and time it.  With
    ``calibrate``, a block of calibration units runs before each command
    and after the last, and units are sampled while each command runs;
    ``norm`` is then each command's time over the mean of those units."""
    import beamtrack.cli
    times, norm, units, outputs, codes = [], [], [], [], []
    before = [calib_unit() for _ in range(BLOCK_UNITS)] if calibrate else []
    for cmd in wl.commands:
        if cmd.csv and os.path.exists(cmd.csv):
            os.remove(cmd.csv)
        buf = io.StringIO()
        sampler = Sampler()
        with contextlib.ExitStack() as stack:
            if calibrate:
                stack.enter_context(sampler)
            stack.enter_context(contextlib.redirect_stdout(buf))
            start = time.perf_counter()
            code = beamtrack.cli.main(list(cmd.argv))
            elapsed = time.perf_counter() - start - sampler.spent
        times.append(elapsed)
        outputs.append(buf.getvalue())
        codes.append(code)
        if calibrate:
            after = [calib_unit() for _ in range(BLOCK_UNITS)]
            around = before + sampler.units + after
            norm.append(elapsed * len(around) / sum(around))
            units += around
            before = after
    timing = {"times": times}
    if calibrate:
        timing.update(norm=norm, unit_s=statistics.median(units))
    return timing, outputs, codes


def _check_pass(wl, outputs, codes, hashes):
    """Judge every command of one pass.  ``hashes`` holds the CSV digests of
    the run's first pass: a later pass on the same inputs must reproduce
    them byte for byte."""
    results, details = [], {}
    for cmd, out, code in zip(wl.commands, outputs, codes):
        if code != 0:
            results.append((cmd.name, False, f"exit code {code}"))
            continue
        try:
            ok, text, detail = cmd.check(cmd, out)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            ok, text, detail = False, f"unreadable output: {exc}", {}
        details[cmd.name] = detail
        if cmd.csv:
            digest = _sha256(cmd.csv)
            if hashes.setdefault(cmd.name, digest) != digest:
                ok, text = False, text + "; CSV differs from the first pass"
        results.append((cmd.name, ok, text))
    if wl.check:
        ok, text = wl.check(details)
        results.append((f"{wl.name} pass check", ok, text))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"],
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="CLOCK_MONOTONIC time at which the parent "
                             "launched this interpreter")
    args = parser.parse_args(argv)

    wl = _setup(args)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched
    result = {"setup_s": setup_s, "passes": [], "checks": []}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # every workload is timed serially (README.md says why)
    os.environ.pop("BEAMTRACK_THREADS", None)
    hashes = {}
    if args.mode == "run":
        begin = time.perf_counter()
        while True:
            timing, outputs, codes = _run_pass(wl, calibrate=True)
            result["passes"].append(timing)
            result["checks"].append(_check_pass(wl, outputs, codes, hashes))
            elapsed = time.perf_counter() - begin
            if elapsed + (elapsed / len(result["passes"])) > args.seconds:
                break
    else:
        import probes
        import tracing
        # no calibration here: sampled units would land in whichever span
        # is open, so the overhead is a ratio of raw seconds
        timing, outputs, codes = _run_pass(wl, calibrate=False)
        result["passes"].append(timing)
        result["checks"].append(_check_pass(wl, outputs, codes, hashes))
        rec = tracing.Recorder()
        tracing.install(rec)
        rec.active = True
        try:
            timing, outputs, codes = _run_pass(wl, calibrate=False)
        finally:
            rec.active = False
            rec.uninstall()
        result["passes"].append(timing)
        result["checks"].append(_check_pass(wl, outputs, codes, hashes))
        rec.write(os.path.join(args.outdir, "..", f"spans-{wl.name}.csv"))
        metrics = tracing.layer_metrics(rec)
        untraced, traced = (sum(p["times"]) for p in result["passes"])
        metrics["trace.wall_s.untraced"] = (untraced, "s")
        metrics["trace.wall_s.traced"] = (traced, "s")
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
        metrics["harness.workers"] = (1, "count")
        metrics.update(probes.run_all())
        result["trace"] = {"metrics": metrics, "absent": rec.absent}
    result["hashes"] = hashes
    result["trial_cycles"] = {c.name: c.trial_cycles for c in wl.commands}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
