"""Benchmark entry point for beamtrack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh interpreters that
import ``beamtrack`` from the checkout's ``src/`` and drive the public entry
point, ``beamtrack.cli.main``, with the ``track``/``offsets`` argument lists
and config files of one workload (see workloads.py and README.md).

``--trace 0`` measures the end-to-end metrics: several set-up-only launches
for the set-up time, then one launch that repeats the workload's commands
until ``--seconds`` is spent.  ``--trace 1`` runs the workload once untraced
and once traced (both serial), plus the isolated layer probes, and reports
the per-layer metrics.  Either way the outputs of every command are checked,
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_LAUNCHES = 4        # set-up-only launches; the measuring launch adds one
DEADLINE_S = 170.0        # every launch of one run ends within this


class BenchError(RuntimeError):
    pass


def _launch(mode, args, outdir, deadline):
    """Start the worker in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env.pop("BEAMTRACK_THREADS", None)
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--outdir", outdir,
           "--launched", repr(launched)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} launch exceeded the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"{mode} launch failed ({proc.returncode}): {tail}")
    return json.loads(out.strip().splitlines()[-1])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def _peak_rss_mib():
    """Peak resident set size of this process and of every child (and
    their children) that has ended, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _tally(checks_per_pass, commands):
    """(attempted, failed, failed descriptions).  One operation is one
    command; a check spanning a pass's commands that fails marks one more
    of that pass's operations failed, never more than the pass ran."""
    attempted = failed = 0
    bad = []
    for checks in checks_per_pass:
        attempted += commands
        fails = [c for c in checks if not c[1]]
        failed += min(commands, len(fails))
        bad += [f"{name}: {text}" for name, _, text in fails]
    return attempted, failed, bad


def _e2e_metrics(setups, result):
    """Command times are in calibration units (see worker.calib_block):
    the command's seconds over the seconds of one calibration unit timed
    right before and after it."""
    norm = [p["norm"] for p in result["passes"]]
    return {
        "wall_norm": (statistics.median(sum(p) for p in norm), "calib"),
        "cmd_max_norm": (statistics.median(max(p) for p in norm), "calib"),
        "cmd_min_norm": (statistics.median(min(p) for p in norm), "calib"),
        "peak_rss_mib": (_peak_rss_mib(), "MiB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }


def _summary_lines(args, metrics, result, attempted, failed, setups):
    """Human-readable report: the metrics, the raw seconds behind the
    normalised times, and the throughput figures that exist only on some
    workloads."""
    # a traced run's second pass carries the tracing overhead
    passes = result["passes"][:1] if args.trace else result["passes"]
    times = [p["times"] for p in passes]
    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
             f"  set-up launches {len(setups)}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<44} {value:.6g} {unit}")
    wall = statistics.median(sum(t) for t in times)
    lines.append(f"{'wall_s (raw)':<44} {wall:.6g} s")
    if "unit_s" in passes[0]:
        unit_s = statistics.median(p["unit_s"] for p in passes)
        lines.append(f"{'calibration unit (raw)':<44} {unit_s * 1e3:.6g} ms")
    cycles = result["trial_cycles"]
    total = sum(cycles.values())
    if total:
        lines.append(f"{'trial_cycles_per_s (raw)':<44} {total / wall:.6g} 1/s")
        for i, name in enumerate(cycles):
            med = statistics.median(t[i] for t in times)
            lines.append(f"{'trial_cycles_per_s.' + name + ' (raw)':<44} "
                         f"{cycles[name] / med:.6g} 1/s")
    lines.append(f"{'failed_frac':<44} {failed / max(attempted, 1):.6g} "
                 f"({failed}/{attempted} commands)")
    return lines


def _declared(kind):
    """Metric names and units that BENCHMARK.json declares for ``kind``."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "beamtrack", "cli.py")):
        print("error: no beamtrack source tree at src/beamtrack",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    os.makedirs(OUT_ROOT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        setups = []
        if args.trace:
            result = _launch("trace", args, outdir, deadline)
        else:
            for _ in range(SETUP_LAUNCHES):
                setups.append(_launch("setup", args, outdir, deadline))
            result = _launch("run", args, outdir, deadline)
            setups.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    commands = len(result["passes"][0]["times"])
    attempted, failed, bad = _tally(result["checks"], commands)
    if args.trace:
        metrics = result["trace"]["metrics"]
        declared = _declared("per_layer")
    else:
        metrics = _e2e_metrics(setups, result)
        declared = _declared("end_to_end")
    missing = sorted(set(declared) - set(metrics))
    wrong = sorted(k for k, unit in declared.items()
                   if k in metrics and metrics[k][1] != unit)
    if missing or wrong:
        print(f"error: metrics not measured: {missing}; "
              f"units differ from BENCHMARK.json: {wrong}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "commit": _git_commit(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "csv_sha256": result["hashes"],
    }
    if args.trace:
        provenance["absent_names"] = result["trace"]["absent"]
    shown = metrics if args.trace else {k: metrics[k] for k in declared}
    for line in _summary_lines(args, shown, result, attempted, failed, setups):
        print("# " + line)
    for text in bad:
        print("# FAILED " + text)
    print("# provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
