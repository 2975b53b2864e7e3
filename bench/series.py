"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/series.py --workloads mc-converge,mc-dynamic \
        --seeds 1-10 [--trace 0|1] [--out FILE]

For every workload and every end-to-end (or, with --trace 1, per-layer)
metric it prints the median, the quartiles and the spread (interquartile
distance over the median) of the runs, and checks the spread against the
metric's bound in BENCHMARK.json.  With --out it also writes every run's
result and provenance as JSON, which is how the baseline next to this file
was recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    prov = {}
    for line in lines:
        if line.startswith("# provenance "):
            prov.update(json.loads(line[len("# provenance "):]))
        elif line.startswith("# wall_s (raw)"):
            prov["raw_wall_s"] = float(line.split()[-2])
    return json.loads(lines[-1]), prov


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"spec_run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result, prov = _run(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "provenance": prov})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"load {prov.get('loadavg_before', ['?'])[0]:.2f}->"
                  f"{prov.get('loadavg_after', ['?'])[0]:.2f} " + " ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in result["metrics"].items()
                      if not args.trace), flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {}
        for name in names:
            stats = summarise([r["result"]["metrics"][name]["value"]
                               for r in runs])
            summary[name] = stats
            bound = bounds.get(name)
            if bound is not None and not args.trace:
                steady = name == "setup_s" or stats["spread"] <= bound
                ok &= steady
                print(f"  {name:<14} median {stats['median']:.5g}  spread "
                      f"{stats['spread']:.4f}  bound {bound}  "
                      f"{'ok' if steady else 'TOO WIDE'}"
                      f"{'  (over a third)' if stats['spread'] > bound / 3 else ''}")
        raw = [r["provenance"]["raw_wall_s"] for r in runs
               if "raw_wall_s" in r["provenance"]]
        if len(raw) > 1:
            stats = summarise(raw)
            print(f"  {'raw wall_s':<14} median {stats['median']:.5g}  spread "
                  f"{stats['spread']:.4f}  (not a reported metric)")
        ok &= all(r["result"]["correct"] for r in runs)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
