"""Span recorder for the traced run.

The recorder replaces public functions of the ``beamtrack`` modules at the
names their callers look up (for example ``beamtrack.harness.probe_kernels``,
which the harness loop calls) with wrappers that record one span per call:
name, start, end, parent span and run id.  Spans stay in memory while the
workload runs; :meth:`Recorder.write` stores them afterwards and
:func:`layer_metrics` turns them into per-layer metrics, computing each
span's self time as its duration minus the time its child spans cover.

A wrapped name that no longer exists is recorded as absent instead of
failing, so refactors that rename or remove a function leave the trace
working; the absent names are reported with the metrics.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

TRACKERS = ("JBCT_S", "RBT_DI", "JBCT_DII", "BeamSwitch", "EKF")
LAYERS = ("arrays", "signal", "estimation", "offsets", "trackers",
          "channels", "harness", "cli")


def _rows(args, kwargs):
    """Number of 2D offsets in the first argument (probe-kernel rows)."""
    shape = np.shape(args[0] if args else kwargs["deltas"])
    return int(np.prod(shape[:-1]))


def _sets(deltas):
    shape = np.shape(deltas)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Recorder:
    """Holds the spans and counters of one traced run and the patches that
    produce them."""

    def __init__(self):
        self.spans = []       # (span id, parent id, name, start, end, run id)
        self.counters = defaultdict(float)
        self.absent = []
        self.run_id = 0       # command index, set by the cli.main wrapper
        self.active = False
        self._stack = []
        self._next_id = 1
        self._patches = []

    # -- patching ----------------------------------------------------------

    def wrap(self, owner_path: str, attr: str, name: str, after=None,
             before=None):
        """Replace ``owner.attr`` with a span-recording wrapper.  ``owner``
        is a module path or ``module:Class``.  ``before(args, kwargs)``
        returns a token handed to ``after(args, kwargs, result, token)``,
        which updates the counters; both run outside the span."""
        module_path, _, cls = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_path)
            if cls:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{owner_path}.{attr}")
            return
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else 0
            rec._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans.append((sid, parent, name, start, end, rec.run_id))
            if after:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] += amount

    def write(self, path: str):
        """Store the spans as CSV: id,parent,name,start_s,end_s,run."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,run\n")
            for sid, parent, name, start, end, run in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{run}\n")


def _estimate(state):
    return state.psi if hasattr(state, "psi") else state.x


def _applied_hooks(tracker: str, rec: Recorder):
    """Count updates that changed the estimate (for BeamSwitch: switched
    beams)."""
    def before(args, kwargs):
        return np.array(_estimate(args[0]))

    def after(args, kwargs, result, old):
        if not np.array_equal(old, _estimate(args[0])):
            rec.count(f"trackers.{tracker}.applied")
    return before, after


def install(rec: Recorder):
    """Wrap every traced name of the package."""
    bt = "beamtrack."

    def rows_after(name):
        def after(args, kwargs, result, token):
            rec.count(f"{name}.rows", _rows(args, kwargs))
        return after

    def objective_after(name):
        """Sets per call; single-set calls and batched calls apart."""
        def after(args, kwargs, result, token):
            sets = _sets(args[0] if args else kwargs["deltas"])
            start, end = rec.spans[-1][3], rec.spans[-1][4]
            kind = "batch" if sets > 1 else "single"
            rec.count(f"{name}.{kind}_calls")
            rec.count(f"{name}.{kind}_sets", sets)
            rec.count(f"{name}.{kind}_s", end - start)
        return after

    def evaluate_after(args, kwargs, result, token):
        rec.count("offsets.sets_evaluated", _sets(args[1] if len(args) > 1
                                                  else kwargs["deltas"]))
        rec.count("offsets.sets_finite", int(np.isfinite(result).sum()))

    def restarts_after(args, kwargs, result, token):
        rec.count("offsets.restarts_used", result.restarts_used)

    def trial_cycles_after(args, kwargs, result, token):
        ec = args[0]
        rec.count("harness.trial_cycles", ec.num_trials * ec.num_eccs)

    def csv_bytes_after(args, kwargs, result, token):
        rec.count("harness.emit_csv.bytes", os.path.getsize(args[1]))

    pk = "arrays.probe_kernels"
    for mod in ("harness", "trackers", "signal", "estimation"):
        rec.wrap(bt + mod, "probe_kernels", pk, after=rows_after(pk))
    pkl = "arrays.probe_kernels_limit"
    rec.wrap(bt + "estimation", "probe_kernels_limit", pkl,
             after=rows_after(pkl))
    for mod in ("harness", "channels"):
        rec.wrap(bt + mod, "element_gain", "arrays.element_gain")
    rec.wrap(bt + "channels", "dpv_from_aoa", "arrays.dpv_from_aoa")
    rec.wrap(bt + "signal", "steering_vector", "arrays.steering_vector")

    rec.wrap(bt + "channels", "build_ebm", "signal.build_ebm")
    rec.wrap(bt + "channels", "observe", "signal.observe")
    rec.wrap(bt + "signal", "noiseless_mean", "signal.noiseless_mean")
    rec.wrap(bt + "signal", "observation_kernels", "signal.observation_kernels")

    for fn in ("static_offsets_crlb", "di_offsets_crlb"):
        name = f"estimation.{fn}"
        for mod in ("harness", "offsets"):
            rec.wrap(bt + mod, fn, name, after=objective_after(name))
    for fn in ("crlb_static_asymptotic", "crlb_di_asymptotic"):
        rec.wrap(bt + "offsets", fn, f"estimation.{fn}")

    rec.wrap(bt + "offsets", "optimize_offsets", "offsets.optimize_offsets",
             after=restarts_after)
    rec.wrap(bt + "offsets", "robustness_sweep", "offsets.robustness_sweep")
    for cls in ("StaticAsymptotic", "StaticFinite", "DiAsymptotic", "DiFinite"):
        rec.wrap(f"{bt}offsets:{cls}", "evaluate", "offsets.evaluate",
                 after=evaluate_after)

    for fn in ("jbct_tracker", "rbt_tracker", "beam_switch_tracker",
               "ekf_tracker"):
        rec.wrap(bt + "harness", fn, "trackers.init")
    for fn in ("build_fast_cache", "build_rbt_cache"):
        rec.wrap(bt + "trackers", fn, f"trackers.{fn}")
    steps = {"JBCT_S": "jbct_static_step", "JBCT_DII": "jbct_dii_step",
             "RBT_DI": "rbt_di_step", "BeamSwitch": "baseline_beam_switch_step",
             "EKF": "baseline_ekf_step"}
    for tracker, fn in steps.items():
        before, after = _applied_hooks(tracker, rec)
        rec.wrap(bt + "harness", fn, f"trackers.{tracker}.update",
                 before=before, after=after)
    for mod, fn in (("harness", "beam_switch_probes"),
                    ("trackers", "beam_switch_probes"),
                    ("harness", "ekf_probes")):
        rec.wrap(bt + mod, fn, "trackers.probes")
    rec.wrap(bt + "channels", "bootstrap_gain", "trackers.bootstrap_gain")

    for fn in ("evolve", "init_channel", "initial_estimate"):
        rec.wrap(bt + "harness", fn, f"channels.{fn}")

    rec.wrap(bt + "harness", "run_experiment", "harness.run_experiment",
             after=trial_cycles_after)
    rec.wrap(bt + "harness", "emit_csv", "harness.emit_csv",
             after=csv_bytes_after)
    def new_run(args, kwargs):
        rec.run_id += 1     # one run id per command

    rec.wrap(bt + "cli", "main", "cli.main", before=new_run)


def span_stats(spans):
    """Per span name: calls, inclusive seconds and self seconds."""
    child = defaultdict(float)
    for sid, parent, name, start, end, run in spans:
        if parent:
            child[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, parent, name, start, end, run in spans:
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child.get(sid, 0.0)
    return stats


def _div(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: Recorder):
    """The per-layer metrics of the traced run, as {name: (value, unit)}."""
    stats = span_stats(rec.spans)
    c = rec.counters

    def calls(name):
        return stats[name][0] if name in stats else 0

    def incl(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    out = {}
    pk, pkl = "arrays.probe_kernels", "arrays.probe_kernels_limit"
    out[f"{pk}.calls"] = (calls(pk), "count")
    out[f"{pk}.rows"] = (c[f"{pk}.rows"], "count")
    out[f"{pk}.self_s"] = (self_s(pk), "s")
    out[f"{pk}.ns_per_row"] = (1e9 * _div(self_s(pk), c[f"{pk}.rows"]), "ns")
    out[f"{pkl}.rows"] = (c[f"{pkl}.rows"], "count")
    out[f"{pkl}.self_s"] = (self_s(pkl), "s")
    for fn in ("element_gain", "dpv_from_aoa"):
        out[f"arrays.{fn}.self_s"] = (self_s(f"arrays.{fn}"), "s")

    out["signal.build_ebm.calls"] = (calls("signal.build_ebm"), "count")
    out["signal.observe.calls"] = (calls("signal.observe"), "count")

    for fn in ("static_offsets_crlb", "di_offsets_crlb"):
        name = f"estimation.{fn}"
        out[f"{name}.batch_sets_per_s"] = (
            _div(c[f"{name}.batch_sets"], c[f"{name}.batch_s"]), "1/s")
        out[f"{name}.single_calls"] = (c[f"{name}.single_calls"], "count")
        out[f"{name}.single_us"] = (
            1e6 * _div(c[f"{name}.single_s"], c[f"{name}.single_calls"]), "us")
    for fn in ("crlb_static_asymptotic", "crlb_di_asymptotic"):
        out[f"estimation.{fn}.self_s"] = (self_s(f"estimation.{fn}"), "s")

    oo = "offsets.optimize_offsets"
    out[f"{oo}.calls"] = (calls(oo), "count")
    out[f"{oo}.self_s"] = (self_s(oo), "s")
    out["offsets.evaluations"] = (calls("offsets.evaluate"), "count")
    out["offsets.sets_evaluated"] = (c["offsets.sets_evaluated"], "count")
    out["offsets.finite_frac"] = (
        _div(c["offsets.sets_finite"], c["offsets.sets_evaluated"]), "frac")
    out["offsets.restarts_used"] = (c["offsets.restarts_used"], "count")
    out["offsets.robustness_sweep.self_s"] = (
        self_s("offsets.robustness_sweep"), "s")

    for tracker in TRACKERS:
        name = f"trackers.{tracker}.update"
        n = calls(name)
        out[f"trackers.{tracker}.updates"] = (n, "count")
        out[f"trackers.{tracker}.self_s"] = (self_s(name), "s")
        out[f"trackers.{tracker}.us_per_update"] = (1e6 * _div(incl(name), n),
                                                    "us")
        out[f"trackers.{tracker}.applied_frac"] = (
            _div(c[f"trackers.{tracker}.applied"], n), "frac")
    out["trackers.probes.self_s"] = (self_s("trackers.probes"), "s")
    out["trackers.build_fast_cache.calls"] = (calls("trackers.build_fast_cache"),
                                              "count")
    out["trackers.build_rbt_cache.calls"] = (calls("trackers.build_rbt_cache"),
                                             "count")
    out["trackers.init.self_s"] = (self_s("trackers.init"), "s")

    ev = "channels.evolve"
    out[f"{ev}.calls"] = (calls(ev), "count")
    out[f"{ev}.self_s"] = (self_s(ev), "s")
    out[f"{ev}.us_per_call"] = (1e6 * _div(incl(ev), calls(ev)), "us")
    for fn in ("init_channel", "initial_estimate"):
        out[f"channels.{fn}.self_s"] = (self_s(f"channels.{fn}"), "s")

    re_ = "harness.run_experiment"
    out[f"{re_}.calls"] = (calls(re_), "count")
    out[f"{re_}.self_s"] = (self_s(re_), "s")
    out["harness.self_frac"] = (_div(self_s(re_), incl(re_)), "frac")
    out["harness.trial_cycles"] = (c["harness.trial_cycles"], "count")
    out["harness.emit_csv.self_s"] = (self_s("harness.emit_csv"), "s")
    out["harness.emit_csv.bytes"] = (c["harness.emit_csv.bytes"], "B")

    out["cli.main.calls"] = (calls("cli.main"), "count")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")

    for layer in LAYERS:
        total = sum(v[2] for k, v in stats.items()
                    if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (total, "s")
    out["trace.spans"] = (len(rec.spans), "count")
    out["trace.absent_names"] = (len(rec.absent), "count")
    return out
