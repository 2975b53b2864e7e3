"""Workload definitions: the commands each workload issues, the config files
it writes, and the correctness checks applied to each command's output.

Every workload is a list of ``beamtrack`` command lines run through
``beamtrack.cli.main`` one after another (a closed loop: the next command is
issued when the previous one returns).  Experiment seeds are derived from the
benchmark seed; the program sees only the generated config files and
arguments.  README.md in this directory records why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# Trial counts are the paper's (criterion 9: 500, criterion 11: 200); they are
# the batch axis of a trial-batched engine and stay fixed.  Run length is set
# by the cycle counts below and by how many passes fit in --seconds.
CONVERGE_TRIALS = 500
CONVERGE_ECCS = 30
DYNAMIC_TRIALS = 200
DYNAMIC_ECCS = 30
ROBUSTNESS_SIZES = "8,16,32,64"

# Bands for k*MSE/CRLB at k = CONVERGE_ECCS, per tracker.  The paper's law is
# a ratio of 1 as k grows.  At 30 cycles the joint tracker is already there
# (seeds 1-12: 0.98-1.12), so it keeps criterion 9's band.  The direction
# tracker starts from k0 = 5 and its transient decays slowly (ratio about 4.5
# at 30 cycles, 2.4 at 100, 1.16 at 2000), so its band is centred there.
CONVERGE_BANDS = {"JBCT_S": (0.85, 1.25), "RBT_DI": (3.0, 6.5)}
PRESET_REL_TOL = 1e-3   # asymptotic search vs. the shipped preset, CRLB value
ROBUST_GAP_TOL = 1e-3   # robustness rows: (crlb_at - crlb_min) / crlb_min


def derive_seed(seed: int, *labels) -> int:
    """Experiment seed from the benchmark seed and a label path."""
    text = ":".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass
class Command:
    """One ``beamtrack`` invocation and how to judge its output."""

    name: str                   # tracker or objective the command runs
    argv: List[str]
    config: Optional[Dict[str, object]] = None   # written to argv's --config
    csv: Optional[str] = None   # path the command writes
    trial_cycles: int = 0       # trials x cycles, for track commands
    check: Callable = field(default=None, repr=False)


@dataclass
class Workload:
    name: str
    commands: List[Command]
    # a check across one pass's commands: details by command name -> (ok, text)
    check: Optional[Callable] = field(default=None, repr=False)


def format_config(mapping: Dict[str, object]) -> str:
    lines = []
    for key, val in mapping.items():
        lines.append(f'{key} = "{val}"' if isinstance(val, str)
                     else f"{key} = {val!r}")
    return "\n".join(lines) + "\n"


def write_configs(wl: Workload):
    """Write each track command's config file where its argv points."""
    for cmd in wl.commands:
        if cmd.config is not None:
            with open(cmd.argv[cmd.argv.index("--config") + 1], "w") as fh:
                fh.write(format_config(cmd.config))


def _read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, map(float, line.split(","))))
                for line in fh if line.strip()]
    return rows


def _all_finite_values(rows, keys) -> bool:
    return all(math.isfinite(r[k]) for r in rows for k in keys)


def _ratio_check(error_key: str):
    """k*MSE/CRLB at the last cycle lies in the tracker's CONVERGE_BANDS
    entry; every value of the columns the tracker fills is finite."""
    def check(cmd: Command, stdout: str):
        rows = _read_csv(cmd.csv)
        keys = [error_key, "mse_x", "crlb_ref"]
        if not rows or not _all_finite_values(rows, keys):
            return False, "non-finite or missing CSV values", {}
        last = rows[-1]
        ratio = last[error_key] / last["crlb_ref"]
        lo, hi = CONVERGE_BANDS[cmd.name]
        ok = lo <= ratio <= hi
        return ok, f"k*{error_key}/crlb = {ratio:.4f} in [{lo}, {hi}]", \
            {"ratio": ratio}
    return check


def _time_avg_mse_h(cmd: Command, stdout: str):
    rows = _read_csv(cmd.csv)
    if not rows or not _all_finite_values(rows, ["mse_h", "mse_x"]):
        return False, "non-finite or missing CSV values", {}
    mean = sum(r["mse_h"] for r in rows) / len(rows)
    return True, f"time-averaged mse_h = {mean:.5g}", {"mean_mse_h": mean}


def _preset_check(preset_value: Callable[[], float]):
    def check(cmd: Command, stdout: str):
        with open(cmd.csv) as fh:
            row = fh.read().strip().splitlines()[-1].split(",")
        found = float(row[1])
        want = preset_value()
        rel = abs(found - want) / want
        ok = rel < PRESET_REL_TOL
        return ok, f"search {found:.8g} vs preset {want:.8g} (rel {rel:.2e})", \
            {"rel": rel}
    return check


def _robustness_check(cmd: Command, stdout: str):
    lines = stdout.strip().splitlines()
    try:
        start = lines.index("m,n,crlb_at_offsets,crlb_min,rel_gap") + 1
    except ValueError:
        return False, "no robustness table in the output", {}
    rows = [line.split(",") for line in lines[start:]]
    want = len(ROBUSTNESS_SIZES.split(","))
    worst = -math.inf
    ok = len(rows) == want
    for row in rows:
        at, best, gap = float(row[2]), float(row[3]), float(row[4])
        ok &= best <= at and gap < ROBUST_GAP_TOL
        worst = max(worst, gap)
    return ok, f"{len(rows)}/{want} rows, worst rel_gap {worst:.3e}", \
        {"worst_gap": worst}


def _track(outdir: str, tag: str, config: Dict[str, object],
           trials: int, eccs: int, check) -> Command:
    cfg_path = os.path.join(outdir, f"{tag}.toml")
    csv_path = os.path.join(outdir, f"{tag}.csv")
    return Command(config["tracker"],
                   ["track", "--config", cfg_path, "--out", csv_path],
                   config=config, csv=csv_path,
                   trial_cycles=trials * eccs, check=check)


def _array_keys():
    return {"m": 8, "n": 8, "snr_db": 0.0, "init_halfwidth": 0.25}


def mc_converge(seed: int, outdir: str, trials: int = CONVERGE_TRIALS,
                eccs: int = CONVERGE_ECCS) -> Workload:
    """Criterion 9a (joint tracker, quasi-static) and 9b (direction tracker,
    fading gain), run serially."""
    common = dict(_array_keys(), trials=trials, eccs=eccs, record_every=eccs)
    jbct = dict(common, scenario="quasi-static", tracker="JBCT_S",
                offsets="tableII", schedule="diminishing", epsilon=1.0,
                k0=0.0, seed=derive_seed(seed, "mc-converge", "JBCT_S"))
    rbt = dict(common, scenario="dynamic-i", tracker="RBT_DI",
               offsets="tableIII", schedule="diminishing", epsilon=1.0,
               k0=5.0, seed=derive_seed(seed, "mc-converge", "RBT_DI"))
    return Workload("mc-converge", [
        _track(outdir, "9a", jbct, trials, eccs, _ratio_check("mse_h")),
        _track(outdir, "9b", rbt, trials, eccs, _ratio_check("mse_x")),
    ])


DYNAMIC_TRACKERS = ("JBCT_DII", "BeamSwitch", "EKF")


def dynamic_ordering(details: Dict[str, dict]):
    """Criterion 11's claim across the workload's commands: the joint
    tracker's time-averaged MSE_h is below both baselines'."""
    means = {name: details[name]["mean_mse_h"] for name in DYNAMIC_TRACKERS
             if "mean_mse_h" in details.get(name, {})}
    if len(means) != len(DYNAMIC_TRACKERS):
        return False, "missing tracker results"
    ok = means["JBCT_DII"] < min(means["BeamSwitch"], means["EKF"])
    return ok, ("JBCT_DII < BeamSwitch, EKF: "
                + ", ".join(f"{k} {v:.4g}" for k, v in means.items()))


def mc_dynamic(seed: int, outdir: str, trials: int = DYNAMIC_TRIALS,
               eccs: int = DYNAMIC_ECCS) -> Workload:
    """Criterion 11: Gauss-Markov gain plus 0.3 deg/cycle angle walk, one
    command per tracker on common experiment seeds.  Timed serially
    (README.md says why)."""
    common = dict(_array_keys(), scenario="dynamic-ii", rho=0.995,
                  delta_a_deg=0.3, offsets="tableII", trials=trials,
                  eccs=eccs, record_every=1,
                  seed=derive_seed(seed, "mc-dynamic"))
    cmds = []
    for tracker in DYNAMIC_TRACKERS:
        config = dict(common, tracker=tracker)
        if tracker == "JBCT_DII":
            config.update(schedule="constant", step=0.7)
        cmds.append(_track(outdir, f"11-{tracker}", config, trials, eccs,
                           _time_avg_mse_h))
    return Workload("mc-dynamic", cmds, check=dynamic_ordering)


def _preset_value(kind: str) -> float:
    from beamtrack.offsets import (FADING_OFFSETS, STATIC_OFFSETS,
                                   DiAsymptotic, StaticAsymptotic)
    if kind == "static":
        return float(StaticAsymptotic().evaluate(STATIC_OFFSETS.deltas))
    return float(DiAsymptotic(0.0).evaluate(FADING_OFFSETS.deltas))


def offsets_search(seed: int, outdir: str) -> Workload:
    """The offline searches behind the tableII/tableIII presets, then the
    finite-size robustness sweeps of both presets."""
    cmds = []
    for kind in ("static", "di"):
        csv_path = os.path.join(outdir, f"search-{kind}.csv")
        cmds.append(Command(
            f"{kind}-asymptotic",
            ["offsets", "--objective", f"{kind}-asymptotic",
             "--seed", str(derive_seed(seed, "offsets-search", kind) % 2**31),
             "--out", csv_path],
            csv=csv_path,
            check=_preset_check(lambda kind=kind: _preset_value(kind))))
    for kind in ("static", "di"):
        cmds.append(Command(
            f"{kind}-finite-robustness",
            ["offsets", "--objective", f"{kind}-finite",
             "--robustness", ROBUSTNESS_SIZES],
            check=_robustness_check))
    return Workload("offsets-search", cmds)


WORKLOADS = {"mc-converge": mc_converge, "mc-dynamic": mc_dynamic,
             "offsets-search": offsets_search}


def build(name: str, seed: int, outdir: str) -> Workload:
    return WORKLOADS[name](seed, outdir)
