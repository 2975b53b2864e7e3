"""Determinism checks for the benchmark's workloads (the harness contract:
for a fixed seed the CSV bytes do not depend on the run or on the worker
count).

    PYTHONPATH=src python3 -m pytest bench/test_determinism.py -q

Each test runs a small slice of a workload (few trials and cycles) through
``beamtrack.cli.main`` and compares the sha256 of every CSV it writes.
"""

import contextlib
import hashlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from beamtrack import cli  # noqa: E402

SLICE = {"trials": 6, "eccs": 8}


def _digests(wl, monkeypatch, threads):
    """Run every command of the workload; sha256 of each CSV by command."""
    if threads is None:
        monkeypatch.delenv("BEAMTRACK_THREADS", raising=False)
    else:
        monkeypatch.setenv("BEAMTRACK_THREADS", threads)
    workloads.write_configs(wl)
    out = {}
    for cmd in wl.commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(cmd.argv)) == 0
        with open(cmd.csv, "rb") as fh:
            out[cmd.name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _slice(name, seed, outdir):
    if name == "mc-converge":
        return workloads.mc_converge(seed, str(outdir), **SLICE)
    return workloads.mc_dynamic(seed, str(outdir), **SLICE)


@pytest.mark.parametrize("name", ["mc-converge", "mc-dynamic"])
def test_same_seed_gives_identical_csvs(name, tmp_path, monkeypatch):
    first = _digests(_slice(name, 3, tmp_path), monkeypatch, None)
    second = _digests(_slice(name, 3, tmp_path), monkeypatch, None)
    assert first == second


@pytest.mark.parametrize("name", ["mc-converge", "mc-dynamic"])
def test_two_workers_match_serial(name, tmp_path, monkeypatch):
    serial = _digests(_slice(name, 4, tmp_path), monkeypatch, None)
    pooled = _digests(_slice(name, 4, tmp_path), monkeypatch, "2")
    assert serial == pooled


def test_other_seed_changes_the_csvs(tmp_path, monkeypatch):
    """The digests do depend on the seed, so equal digests above mean
    something."""
    a = _digests(_slice("mc-dynamic", 5, tmp_path), monkeypatch, None)
    b = _digests(_slice("mc-dynamic", 6, tmp_path), monkeypatch, None)
    assert all(a[k] != b[k] for k in a)
