"""Unit tests for the Monte-Carlo harness, CSV contract, config, and CLI."""

import contextlib
import filecmp
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import read_csv

import beamtrack
from beamtrack.arrays import ArrayConfig
from beamtrack.channels import DynamicI, QuasiStatic, ScenarioConfig
from beamtrack.harness import (CSV_HEADER, TRACKER_NAMES, TRACKERS,
                               ConfigError, ExperimentConfig, MetricsRecord,
                               config_from_mapping, emit_csv, extent_ceiling,
                               format_csv, load_experiment, parse_config_text,
                               run_experiment, snr_db_ceiling, snr_db_floor)
from beamtrack.cli import _build_parser, main
from beamtrack.estimation import snr_beta_db_ceiling
from beamtrack.offsets import FADING_OFFSETS, MAX_GRID_POINTS, STATIC_OFFSETS
from beamtrack.trackers import ConstantStep, DiminishingStep, RbtBatch


def _quasi_static_config(**kw):
    base = dict(scenario=ScenarioConfig(QuasiStatic()),
                array=ArrayConfig(8, 8), tracker="JBCT_S",
                offsets=STATIC_OFFSETS,
                num_trials=3, num_eccs=50, seed=0, record_every=10)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_near_noiseless_convergence(self):
        """One trial, vanishing noise, constant-step joint tracker: the
        channel-vector MSE is at numerical floor by cycle 500.  (With the
        1/k schedule the noiseless error decays only as 1/k, so the floor
        needs the geometric schedule.)"""
        # 300 dB at unit noise: a pilot amplitude of 1e15
        ec = _quasi_static_config(
            schedule=ConstantStep(0.7),
            num_trials=1, num_eccs=500, record_every=500, snr_db=300.0)
        rec = run_experiment(ec)[-1]
        assert rec.ecc == 500
        assert rec.mse_h < 1e-10

    def test_exploration_budget_identical_across_trackers(self):
        """Every tracker consumes 3 probes per cycle plus one bootstrap."""
        expl = {}
        for tracker in ("JBCT_S", "BeamSwitch", "EKF"):
            ec = _quasi_static_config(tracker=tracker, num_eccs=20,
                                      record_every=20)
            recs = run_experiment(ec)
            expl[tracker] = [(r.ecc, r.explorations_total) for r in recs]
        assert expl["JBCT_S"] == expl["BeamSwitch"] == expl["EKF"]
        assert expl["JBCT_S"][-1] == (20, 63)  # 3*(20+1)

    def test_seed_determinism_byte_identical(self, tmp_path):
        ec = _quasi_static_config(num_trials=4, num_eccs=30)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(ec), a)
        emit_csv(run_experiment(ec), b)
        assert filecmp.cmp(a, b, shallow=False)

    def test_crlb_ref_quasi_static_scales_as_one_over_k(self):
        ec = _quasi_static_config(num_eccs=40, record_every=20)
        recs = run_experiment(ec)
        assert recs[0].crlb_ref == pytest.approx(2 * recs[1].crlb_ref, rel=1e-12)

    def test_crlb_ref_nan_for_dynamic_ii(self):
        from beamtrack.channels import DynamicII
        ec = _quasi_static_config(scenario=ScenarioConfig(DynamicII()),
                                  tracker="JBCT_DII", num_eccs=10,
                                  record_every=10)
        rec = run_experiment(ec)[-1]
        assert math.isnan(rec.crlb_ref)

    def test_rbt_reports_nan_mse_h(self):
        ec = _quasi_static_config(scenario=ScenarioConfig(DynamicI(1.0)),
                                  tracker="RBT_DI", offsets=FADING_OFFSETS,
                                  num_eccs=10, record_every=10)
        rec = run_experiment(ec)[-1]
        assert math.isnan(rec.mse_h)
        assert rec.mse_x > 0

    def test_beam_switch_never_beats_joint_tracker_quasi_static(self):
        """At the run horizon the lattice baseline's quantization floor sits
        far above the joint tracker's CRLB-tracking error."""
        results = {}
        for tracker in ("JBCT_S", "BeamSwitch"):
            ec = _quasi_static_config(tracker=tracker, num_trials=50,
                                      num_eccs=800, record_every=800,
                                      init_halfwidth=0.25)
            results[tracker] = run_experiment(ec)[-1].mse_h
        assert results["BeamSwitch"] >= results["JBCT_S"]
        assert results["BeamSwitch"] > 10 * results["JBCT_S"]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_experiment(_quasi_static_config(tracker="nope"))
        with pytest.raises(ConfigError):
            run_experiment(_quasi_static_config(num_trials=0))
        # a preset name is text for parse_offsets, not offsets
        with pytest.raises(ConfigError, match="offsets: .*parse_offsets"):
            run_experiment(_quasi_static_config(offsets="tableII"))

    def test_trials_bounded_by_the_stream_words(self):
        """Each trial's stream takes one 32-bit spawn word, so 2^32 trials
        is the most a run can have; the bound is checked at configuration
        (no run of that size is started)."""
        at_bound = parse_config_text(GOOD_RUN.replace("trials = 2",
                                                      f"trials = {2**32}"))
        assert config_from_mapping(at_bound).num_trials == 2**32
        over = parse_config_text(GOOD_RUN.replace("trials = 2",
                                                  f"trials = {2**32 + 1}"))
        with pytest.raises(ConfigError, match=f"num_trials: at most {2**32}"):
            config_from_mapping(over)


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_nan_sentinel_and_round_trip(self, tmp_path):
        recs = [MetricsRecord(1, 6, 0.123456789012345, 9.87e-7, float("nan"), 3),
                MetricsRecord(2, 9, 1.0 / 3.0, 2.0 / 7.0, 0.5, 3)]
        path = tmp_path / "r.csv"
        emit_csv(recs, path)
        text = path.read_text()
        assert ",nan," in text
        assert "\r" not in text
        back = read_csv(path)
        for orig, got in zip(recs, back):
            assert got.ecc == orig.ecc
            assert got.explorations_total == orig.explorations_total
            for field in ("mse_h", "mse_x", "crlb_ref"):
                a, b = getattr(orig, field), getattr(got, field)
                if math.isnan(a):
                    assert math.isnan(b)
                else:
                    assert b == pytest.approx(a, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6),
        *[st.one_of(st.just(math.nan), st.floats(allow_nan=False))] * 3,
        st.integers(1, 10**6)), max_size=6))
    def test_read_csv_inverts_format_csv(self, rows):
        """Any record whose values are 12-digit decimals (nan and +-inf
        included) survives format_csv -> read_csv unchanged."""
        recs = [MetricsRecord(e, x, *(float(f"{v:.12g}") for v in vals), t)
                for e, x, *vals, t in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.csv")
            emit_csv(recs, path)
            back = read_csv(path)
        assert format_csv(back) == format_csv(recs)
        for orig, got in zip(recs, back):
            for a, b in zip(astuple(orig), astuple(got)):
                assert a == b or (math.isnan(a) and math.isnan(b))
        assert len(back) == len(recs)

    def test_unwritable_path_raises_with_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], "/no/such/dir/out.csv")


def _toml_value(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# every key of a valid config file, by the part of a run that reads it:
# each scenario's and each schedule's own keys, then the keys every run
# reads; the tracker, the schedule and rbt_sigma_mode are drawn together
SCENARIO_KEYS = {
    "quasi-static": {"rician_k_db": _floats(-20, 40)},
    "dynamic-i": {"sigma_beta_c_sq": _floats(1e-3, 10)},
    "dynamic-ii": {"rho": _floats(0.5, 1.0), "delta_a_deg": _floats(0.01, 5.0)},
}
SCHEDULE_KEYS = {
    "diminishing": {"epsilon": _floats(0.01, 10), "k0": _floats(0, 10)},
    "constant": {"step": _floats(0.01, 2)},
}
RUN_KEYS = {
    "aoa_region": st.sampled_from(["central", "edge"]),
    "offsets": st.sampled_from(["tableII", "tableIII",
                                "0.1,0.2,0.3,-0.4,-0.5,0.1"]),
    "m": st.integers(1, 64), "n": st.integers(1, 64),
    "d1": _floats(0.1, 2), "d2": _floats(0.1, 2),
    "snr_db": _floats(-30, 30),
    "trials": st.integers(1, 1000), "eccs": st.integers(1, 5000),
    "seed": st.integers(0, 2**63 - 1),
    "record_every": st.integers(1, 100),
    "init_halfwidth": _floats(0, 0.99),
}
CONFIG_KEYS = {"scenario", "tracker", "schedule", "rbt_sigma_mode",
               *RUN_KEYS}.union(*SCENARIO_KEYS.values(),
                                *SCHEDULE_KEYS.values())


def _merged(*parts):
    return {k: v for part in parts for k, v in part.items()}


def _tracker_keys(tracker):
    """The tracker key (left out for the default) with the schedules and
    gain-variance modes that ``tracker`` reads."""
    cls, default = TRACKERS[tracker]
    schedules = [st.just({})]
    if default is not None:
        schedules += [st.fixed_dictionaries({"schedule": st.just(name)},
                                            optional=keys)
                      for name, keys in SCHEDULE_KEYS.items()]
    modes = ["perfect", "estimated"] if cls is RbtBatch else ["perfect"]
    return st.builds(
        _merged,
        # the default tracker may go unnamed
        st.sampled_from([{"tracker": tracker}]
                        + ([{}] if tracker == "JBCT_S" else [])),
        st.one_of(schedules),
        st.fixed_dictionaries({}, optional={
            "rbt_sigma_mode": st.sampled_from(modes)}))


_VALID_MAPPINGS = st.builds(
    _merged,
    st.one_of([st.fixed_dictionaries({"scenario": st.just(name)},
                                     optional=keys)
               for name, keys in SCENARIO_KEYS.items()]),
    st.sampled_from(TRACKER_NAMES).flatmap(_tracker_keys),
    st.fixed_dictionaries({}, optional=RUN_KEYS))


class TestConfigFile:
    GOOD = """
# quasi-static smoke run
scenario = "quasi-static"
rician_k_db = 15.0
tracker = "JBCT_S"
offsets = "tableII"
m = 8
n = 8
snr_db = 0.0
trials = 2
eccs = 10
seed = 7
record_every = 5
init_halfwidth = 0.25
schedule = "diminishing"
epsilon = 1.0
k0 = 0.0
"""

    def test_parse_and_build(self):
        ec = config_from_mapping(parse_config_text(self.GOOD))
        assert ec.tracker == "JBCT_S"
        assert ec.num_trials == 2 and ec.num_eccs == 10 and ec.seed == 7
        assert isinstance(ec.schedule, DiminishingStep)
        assert ec.init_halfwidth == 0.25

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"unknown or unused keys: \['bogus'\]"):
            config_from_mapping(parse_config_text("bogus = 3"))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = zebra")

    def test_hash_inside_quoted_value(self, tmp_path, capsys):
        """A '#' inside a quoted value belongs to the value; after it, one
        starts a comment, which a run then ignores."""
        text = self.GOOD + 'out = "r#1.csv"  # output path\n'
        assert parse_config_text(text)["out"] == "r#1.csv"
        plain, commented = tmp_path / "plain.toml", tmp_path / "run.toml"
        plain.write_text(self.GOOD)
        commented.write_text(self.GOOD.replace(
            'tracker = "JBCT_S"', 'tracker = "JBCT_S"  # "EKF" # a baseline'))
        assert main(["track", "--config", str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(["track", "--config", str(commented)]) == 0
        assert capsys.readouterr().out == want
        assert want.startswith(CSV_HEADER)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            config_from_mapping({"scenario": "warp-drive"})

    def test_load_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_experiment("/no/such/config.toml")

    def test_load_binary_file(self, tmp_path):
        """A file that is not UTF-8 text is a ConfigError, not a raw
        UnicodeDecodeError."""
        path = tmp_path / "run.toml"
        path.write_bytes(b"seed = 7\n\xff\xfe\x00\x81")
        with pytest.raises(ConfigError, match="config: cannot read"):
            load_experiment(path)

    def test_offsets_key_takes_six_numbers(self):
        """The offsets key takes a preset name, read as the preset's set,
        or six numbers x1,x2,x1,x2,x1,x2, read as an OffsetSet."""
        assert config_from_mapping({"offsets": "tableIII"}).offsets \
            is FADING_OFFSETS
        ec = config_from_mapping({"offsets": "0.1,0.2,0.3,-0.4,-0.5,0.1"})
        assert ec.offsets.deltas.tolist() == [[0.1, 0.2], [0.3, -0.4],
                                              [-0.5, 0.1]]

    def test_configs_of_one_offsets_key_are_equal(self):
        """Two configs parsed from the same six-number key compare equal
        and hash alike, and hold read-only offsets."""
        key = {"offsets": "0.1,0.2,0.3,-0.4,-0.5,0.1"}
        a, b = config_from_mapping(key), config_from_mapping(key)
        assert a.offsets is not b.offsets
        assert a == b and hash(a) == hash(b)
        # the default offsets are a set too, so a default config hashes
        hash(ExperimentConfig(ScenarioConfig(QuasiStatic()),
                              ArrayConfig(8, 8), "JBCT_S"))
        with pytest.raises(ValueError):
            a.offsets.deltas[0, 0] = 0.5

    @settings(max_examples=60, deadline=None)
    @given(mapping=_VALID_MAPPINGS)
    def test_toml_round_trip(self, mapping):
        """A valid key mapping written as TOML, parsed and built, gives the
        config the mapping builds directly."""
        text = "".join(f"{key} = {_toml_value(value)}\n"
                       for key, value in mapping.items())
        assert config_from_mapping(parse_config_text(text)) == \
            config_from_mapping(mapping)


README = Path(__file__).parent.parent / "README.md"


def _readme_config():
    """The TOML block of README's "Command line" section, parsed."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = section[section.index("```toml\n") + len("```toml\n"):]
    return parse_config_text(block[:block.index("```")])


class TestReadmeConfig:
    """README's config block lists every key a config file takes, each at
    its default: a key renamed, dropped or left undocumented, or a default
    changed, fails here."""

    def test_keys_are_the_drawn_keys(self):
        assert set(_readme_config()) == CONFIG_KEYS

    @pytest.mark.parametrize("schedule", [None, *SCHEDULE_KEYS])
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_KEYS))
    def test_each_variant_builds_at_the_defaults(self, scenario, schedule):
        readme = _readme_config()
        chosen = {"scenario": scenario}
        keys = {"tracker", "rbt_sigma_mode", *RUN_KEYS,
                *SCENARIO_KEYS[scenario]}
        if schedule is not None:
            chosen["schedule"] = schedule
            keys.update(SCHEDULE_KEYS[schedule])
        mapping = {key: readme[key] for key in keys} | chosen
        assert config_from_mapping(mapping) == config_from_mapping(chosen)


def test_readme_commands_parse():
    """Every ``beamtrack`` line of README's sh blocks, its comment and the
    program name stripped, parses: a deleted flag cannot linger there."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("beamtrack ")]
    for argv in commands:
        _build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == {"track", "crlb", "offsets",
                                               "verify"}


def _python(*args):
    """``python args`` in a subprocess that imports the package this
    process imported."""
    src = str(Path(beamtrack.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def _run_cli(*args):
    """``python -m beamtrack.cli args`` in a subprocess: for what only a
    process shows, the entry point and an exit without a traceback."""
    return _python("-m", "beamtrack.cli", *args)


def _cli(*args, errors=()):
    """``cli.main(args)`` in this process, as the ``CompletedProcess`` of
    :func:`_run_cli`: a SystemExit's code is the exit code, and stdout and
    stderr are captured, each warning written to stderr as the interpreter
    writes it.  Warnings of the categories ``errors`` are raised instead,
    as ``python -W error::<category>`` raises them."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno,
                                         line))

    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        for category in errors:
            warnings.simplefilter("error", category)
        warnings.showwarning = show
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


class TestCli:
    def test_track_runs_config(self, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text(TestConfigFile.GOOD)
        out = tmp_path / "out.csv"
        proc = _run_cli("track", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith(CSV_HEADER)

    def test_track_missing_config_exits_1(self):
        proc = _run_cli("track", "--config", "missing.toml")
        assert proc.returncode == 1
        assert "missing.toml" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_commands_run_without_scipy(self, tmp_path):
        """scipy is a test dependency only: with its import blocked, a
        ``track`` run and a bound command still exit 0."""
        cfg = tmp_path / "run.toml"
        cfg.write_text(TestConfigFile.GOOD)
        argvs = [["track", "--config", str(cfg)],
                 ["crlb", "--objective", "di-finite"]]
        proc = _python("-c", "import sys; sys.modules['scipy'] = None; "
                             "from beamtrack.cli import main; "
                             f"raise SystemExit(max(map(main, {argvs!r})))")
        assert proc.returncode == 0, proc.stderr

    def test_unknown_flag_exits_1_with_usage(self):
        proc = _cli("track", "--config", "x", "--bogus")
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_bad_config_value_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.toml"
        cfg.write_text('tracker = "nope"\n')
        proc = _cli("track", "--config", str(cfg))
        assert proc.returncode == 1

    def test_track_accepts_six_offsets(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(TestConfigFile.GOOD.replace(
            'offsets = "tableII"', 'offsets = "0.1,0.2,0.3,-0.4,-0.5,0.1"'))
        code = main(["track", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_track_stdout_equals_out_file(self, tmp_path, capsys):
        """Without ``--out`` the same CSV bytes go to stdout."""
        cfg = tmp_path / "run.toml"
        cfg.write_text(TestConfigFile.GOOD)
        out = tmp_path / "out.csv"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["track", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_track_takes_only_config_and_out(self):
        """The config file is a run's one source of settings: ``track``
        has no flag that sets a config key."""
        sub = _build_parser()._subparsers._group_actions[0].choices["track"]
        flags = {s for a in sub._actions for s in a.option_strings}
        assert flags == {"-h", "--help", "--config", "--out"}

    def test_crlb_subcommand(self):
        proc = _cli("crlb", "--objective", "static-asymptotic")
        assert proc.returncode == 0
        assert "2.2477" in proc.stdout

    def test_offsets_robustness_subcommand(self):
        proc = _cli("offsets", "--objective", "static-finite",
                    "--robustness", "8")
        assert proc.returncode == 0
        last = proc.stdout.strip().splitlines()[-1]
        gap = float(last.split(",")[-1])
        assert gap < 1e-3

    def test_offsets_search_subcommand_emits_csv_row(self, tmp_path):
        """The search subcommand prints the canonical set and appends one
        CSV row (objective, value, restarts, six offset coordinates)."""
        out = tmp_path / "search.csv"
        proc = _cli("offsets", "--objective", "static-asymptotic",
                    "--grid", "7", "--iters", "150", "--out", str(out))
        assert proc.returncode == 0
        assert "crlb_value:" in proc.stdout
        row = out.read_text().strip().split(",")
        assert row[0] == "static-asymptotic"
        assert len(row) == 9
        value = float(row[1])
        assert abs(value - 2.247) < 0.01

    def test_verify_subcommand_quick(self):
        proc = _cli("verify", "--quick")
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 4


_SWEEP_STATIC = ("size,mn_times_crlb,asymptotic,rel_gap\n"
                 "4,2.20820363774,2.24770759032,-1.758e-02\n"
                 "8,2.23722383063,2.24770759032,-4.664e-03\n")
_SWEEP_DI = ("size,mn_times_crlb,asymptotic,rel_gap\n"
             "4,0.435813982265,0.397779599175,9.562e-02\n"
             "8,0.407501263466,0.397779599175,2.444e-02\n")
# the fading-gain bounds at the static preset
_SWEEP_DI_TABLE_II = ("size,mn_times_crlb,asymptotic,rel_gap\n"
                      "4,0.50227445345,0.452381023549,1.103e-01\n"
                      "8,0.464319593004,0.452381023549,2.639e-02\n")
_COLLINEAR = ("--sweep-sizes", "8", "--offsets", "0.1,0.1,0.2,0.2,0.3,0.3")

# argv -> the exact stdout of the crlb/offsets bound commands; stderr is empty
GOLDEN_CLI = {
    ("crlb", "--objective", "static-asymptotic"):
        "static-asymptotic CRLB at the given offsets: 2.24770759032\n",
    ("crlb", "--objective", "static-finite"):
        "static-finite CRLB at the given offsets: 0.0349566223535\n",
    # without --offsets each objective takes its model's preset
    ("crlb", "--objective", "di-asymptotic"):
        "di-asymptotic CRLB at the given offsets: 0.397779599175\n",
    ("crlb", "--objective", "di-finite"):
        "di-finite CRLB at the given offsets: 0.00636720724165\n",
    ("crlb", "--objective", "di-asymptotic", "--offsets", "tableII"):
        "di-asymptotic CRLB at the given offsets: 0.452381023549\n",
    ("crlb", "--objective", "di-finite", "--offsets", "tableII"):
        "di-finite CRLB at the given offsets: 0.00725499364069\n",
    ("crlb", "--objective", "static-asymptotic", "--sweep-sizes", "4,8"):
        _SWEEP_STATIC,
    ("crlb", "--objective", "static-finite", "--sweep-sizes", "4,8"):
        _SWEEP_STATIC,
    ("crlb", "--objective", "di-asymptotic", "--sweep-sizes", "4,8"):
        _SWEEP_DI,
    ("crlb", "--objective", "di-finite", "--sweep-sizes", "4,8"): _SWEEP_DI,
    ("crlb", "--objective", "di-asymptotic", "--sweep-sizes", "4,8",
     "--offsets", "tableII"): _SWEEP_DI_TABLE_II,
    ("crlb", "--objective", "di-finite", "--sweep-sizes", "4,8",
     "--offsets", "tableII"): _SWEEP_DI_TABLE_II,
    # degenerate (collinear) offsets: an infinite bound, no warning
    ("crlb", "--objective", "static-finite", *_COLLINEAR):
        "size,mn_times_crlb,asymptotic,rel_gap\n8,inf,inf,nan\n",
    ("crlb", "--objective", "di-asymptotic", *_COLLINEAR):
        "size,mn_times_crlb,asymptotic,rel_gap\n8,inf,inf,nan\n",
    # on an axis the projected diagonal is rounding noise, not zero
    ("crlb", "--objective", "di-asymptotic", "--sweep-sizes", "8",
     "--offsets", "0.1,0,0.2,0,0.3,0"):
        "size,mn_times_crlb,asymptotic,rel_gap\n8,inf,inf,nan\n",
    # a gain SNR that underflows to 0: an infinite direction bound
    ("crlb", "--objective", "di-asymptotic", "--snr-beta-db", "-4000"):
        "di-asymptotic CRLB at the given offsets: inf\n",
    ("crlb", "--objective", "di-finite", "--snr-beta-db", "-4000"):
        "di-finite CRLB at the given offsets: inf\n",
    ("offsets", "--objective", "static-finite", "--robustness", "4,8"):
        "m,n,crlb_at_offsets,crlb_min,rel_gap\n"
        "4,4,0.138012727359,0.137510712814,3.651e-03\n"
        "8,8,0.0349566223535,0.0349380994729,5.302e-04\n",
    ("offsets", "--objective", "di-finite", "--robustness", "4,8"):
        "m,n,crlb_at_offsets,crlb_min,rel_gap\n"
        "4,4,0.0272383738916,0.0271892718154,1.806e-03\n"
        "8,8,0.00636720724165,0.00636651240941,1.091e-04\n",
    # the preset's bound at 8x8 is above 1e30, the optimum still below it:
    # the search runs
    ("offsets", "--objective", "di-finite", "--robustness", "8,16",
     "--snr-beta-db=-170"):
        "m,n,crlb_at_offsets,crlb_min,rel_gap\n"
        "8,8,1.3735914959e+30,5.8186781418e+29,1.361e+00\n"
        "16,16,8.70144006021e+28,3.61013939628e+28,1.410e+00\n",
    # the benchmark's sweeps
    ("offsets", "--objective", "static-finite", "--robustness",
     "8,16,32,64"):
        "m,n,crlb_at_offsets,crlb_min,rel_gap\n"
        "8,8,0.0349566223535,0.0349380994729,5.302e-04\n"
        "16,16,0.00876972586991,0.00876687039933,3.257e-04\n"
        "32,32,0.00219437584325,0.00219370167665,3.073e-04\n"
        "64,64,0.000548716007339,0.000548548852493,3.047e-04\n",
    ("offsets", "--objective", "di-finite", "--robustness", "8,16,32,64"):
        "m,n,crlb_at_offsets,crlb_min,rel_gap\n"
        "8,8,0.00636720724165,0.00636651240941,1.091e-04\n"
        "16,16,0.00156338269785,0.00156337213014,6.760e-06\n"
        "32,32,0.000389054912045,0.000389054629922,7.252e-07\n"
        "64,64,9.71515679607e-05,9.71515148035e-05,5.472e-07\n",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_CLI), ids=" ".join)
def test_bound_commands_golden_output(argv):
    proc = _cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, GOLDEN_CLI[argv], "")


def test_asymptotic_search_ignores_array_size_flags():
    """The asymptotic objectives have no size, so --m/--n change neither
    the search nor the canonical form it prints."""
    argv = ("offsets", "--objective", "static-asymptotic", "--grid", "7",
            "--iters", "60")
    plain = _cli(*argv)
    sized = _cli(*argv, "--m", "4", "--n", "8")
    assert plain.returncode == sized.returncode == 0
    assert plain.stdout == sized.stdout


GOOD_RUN = TestConfigFile.GOOD
_NO_SCHEDULE = GOOD_RUN.replace('schedule = "diminishing"\nepsilon = 1.0\n'
                                "k0 = 0.0\n", "")


def _with_offsets(value):
    return GOOD_RUN.replace('offsets = "tableII"', f'offsets = "{value}"')


# (config text, extra argv); each is one bad input
BAD_INPUTS = {
    "fractional trials": (GOOD_RUN + "trials = 1.7\n", []),
    "string for an integer": (GOOD_RUN.replace("seed = 7", 'seed = "7"'), []),
    "non-numeric snr": (GOOD_RUN.replace("snr_db = 0.0", 'snr_db = "loud"'),
                        []),
    "rho out of range": ('scenario = "dynamic-ii"\nrho = 1.5\n', []),
    "negative epsilon": (GOOD_RUN.replace("epsilon = 1.0", "epsilon = -1.0"),
                         []),
    "empty array": (GOOD_RUN.replace("m = 8", "m = 0"), []),
    "unknown region": ('aoa_region = "nowhere"\n', []),
    "unknown tracker": ('tracker = "nope"\n', []),
    "zero cycles": (GOOD_RUN.replace("eccs = 10", "eccs = 0"), []),
    "unknown key": ("bogus = 3\n", []),
    "duplicate key": (GOOD_RUN + "seed = 8\n", []),
    "unparsable value": ("seed = zebra\n", []),
    "three offsets": (_with_offsets("0.1,0.2,0.3"), []),
    "offsets outside the square": (
        _with_offsets("0.1,0.2,0.3,-0.4,-1.5,0.1"), []),
    "non-finite offsets": (_with_offsets("0.1,0.2,0.3,nan,0.5,0.1"), []),
    "unknown offsets preset": (_with_offsets("tableIV"), []),
    "negative seed": (GOOD_RUN.replace("seed = 7", "seed = -1"), []),
    # a bool is an int to Python, not a trial count
    "boolean trials": (GOOD_RUN.replace("trials = 2", "trials = true"), []),
    # a config file sets neither the noise scale nor the output path
    "noise_var key": (GOOD_RUN + "noise_var = 1.0\n", []),
    "out key": (GOOD_RUN + 'out = "x.csv"\n', []),
    "unwritable output": (GOOD_RUN, ["--out", "/no/such/dir/out.csv"]),
    # a one-element array cannot resolve a direction: singular Fisher
    "one-element array": (GOOD_RUN.replace("m = 8\nn = 8", "m = 1\nn = 1"),
                          []),
    "vanishing gain variance": (
        'scenario = "dynamic-i"\ntracker = "RBT_DI"\noffsets = "tableIII"\n'
        "sigma_beta_c_sq = 1e-320\n", []),
    "overflowing snr": (GOOD_RUN.replace("snr_db = 0.0", "snr_db = 1e5"), []),
    "overflowing Rician K": (GOOD_RUN.replace("rician_k_db = 15.0",
                                              "rician_k_db = 4000.0"), []),
    "oversized array": (GOOD_RUN.replace("m = 8", "m = 99999999999999999999"),
                        []),
    # inputs a run would ignore
    "schedule for BeamSwitch": (
        GOOD_RUN.replace('tracker = "JBCT_S"', 'tracker = "BeamSwitch"'), []),
    "schedule for EKF": (
        _NO_SCHEDULE.replace('tracker = "JBCT_S"', 'tracker = "EKF"')
        + 'schedule = "constant"\nstep = 0.3\n', []),
    "estimated gain variance for JBCT_S": (
        GOOD_RUN + 'rbt_sigma_mode = "estimated"\n', []),
    "schedule keys without a schedule": (
        _NO_SCHEDULE + "epsilon = 50.0\nk0 = 3.0\n", []),
    "epsilon with the constant schedule": (
        _NO_SCHEDULE + 'schedule = "constant"\nepsilon = -5.0\n', []),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_track_input_exits_1_with_one_error_line(name, tmp_path, capsys):
    text, extra = BAD_INPUTS[name]
    cfg = tmp_path / "run.toml"
    cfg.write_text(text)
    try:
        code = main(["track", "--config", str(cfg), *extra])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1


@pytest.mark.parametrize("field, value", [("pilot_amp", 2.0)],
                         ids=["pilot_amp"])
def test_run_array_scale_rejected(field, value):
    """A run's pilot SNR is ``snr_db`` alone: an array whose pilot
    amplitude is not 1 is a ConfigError naming the field, not a setting
    the run overwrites."""
    ec = _quasi_static_config(array=ArrayConfig(8, 8, **{field: value}))
    with pytest.raises(ConfigError, match=f"array.{field}: expected 1.0"):
        run_experiment(ec)


def test_huge_pilot_amplitude_is_a_value_error():
    """On the largest array, a pilot amplitude whose square overflows is
    a ValueError from the array, not an OverflowError from a bound or the
    direction tracker that squares it."""
    with pytest.raises(ValueError, match="pilot amplitude"):
        ArrayConfig(10**9, 10**9, pilot_amp=1e155)


def _floor_gain_var(floor):
    """The sigma_beta_c_sq that puts 0 dB at the floor: 10^(floor/10),
    raised by ulps until the rounded rule accepts it."""
    var = 10.0 ** (floor / 10.0)
    while 10.0 * math.log10(var) < floor:
        var = math.nextafter(var, math.inf)
    return var


def _track(tmp_path, snr_db, tracker="JBCT_S", scenario="quasi-static",
           region="central", gain_var=None, size=8, extra=""):
    """Exit code and CSV path of a 3-trial, 6-cycle ``track`` run on a
    size x size array; ``extra`` holds further config lines."""
    offsets = "tableIII" if tracker == "RBT_DI" else "tableII"
    cfg = tmp_path / "run.toml"
    cfg.write_text(f'scenario = "{scenario}"\ntracker = "{tracker}"\n'
                   f'aoa_region = "{region}"\noffsets = "{offsets}"\n'
                   f"snr_db = {snr_db!r}\ntrials = 3\neccs = 6\n"
                   f"record_every = 2\nm = {size}\nn = {size}\n"
                   + (f"sigma_beta_c_sq = {gain_var!r}\n"
                      if gain_var is not None else "") + extra)
    out = tmp_path / "out.csv"
    try:
        code = main(["track", "--config", str(cfg), "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    return code, out


def _assert_finite_rows(out, tracker, scenario):
    rows = read_csv(out)
    assert all(math.isfinite(r.mse_x) for r in rows)
    assert all(math.isfinite(r.mse_h) == (tracker != "RBT_DI") for r in rows)
    # a bound applies to the quasi-static and the fading-gain scenario
    assert all(math.isfinite(r.crlb_ref) == (scenario != "dynamic-ii")
               for r in rows)


class TestSnrFloor:
    """``snr_db`` has one floor for every tracker, derived from the float
    range, and so has the gain SNR snr_db + 10 log10 sigma_beta_c_sq below
    unit gain variance: at it every run is finite and warns of nothing,
    below it a run is a configuration error naming ``snr_db``."""

    FLOOR = snr_db_floor(ScenarioConfig(QuasiStatic()))
    FLOOR_GAIN_VAR = _floor_gain_var(FLOOR)

    def test_floor_value(self):
        assert self.FLOOR == pytest.approx(-739.1316389, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("region", ["central", "edge"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_KEYS))
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_runs_at_the_floor_are_finite(self, tmp_path, tracker, scenario,
                                          region):
        code, out = _track(tmp_path, self.FLOOR, tracker, scenario, region)
        assert code == 0
        _assert_finite_rows(out, tracker, scenario)

    @pytest.mark.parametrize("snr_db", [FLOOR - 1.0, -3000.0, -3080.0])
    @pytest.mark.parametrize("tracker", ["JBCT_S", "RBT_DI"])
    def test_below_the_floor_exits_1(self, tmp_path, capsys, snr_db,
                                     tracker):
        code, _ = _track(tmp_path, snr_db, tracker, "dynamic-i")
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: snr_db")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("region", ["central", "edge"])
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_runs_at_the_gain_snr_floor_are_finite(self, tmp_path, tracker,
                                                   region):
        code, out = _track(tmp_path, 0.0, tracker, "dynamic-i", region,
                           self.FLOOR_GAIN_VAR)
        assert code == 0
        rows = read_csv(out)
        assert all(math.isfinite(r.mse_x) for r in rows)
        assert all(math.isfinite(r.crlb_ref) for r in rows)

    @pytest.mark.parametrize("snr_db, gain_var", [
        (0.0, 1e-100), (0.0, 1e-200), (0.0, 1e-300),
        (-0.01, FLOOR_GAIN_VAR),
        # a large gain variance leaves the pilot's own floor in place
        (FLOOR - 1.0, 1e300)])
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_below_the_gain_snr_floor_exits_1(self, tmp_path, capsys,
                                              snr_db, gain_var, tracker):
        code, _ = _track(tmp_path, snr_db, tracker, "dynamic-i",
                         gain_var=gain_var)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: snr_db")
        assert "sigma_beta_c_sq" in err[0]


class TestSnrCeiling:
    """``snr_db`` has a ceiling at each array size, derived from the float
    range, and so has the gain SNR snr_db + 10 log10 sigma_beta_c_sq above
    unit gain variance: at it every run is finite and warns of nothing,
    above it a run is a configuration error naming ``snr_db``."""

    @pytest.mark.parametrize("size, value", [(8, 1485.4872681),
                                             (1024, 1443.3430687)])
    def test_ceiling_value(self, size, value):
        assert snr_db_ceiling(ArrayConfig(size, size)) == \
            pytest.approx(value, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [8, 1024])
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_KEYS))
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_runs_at_the_ceiling_are_finite(self, tmp_path, tracker,
                                            scenario, size):
        ceiling = snr_db_ceiling(ArrayConfig(size, size))
        code, out = _track(tmp_path, ceiling, tracker, scenario, size=size)
        assert code == 0
        _assert_finite_rows(out, tracker, scenario)

    @pytest.mark.parametrize("size", [8, 1024])
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_above_the_ceiling_exits_1(self, tmp_path, capsys, tracker,
                                       size):
        ceiling = snr_db_ceiling(ArrayConfig(size, size))
        code, _ = _track(tmp_path, math.nextafter(ceiling, math.inf),
                         tracker, size=size)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: snr_db")
        assert f"at {size}x{size}" in err[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_gain_variance_counts_toward_the_ceiling(self, tmp_path, capsys,
                                                     tracker):
        """sigma_beta_c_sq = 1e10 takes 100 dB of the ceiling."""
        ceiling = snr_db_ceiling(ArrayConfig(8, 8))
        code, out = _track(tmp_path, ceiling - 100.001, tracker, "dynamic-i",
                           gain_var=1e10)
        assert code == 0
        _assert_finite_rows(out, tracker, "dynamic-i")
        code, _ = _track(tmp_path, ceiling - 99.999, tracker, "dynamic-i",
                         gain_var=1e10)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: snr_db")
        assert "sigma_beta_c_sq = 10000000000.0" in err[0]


class TestExtentCeiling:
    """The array extents m d1 and n d2 have one ceiling, derived from the
    float range: at it every run's squared direction error is finite and
    warns of nothing, above it a run is a configuration error naming the
    spacing."""

    CEILING = extent_ceiling()

    def test_ceiling_value(self):
        assert self.CEILING == pytest.approx(3.3519519824856e153, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", ["d1", "d2"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_KEYS))
    @pytest.mark.parametrize("tracker", TRACKER_NAMES)
    def test_runs_at_the_ceiling_are_finite(self, tmp_path, tracker,
                                            scenario, key):
        spacing = self.CEILING / 8
        assert 8 * spacing == self.CEILING
        code, out = _track(tmp_path, 0.0, tracker, scenario,
                           extra=f"{key} = {spacing!r}\n")
        assert code == 0
        _assert_finite_rows(out, tracker, scenario)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, spacing", [
        ("d1", math.nextafter(CEILING / 8, math.inf)),
        ("d2", math.nextafter(CEILING / 8, math.inf)),
        # n = 8 and d2 = 1e160 printed mse_x = inf after an overflow warning
        ("d2", 1e160), ("d1", 1e300)])
    @pytest.mark.parametrize("tracker", ["JBCT_DII", "EKF"])
    def test_above_the_ceiling_exits_1(self, tmp_path, capsys, tracker, key,
                                       spacing):
        code, _ = _track(tmp_path, 0.0, tracker, "dynamic-ii",
                         extra=f"{key} = {spacing!r}\n")
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {key}: ")


# argv of the crlb/offsets/verify subcommands; each has one input the
# command cannot use: an array size, a grid or iteration count, a gain SNR,
# a seed, an output path, or a flag given to a sweep that does not use it
BAD_NUMBERS = {
    "non-integer sweep size": ["crlb", "--objective", "static-finite",
                               "--sweep-sizes", "8,abc"],
    "non-integer robustness size": ["offsets", "--objective", "static-finite",
                                    "--robustness", "x"],
    "zero sweep size": ["crlb", "--objective", "static-finite",
                        "--sweep-sizes", "0"],
    "zero robustness size": ["offsets", "--objective", "static-finite",
                             "--robustness", "0"],
    "zero --m": ["crlb", "--objective", "di-finite", "--m", "0"],
    "zero --grid": ["offsets", "--objective", "static-asymptotic",
                    "--grid", "0"],
    # one grid point per axis makes every seed set degenerate
    "one-point --grid": ["offsets", "--objective", "static-asymptotic",
                         "--grid", "1"],
    "one-point --grid, zero --iters": ["offsets", "--objective",
                                       "static-asymptotic", "--grid", "1",
                                       "--iters", "0"],
    "one-point finite --grid": ["offsets", "--objective", "di-finite",
                                "--grid", "1"],
    # the seed grid grows as the fourth power of its points per axis
    "oversized --grid": ["offsets", "--objective", "static-asymptotic",
                         "--grid", "300"],
    "one point over the --grid bound": [
        "offsets", "--objective", "static-finite", "--m", "6", "--n", "12",
        "--grid", str(MAX_GRID_POINTS + 1)],
    # a one-element array has no finite bound at any offsets
    "one-element robustness size": ["offsets", "--objective",
                                    "static-finite", "--robustness", "1,8"],
    "one-element last robustness size": ["offsets", "--objective",
                                         "di-finite", "--robustness", "8,1"],
    "nan crlb snr": ["crlb", "--objective", "di-finite",
                     "--snr-beta-db", "nan"],
    "inf crlb snr": ["crlb", "--objective", "di-finite",
                     "--snr-beta-db", "inf"],
    "-inf crlb snr": ["crlb", "--objective", "di-finite",
                      "--snr-beta-db=-inf"],
    "nan offsets snr": ["offsets", "--objective", "di-finite",
                        "--snr-beta-db", "nan"],
    "inf offsets snr": ["offsets", "--objective", "di-asymptotic",
                        "--snr-beta-db", "inf"],
    "-inf offsets snr": ["offsets", "--objective", "di-finite",
                         "--robustness", "8", "--snr-beta-db=-inf"],
    "overflowing crlb snr": ["crlb", "--objective", "di-finite",
                             "--snr-beta-db", "1e308"],
    "overflowing offsets snr": ["offsets", "--objective", "di-asymptotic",
                                "--snr-beta-db", "5000"],
    "oversized --m": ["crlb", "--objective", "static-finite",
                      "--m", "99999999999999999999"],
    "oversized sweep size": ["crlb", "--objective", "static-finite",
                             "--sweep-sizes", "99999999999999999999"],
    # a sweep has its own grid and iteration count and prints a table
    "--out with --robustness": ["offsets", "--objective", "static-finite",
                                "--robustness", "8", "--out", "sweep.csv"],
    "--grid with --robustness": ["offsets", "--objective", "di-finite",
                                 "--robustness", "8", "--grid", "3"],
    "--iters with --robustness": ["offsets", "--objective", "static-finite",
                                  "--robustness", "8,16", "--iters", "1"],
    # a sweep sizes its arrays itself
    "--m with --sweep-sizes": ["crlb", "--objective", "static-finite",
                               "--sweep-sizes", "8,16", "--m", "4",
                               "--n", "3"],
    "--n with an asymptotic --sweep-sizes": [
        "crlb", "--objective", "di-asymptotic", "--sweep-sizes", "4,8",
        "--n", "4"],
    "--m with --robustness": ["offsets", "--objective", "di-finite",
                              "--robustness", "8", "--m", "5"],
    "--n with --robustness": ["offsets", "--objective", "static-finite",
                              "--robustness", "8", "--n", "8"],
    # the static bounds have no gain SNR
    "--snr-beta-db with static-finite": [
        "crlb", "--objective", "static-finite", "--snr-beta-db", "50"],
    "--snr-beta-db with static-asymptotic": [
        "offsets", "--objective", "static-asymptotic", "--snr-beta-db", "50"],
    # the search runs, then its row cannot be appended: nothing is printed
    "unwritable --out": ["offsets", "--objective", "static-asymptotic",
                         "--grid", "3", "--iters", "5",
                         "--out", "/no/such/dir/search.csv"],
    "directory --out": ["offsets", "--objective", "di-asymptotic",
                        "--grid", "3", "--iters", "5", "--out", "."],
    "negative verify seed": ["verify", "--quick", "--seed", "-1"],
    # a gain SNR that underflows to 0: every bound is infinite
    "zero-gain-SNR search": ["offsets", "--objective", "di-asymptotic",
                             "--snr-beta-db", "-4000"],
    "zero-gain-SNR sweep": ["offsets", "--objective", "di-finite",
                            "--robustness", "4", "--snr-beta-db", "-4000"],
    # a gain SNR so low that every bound the search meets is finite but at
    # or above the 1e30 it holds non-finite values at
    "below-domain search": ["offsets", "--objective", "di-finite",
                            "--snr-beta-db=-200"],
    "below-domain sweep": ["offsets", "--objective", "di-finite",
                           "--robustness", "8,16", "--snr-beta-db=-200"],
}


@pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
def test_bad_size_exits_1_with_one_error_line(name, capsys):
    code = main(BAD_NUMBERS[name])
    out, err = capsys.readouterr()
    assert code == 1
    assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1
    assert out == ""


@pytest.mark.parametrize("name, message", [
    ("one-point --grid", "error: --grid: "),
    ("oversized --grid", "error: --grid: at most"),
    ("one-element robustness size", "at 1x1"),
    ("one-element last robustness size", "at 1x1"),
    ("--out with --robustness", "error: --out: not used with --robustness"),
    ("--grid with --robustness", "error: --grid: not used with --robustness"),
    ("--iters with --robustness",
     "error: --iters: not used with --robustness"),
    ("--m with --sweep-sizes", "error: --m: not used with --sweep-sizes"),
    ("--n with an asymptotic --sweep-sizes",
     "error: --n: not used with --sweep-sizes"),
    ("--m with --robustness", "error: --m: not used with --robustness"),
    ("--n with --robustness", "error: --n: not used with --robustness"),
    ("--snr-beta-db with static-finite",
     "error: --snr-beta-db: not used with static-finite\n"),
    ("--snr-beta-db with static-asymptotic",
     "error: --snr-beta-db: not used with static-asymptotic\n"),
    ("unwritable --out", "error: cannot write /no/such/dir/search.csv: "),
    ("directory --out", "error: cannot write .: "),
    ("negative verify seed", "error: --seed: must be nonnegative"),
    ("zero-gain-SNR search",
     "error: no refinement start produced a finite objective\n"),
    ("zero-gain-SNR sweep",
     "error: no refinement start produced a finite objective at 4x4"),
    *[(name, "error: --snr-beta-db: at -200.0 dB and the tableIII offsets "
             "the bound is 1.37359e+36 at 8x8, outside the search's domain "
             "of bounds below 1e+30\n")
      for name in ("below-domain search", "below-domain sweep")]])
def test_bad_size_error_names_the_input(name, message, capsys):
    """A one-point or oversized grid is rejected as a --grid error, a
    failed sweep names the size that failed, a flag given to a sweep or an
    objective that does not use it is named instead of ignored, and an
    output path that cannot be written and a negative seed are named."""
    main(BAD_NUMBERS[name])
    assert message in capsys.readouterr().err


class TestSnrBetaCeiling:
    """``--snr-beta-db`` has a ceiling wherever a command evaluates the
    finite direction bound, derived from the float range at the largest
    size it evaluates: at it the bound is finite and warns of nothing, 1 dB
    above it the command gives one error line naming the flag."""

    CEILING = snr_beta_db_ceiling(8 * 8)
    COMMANDS = [("crlb", "--objective", "di-finite"),
                ("crlb", "--objective", "di-asymptotic", "--sweep-sizes",
                 "4,8"),
                ("offsets", "--objective", "di-finite", "--robustness",
                 "4,8")]

    def test_ceiling_value(self):
        assert self.CEILING == pytest.approx(1505.4872681, abs=1e-6)

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_at_the_ceiling_is_finite(self, argv):
        proc = _cli(*argv, "--snr-beta-db", repr(self.CEILING),
                    errors=(RuntimeWarning,))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "inf" not in proc.stdout and "nan" not in proc.stdout

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_above_the_ceiling_is_an_error(self, argv, capsys):
        code = main([*argv, "--snr-beta-db", repr(self.CEILING + 1.0)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: --snr-beta-db: ")
        assert len(err.splitlines()) == 1 and "at 8x8" in err
