"""Oracle tests for the trial-batched Monte-Carlo engine.

The reference is the per-trial loop the engine replaced: the scalar
channel functions of ``reference.py``, each trial's RNG stream drawn call
by call, and per trial the baselines' scalar steps or, for the joint and
direction trackers, their registered batched class run on one row.  The
engine must reproduce it per trial and cycle, and for a fixed seed its
CSV must be byte-identical at any batch split.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.arrays import Aoa, ArrayConfig, aoa_coords, probe_kernels
from beamtrack.channels import DynamicI, DynamicII, QuasiStatic, ScenarioConfig
from beamtrack.estimation import di_offsets_crlb, static_offsets_crlb
from beamtrack.harness import (TRACKERS, ExperimentConfig, _recorded_cycles,
                               _records, _run_batch, _stationary_gain_var,
                               _trial_rngs, effective_array, emit_csv,
                               format_csv, run_experiment)
from beamtrack.offsets import FADING_OFFSETS, STATIC_OFFSETS
from beamtrack.signal import ChannelParams, build_ebm
from beamtrack.trackers import (STEP_CAP, ConstantStep, DiminishingStep,
                                EkfBatch,
                                JbctBatch, TrackerRun,
                                _jbct_direction_batch, jbct_direction)
from reference import (_trial_rng, baseline_beam_switch_step,
                       baseline_ekf_step, beam_switch_probes,
                       beam_switch_tracker, ekf_probes, ekf_tracker,
                       element_gain, evolve, init_channel, initial_estimate)

# ---------------------------------------------------------------------------
# reference: one trial at a time
# ---------------------------------------------------------------------------


def _observe(cfg, state, dirs, rng):
    g, _, _ = probe_kernels(dirs - state.x[None, :], cfg.m, cfg.n)
    noise = np.sqrt(0.5) * (rng.standard_normal(3)
                            + 1j * rng.standard_normal(3))
    return cfg.pilot_amp * state.beta_eff * g + noise


def _errors(cfg, state, x_hat, beta_hat):
    dx = x_hat - state.x
    err_x = float(dx @ dx)
    if beta_hat is None:
        return np.nan, err_x
    g, _, _ = probe_kernels(dx, cfg.m, cfg.n)
    cross = np.sqrt(cfg.size) * g
    beta = state.beta_eff
    err_h = (cfg.size * (abs(beta_hat) ** 2 + abs(beta) ** 2)
             - 2.0 * np.real(np.conj(beta_hat) * beta * cross))
    return max(float(err_h), 0.0) / cfg.size, err_x


def _estimated_gain_variance(cfg, x_hat, sigma_c_sq):
    theta, phi = aoa_coords(cfg, *x_hat)
    return float(element_gain(Aoa(theta, phi)) ** 2 * sigma_c_sq)


def reference_trial(ec, trial, hits=None):
    """Per-trial errors (err_h, err_x), each (num_eccs,), and the trial's
    bound.  ``hits`` (a dict of lists) collects the cycle of each of the
    joint tracker's gain-floor and step-cap activations."""
    cfg = effective_array(ec)
    sc = ec.scenario
    offsets = ec.offsets
    rng = _trial_rng(ec.seed, trial)
    state = init_channel(sc, cfg, rng)
    psi0 = initial_estimate(state, cfg, rng, ec.init_halfwidth, offsets)
    schedule = ec.schedule or TRACKERS[ec.tracker][1]
    sigma_c_sq = _stationary_gain_var(sc.kind)

    tracker = ec.tracker
    crlb_ref = np.nan
    if isinstance(sc.kind, QuasiStatic):
        crlb_ref = float(static_offsets_crlb(offsets.deltas, cfg.m, cfg.n,
                                             cfg.pilot_amp))
    if tracker in ("JBCT_S", "JBCT_DII", "RBT_DI"):
        eta = element_gain(state.aoa)
        gain_var_at = None
        if ec.rbt_sigma_mode == "estimated":
            def gain_var_at(x):
                return np.array([_estimated_gain_variance(cfg, x[0],
                                                          sigma_c_sq)])
        run = TrackerRun(cfg, offsets, schedule,
                         np.array([eta**2 * sigma_c_sq]), gain_var_at)
        ts = TRACKERS[tracker][0](run, psi0.x[None],
                                  np.array([psi0.beta]))
        probes_of = lambda: ts.probes()[0]
        estimate_of = lambda: tuple(None if v is None else v[0]
                                    for v in ts.estimate())
    elif tracker == "BeamSwitch":
        ts = beam_switch_tracker(cfg, psi0.x)
        probes_of = lambda: beam_switch_probes(ts)
        estimate_of = lambda: (ts.x, ts.beta_hat)
    else:  # EKF
        ts = ekf_tracker(cfg, psi0.x)
        ts.beta_hat = psi0.beta
        probes_of = lambda: ekf_probes(ts)
        estimate_of = lambda: (ts.x, ts.beta_hat)

    if isinstance(sc.kind, DynamicI):
        eta_true = element_gain(state.aoa)
        snr_b = cfg.pilot_amp**2 * eta_true**2 * sigma_c_sq
        crlb_ref = float(di_offsets_crlb(offsets.deltas, cfg.m, cfg.n, snr_b))

    err_h = np.empty(ec.num_eccs)
    err_x = np.empty(ec.num_eccs)
    for k in range(ec.num_eccs):
        dirs = probes_of()
        state = evolve(state, sc, cfg, rng)
        y = _observe(cfg, state, dirs, rng)
        if tracker == "BeamSwitch":
            baseline_beam_switch_step(ts, cfg, y)
        elif tracker == "EKF":
            baseline_ekf_step(ts, cfg, y)
        else:
            if hits is not None:
                _count_safeguards(ts, y, hits)
            ts.update(y[None])
        x_hat, beta_hat = estimate_of()
        err_h[k], err_x[k] = _errors(cfg, state, x_hat, beta_hat)
    return err_h, err_x, crlb_ref


def _count_safeguards(ts, y, hits):
    beta = ts.estimate()[1]
    if not abs(beta[0]) ** 2 >= 1e-24:
        return
    cycle = ts.k + 1
    if (beta[0] * beta[0].conjugate()).real < ts.cache.gain_floor_sq:
        hits["floor"].append(cycle)
    direction = _jbct_direction_batch(ts.cache, beta, y[None])[0]
    if (np.all(np.isfinite(direction))
            and np.abs(ts.schedule.at(cycle) * direction).max() > STEP_CAP):
        hits["cap"].append(cycle)


def reference_run(ec, hits=None):
    parts = [reference_trial(ec, t, hits) for t in range(ec.num_trials)]
    return (np.array([p[0] for p in parts]), np.array([p[1] for p in parts]),
            np.array([p[2] for p in parts]))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

QS = ScenarioConfig(QuasiStatic())
DI = ScenarioConfig(DynamicI(1.0))
DII = ScenarioConfig(DynamicII(rho=0.995, delta_a=np.deg2rad(0.3)))

CASES = {
    "JBCT_S-qs": dict(tracker="JBCT_S", scenario=QS),
    "JBCT_S-dii": dict(tracker="JBCT_S", scenario=DII),
    "JBCT_DII-qs": dict(tracker="JBCT_DII", scenario=QS),
    "JBCT_DII-dii": dict(tracker="JBCT_DII", scenario=DII),
    "BeamSwitch-qs": dict(tracker="BeamSwitch", scenario=QS),
    "BeamSwitch-dii": dict(tracker="BeamSwitch", scenario=DII),
    "EKF-qs": dict(tracker="EKF", scenario=QS),
    "EKF-dii": dict(tracker="EKF", scenario=DII),
    # 20 dB: the information-form update against the reference pinv solve
    "EKF-dii-20dB": dict(tracker="EKF", scenario=DII, snr_db=20.0),
    # a fast walk that keeps reflecting off the arrival region's edges
    "JBCT_DII-walls": dict(tracker="JBCT_DII", scenario=ScenarioConfig(
        DynamicII(rho=0.9, delta_a=0.25))),
    "RBT_DI-perfect": dict(tracker="RBT_DI", scenario=DI,
                           offsets=FADING_OFFSETS,
                           schedule=DiminishingStep(1.0, 5.0)),
    "RBT_DI-estimated": dict(tracker="RBT_DI", scenario=DI,
                             offsets=FADING_OFFSETS,
                             rbt_sigma_mode="estimated",
                             schedule=DiminishingStep(1.0, 5.0)),
}


def _config(case, **kw):
    base = dict(array=ArrayConfig(8, 8), offsets=STATIC_OFFSETS, num_trials=12,
                num_eccs=40, seed=3, record_every=1, init_halfwidth=0.25)
    base.update(CASES[case])
    base.update(kw)
    return ExperimentConfig(**base)


def _batched(ec, size):
    parts = [_run_batch(ec, range(first, min(first + size, ec.num_trials)))
             for first in range(0, ec.num_trials, size)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _assert_matches_reference(ec, hits=None):
    want = reference_run(ec, hits)
    got = _batched(ec, ec.num_trials)
    for w, g in zip(want, got):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-15)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestAgainstReference:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_trial_cycle_errors(self, case):
        _assert_matches_reference(_config(case))

    def test_deep_fade_hits_gain_floor_and_step_cap(self):
        """Rayleigh gain at -10 dB: the joint tracker's safeguards act, and
        the masked batch still follows the reference."""
        ec = _config("JBCT_S-qs", scenario=DI, snr_db=-10.0, num_trials=16)
        hits = {"floor": [], "cap": []}
        _assert_matches_reference(ec, hits)
        assert hits["floor"]
        assert hits["cap"]

    def test_regular_regime_caps_only_the_first_step(self):
        """The criterion-9a configuration (JBCT_S, quasi-static, step 1/k,
        0 dB, seed 7) at desk scale: the gain floor never acts, and the
        step cap truncates only updates of cycle 1, where the step is 1."""
        ec = _config("JBCT_S-qs", schedule=DiminishingStep(1.0), snr_db=0.0,
                     seed=7, num_trials=30, num_eccs=100)
        hits = {"floor": [], "cap": []}
        reference_run(ec, hits)
        assert hits["floor"] == []
        assert hits["cap"] and set(hits["cap"]) == {1}

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 8),
           eccs=st.integers(1, 12), case=st.sampled_from(sorted(CASES)))
    def test_property_random_runs(self, seed, trials, eccs, case):
        _assert_matches_reference(_config(case, seed=seed, num_trials=trials,
                                          num_eccs=eccs))


class TestTrialStreams:
    """The batch's generators, seeded in one vectorised pass, are the
    contract's ``default_rng(SeedSequence(seed, spawn_key=(t,)))``: the
    same seed words, bit-generator state and normals, for seeds of one to
    eleven 32-bit words (more than four words mix in after the pool) and
    batches that start past trial 0, up to trial 2^32 - 1."""

    @staticmethod
    def _assert_streams_match(seed, trials):
        for t, rng in zip(trials, _trial_rngs(seed, trials)):
            want = _trial_rng(seed, t)
            assert np.array_equal(
                rng.bit_generator.seed_seq.generate_state(4, np.uint64),
                want.bit_generator.seed_seq.generate_state(4, np.uint64))
            assert rng.bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.standard_normal(64),
                                  want.standard_normal(64))

    @pytest.mark.parametrize("seed", [0, 1, 5, 2**31 - 1, 2**32 - 1, 2**32,
                                      2**40 + 7, 2**63 - 1, 2**64, 2**128,
                                      2**130 + 3, 3**200])
    def test_fixed_seeds(self, seed):
        self._assert_streams_match(seed, range(0, 40))
        self._assert_streams_match(seed, range(2**32 - 3, 2**32))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**70),
                          st.integers(2**128, 2**320)),
           first=st.integers(1, 2**32 - 16), count=st.integers(1, 15))
    def test_property_random_batches(self, seed, first, count):
        self._assert_streams_match(seed, range(first, first + count))

    def test_normals_written_in_place(self):
        """``standard_normal(out=...)`` into a trial's (K, c) slice of the
        batch's (B, K, c) block, a full chunk and then a shorter one, draws
        the numbers of ``standard_normal((K, c))``."""
        block = np.empty((3, 8, 10))
        rngs = _trial_rngs(4, range(3))
        want = [_trial_rng(4, t) for t in range(3)]
        for count in (8, 5):
            for rng, rows in zip(rngs, block):
                rng.standard_normal(out=rows[:count])
            for rows, rng in zip(block, want):
                assert np.array_equal(rows[:count],
                                      rng.standard_normal((count, 10)))


class TestRecordedCycles:
    """A run that records every fifth of 23 cycles computes the errors at
    cycles 5, 10, 15, 20 and 23 only."""

    CYCLES = [5, 10, 15, 20, 23]

    @pytest.mark.parametrize("case", ["JBCT_S-qs", "RBT_DI-perfect",
                                      "EKF-dii"])
    def test_errors_at_recorded_cycles(self, case):
        ec = _config(case, record_every=5, num_eccs=23)
        assert _recorded_cycles(ec) == self.CYCLES
        want_h, want_x, want_crlb = reference_run(ec)
        got_h, got_x, got_crlb = _batched(ec, ec.num_trials)
        cols = [k - 1 for k in self.CYCLES]
        for w, g in ((want_h[:, cols], got_h), (want_x[:, cols], got_x),
                     (want_crlb, got_crlb)):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("case", ["JBCT_S-qs", "RBT_DI-perfect",
                                      "EKF-dii"])
    def test_csv_is_every_cycle_run_at_recorded_rows(self, case, tmp_path):
        ec = _config(case, record_every=5, num_eccs=23)
        emit_csv(run_experiment(ec), tmp_path / "sparse.csv")
        emit_csv(run_experiment(replace(ec, record_every=1)),
                 tmp_path / "every.csv")
        lines = (tmp_path / "every.csv").read_bytes().splitlines(True)
        want = lines[0] + b"".join(lines[k] for k in self.CYCLES)
        assert (tmp_path / "sparse.csv").read_bytes() == want


class TestCsvBytes:
    @pytest.mark.parametrize("case", ["JBCT_DII-dii", "EKF-dii",
                                      "RBT_DI-estimated"])
    def test_independent_of_batch_size(self, case, tmp_path):
        ec = _config(case, num_trials=15, num_eccs=20)
        runs = {size: _batched(ec, size) for size in (1, 7, ec.num_trials)}
        for size, arrays in runs.items():
            for a, b in zip(arrays, runs[1]):
                assert np.array_equal(a, b, equal_nan=True)
            emit_csv(_records(ec, *arrays), tmp_path / f"{size}.csv")
        first = (tmp_path / "1.csv").read_bytes()
        assert all((tmp_path / f"{size}.csv").read_bytes() == first
                   for size in runs)

    @pytest.mark.parametrize("case", ["JBCT_DII-dii", "JBCT_S-qs",
                                      "RBT_DI-perfect"])
    def test_cycles_beyond_one_chunk(self, case):
        """Normals and the channel trajectory are computed in chunks of
        cycles; a run longer than one chunk still follows the reference, so
        each scenario kind carries its channel across the boundary."""
        from beamtrack import harness
        ec = _config(case, num_trials=3, num_eccs=harness.CYCLE_CHUNK + 5)
        _assert_matches_reference(ec)


class TestCsvPins:
    """sha256 of small ``run_experiment`` CSVs, one per tracker and scenario
    of criteria 9 and 11: 40 trials x 60 cycles, every cycle recorded,
    seed 7, and of the raw ``_run_batch`` arrays behind them, whose last
    bits the CSV's 12 digits hide.  A change to the engine's arithmetic
    that is meant to keep the outputs must keep these bytes.  A change
    meant to alter them (such as a cancellation-free channel error)
    updates the hashes here and lists the old and new values in
    CHANGES.md.  The CSV bytes hold on each x86-64 loop family of numpy
    2.4.  The raw arrays' bytes differ between loop families, so they are
    hashed on numpy's baseline x86-64 loops, which every x86-64 CPU runs:
    they hold for one numpy build (numpy 2.4, x86-64)."""

    # numpy 2 names of the dispatched SIMD targets; disabling them leaves
    # the baseline loops (numpy ignores names a build does not dispatch)
    BASELINE_LOOPS = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

    DII = ScenarioConfig(DynamicII(0.995, np.deg2rad(0.3)))
    CASES = {
        "9a-JBCT_S": (ScenarioConfig(QuasiStatic()), "JBCT_S", STATIC_OFFSETS,
                      DiminishingStep(1.0)),
        "9b-RBT_DI": (ScenarioConfig(DynamicI(1.0)), "RBT_DI", FADING_OFFSETS,
                      DiminishingStep(1.0, 5.0)),
        "11-JBCT_DII": (DII, "JBCT_DII", STATIC_OFFSETS, ConstantStep(0.7)),
        "11-BeamSwitch": (DII, "BeamSwitch", STATIC_OFFSETS, None),
        "11-EKF": (DII, "EKF", STATIC_OFFSETS, None),
    }
    SHA256 = {
        "9a-JBCT_S": "789acfc44ba17b6d2db1f863f9aafd83"
                     "a73ca54ffba16134c75745321c1a2f39",
        "9b-RBT_DI": "249fdd381bded42e803df254e8c2935f"
                     "eec05212b8b121abe38887ac11a4b3cb",
        "11-JBCT_DII": "dec49f5485c20fa968218f2aa3e20b75"
                       "459580f2e145de64c605479a99842f18",
        "11-BeamSwitch": "832962feecdf6205ff30ada118e36e08"
                         "158de881339cabf25cd7321e9a710780",
        "11-EKF": "b21d27867d4488f8c74d975647b97173"
                  "42d220b9844b5e3426607d5be2542127",
    }
    # of the little-endian float64 bytes of err_h, err_x, then crlb
    RAW_SHA256 = {
        "9a-JBCT_S": "425dec179871744657338d99d54ccd5c"
                     "3349684a98ea03055c78374faeb5ff8a",
        "9b-RBT_DI": "4ad9c7a22d857333372ea375cdd83e9d"
                     "a1bd9f07bb90a7baaad2be36b381e28d",
        "11-JBCT_DII": "5e62fb8692f55af8e18f329dd937ad4b"
                       "0d1faa25589882a524e5c29ac20de639",
        "11-BeamSwitch": "b81d77606ce9037f3dce7aaf01591ed0"
                         "63181a73daa2b53e261a183575f30b4e",
        "11-EKF": "61426042d4b7276755ac913ab0e15286"
                  "17d81c459beda91e09f98ba42f789477",
        # at 20 dB, where the pilot amplitude is 10 and not 1, so that a
        # reordered pilot product shows
        "9a-JBCT_S@20dB": "abcb2e708349bb10d6c45250d2d1b486"
                          "fa09f13bf88bbe4e50986ac99f8d592a",
        "9b-RBT_DI@20dB": "313e66e6aa24816d614e7743ccba6a73"
                          "070bf6339707c1cdc21b806e4605d88b",
        "11-JBCT_DII@20dB": "5b6d3df6de4333f0bd8310b79b6f5af8"
                            "e838077387d3d6cd9d39cfa3af4aaca5",
        "11-BeamSwitch@20dB": "f55792aef7a078522da16c54f55e89c7"
                              "2e38162a5f741fcb6339387c8f13557c",
        "11-EKF@20dB": "9e4d52c70ed8e613946165d8acadef6e"
                       "e838a0af79acd90d6afb1b3d7cf5bd36",
    }

    # of the raw err_h and err_x of 3 trials over CYCLE_CHUNK + 5 cycles of
    # test_engine's cases, every cycle recorded ("@chunk": at record_every
    # = CYCLE_CHUNK)
    CHUNK_RAW_SHA256 = {
        "JBCT_DII-dii": "253fef84b2d5adb6bd5c432ec9242779"
                        "d9254dc652c13cf23862afef94b6585b",
        "BeamSwitch-dii": "e08fb246da6d69bacecd07690541e7c5"
                          "08f7bf0daa7a6a1d815f26f41ab44b7d",
        "EKF-dii": "55edd10924ff02cb9872721a0aa67aea"
                   "a88acb38078c65c6f8a4f52cf0a9e53f",
        "JBCT_DII-dii@chunk": "e7d5c38227ba743395f00d24ba24317b"
                              "d8288862c44f700a2fa20e78f904dc42",
    }

    # RBT_DI with the gain variance estimated at its direction estimates,
    # which rebuilds the update terms every cycle; of the raw arrays
    ESTIMATED_RAW_SHA256 = {
        "9b-RBT_DI": "8e448462b5eef28ac4191a79d8cdd2b7"
                     "df10d419e4870409e9dc30408cc01472",
        "11-RBT_DI": "8e497b20a8134279bf5a3ffb79bb6990"
                     "69f2dbf65061a1a3372e69bd22ab1635",
    }
    ESTIMATED_SCENARIOS = {"9b-RBT_DI": ScenarioConfig(DynamicI(1.0)),
                           "11-RBT_DI": DII}

    def _config(self, name):
        scenario, tracker, offsets, schedule = self.CASES[name]
        return ExperimentConfig(scenario, ArrayConfig(8, 8), tracker, offsets,
                                schedule, num_trials=40, num_eccs=60, seed=7,
                                record_every=1, init_halfwidth=0.25)

    @staticmethod
    def _raw_sha256(ec, arrays=3):
        """sha256 of the first ``arrays`` of ``_run_batch``'s arrays."""
        digest = hashlib.sha256()
        for arr in _run_batch(ec, range(ec.num_trials))[:arrays]:
            digest.update(np.ascontiguousarray(arr, "<f8").tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_csv_sha256(self, name):
        text = format_csv(run_experiment(self._config(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256[name]

    def _raw_hashes(self):
        """The raw-array hash of every pinned case, keyed by its name, the
        estimated-mode cases' prefixed with "estimated " and the
        chunk-boundary cases' with "chunk "."""
        hashes = {}
        for name in self.RAW_SHA256:
            case, _, at_20_db = name.partition("@")
            hashes[name] = self._raw_sha256(replace(
                self._config(case), snr_db=20.0 if at_20_db else 0.0))
        for name, scenario in self.ESTIMATED_SCENARIOS.items():
            hashes["estimated " + name] = self._raw_sha256(replace(
                self._config("9b-RBT_DI"), scenario=scenario,
                rbt_sigma_mode="estimated"))
        from beamtrack.harness import CYCLE_CHUNK
        for name in self.CHUNK_RAW_SHA256:
            case, _, at_chunk = name.partition("@")
            hashes["chunk " + name] = self._raw_sha256(_config(
                case, num_trials=3, num_eccs=CYCLE_CHUNK + 5,
                record_every=CYCLE_CHUNK if at_chunk else 1), arrays=2)
        return hashes

    @pytest.fixture(scope="class")
    def baseline_raw_sha256(self):
        """``_raw_hashes`` computed once, in a subprocess on numpy's
        baseline loops."""
        import beamtrack
        here = pathlib.Path(__file__)
        path = [str(pathlib.Path(beamtrack.__file__).parents[1]),
                str(here.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=self.BASELINE_LOOPS,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", "import json, test_engine; print(json."
             "dumps(test_engine.TestCsvPins()._raw_hashes()))"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("name", sorted(RAW_SHA256))
    def test_raw_arrays_sha256(self, name, baseline_raw_sha256):
        assert baseline_raw_sha256[name] == self.RAW_SHA256[name]

    @pytest.mark.parametrize("name", sorted(ESTIMATED_RAW_SHA256))
    def test_estimated_mode_raw_arrays_sha256(self, name,
                                              baseline_raw_sha256):
        assert (baseline_raw_sha256["estimated " + name]
                == self.ESTIMATED_RAW_SHA256[name])

    @pytest.mark.parametrize("name", sorted(CHUNK_RAW_SHA256))
    def test_errors_across_a_chunk_boundary_sha256(self, name,
                                                    baseline_raw_sha256):
        """A recorded cycle's error kernel is evaluated in the next
        cycle's kernel call, with the recorded cycle's true channel carried
        over; at a chunk's last cycle that call lies in the next chunk.
        These hashes were computed before the error kernel was folded into
        the next cycle's call, when each recorded cycle evaluated its
        errors in a call of its own, and the fold keeps them."""
        assert (baseline_raw_sha256["chunk " + name]
                == self.CHUNK_RAW_SHA256[name])

    def test_csv_and_cli_pins_on_baseline_loops(self):
        """The 12-digit CSV pins and the golden bound-command stdout hold
        on numpy's baseline x86-64 loops too: both run again in a
        subprocess with the dispatched SIMD targets disabled."""
        from test_harness import GOLDEN_CLI
        here = pathlib.Path(__file__)
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=self.BASELINE_LOOPS)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{here}::TestCsvPins::test_csv_sha256",
             f"{here.with_name('test_harness.py')}"
             "::test_bound_commands_golden_output"],
            env=env, capture_output=True, text=True)
        count = len(self.CASES) + len(GOLDEN_CLI)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1].startswith(f"{count} passed "), \
            proc.stdout


class TestKernelPasses:
    """A cycle evaluates its observation's gain kernel in one Dirichlet
    pass over both axes, and a recorded cycle's channel error shares the
    next cycle's pass: ten more cycles add ten passes whether or not they
    are recorded (only the run's last cycle takes a pass of its own for
    its error)."""

    @pytest.mark.parametrize("record_every, passes", [(10**6, 10), (1, 10)])
    def test_ten_more_cycles(self, monkeypatch, record_every, passes):
        from beamtrack import arrays
        calls = []
        dirichlet = arrays._dirichlet

        def counted(*args, **kwargs):
            calls.append(1)
            return dirichlet(*args, **kwargs)

        monkeypatch.setattr(arrays, "_dirichlet", counted)

        def count(cycles):
            calls.clear()
            run_experiment(_config("JBCT_DII-dii", num_eccs=cycles,
                                   record_every=record_every))
            return len(calls)

        assert count(25) - count(15) == passes


class TestChannelPasses:
    """The ground truth is simulated once per chunk of cycles, outside the
    cycle loop: ten more cycles inside one chunk of a dynamic-ii run add no
    call of the direction coordinates or the element pattern."""

    @pytest.mark.parametrize("name", ["dpv_coords", "element_gain_angles"])
    def test_ten_more_cycles(self, monkeypatch, name):
        from beamtrack import channels
        calls = []
        fn = getattr(channels, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(channels, name, counted)

        def count(cycles):
            calls.clear()
            run_experiment(_config("JBCT_DII-dii", num_eccs=cycles))
            return len(calls)

        assert count(15) > 0
        assert count(25) == count(15)


class TestSafeguardMasks:
    """Rows that trip a safeguard, one row each: the joint tracker against
    the explicit Fisher direction with the skip and the cap applied here,
    the EKF against the reference step."""

    CFG = ArrayConfig(8, 8)

    def _run(self, tracker_cls, x0, beta0):
        return tracker_cls(TrackerRun(self.CFG, STATIC_OFFSETS,
                                      DiminishingStep(1.0), np.ones(len(x0))),
                           np.array(x0, float), np.array(beta0, complex))

    def test_joint_tracker_rows(self):
        """Healthy, vanishing (skipped), faded (floored), non-finite
        (dropped) and far-off (capped) gain estimates."""
        betas = [0.8 - 0.3j, 0.0, 1e-3 + 1e-3j, complex(np.nan, 0.0), 0.05j]
        x0 = [(0.1, -0.2)] * len(betas)
        y = np.array([[0.3 + 0.1j, -0.2j, 0.5], [1.0, 0.2, 0.1j],
                      [0.4, -0.4j, 0.3], [0.1, 0.1, 0.1], [40.0, -35j, 20]])
        batch = self._run(JbctBatch, x0, betas)
        batch.update(y)
        for row, beta in enumerate(betas):
            psi = ChannelParams.from_parts(beta, x0[row])
            want = psi.as_vector()
            if abs(beta) ** 2 >= 1e-24:         # NaN and 0 are skipped
                ebm = build_ebm(self.CFG, psi.x, STATIC_OFFSETS)
                step = DiminishingStep(1.0).at(1) * jbct_direction(
                    self.CFG, psi, ebm, y[row])
                step *= min(1.0, STEP_CAP / np.abs(step).max())
                want = want + step
            np.testing.assert_allclose(batch.psi[row], want, rtol=1e-12,
                                       atol=1e-15)
        assert np.array_equal(batch.psi[1], [0.0, 0.0, 0.1, -0.2])
        assert np.abs(batch.psi[4] - [0.0, 0.05, 0.1, -0.2]).max() \
            == pytest.approx(STEP_CAP)

    def test_ekf_covariance_reset_rows(self):
        """A row whose covariance update loses definiteness is reset to the
        prior; a healthy row is not."""
        x0 = [(0.1, 0.2)] * 2
        batch = self._run(EkfBatch, x0, [0.5, 0.5])
        batch.p[1] = np.diag([0.1, -5.0])
        # a near-silent row: the gain fit is small, so P barely moves
        y = np.array([[0.3, 0.2j, 0.1], [1e-6, 0.0, 0.0]])
        scalars = []
        for row in range(2):
            ts = ekf_tracker(self.CFG, x0[row])
            ts.p = batch.p[row].copy()
            baseline_ekf_step(ts, self.CFG, y[row])
            scalars.append(ts)
        batch.update(y)
        for row, ts in enumerate(scalars):
            np.testing.assert_allclose(batch.p[row], ts.p, rtol=1e-12)
            np.testing.assert_allclose(batch.x[row], ts.x, rtol=1e-12)
        assert np.array_equal(batch.p[1], 0.1 * np.eye(2))
        assert not np.array_equal(batch.p[0], 0.1 * np.eye(2))

    def test_ekf_non_finite_observation_rows(self):
        """A row with a non-finite observation keeps its estimate and
        resets its covariance to the prior.  The other rows follow the
        reference step, and bit for bit the batch without that row."""
        x0 = [(0.1, 0.2), (-0.3, 0.4), (0.2, -0.1)]
        y = np.array([[0.3, 0.2j, 0.1], [np.nan, 0.5, 0.1j],
                      [-0.2, 0.4, 0.1 - 0.3j]])
        batch = self._run(EkfBatch, x0, [0.5, 0.4j, 0.3])
        healthy = self._run(EkfBatch, [x0[0], x0[2]], [0.5, 0.3])
        for tracker in (batch, healthy):
            tracker.p[:] = np.diag([0.05, 0.02])
        batch.update(y)
        healthy.update(y[[0, 2]])
        for row, pair_row in ((0, 0), (2, 1)):
            ts = ekf_tracker(self.CFG, x0[row])
            ts.p = np.diag([0.05, 0.02])
            baseline_ekf_step(ts, self.CFG, y[row])
            np.testing.assert_allclose(batch.x[row], ts.x, rtol=1e-12)
            np.testing.assert_allclose(batch.p[row], ts.p, rtol=1e-12)
            assert batch.beta_hat[row] == pytest.approx(ts.beta_hat, rel=1e-12)
            assert np.array_equal(batch.x[row], healthy.x[pair_row])
            assert np.array_equal(batch.p[row], healthy.p[pair_row])
        assert np.array_equal(batch.x[1], x0[1])
        assert batch.beta_hat[1] == 0.4j
        assert np.array_equal(batch.p[1], 0.1 * np.eye(2))
