"""Oracle tests for the trial-batched Monte-Carlo engine.

The reference is the per-trial loop the engine replaced: the scalar
channel functions of ``reference.py``, each trial's RNG stream drawn call
by call, and per trial the baselines' scalar steps or, for the joint and
direction trackers, their registered batched class run on one row.  The
engine must reproduce it per trial and cycle, and for a fixed seed its
CSV must be byte-identical at any batch split.
"""

import hashlib
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


def _estimated_gain_variance(sc, cfg, x_hat, sigma_c_sq):
    theta, phi = aoa_coords(cfg, *x_hat)
    return float(element_gain(sc.pattern, Aoa(theta, phi)) ** 2 * sigma_c_sq)


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
        eta = element_gain(sc.pattern, state.aoa)
        gain_var_at = None
        if ec.rbt_sigma_mode == "estimated":
            def gain_var_at(x):
                return np.array([_estimated_gain_variance(sc, cfg, x[0],
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
        eta_true = element_gain(sc.pattern, state.aoa)
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
    CHANGES.md.  The bytes rest on the platform's floating point (recorded
    with numpy 2.4 on x86-64)."""

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
        "9a-JBCT_S": "ab63350396bcd7ce45c6935ea1597b09"
                     "dc45da8904352b0f0a6a1f59ba4f24fd",
        "9b-RBT_DI": "0287b7fe8df69f0f95299b68734b4181"
                     "c01a1713d9e2507fdb0cb602c968b5fe",
        "11-JBCT_DII": "d1f4f560507c2eff853bf3dfc25d0d52"
                       "1a723b1696e2d7e25f59dd01fec8874d",
        "11-BeamSwitch": "b696a6b54d66ef9ab7d45aa1ac7108da"
                         "7d73d28bd64b5cdbe284e9eb2b4a2a0b",
        "11-EKF": "acb10cb5ee7c03b9a520dfae7b82d6f0"
                  "87a78a525d9d2d6d7d7a6c58d7c18163",
        # at 20 dB, where the pilot amplitude is 10 and not 1, so that a
        # reordered pilot product shows
        "9a-JBCT_S@20dB": "6aba841e4c1d846cc9114e397504014d"
                          "5217089d78791f53869f5730be27808a",
        "9b-RBT_DI@20dB": "aa3be61b5a77a341c39075cb9f48febd"
                          "08274983a1c1d3a5efd82893f1ccaa00",
        "11-JBCT_DII@20dB": "3806b3260a9033d63041ca3568e43e2c"
                            "999410381cd48d6f8881f1f819b72efd",
        "11-BeamSwitch@20dB": "1f00adee9f89f3a66fd00836117de9de"
                              "d9977362d70c0c0c8f569cdcc9284e77",
        "11-EKF@20dB": "eb41b2cbfd495082c15924a855cd09ec"
                       "beed820ac9bd2da0dc06827f9390dac6",
    }

    # RBT_DI with the gain variance estimated at its direction estimates,
    # which rebuilds the update terms every cycle; of the raw arrays
    ESTIMATED_RAW_SHA256 = {
        "9b-RBT_DI": "83149d5b071efbb88324cb3b78b37a58"
                     "718bc8d769691c2d1d831699ea005e12",
        "11-RBT_DI": "bef3e42e92e246d7b788169d58dd3a1d"
                     "967d2a2c4a2a482663fad2b9e4a6f07a",
    }
    ESTIMATED_SCENARIOS = {"9b-RBT_DI": ScenarioConfig(DynamicI(1.0)),
                           "11-RBT_DI": DII}

    def _config(self, name):
        scenario, tracker, offsets, schedule = self.CASES[name]
        return ExperimentConfig(scenario, ArrayConfig(8, 8), tracker, offsets,
                                schedule, num_trials=40, num_eccs=60, seed=7,
                                record_every=1, init_halfwidth=0.25)

    @staticmethod
    def _raw_sha256(ec):
        digest = hashlib.sha256()
        for arr in _run_batch(ec, range(ec.num_trials)):
            digest.update(np.ascontiguousarray(arr, "<f8").tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_csv_sha256(self, name):
        text = format_csv(run_experiment(self._config(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256[name]

    @pytest.mark.parametrize("name", sorted(RAW_SHA256))
    def test_raw_arrays_sha256(self, name):
        case, _, at_20_db = name.partition("@")
        ec = replace(self._config(case), snr_db=20.0 if at_20_db else 0.0)
        assert self._raw_sha256(ec) == self.RAW_SHA256[name]

    @pytest.mark.parametrize("name", sorted(ESTIMATED_RAW_SHA256))
    def test_estimated_mode_raw_arrays_sha256(self, name):
        ec = replace(self._config("9b-RBT_DI"),
                     scenario=self.ESTIMATED_SCENARIOS[name],
                     rbt_sigma_mode="estimated")
        assert self._raw_sha256(ec) == self.ESTIMATED_RAW_SHA256[name]


class TestKernelPasses:
    """A cycle evaluates its observation's gain kernel in one Dirichlet
    pass over both axes, and a recorded cycle its channel error in one
    more."""

    @pytest.mark.parametrize("record_every, passes", [(10**6, 10), (1, 20)])
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
