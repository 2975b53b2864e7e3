"""Unit tests for the recursive trackers, mean field, op audit, baselines."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import di_score, ebm_columns, jacobian

from beamtrack.arrays import ArrayConfig, probe_kernels
from beamtrack.channels import bootstrap_gains
from beamtrack.estimation import DiModel, SingularFisher, fisher_di
from beamtrack.offsets import FADING_OFFSETS, STATIC_OFFSETS
from beamtrack.signal import (ChannelParams, OffsetSet, _sum3, build_ebm,
                              noiseless_mean)
from beamtrack import trackers
from beamtrack.trackers import (BEAM_SPACING, BeamSwitchBatch, ConstantStep,
                                DiminishingStep, EkfBatch, JbctBatch, RbtBatch,
                                TrackerRun, _OpTally, _jbct_direction_batch,
                                _rbt_direction_batch, _row_max, _rows_finite,
                                build_fast_cache, count_ops, jbct_direction,
                                mean_field)

CFG = ArrayConfig(8, 8)
PSI = ChannelParams.from_parts(0.8 - 0.3j, (0.0, 0.0))


def _observe_noiseless(psi_true, x_hat, offsets=STATIC_OFFSETS):
    dirs = np.asarray(x_hat, float) + offsets.deltas
    g, _, _ = probe_kernels(dirs - psi_true.x, CFG.m, CFG.n)
    return CFG.pilot_amp * psi_true.beta * g


def _joint(psi0, schedule, cfg=CFG):
    """One-row joint tracker started at ``psi0``."""
    return JbctBatch(TrackerRun(cfg, STATIC_OFFSETS, schedule, np.ones(1)),
                     psi0.x[None], np.array([psi0.beta]))


def _direction(x0, schedule, gain_var=1.0, gain_var_at=None, cfg=CFG):
    """Direction tracker started at the rows of ``x0`` (T, 2)."""
    x0 = np.array(x0, float).reshape(-1, 2)
    run = TrackerRun(cfg, FADING_OFFSETS, schedule,
                     np.broadcast_to(np.asarray(gain_var, float), len(x0)),
                     gain_var_at)
    return RbtBatch(run, x0, np.zeros(len(x0), complex))


def _baseline(cls, x0, cfg=CFG):
    """Baseline tracker ``cls`` started at the rows of ``x0`` (T, 2)."""
    x0 = np.array(x0, float).reshape(-1, 2)
    run = TrackerRun(cfg, STATIC_OFFSETS, DiminishingStep(1.0),
                     np.ones(len(x0)))
    return cls(run, x0, np.zeros(len(x0), complex))


def _noiseless_cycle(tracker, beta, x_true, cfg=CFG):
    """One cycle observing, without noise, channels of gain ``beta`` at
    ``x_true`` (T, 2) through the tracker's probes."""
    probes = tracker.probes() - np.reshape(x_true, (-1, 1, 2))
    g, _, _ = probe_kernels(probes, cfg.m, cfg.n)
    tracker.update(cfg.pilot_amp * beta * g)


def _tally(kernel, *args, counted=()):
    """Multiplies/divides the kernel executes with the arguments at the
    positions ``counted`` as ``_OpTally`` arrays, and its (plain) output."""
    ops = [0]
    args = [_OpTally(a, ops) if i in counted else a for i, a in enumerate(args)]
    out = kernel(*args)
    return ops[0], np.asarray(out).view(np.ndarray)


class TestSchedules:
    def test_diminishing_identity(self):
        """b_k (k + k0) = epsilon (exact up to one rounding of the division)."""
        sched = DiminishingStep(1.7, 3.0)
        for k in (1, 2, 10, 1000):
            assert sched.at(k) * (k + 3.0) == pytest.approx(1.7, rel=1e-15)
        assert DiminishingStep(1.0).at(4) * 4 == 1.0

    def test_constant(self):
        assert ConstantStep(0.7).at(123) == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            DiminishingStep(0.0)
        with pytest.raises(ValueError):
            ConstantStep(-1.0)


class TestJbctFixedPoint:
    def test_direction_zero_at_truth(self):
        """A noiseless observation at the true channel leaves the estimate
        unchanged."""
        tracker = _joint(PSI, DiminishingStep(1.0))
        y = _observe_noiseless(PSI, PSI.x)
        before = tracker.psi.copy()
        tracker.update(y[None])
        assert np.abs(tracker.psi - before).max() < 1e-12
        assert tracker.k == 1

    def test_singular_gain_skips_but_counts_cycle(self):
        psi0 = ChannelParams.from_parts(0.0, (0.1, 0.1))
        tracker = _joint(psi0, DiminishingStep(1.0))
        tracker.update(np.ones((1, 3), complex))
        assert tracker.k == 1
        assert np.array_equal(tracker.psi[0], psi0.as_vector())


class TestJbctNoiselessConvergence:
    PSI0 = ChannelParams.from_parts(0.7 + 0.1j, (0.3, -0.25))

    def _run(self, schedule, kmax):
        tracker = _joint(self.PSI0, schedule)
        errs = {}
        for k in range(1, kmax + 1):
            y = _observe_noiseless(PSI, tracker.psi[0, 2:])
            tracker.update(y[None])
            errs[k] = float(np.linalg.norm(tracker.psi[0] - PSI.as_vector()))
        return errs

    def test_diminishing_step_converges_like_one_over_k(self):
        """With b_k = 1/k the deterministic error decays as Theta(1/k): the
        fixed-point oracle gives ~1e-3 at k = 200 from this start (not the
        1e-6 a geometric schedule reaches; see the constant-step test)."""
        errs = self._run(DiminishingStep(1.0), 200)
        assert errs[200] < 5e-3
        assert errs[200] < errs[50]
        ratio = errs[100] / errs[200]
        assert 1.7 < ratio < 2.3  # 1/k law
        assert errs[200] * 200 < 0.5

    def test_constant_step_contracts_geometrically(self):
        """b = 0.7 reaches 1e-6 well before 60 noiseless cycles."""
        errs = self._run(ConstantStep(0.7), 60)
        assert errs[60] < 1e-6
        assert errs[40] < 1e-6


def _close(fast, naive):
    """Agreement to 1e-10, relative to the direction's size once above 1."""
    return np.abs(fast - naive).max() <= 1e-10 * max(1.0, np.abs(naive).max())


# a pilot amplitude and a noise variance: at unit noise the amplitude
# pilot / sqrt(noise), of the same SNR, and observations scaled by
# 1 / sqrt(noise)
PILOT = st.floats(0.3, 3.0)
NOISE = st.floats(0.02, 4.0)
OBSERVATION = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6)
# joint row: gain magnitude (down through the gain floor), gain phase,
# direction estimate, observation
JOINT_ROW = st.tuples(st.floats(0.005, 2.0), st.floats(0.0, 2 * np.pi),
                      st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), OBSERVATION)
# direction row: gain variance, direction estimate, observation
DIRECTION_ROW = st.tuples(st.floats(0.05, 5.0), st.floats(-2.0, 2.0),
                          st.floats(-2.0, 2.0), OBSERVATION)
FLOOR_ROWS = [(mag, 0.8, 0.4, -0.2, [0.3, -1.1, 0.7, 0.2, -0.5, 1.4])
              for mag in (0.15, 0.05, 0.01)]


def _complex_rows(parts):
    parts = np.array(parts, float)
    return parts[:, :3] + 1j * parts[:, 3:]


class TestFastEqualsNaive:
    """The batched update kernels against the explicit-matrix routes."""

    @staticmethod
    def _fast(cache, beta, y):
        """The joint kernel on one row."""
        return _jbct_direction_batch(cache, np.array([beta]), y[None])[0]

    def test_hundred_random_steps(self):
        """Cached block-solve equals the explicit Fisher build to 1e-10."""
        rng = np.random.default_rng(1)
        cache = build_fast_cache(CFG, STATIC_OFFSETS)
        worst = 0.0
        for _ in range(100):
            psi_hat = ChannelParams.from_parts(
                (0.2 + rng.uniform(0, 1.5)) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                rng.uniform(-2, 2, 2))
            ebm = build_ebm(CFG, psi_hat.x, STATIC_OFFSETS)
            y = 2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            fast = self._fast(cache, psi_hat.beta, y)
            naive = jbct_direction(CFG, psi_hat, ebm, y)
            worst = max(worst, float(np.abs(fast - naive).max()))
        assert worst < 1e-10

    def test_general_pilot_and_noise(self):
        """The pilot folding survives non-unit pilot amplitude: pilot 1.7 at
        noise variance 0.4, that is amplitude 1.7 / sqrt(0.4) at unit noise
        with the observations scaled by 1 / sqrt(0.4)."""
        cfg = ArrayConfig(8, 8, pilot_amp=1.7 / np.sqrt(0.4))
        rng = np.random.default_rng(2)
        cache = build_fast_cache(cfg, STATIC_OFFSETS)
        for _ in range(20):
            psi_hat = ChannelParams.from_parts(0.5 + 0.8j, rng.uniform(-1, 1, 2))
            ebm = build_ebm(cfg, psi_hat.x, STATIC_OFFSETS)
            y = (rng.standard_normal(3)
                 + 1j * rng.standard_normal(3)) / np.sqrt(0.4)
            fast = self._fast(cache, psi_hat.beta, y)
            naive = jbct_direction(cfg, psi_hat, ebm, y)
            assert np.abs(fast - naive).max() < 1e-10

    def test_agreement_through_the_gain_floor(self):
        """Both paths apply the same deep-fade preconditioner floor."""
        rng = np.random.default_rng(3)
        cache = build_fast_cache(CFG, STATIC_OFFSETS)
        for mag in (0.15, 0.05, 0.01):
            psi_hat = ChannelParams.from_parts(mag * np.exp(0.8j), (0.4, -0.2))
            ebm = build_ebm(CFG, psi_hat.x, STATIC_OFFSETS)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            fast = self._fast(cache, psi_hat.beta, y)
            naive = jbct_direction(CFG, psi_hat, ebm, y)
            scale = max(1.0, np.abs(naive).max())
            assert np.abs(fast - naive).max() < 1e-10 * scale

    @settings(max_examples=100, deadline=None)
    @given(pilot=PILOT, noise=NOISE, rows=st.lists(JOINT_ROW, min_size=1,
                                                   max_size=6))
    @example(pilot=1.0, noise=1.0, rows=FLOOR_ROWS)
    @example(pilot=1.7, noise=0.4, rows=FLOOR_ROWS)
    def test_joint_kernel_matches_explicit_fisher(self, pilot, noise, rows):
        """Per row, the cached block solve equals the explicit Fisher build
        and solve of :func:`jbct_direction`, gain floor included."""
        cfg = ArrayConfig(8, 8, pilot_amp=pilot / np.sqrt(noise))
        psis = [ChannelParams.from_parts(mag * np.exp(1j * phase), (x1, x2))
                for mag, phase, x1, x2, _ in rows]
        ys = _complex_rows([r[4] for r in rows]) / np.sqrt(noise)
        fast = _jbct_direction_batch(build_fast_cache(cfg, STATIC_OFFSETS),
                                     np.array([p.beta for p in psis]), ys)
        for psi, y, got in zip(psis, ys, fast):
            ebm = build_ebm(cfg, psi.x, STATIC_OFFSETS)
            assert _close(got, jbct_direction(cfg, psi, ebm, y))

    @settings(max_examples=100, deadline=None)
    @given(pilot=PILOT, noise=NOISE, rows=st.lists(DIRECTION_ROW, min_size=1,
                                                   max_size=6))
    def test_direction_kernel_matches_fisher_solve(self, pilot, noise, rows):
        """Per row, the direction tracker's kernel equals the direction
        Fisher solved against the fading-gain score, both built from the
        explicit probing matrix at the estimate."""
        cfg = ArrayConfig(8, 8, pilot_amp=pilot / np.sqrt(noise))
        variances = np.array([r[0] for r in rows])
        xs = np.array([(r[1], r[2]) for r in rows])
        ys = _complex_rows([r[3] for r in rows]) / np.sqrt(noise)
        tracker = _direction(xs, DiminishingStep(1.0), variances, cfg=cfg)
        fast = _rbt_direction_batch(tracker.q_mats, tracker.c0,
                                    tracker.i_inv, ys)
        for var, x, y, got in zip(variances, xs, ys, fast):
            model = DiModel(var)
            ebm = build_ebm(cfg, x, FADING_OFFSETS)
            naive = np.linalg.solve(fisher_di(cfg, x, model, ebm),
                                    di_score(cfg, x, model, ebm, y))
            assert _close(got, naive)


class TestMeanField:
    def test_zero_and_identity_jacobian(self):
        """f(psi) = 0 and df/dpsi = -I4 at the truth (finite differences)."""
        ebm = build_ebm(CFG, PSI.x, STATIC_OFFSETS)
        assert np.linalg.norm(mean_field(PSI, PSI, CFG, ebm)) < 1e-12
        h = 1e-6
        jac = np.empty((4, 4))
        base = PSI.as_vector()
        for j in range(4):
            dv = np.zeros(4)
            dv[j] = h
            fp = mean_field(ChannelParams.from_vector(base + dv), PSI, CFG, ebm)
            fm = mean_field(ChannelParams.from_vector(base - dv), PSI, CFG, ebm)
            jac[:, j] = (fp - fm) / (2 * h)
        assert np.abs(jac + np.eye(4)).max() < 1e-5

    def test_matches_monte_carlo_step_mean(self):
        """The mean field is the expectation of the stochastic update
        direction (componentwise 4-sigma over 1e5 draws)."""
        rng = np.random.default_rng(3)
        psi_hat = ChannelParams.from_parts(0.9 - 0.1j, (0.2, -0.15))
        ebm = build_ebm(CFG, psi_hat.x, STATIC_OFFSETS)
        expected = mean_field(psi_hat, PSI, CFG, ebm)
        # vectorized naive direction: the solve matrix is fixed by psi_hat
        kmat = ebm_columns(CFG, ebm).conj().T @ jacobian(CFG, psi_hat)
        rem = np.real(kmat.conj().T @ kmat)
        mean = noiseless_mean(CFG, PSI, ebm)
        n = 100_000
        z = np.sqrt(0.5) * (rng.standard_normal((n, 3))
                            + 1j * rng.standard_normal((n, 3)))
        resid = (mean[None, :] + z) - CFG.pilot_amp * psi_hat.beta * kmat[:, 0]
        u = np.real(resid.conj() @ kmat)
        dirs = np.linalg.solve(rem, u.T).T / CFG.pilot_amp
        emp = dirs.mean(axis=0)
        band = 4 * dirs.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(emp - expected) < band + 1e-12)


class TestRbt:
    def test_noiseless_gain_free_pull(self):
        """From a direction offset, repeated steps pull toward the truth."""
        rng = np.random.default_rng(4)
        x_true = np.array([0.4, -0.6])
        tracker = _direction(x_true + [0.2, -0.2], DiminishingStep(1.0, 5.0))
        g_err0 = np.linalg.norm(tracker.x[0] - x_true)
        for k in range(400):
            dirs = tracker.probes()[0]
            g, _, _ = probe_kernels(dirs - x_true, 8, 8)
            beta = np.sqrt(0.5) * complex(*rng.standard_normal(2))
            z = np.sqrt(0.5) * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            tracker.update((beta * g + z)[None])
        assert np.linalg.norm(tracker.x[0] - x_true) < 0.2 * g_err0

    def test_zero_variance_is_singular(self):
        with pytest.raises(SingularFisher):
            _direction((0.0, 0.0), DiminishingStep(1.0), gain_var=0.0)

    @pytest.mark.parametrize("deltas", [[[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]],
                                        [[0.0, -0.4], [0.0, 0.05], [0.0, 0.3]]])
    def test_axis_collinear_offsets_are_singular(self, deltas):
        """Both tracker caches reject offsets that share one coordinate at
        zero, where neither model identifies the other direction."""
        offsets = OffsetSet(np.array(deltas))
        run = TrackerRun(CFG, offsets, DiminishingStep(1.0), np.ones(2))
        with pytest.raises(SingularFisher):
            RbtBatch(run, np.zeros((2, 2)), np.zeros(2, complex))
        with pytest.raises(SingularFisher):
            build_fast_cache(CFG, offsets)

    def test_cache_rebuilds_on_new_variance(self):
        """An estimated gain variance that moves rebuilds the row's terms
        before the step; they equal terms built at that variance."""
        tracker = _direction((0.0, 0.0), DiminishingStep(1.0),
                             gain_var_at=lambda x: np.full(len(x), 0.5))
        first = tracker.i_inv.copy()
        tracker.update(np.ones((1, 3), complex))
        assert not np.array_equal(tracker.i_inv, first)
        fresh = _direction((0.0, 0.0), DiminishingStep(1.0), gain_var=0.5)
        for name in ("q_mats", "c0", "i_inv"):
            assert np.array_equal(getattr(tracker, name), getattr(fresh, name))


class TestOpCounts:
    def test_documented_counts(self):
        """39 multiplies/divides for the joint tracker's update direction
        (the correct block solve beats the nominal hand count of 45),
        28 for the direction-only tracker."""
        assert count_ops("jbct_static") == 39
        assert count_ops("jbct_dii") == 39
        assert count_ops("rbt") == 28

    def test_tally_convention(self):
        """Each multiply or divide output element counts once, a matmul once
        per inner-dimension term; additions, conjugates, Re/Im and sums are
        free."""
        a = np.arange(1.0, 7.0).reshape(2, 3)
        v = np.ones(3) + 1j
        for expr, want in ((lambda a, v: a * 2.0, 6), (lambda a, v: v / 3.0, 3),
                           (lambda a, v: a @ v, 6),
                           (lambda a, v: 2.0 * v.conj(), 3),
                           (lambda a, v: (a + 1.0).sum(1), 0),
                           (lambda a, v: v[None].real - v.imag, 0)):
            count, _ = _tally(expr, a, v, counted=(0, 1))
            assert count == want

    def test_counts_stable_across_cycles(self):
        """Every cycle costs the same, and the tallied kernel returns the
        plain kernel's output bit for bit."""
        rng = np.random.default_rng(5)
        joint = _joint(PSI, DiminishingStep(1.0))
        direction = _direction((0.0, 0.0), DiminishingStep(1.0))
        counts = set()
        for _ in range(5):
            y = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
            beta = joint.estimate()[1]
            count, out = _tally(_jbct_direction_batch, joint.cache, beta, y,
                                counted=(1, 2))
            assert np.array_equal(out, _jbct_direction_batch(joint.cache,
                                                             beta, y))
            counts.add(("joint", count))
            terms = (direction.q_mats, direction.c0, direction.i_inv)
            count, out = _tally(_rbt_direction_batch, *terms, y, counted=(3,))
            assert np.array_equal(out, _rbt_direction_batch(*terms, y))
            counts.add(("direction", count))
            joint.update(y)
            direction.update(y)
        assert counts == {("joint", 39), ("direction", 28)}

    def test_cache_construction_not_counted(self):
        """Offline term rebuilding leaves the per-cycle audit unchanged."""
        tracker = _direction((0.0, 0.0), DiminishingStep(1.0),
                             gain_var_at=lambda x: np.full(len(x), 0.25))
        tracker.update(np.ones((1, 3), complex))            # rebuild
        count, _ = _tally(_rbt_direction_batch, tracker.q_mats, tracker.c0,
                          tracker.i_inv, np.ones((1, 3), complex), counted=(3,))
        assert count == 28


class TestBootstrapGain:
    def test_noiseless_fit_at_truth_is_exact(self):
        x = PSI.x
        got = bootstrap_gains(CFG, STATIC_OFFSETS, x, PSI.beta, x, np.zeros(6))
        assert abs(got - PSI.beta) < 1e-12


class TestBeamSwitch:
    def test_snaps_and_holds_on_codebook_truth(self):
        """Noiseless, truth on a lattice point: reach it and stay."""
        truth = ChannelParams.from_parts(1.0, (1.5, -1.0))
        x_true = truth.x
        tracker = _baseline(BeamSwitchBatch, (2.0, -0.5))
        for _ in range(30):
            _noiseless_cycle(tracker, truth.beta, x_true)
        assert np.allclose(tracker.x[0], x_true)
        for _ in range(4):
            _noiseless_cycle(tracker, truth.beta, x_true)
            assert np.allclose(tracker.x[0], x_true)

    def test_probe_budget_is_three(self):
        assert _baseline(BeamSwitchBatch, (0.0, 0.0)).probes().shape == (1, 3, 2)

    def test_one_pattern_build_per_cycle(self, monkeypatch):
        """The harness asks for the probe pattern once per cycle, and the
        update switches within that pattern instead of building it again."""
        from beamtrack.channels import DynamicII, ScenarioConfig
        from beamtrack.harness import ExperimentConfig, run_experiment
        builds = []
        probes = BeamSwitchBatch.probes

        def counted(self):
            builds.append(self.k)
            return probes(self)

        monkeypatch.setattr(BeamSwitchBatch, "probes", counted)
        run_experiment(ExperimentConfig(ScenarioConfig(DynamicII()), CFG,
                                        "BeamSwitch", num_trials=4,
                                        num_eccs=12, seed=3))
        assert builds == list(range(12))

    def test_quantization_floor(self):
        """Vanishing noise leaves at least the lattice quantization error:
        for uniform truth the per-axis MSE approaches spacing^2/12."""
        rng = np.random.default_rng(6)
        spacing = BEAM_SPACING
        x_true, x0 = [], []
        for _ in range(400):
            x_true.append(rng.uniform(-2, 2, 2))
            x0.append(x_true[-1] + rng.uniform(-0.4, 0.4, 2))
        x_true = np.array(x_true)
        tracker = _baseline(BeamSwitchBatch, x0)
        for _ in range(25):
            _noiseless_cycle(tracker, 1.0, x_true)
        per_axis = np.mean((tracker.x - x_true) ** 2, axis=0)
        floor = spacing**2 / 12
        assert np.all(per_axis > 0.7 * floor)
        assert np.all(per_axis < 1.5 * floor)


class TestEkf:
    def test_probe_triangle_circumradius(self):
        """Probes form an equilateral triangle of circumradius 0.5."""
        tracker = _baseline(EkfBatch, (0.3, -0.4))
        rel = tracker.probes()[0] - tracker.x[0]
        assert np.allclose(np.linalg.norm(rel, axis=1), 0.5)
        d01 = np.linalg.norm(rel[0] - rel[1])
        d12 = np.linalg.norm(rel[1] - rel[2])
        d20 = np.linalg.norm(rel[2] - rel[0])
        assert abs(d01 - d12) < 1e-12 and abs(d12 - d20) < 1e-12

    def test_noiseless_static_convergence(self, monkeypatch):
        """Zero process noise, static truth, no observation noise (the
        filter's R reflects it): within 1e-3 of the truth by 100 cycles.
        Without process noise the covariance never grows (Loewner order,
        every cycle) and the information adds up: P after 100 cycles is
        below P after one divided by 50 (about 1/100 of it; with the
        default process noise P levels off instead).

        The plain (non-iterated) update converges from starts within ~0.1
        per axis; farther out the first badly-linearized update makes the
        filter overconfident and it plateaus -- the known static-parameter
        weakness of the EKF, recovered by its default process noise (below).
        """
        monkeypatch.setattr(trackers, "EKF_PROCESS_NOISE", 0.0)
        cfg = ArrayConfig(8, 8, pilot_amp=1e15)
        truth = ChannelParams.from_parts(0.9 + 0.2j, (0.6, -0.8))
        x_true = truth.x
        tracker = _baseline(EkfBatch, x_true + [0.1, -0.1], cfg)
        covs = [tracker.p[0]]
        for _ in range(100):
            _noiseless_cycle(tracker, truth.beta, x_true, cfg)
            covs.append(tracker.p[0])
            shrink = np.linalg.eigvalsh(covs[-2] - covs[-1]).min()
            assert shrink >= -1e-12 * np.linalg.eigvalsh(covs[-2]).max()
        assert np.linalg.norm(tracker.x[0] - x_true) < 1e-3
        assert np.linalg.eigvalsh(covs[1] / 50 - covs[-1]).min() > 0

    def test_default_process_noise_recovers_far_start(self):
        cfg = ArrayConfig(8, 8, pilot_amp=1e15)
        truth = ChannelParams.from_parts(0.9 + 0.2j, (0.6, -0.8))
        x_true = truth.x
        tracker = _baseline(EkfBatch, x_true + [0.3, -0.2], cfg)
        for _ in range(100):
            _noiseless_cycle(tracker, truth.beta, x_true, cfg)
        assert np.linalg.norm(tracker.x[0] - x_true) < 1e-3

    @pytest.mark.parametrize("snr_db", [20.0, 40.0, 60.0])
    def test_update_matches_mpmath_kalman(self, snr_db):
        """One update from random starts, gains and noisy observations
        equals a 50-digit Kalman update on the same float kernels (gain
        refit, S = H P H^T + R, K = P H^T S^-1, Joseph-form P+) within
        1e-12 relative (measured: 1.4e-15 at most), at high SNR too, where
        the pinv/Joseph route of ``reference.baseline_ekf_step`` is off by
        1e-7 at 60 dB on these draws."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(snr_db))
        cfg = ArrayConfig(8, 8, pilot_amp=10.0 ** (snr_db / 20.0))
        tracker = _baseline(EkfBatch, rng.uniform(-0.5, 0.5, (8, 2)), cfg)
        x0, p0 = tracker.x.copy(), tracker.p.copy()
        x_true = x0 + rng.uniform(-0.05, 0.05, x0.shape)
        beta = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g_true, _, _ = probe_kernels(tracker.probes() - x_true[:, None],
                                     8, 8)
        y = cfg.pilot_amp * beta[:, None] * g_true + np.sqrt(0.5) * (
            rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        tracker.update(y)

        def mp(a):
            return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                                  for row in np.atleast_2d(a)])

        with mpmath.workdps(50):
            s, r = mpmath.mpf(cfg.pilot_amp), mpmath.mpf(1) / 2
            g, k1, k2 = (mp(k).T for k in (tracker.g, tracker.k1, tracker.k2))
            for row in range(8):
                yv = mp(y[row]).T
                b = (g.H * yv)[0] / (s * (g.H * g)[0])
                h = s * b * mpmath.matrix([[k1[i], k2[i]] for i in range(3)])
                res = yv - s * b * g
                hr = mpmath.matrix([[f(h[i, j]) for j in range(2)]
                                    for f in (mpmath.re, mpmath.im)
                                    for i in range(3)])
                rv = mpmath.matrix([f(res[i]) for f in (mpmath.re, mpmath.im)
                                    for i in range(3)])
                pp = mp(p0[row]) + trackers.EKF_PROCESS_NOISE * mpmath.eye(2)
                gain = pp * hr.T * (hr * pp * hr.T + r * mpmath.eye(6)) ** -1
                ikh = mpmath.eye(2) - gain * hr
                p_new = ikh * pp * ikh.T + r * gain * gain.T
                x_new = mp(x0[row]).T + gain * rv
                for got, want in ((tracker.x[row], x_new),
                                  (tracker.p[row], p_new),
                                  (tracker.beta_hat[row], b)):
                    want = np.array(want.tolist() if isinstance(
                        want, mpmath.matrix) else want, complex)
                    err = np.abs(np.reshape(got, want.shape) - want).max()
                    assert err <= 1e-12 * np.abs(want).max(), (row, err)

    def test_covariance_stays_symmetric_psd(self):
        """The information-form update keeps P exactly symmetric and PSD
        over random cycles."""
        rng = np.random.default_rng(7)
        truth = ChannelParams.from_parts(0.8, (0.0, 0.0))
        tracker = _baseline(EkfBatch, (0.2, 0.2))
        for _ in range(2000):
            g, _, _ = probe_kernels(tracker.probes() - truth.x, 8, 8)
            y = truth.beta * g + np.sqrt(0.5) * (
                rng.standard_normal(3) + 1j * rng.standard_normal(3))
            tracker.update(y)
            p = tracker.p[0]
            assert np.array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() >= -1e-12


# ---------------------------------------------------------------------------
# fixed-order short reductions
# ---------------------------------------------------------------------------

@st.composite
def _short_rows(draw, widths, complex_values):
    """(T, c) arrays, c from ``widths``, entries of magnitude 1e-8 to 1e8
    (both parts, if complex), and up to four entries set to NaN or +-inf.
    Magnitudes and signs are drawn as two arrays, which hypothesis
    generates faster than one array of built elements.  No fill: with its
    default fill hypothesis repeats one value over most of an array (a
    median 12% of distinct entries, against 95% without)."""
    width = draw(st.sampled_from(widths))
    rows = draw(st.integers(1, 30))
    parts = 2 if complex_values else 1
    shape = (parts, rows, width)
    a = draw(hnp.arrays(float, shape, elements=st.floats(1e-8, 1e8),
                        fill=st.nothing()))
    a[draw(hnp.arrays(bool, shape, fill=st.nothing()))] *= -1
    for row, col, part, value in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, width - 1),
            st.integers(0, parts - 1),
            st.sampled_from([np.nan, np.inf, -np.inf])), max_size=4)):
        a[part, row, col] = value
    if not complex_values:
        return a[0]
    x = np.empty((rows, width), complex)
    x.real, x.imag = a
    return x


def _same_values(got, want):
    """Equal shapes, NaN at the same places (per real component) and the
    same bits elsewhere; a NaN's payload is not compared."""
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype.kind == "c":
        got, want = got.view(float), want.view(float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestFixedOrderReductions:
    """The per-cycle short-axis reductions are column chains in a fixed
    order that reproduce numpy's ``sum``, ``max`` and ``all`` over the
    short axis.  The sum runs over the three probes (real and complex, and
    the strided real part of a complex array); the maximum runs over
    absolute step entries, so over real values; ``all`` over finite
    checks of real and complex rows."""

    @settings(max_examples=300, deadline=None)
    @given(x=_short_rows([3], False) | _short_rows([3], True))
    def test_sum3_is_numpy_sum(self, x):
        with np.errstate(invalid="ignore"):
            _same_values(_sum3(x), x.sum(1))
            _same_values(_sum3(x.real), x.real.sum(1))

    @settings(max_examples=300, deadline=None)
    @given(x=_short_rows([2, 3, 4], False))
    def test_row_max_is_numpy_max(self, x):
        _same_values(_row_max(x), x.max(axis=1))
        _same_values(_row_max(np.abs(x)), np.abs(x).max(axis=1))

    @settings(max_examples=300, deadline=None)
    @given(x=_short_rows([2, 3, 4], False) | _short_rows([3, 4], True))
    def test_rows_finite_is_numpy_all(self, x):
        assert np.array_equal(_rows_finite(x), np.isfinite(x).all(axis=1))
