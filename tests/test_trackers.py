"""Unit tests for the recursive trackers, mean field, op audit, baselines."""

import numpy as np
import pytest

from beamtrack.arrays import ArrayConfig, probe_kernels
from beamtrack.estimation import DiModel, SingularFisher
from beamtrack.offsets import FADING_OFFSETS, STATIC_OFFSETS
from beamtrack.signal import ChannelParams, build_ebm, noiseless_mean
from beamtrack.trackers import (ConstantStep, DiminishingStep, OpCounter,
                                _jbct_direction_fast,
                                baseline_beam_switch_step, baseline_ekf_step,
                                beam_switch_probes, beam_switch_tracker,
                                bootstrap_gain, build_fast_cache, count_ops,
                                ekf_probes, ekf_tracker, jbct_direction,
                                jbct_step, jbct_tracker, mean_field,
                                rbt_di_step, rbt_tracker)

CFG = ArrayConfig(8, 8)
PSI = ChannelParams.from_parts(0.8 - 0.3j, (0.0, 0.0))


def _observe_noiseless(psi_true, x_hat, offsets=STATIC_OFFSETS):
    dirs = np.asarray(x_hat, float) + offsets.deltas
    g, _, _ = probe_kernels(dirs - psi_true.x.as_array(), CFG.m, CFG.n)
    return CFG.pilot_amp * psi_true.beta * g


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
        state = jbct_tracker(CFG, PSI, STATIC_OFFSETS, DiminishingStep(1.0))
        y = _observe_noiseless(PSI, PSI.x.as_array())
        before = state.psi.copy()
        jbct_step(state, CFG, y)
        assert np.abs(state.psi - before).max() < 1e-12
        assert state.k == 1

    def test_singular_gain_skips_but_counts_cycle(self):
        psi0 = ChannelParams.from_parts(0.0, (0.1, 0.1))
        state = jbct_tracker(CFG, psi0, STATIC_OFFSETS, DiminishingStep(1.0))
        jbct_step(state, CFG, np.ones(3, complex))
        assert state.k == 1
        assert np.array_equal(state.psi, psi0.as_vector())


class TestJbctNoiselessConvergence:
    PSI0 = ChannelParams.from_parts(0.7 + 0.1j, (0.3, -0.25))

    def _run(self, schedule, kmax):
        state = jbct_tracker(CFG, self.PSI0, STATIC_OFFSETS, schedule)
        errs = {}
        for k in range(1, kmax + 1):
            y = _observe_noiseless(PSI, state.psi[2:])
            jbct_step(state, CFG, y)
            errs[k] = float(np.linalg.norm(state.psi - PSI.as_vector()))
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


class TestFastEqualsNaive:
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
            fast = _jbct_direction_fast(cache, psi_hat.beta, y, OpCounter())
            naive = jbct_direction(CFG, psi_hat, ebm, y)
            worst = max(worst, float(np.abs(fast - naive).max()))
        assert worst < 1e-10

    def test_general_pilot_and_noise(self):
        """The pilot folding survives non-unit pilot amplitude."""
        cfg = ArrayConfig(8, 8, pilot_amp=1.7, noise_var=0.4)
        rng = np.random.default_rng(2)
        cache = build_fast_cache(cfg, STATIC_OFFSETS)
        for _ in range(20):
            psi_hat = ChannelParams.from_parts(0.5 + 0.8j, rng.uniform(-1, 1, 2))
            ebm = build_ebm(cfg, psi_hat.x, STATIC_OFFSETS)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            fast = _jbct_direction_fast(cache, psi_hat.beta, y, OpCounter())
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
            fast = _jbct_direction_fast(cache, psi_hat.beta, y, OpCounter())
            naive = jbct_direction(CFG, psi_hat, ebm, y)
            scale = max(1.0, np.abs(naive).max())
            assert np.abs(fast - naive).max() < 1e-10 * scale


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
        from beamtrack.estimation import jacobian
        kmat = ebm.columns.conj().T @ jacobian(CFG, psi_hat)
        rem = np.real(kmat.conj().T @ kmat)
        mean = noiseless_mean(CFG, PSI, ebm)
        n = 100_000
        z = np.sqrt(CFG.noise_var / 2) * (rng.standard_normal((n, 3))
                                          + 1j * rng.standard_normal((n, 3)))
        resid = (mean[None, :] + z) - CFG.pilot_amp * psi_hat.beta * kmat[:, 0]
        u = np.real(resid.conj() @ kmat)
        dirs = np.linalg.solve(rem, u.T).T / CFG.pilot_amp
        emp = dirs.mean(axis=0)
        band = 4 * dirs.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(emp - expected) < band + 1e-12)


class TestRbt:
    MODEL = DiModel(1.0)

    def test_noiseless_gain_free_pull(self):
        """From a direction offset, repeated steps pull toward the truth."""
        rng = np.random.default_rng(4)
        x_true = np.array([0.4, -0.6])
        state = rbt_tracker(CFG, x_true + [0.2, -0.2], FADING_OFFSETS,
                            DiminishingStep(1.0, 5.0), self.MODEL)
        g_err0 = np.linalg.norm(state.x - x_true)
        for k in range(400):
            dirs = state.probe_directions()
            g, _, _ = probe_kernels(dirs - x_true, 8, 8)
            beta = np.sqrt(0.5) * complex(*rng.standard_normal(2))
            z = np.sqrt(0.5) * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            rbt_di_step(state, CFG, self.MODEL, beta * g + z)
        assert np.linalg.norm(state.x - x_true) < 0.2 * g_err0

    def test_zero_variance_is_singular(self):
        with pytest.raises(SingularFisher):
            rbt_tracker(CFG, (0.0, 0.0), FADING_OFFSETS, DiminishingStep(1.0),
                        DiModel(0.0))

    def test_cache_rebuilds_on_new_variance(self):
        state = rbt_tracker(CFG, (0.0, 0.0), FADING_OFFSETS,
                            DiminishingStep(1.0), self.MODEL)
        first = state.cache
        rbt_di_step(state, CFG, DiModel(0.5), np.ones(3, complex))
        assert state.cache is not first
        assert state.cache.sigma_beta_sq == 0.5


class TestOpCounts:
    def test_documented_counts(self):
        """39 multiplies/divides for the joint tracker's update direction
        (the correct block solve beats the nominal hand count of 45),
        28 for the direction-only tracker."""
        assert count_ops("jbct_static") == 39
        assert count_ops("jbct_dii") == 39
        assert count_ops("rbt") == 28

    def test_counts_stable_across_cycles(self):
        """Every cycle after the first costs the same."""
        rng = np.random.default_rng(5)
        state = jbct_tracker(CFG, PSI, STATIC_OFFSETS, DiminishingStep(1.0))
        counts = set()
        for _ in range(5):
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            jbct_step(state, CFG, y)
            counts.add(state.op_count_last_ecc)
        assert counts == {39}
        rstate = rbt_tracker(CFG, (0.0, 0.0), FADING_OFFSETS,
                             DiminishingStep(1.0), DiModel(1.0))
        counts = set()
        for _ in range(5):
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rbt_di_step(rstate, CFG, DiModel(1.0), y)
            counts.add(rstate.op_count_last_ecc)
        assert counts == {28}

    def test_cache_construction_not_counted(self):
        """Offline cache building leaves the per-cycle audit unchanged."""
        state = rbt_tracker(CFG, (0.0, 0.0), FADING_OFFSETS,
                            DiminishingStep(1.0), DiModel(1.0))
        rbt_di_step(state, CFG, DiModel(0.25), np.ones(3, complex))  # rebuild
        assert state.op_count_last_ecc == 28


class TestBootstrapGain:
    def test_noiseless_fit_at_truth_is_exact(self):
        ebm = build_ebm(CFG, PSI.x, STATIC_OFFSETS)
        y = noiseless_mean(CFG, PSI, ebm)
        got = bootstrap_gain(CFG, ebm, PSI.x.as_array(), y)
        assert abs(got - PSI.beta) < 1e-12


class TestBeamSwitch:
    def test_snaps_and_holds_on_codebook_truth(self):
        """Noiseless, truth on a lattice point: reach it and stay."""
        truth = ChannelParams.from_parts(1.0, (1.5, -1.0))
        state = beam_switch_tracker(CFG, (2.0, -0.5))
        for _ in range(30):
            probes = beam_switch_probes(state)
            g, _, _ = probe_kernels(probes - truth.x.as_array(), 8, 8)
            baseline_beam_switch_step(state, CFG, truth.beta * g)
        assert np.allclose(state.x, truth.x.as_array())
        for _ in range(4):
            probes = beam_switch_probes(state)
            g, _, _ = probe_kernels(probes - truth.x.as_array(), 8, 8)
            baseline_beam_switch_step(state, CFG, truth.beta * g)
            assert np.allclose(state.x, truth.x.as_array())

    def test_probe_budget_is_three(self):
        state = beam_switch_tracker(CFG, (0.0, 0.0))
        assert beam_switch_probes(state).shape == (3, 2)

    def test_quantization_floor(self):
        """Vanishing noise leaves at least the lattice quantization error:
        for uniform truth the per-axis MSE approaches spacing^2/12."""
        rng = np.random.default_rng(6)
        spacing = 0.5
        errs = []
        for _ in range(400):
            x_true = rng.uniform(-2, 2, 2)
            truth = ChannelParams.from_parts(1.0, x_true)
            state = beam_switch_tracker(CFG, x_true + rng.uniform(-0.4, 0.4, 2))
            for _ in range(25):
                probes = beam_switch_probes(state)
                g, _, _ = probe_kernels(probes - x_true, 8, 8)
                baseline_beam_switch_step(state, CFG, truth.beta * g)
            errs.append((state.x - x_true) ** 2)
        per_axis = np.mean(errs, axis=0)
        floor = spacing**2 / 12
        assert np.all(per_axis > 0.7 * floor)
        assert np.all(per_axis < 1.5 * floor)


class TestEkf:
    def test_probe_triangle_circumradius(self):
        """Probes form an equilateral triangle of circumradius 0.5."""
        state = ekf_tracker(CFG, (0.3, -0.4))
        probes = ekf_probes(state)
        rel = probes - state.x
        assert np.allclose(np.linalg.norm(rel, axis=1), 0.5)
        d01 = np.linalg.norm(rel[0] - rel[1])
        d12 = np.linalg.norm(rel[1] - rel[2])
        d20 = np.linalg.norm(rel[2] - rel[0])
        assert abs(d01 - d12) < 1e-12 and abs(d12 - d20) < 1e-12

    def test_noiseless_static_convergence(self):
        """Zero process noise, static truth, no observation noise (the
        filter's R reflects it): within 1e-3 of the truth by 100 cycles.

        The plain (non-iterated) update converges from starts within ~0.1
        per axis; farther out the first badly-linearized update makes the
        filter overconfident and it plateaus -- the known static-parameter
        weakness of the EKF, recovered by its default process noise (below).
        """
        cfg = ArrayConfig(8, 8, noise_var=1e-30)
        truth = ChannelParams.from_parts(0.9 + 0.2j, (0.6, -0.8))
        state = ekf_tracker(cfg, truth.x.as_array() + [0.1, -0.1],
                            process_noise=0.0)
        for _ in range(100):
            probes = ekf_probes(state)
            g, _, _ = probe_kernels(probes - truth.x.as_array(), 8, 8)
            baseline_ekf_step(state, cfg, cfg.pilot_amp * truth.beta * g)
        assert np.linalg.norm(state.x - truth.x.as_array()) < 1e-3

    def test_default_process_noise_recovers_far_start(self):
        cfg = ArrayConfig(8, 8, noise_var=1e-30)
        truth = ChannelParams.from_parts(0.9 + 0.2j, (0.6, -0.8))
        state = ekf_tracker(cfg, truth.x.as_array() + [0.3, -0.2])
        for _ in range(100):
            probes = ekf_probes(state)
            g, _, _ = probe_kernels(probes - truth.x.as_array(), 8, 8)
            baseline_ekf_step(state, cfg, cfg.pilot_amp * truth.beta * g)
        assert np.linalg.norm(state.x - truth.x.as_array()) < 1e-3

    def test_covariance_stays_symmetric_psd(self):
        """Joseph-form update keeps P symmetric PSD over random cycles."""
        rng = np.random.default_rng(7)
        truth = ChannelParams.from_parts(0.8, (0.0, 0.0))
        state = ekf_tracker(CFG, (0.2, 0.2))
        for _ in range(2000):
            probes = ekf_probes(state)
            g, _, _ = probe_kernels(probes - truth.x.as_array(), 8, 8)
            y = truth.beta * g + np.sqrt(0.5) * (
                rng.standard_normal(3) + 1j * rng.standard_normal(3))
            baseline_ekf_step(state, CFG, y)
            assert np.array_equal(state.p, state.p.T)
            assert np.linalg.eigvalsh(state.p).min() >= -1e-12
