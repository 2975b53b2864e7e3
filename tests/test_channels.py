"""Unit tests for channel scenario generation and the initial estimate."""

import numpy as np
import pytest
from scipy import stats

from beamtrack.arrays import ArrayConfig, dpv_from_aoa, element_gain, in_main_lobe
from beamtrack.channels import (AOA_REGIONS, DynamicI, DynamicII, QuasiStatic,
                                ScenarioConfig, estimated_gain_variance,
                                evolve, init_channel, initial_estimate)
from beamtrack.offsets import STATIC_OFFSETS

CFG = ArrayConfig(8, 8)


def _many_inits(sc, count, seed=0):
    rng = np.random.default_rng(seed)
    return [init_channel(sc, CFG, rng) for _ in range(count)]


class TestInitChannel:
    def test_rician_limit_is_pure_los(self):
        """K -> infinity leaves exactly the unit-modulus line-of-sight part."""
        sc = ScenarioConfig(QuasiStatic(rician_k_db=300.0))
        for st in _many_inits(sc, 50):
            assert abs(abs(st.beta_c) - 1.0) < 1e-9

    def test_rician_unit_mean_power(self):
        """E|beta_c|^2 = 1 within 3% for the default K factor."""
        sc = ScenarioConfig(QuasiStatic())
        power = np.mean([abs(st.beta_c) ** 2 for st in _many_inits(sc, 100_000)])
        assert abs(power - 1.0) < 0.03

    def test_rician_k_ratio(self):
        """LOS to diffuse power ratio matches the configured K within 3%."""
        sc = ScenarioConfig(QuasiStatic(rician_k_db=15.0))
        kappa = 10 ** 1.5
        los_power = kappa / (kappa + 1)
        diffuse = np.mean([abs(st.beta_c) ** 2 - los_power
                           for st in _many_inits(sc, 100_000)])
        ratio = los_power / diffuse
        assert abs(ratio - kappa) < 0.03 * kappa

    def test_rayleigh_variance(self):
        sc = ScenarioConfig(DynamicI(sigma_beta_c_sq=0.6))
        power = np.mean([abs(st.beta_c) ** 2 for st in _many_inits(sc, 100_000)])
        assert abs(power - 0.6) < 0.03 * 0.6

    def test_central_region_gain_floor(self):
        """Central arrivals lose at most 5.2 dB of element gain."""
        sc = ScenarioConfig(QuasiStatic())
        for st in _many_inits(sc, 2000, seed=1):
            db = 20 * np.log10(abs(st.beta_eff / st.beta_c))
            assert db >= -5.2
            assert db <= 0.0

    def test_aoa_ranges(self):
        (t_lo, t_hi), (p_lo, p_hi) = AOA_REGIONS["central"]
        sc = ScenarioConfig(QuasiStatic())
        for st in _many_inits(sc, 500, seed=2):
            assert t_lo <= st.aoa.theta <= t_hi
            assert p_lo <= st.aoa.phi <= p_hi

    def test_beta_eff_consistency(self):
        """20 log10 |beta_eff / beta_c| equals the pattern gain in dB."""
        sc = ScenarioConfig(QuasiStatic(), aoa_region="edge")
        for st in _many_inits(sc, 200, seed=3):
            expected = element_gain(sc.pattern, st.aoa)
            assert abs(abs(st.beta_eff / st.beta_c) - expected) < 1e-9
            assert np.allclose(st.x, dpv_from_aoa(CFG, st.aoa).as_array())


class TestEvolve:
    def test_quasi_static_identity(self):
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(4)
        st = init_channel(sc, CFG, rng)
        assert evolve(st, sc, CFG, rng) is st

    def test_dynamic_i_redraws_gain_keeps_direction(self):
        sc = ScenarioConfig(DynamicI(1.0))
        rng = np.random.default_rng(5)
        st = init_channel(sc, CFG, rng)
        nxt = evolve(st, sc, CFG, rng)
        assert nxt.beta_c != st.beta_c
        assert np.array_equal(nxt.x, st.x)
        assert nxt.ecc_index == st.ecc_index + 1

    def test_dynamic_i_gains_uncorrelated(self):
        """Lag-1 sample autocorrelation below 0.02 over 1e5 cycles."""
        sc = ScenarioConfig(DynamicI(1.0))
        rng = np.random.default_rng(6)
        st = init_channel(sc, CFG, rng)
        gains = np.empty(100_000, complex)
        for i in range(len(gains)):
            st = evolve(st, sc, CFG, rng)
            gains[i] = st.beta_c
        lag1 = np.mean(gains[1:] * gains[:-1].conj()) / np.mean(np.abs(gains) ** 2)
        assert abs(lag1) < 0.02

    def test_gauss_markov_moments(self):
        """Stationary E|beta|^2 = 1 within 3% (short independent chains keep
        the estimator noise ~1%); lag-1 autocorrelation 0.995 within 0.005
        from one long chain."""
        sc = ScenarioConfig(DynamicII(rho=0.995, delta_a=np.deg2rad(0.3)))
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(10_000):
            st = init_channel(sc, CFG, rng)
            for _ in range(5):
                st = evolve(st, sc, CFG, rng)
                samples.append(st.beta_c)
        assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.03
        st = init_channel(sc, CFG, rng)
        n = 50_000
        gains = np.empty(n, complex)
        for i in range(n):
            st = evolve(st, sc, CFG, rng)
            gains[i] = st.beta_c
        power = np.mean(np.abs(gains) ** 2)
        lag1 = np.real(np.mean(gains[1:] * gains[:-1].conj())) / power
        assert abs(lag1 - 0.995) < 0.005

    def test_walk_respects_ranges(self):
        """The angle walk never leaves its configured ranges (reflection)."""
        sc = ScenarioConfig(DynamicII(rho=0.995, delta_a=np.deg2rad(2.0)))
        (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
        rng = np.random.default_rng(8)
        st = init_channel(sc, CFG, rng)
        for _ in range(100_000):
            st = evolve(st, sc, CFG, rng)
            assert t_lo <= st.aoa.theta <= t_hi
            assert p_lo <= st.aoa.phi <= p_hi

    def test_walk_moves(self):
        sc = ScenarioConfig(DynamicII())
        rng = np.random.default_rng(9)
        st = init_channel(sc, CFG, rng)
        first = st.x.copy()
        st = evolve(st, sc, CFG, rng)
        assert not np.array_equal(st.x, first)


class TestInitialEstimate:
    def test_zero_halfwidth_is_exact(self):
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(10)
        st = init_channel(sc, CFG, rng)
        est = initial_estimate(st, CFG, rng, halfwidth=0.0)
        assert np.array_equal(est.x.as_array(), st.x)

    def test_always_in_main_lobe(self):
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(11)
        st = init_channel(sc, CFG, rng)
        for _ in range(10_000):
            est = initial_estimate(st, CFG, rng, halfwidth=0.5)
            assert in_main_lobe(tuple(st.x), est.x)

    def test_uniform_offsets(self):
        """The drawn offsets are uniform per coordinate (KS p > 0.01)."""
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(12)
        st = init_channel(sc, CFG, rng)
        off = np.array([initial_estimate(st, CFG, rng, 0.5).x.as_array() - st.x
                        for _ in range(4000)])
        for axis in range(2):
            p = stats.kstest(off[:, axis], stats.uniform(-0.5, 1.0).cdf).pvalue
            assert p > 0.01

    def test_bootstrap_gain_near_truth_noiselessly(self):
        """With offsets supplied and tiny noise, the fitted gain is close to
        the true equivalent gain when the direction draw is exact."""
        cfg = ArrayConfig(8, 8, noise_var=1e-20)
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(13)
        st = init_channel(sc, cfg, rng)
        est = initial_estimate(st, cfg, rng, halfwidth=0.0,
                               offsets=STATIC_OFFSETS)
        assert abs(est.beta - st.beta_eff) < 1e-8

    def test_kernel_bootstrap_matches_explicit_route(self):
        """The bootstrap cycle on the kernel path equals building an EBM,
        observing through it and fitting the gain, on the same draws."""
        from beamtrack.signal import build_ebm, observe
        from beamtrack.trackers import bootstrap_gain
        cfg = ArrayConfig(8, 6, pilot_amp=1.7, noise_var=0.6)
        for seed in range(20):
            sc = ScenarioConfig(DynamicII())
            st = init_channel(sc, cfg, np.random.default_rng(seed))
            est = initial_estimate(st, cfg, np.random.default_rng(seed + 100),
                                   0.4, STATIC_OFFSETS)
            rng = np.random.default_rng(seed + 100)
            x0 = st.x + rng.uniform(-0.4, 0.4, 2)
            ebm = build_ebm(cfg, x0, STATIC_OFFSETS)
            want = bootstrap_gain(cfg, ebm, x0, observe(cfg, st.params, ebm, rng))
            assert np.array_equal(est.x.as_array(), x0)
            assert abs(est.beta - want) <= 1e-12 * max(1.0, abs(want))

    def test_halfwidth_validation(self):
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(14)
        st = init_channel(sc, CFG, rng)
        with pytest.raises(ValueError):
            initial_estimate(st, CFG, rng, halfwidth=1.0)


class TestEstimatedGainVariance:
    def test_matches_pattern_at_physical_estimate(self):
        sc = ScenarioConfig(QuasiStatic())
        rng = np.random.default_rng(15)
        st = init_channel(sc, CFG, rng)
        got = estimated_gain_variance(sc, CFG, st.x, 1.0)
        eta = element_gain(sc.pattern, st.aoa)
        assert abs(got - eta**2) < 1e-9

    def test_clamps_unphysical_estimate(self):
        sc = ScenarioConfig(QuasiStatic())
        got = estimated_gain_variance(sc, CFG, (0.0, 7.0), 1.0)
        assert np.isfinite(got) and got > 0
