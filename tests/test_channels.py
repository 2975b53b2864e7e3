"""Unit tests for channel scenario generation and the initial estimate, on
the batched channel the engine runs: rows of ``initial_draws`` through
``init_channel_batch``/``initial_estimate_batch``, then ``evolve_chunk``;
a one-cycle chunk is one transition."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reference import _trial_rng, element_gain, initial_draws_row

from beamtrack.arrays import Aoa, ArrayConfig, dpv_from_aoa
from beamtrack.channels import (AOA_REGIONS, INITIAL_DRAWS, DynamicI,
                                DynamicII, QuasiStatic, ScenarioConfig,
                                estimated_gain_variance, evolve_chunk,
                                evolve_normals, init_channel_batch,
                                initial_draws, initial_estimate_batch)
from beamtrack.harness import (ConfigError, ExperimentConfig, _trial_rngs,
                               run_experiment)
from beamtrack.offsets import STATIC_OFFSETS

CFG = ArrayConfig(8, 8)


def _draws(sc, count, rng, halfwidth=0.5):
    """``count`` trials' initial draws from one generator, trial by trial."""
    return initial_draws(sc, [rng] * count, halfwidth)


def _many_inits(sc, count, seed=0):
    return init_channel_batch(sc, CFG, _draws(sc, count,
                                              np.random.default_rng(seed)))


RICIAN = ScenarioConfig(QuasiStatic(rician_k_db=15.0))


@pytest.fixture(scope="module")
def rician_draws():
    """The initial draws of 1e5 trials at the default K factor of 15 dB."""
    return _draws(RICIAN, 100_000, np.random.default_rng(0))


@pytest.fixture(scope="module")
def rician(rician_draws):
    """1e5 initial channels at the default K factor of 15 dB."""
    return init_channel_batch(RICIAN, CFG, rician_draws)


def _step(ch, sc, normals):
    """The channel after one transition from ``normals`` (T, e): a one-cycle
    chunk."""
    return evolve_chunk(ch, sc, CFG, normals[:, None])[2]


def _walk(sc, rows, cycles, rng):
    """The channels of ``rows`` independent trials after each of ``cycles``
    transitions.  The normals of all cycles are drawn at once, the numbers
    of one (rows, e) draw per cycle."""
    ch = init_channel_batch(sc, CFG, _draws(sc, rows, rng))
    for normals in rng.standard_normal((cycles, rows,
                                        evolve_normals(sc.kind))):
        ch = _step(ch, sc, normals)
        yield ch


def _gains(sc, rows, cycles, rng):
    """Path gains (rows, cycles) of ``rows`` parallel chains."""
    return np.stack([ch.beta_c for ch in _walk(sc, rows, cycles, rng)], axis=1)


def _lag1(gains):
    """Lag-1 sample autocorrelation pooled over the rows of chains."""
    return (np.mean(gains[:, 1:] * gains[:, :-1].conj())
            / np.mean(np.abs(gains) ** 2))


class TestInitialDraws:
    """The batched draws equal per-value ``Generator.uniform`` and
    ``standard_normal`` calls on each trial's own stream."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), lo=st.floats(-10, 10),
           width=st.floats(1e-6, 20))
    def test_scaled_random_is_generator_uniform(self, seed, lo, width):
        """lo + (hi - lo) u, u from ``random``, is ``Generator.uniform(lo,
        hi)`` bit for bit, whether ``uniform`` draws one value per call or
        many."""
        hi = lo + width
        u = np.random.default_rng(seed).random(16)
        rng = np.random.default_rng(seed)
        one_by_one = np.array([rng.uniform(lo, hi) for _ in range(8)])
        assert np.array_equal(lo + (hi - lo) * u[:8], one_by_one)
        assert np.array_equal(lo + (hi - lo) * u[8:], rng.uniform(lo, hi, 8))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from([QuasiStatic(), DynamicI(), DynamicII()]),
           region=st.sampled_from(sorted(AOA_REGIONS)),
           seed=st.integers(0, 2**40), first=st.integers(0, 1000),
           count=st.integers(1, 12), split=st.integers(1, 12),
           halfwidth=st.floats(0, 0.99))
    def test_batches_match_per_trial_rows(self, kind, region, seed, first,
                                          count, split, halfwidth):
        """At any batch split, the rows of the batch's generators are the
        per-trial rows of the contract's streams."""
        sc = ScenarioConfig(kind, region)
        trials = range(first, first + count)
        want = np.array([initial_draws_row(sc, _trial_rng(seed, t), halfwidth)
                         for t in trials])
        got = np.concatenate([
            initial_draws(sc, _trial_rngs(seed, trials[a:a + split]),
                          halfwidth) for a in range(0, count, split)])
        assert np.array_equal(got, want)


class TestInitChannel:
    def test_rician_limit_is_pure_los(self):
        """K -> infinity leaves exactly the unit-modulus line-of-sight part."""
        sc = ScenarioConfig(QuasiStatic(rician_k_db=300.0))
        assert np.all(np.abs(np.abs(_many_inits(sc, 50).beta_c) - 1.0) < 1e-9)

    def test_rician_unit_mean_power(self, rician):
        """E|beta_c|^2 = 1 within 3% for the default K factor."""
        power = np.mean(np.abs(rician.beta_c) ** 2)
        assert abs(power - 1.0) < 0.03

    def test_rician_k_ratio(self, rician, rician_draws):
        """LOS to diffuse power ratio matches the configured K within 3%.
        The diffuse power is measured about each draw's line-of-sight part
        (its phase is column 2 of the draws): mean |beta - LOS|^2 has no
        LOS x diffuse cross term, which dominates the spread of
        mean |beta|^2 - LOS power."""
        kappa = 10 ** 1.5
        los_power = kappa / (kappa + 1)
        los = np.sqrt(los_power) * np.exp(1j * rician_draws[:, 2])
        diffuse = np.mean(np.abs(rician.beta_c - los) ** 2)
        ratio = los_power / diffuse
        assert abs(ratio - kappa) < 0.03 * kappa

    def test_rayleigh_variance(self):
        sc = ScenarioConfig(DynamicI(sigma_beta_c_sq=0.6))
        power = np.mean(np.abs(_many_inits(sc, 100_000).beta_c) ** 2)
        assert abs(power - 0.6) < 0.03 * 0.6

    def test_central_region_gain_floor(self):
        """Central arrivals lose at most 5.2 dB of element gain."""
        ch = _many_inits(ScenarioConfig(QuasiStatic()), 2000, seed=1)
        db = 20 * np.log10(np.abs(ch.beta_eff / ch.beta_c))
        assert np.all(db >= -5.2)
        assert np.all(db <= 0.0)

    def test_aoa_ranges(self):
        (t_lo, t_hi), (p_lo, p_hi) = AOA_REGIONS["central"]
        ch = _many_inits(ScenarioConfig(QuasiStatic()), 500, seed=2)
        assert np.all((t_lo <= ch.theta) & (ch.theta <= t_hi))
        assert np.all((p_lo <= ch.phi) & (ch.phi <= p_hi))

    def test_beta_eff_consistency(self):
        """20 log10 |beta_eff / beta_c| equals the pattern gain in dB."""
        sc = ScenarioConfig(QuasiStatic(), aoa_region="edge")
        ch = _many_inits(sc, 200, seed=3)
        for row in range(200):
            aoa = Aoa(ch.theta[row], ch.phi[row])
            expected = element_gain(aoa)
            assert abs(abs(ch.beta_eff[row] / ch.beta_c[row]) - expected) < 1e-9
            assert np.allclose(ch.x[:, row], dpv_from_aoa(CFG, aoa))


class TestEvolve:
    def test_quasi_static_identity(self):
        """The channel after the chunk is the channel before it, and the
        trajectory is broadcast views of it, not copies."""
        sc = ScenarioConfig(QuasiStatic())
        ch = _many_inits(sc, 3, seed=4)
        x, beta_eff, end = evolve_chunk(ch, sc, CFG, np.empty((3, 5, 0)))
        assert end is ch
        assert x.shape == (5, 2, 3) and beta_eff.shape == (5, 3)
        assert np.shares_memory(x, ch.x) and x.strides[0] == 0
        assert np.shares_memory(beta_eff, ch.beta_eff)
        assert beta_eff.strides[0] == 0
        assert np.array_equal(x[3], ch.x)
        assert np.array_equal(beta_eff[3], ch.beta_eff)

    def test_dynamic_i_redraws_gain_keeps_direction(self):
        sc = ScenarioConfig(DynamicI(1.0))
        rng = np.random.default_rng(5)
        ch = init_channel_batch(sc, CFG, _draws(sc, 1, rng))
        nxt = _step(ch, sc, rng.standard_normal((1, 2)))
        assert nxt.beta_c[0] != ch.beta_c[0]
        assert np.array_equal(nxt.x, ch.x)

    def test_dynamic_i_gains_uncorrelated(self):
        """Lag-1 sample autocorrelation below 0.02 over 1e5 cycles (100
        parallel chains of 1000)."""
        gains = _gains(ScenarioConfig(DynamicI(1.0)), 100, 1000,
                       np.random.default_rng(6))
        assert abs(_lag1(gains)) < 0.02

    def test_gauss_markov_moments(self):
        """Stationary E|beta|^2 = 1 within 3% (short independent chains keep
        the estimator noise ~1%); lag-1 autocorrelation 0.995 within 0.005
        from 5e4 cycles (50 parallel chains of 1000)."""
        sc = ScenarioConfig(DynamicII(rho=0.995, delta_a=np.deg2rad(0.3)))
        rng = np.random.default_rng(7)
        samples = _gains(sc, 10_000, 5, rng)
        assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.03
        lag1 = np.real(_lag1(_gains(sc, 50, 1000, rng)))
        assert abs(lag1 - 0.995) < 0.005

    def test_walk_respects_ranges(self):
        """The angle walk never leaves its configured ranges (reflection),
        over 1e5 cycles (100 parallel walks of 1000)."""
        sc = ScenarioConfig(DynamicII(rho=0.995, delta_a=np.deg2rad(2.0)))
        (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
        for ch in _walk(sc, 100, 1000, np.random.default_rng(8)):
            assert np.all((t_lo <= ch.theta) & (ch.theta <= t_hi))
            assert np.all((p_lo <= ch.phi) & (ch.phi <= p_hi))

    def test_dynamic_ii_fixed_normals(self):
        """The docstring transforms on fixed normals: angles step by
        delta_a n0, delta_a n1; the gain moves to
        rho beta + (n2 + j n3) sqrt((1 - rho^2)/2).  Row 1 steps past the
        upper theta edge and the lower phi edge and comes back reflected,
        2 hi - value and 2 lo - value, not clipped."""
        kind = DynamicII(rho=0.9, delta_a=0.1)
        sc = ScenarioConfig(kind)
        (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
        draws = np.zeros((2, INITIAL_DRAWS))
        draws[:, 0] = [0.1, t_hi - 0.05]
        draws[:, 1] = [np.pi / 2, p_lo + 0.02]
        draws[:, 3:5] = [[0.4, -1.2], [1.5, 0.3]]
        ch = init_channel_batch(sc, CFG, draws)
        normals = np.array([[0.3, -0.2, 0.5, -1.0], [0.8, -0.6, 0.0, 2.0]])
        nxt = _step(ch, sc, normals)
        stepped_t = ch.theta + 0.1 * normals[:, 0]
        stepped_p = ch.phi + 0.1 * normals[:, 1]
        assert stepped_t[1] > t_hi and stepped_p[1] < p_lo
        theta = np.array([stepped_t[0], 2 * t_hi - stepped_t[1]])
        phi = np.array([stepped_p[0], 2 * p_lo - stepped_p[1]])
        np.testing.assert_allclose(nxt.theta, theta, rtol=0, atol=1e-15)
        np.testing.assert_allclose(nxt.phi, phi, rtol=0, atol=1e-15)
        beta_c = 0.9 * ch.beta_c + (normals[:, 2] + 1j * normals[:, 3]) \
            * np.sqrt((1 - 0.9**2) / 2)
        np.testing.assert_allclose(nxt.beta_c, beta_c, rtol=1e-15)
        for row in range(2):
            aoa = Aoa(theta[row], phi[row])
            np.testing.assert_allclose(nxt.x[:, row],
                                       dpv_from_aoa(CFG, aoa),
                                       rtol=1e-12, atol=1e-15)
            eta = element_gain(aoa)
            assert nxt.beta_eff[row] == pytest.approx(eta * beta_c[row],
                                                      rel=1e-12)

    def test_walk_moves(self):
        sc = ScenarioConfig(DynamicII())
        rng = np.random.default_rng(9)
        ch = init_channel_batch(sc, CFG, _draws(sc, 1, rng))
        nxt = _step(ch, sc, rng.standard_normal((1, 4)))
        assert not np.array_equal(nxt.x, ch.x)


def _assert_same_channel(a, b):
    for field in fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


class TestChunkContract:
    """A chunk's trajectory does not depend on how its cycles are cut into
    chunks: K cycles in one chunk equal K one-cycle chunks and any two
    chunks that split them, bit for bit, in x, beta_eff and the channel
    after the last cycle.  The walk steps are large enough (2 degrees and
    0.25 rad) that it reflects off the region's edges."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([
               QuasiStatic(), DynamicI(0.6),
               DynamicII(rho=0.995, delta_a=np.deg2rad(2.0)),
               DynamicII(rho=0.9, delta_a=0.25)]),
           region=st.sampled_from(sorted(AOA_REGIONS)),
           seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           cycles=st.integers(2, 40), data=st.data())
    def test_any_chunking_is_one_trajectory(self, kind, region, seed, rows,
                                            cycles, data):
        split = data.draw(st.integers(1, cycles - 1), label="split")
        sc = ScenarioConfig(kind, region)
        rng = np.random.default_rng(seed)
        ch = init_channel_batch(sc, CFG, _draws(sc, rows, rng))
        normals = rng.standard_normal((rows, cycles, evolve_normals(kind)))
        x, beta_eff, end = evolve_chunk(ch, sc, CFG, normals)
        assert x.shape == (cycles, 2, rows)
        assert beta_eff.shape == (cycles, rows)

        one = ch
        for k in range(cycles):
            x_k, beta_k, one = evolve_chunk(one, sc, CFG, normals[:, k:k + 1])
            assert np.array_equal(x_k[0], x[k])
            assert np.array_equal(beta_k[0], beta_eff[k])
            assert np.array_equal(one.x, x[k])
            assert np.array_equal(one.beta_eff, beta_eff[k])
        _assert_same_channel(one, end)

        x_a, beta_a, mid = evolve_chunk(ch, sc, CFG, normals[:, :split])
        x_b, beta_b, two = evolve_chunk(mid, sc, CFG, normals[:, split:])
        assert np.array_equal(np.concatenate([x_a, x_b]), x)
        assert np.array_equal(np.concatenate([beta_a, beta_b]), beta_eff)
        _assert_same_channel(two, end)


def _estimates(sc, count, seed, halfwidth, cfg=CFG):
    """True channels and initial estimates of ``count`` trials."""
    draws = _draws(sc, count, np.random.default_rng(seed), halfwidth)
    ch = init_channel_batch(sc, cfg, draws)
    return (ch, *initial_estimate_batch(ch, cfg, STATIC_OFFSETS, draws))


class TestInitialEstimate:
    def test_zero_halfwidth_is_exact(self):
        ch, x0, _ = _estimates(ScenarioConfig(QuasiStatic()), 5, 10, 0.0)
        assert np.array_equal(x0, ch.x)

    def test_always_in_main_lobe(self):
        ch, x0, _ = _estimates(ScenarioConfig(QuasiStatic()), 10_000, 11, 0.5)
        # the open unit-halfwidth square around the truth
        assert np.all(np.abs(x0 - ch.x) < 1.0)

    def test_uniform_offsets(self):
        """The drawn offsets are uniform per coordinate (KS p > 0.01)."""
        ch, x0, _ = _estimates(ScenarioConfig(QuasiStatic()), 4000, 12, 0.5)
        off = x0 - ch.x
        for axis in range(2):
            p = stats.kstest(off[axis], stats.uniform(-0.5, 1.0).cdf).pvalue
            assert p > 0.01

    def test_bootstrap_gain_near_truth_noiselessly(self):
        """At a huge pilot SNR, the fitted gain is close to the true
        equivalent gain when the direction draw is exact."""
        cfg = ArrayConfig(8, 8, pilot_amp=1e10)
        ch, _, beta0 = _estimates(ScenarioConfig(QuasiStatic()), 5, 13, 0.0,
                                  cfg)
        assert np.all(np.abs(beta0 - ch.beta_eff) < 1e-8)

    def test_kernel_bootstrap_matches_explicit_route(self):
        """The batched initial channel and estimate equal the reference
        channel draw, an EBM built at the estimate, an observation through
        it and the explicit gain fit, on the same stream."""
        from reference import bootstrap_gain, init_channel, observe

        from beamtrack.signal import build_ebm
        cfg = ArrayConfig(8, 6, pilot_amp=1.7 / np.sqrt(0.6))
        sc = ScenarioConfig(DynamicII())
        for seed in range(20):
            ch, x0, beta0 = _estimates(sc, 1, seed, 0.4, cfg)
            rng = np.random.default_rng(seed)
            st = init_channel(sc, cfg, rng)
            x0_ref = st.x + rng.uniform(-0.4, 0.4, 2)
            ebm = build_ebm(cfg, x0_ref, STATIC_OFFSETS)
            want = bootstrap_gain(cfg, ebm, x0_ref,
                                  observe(cfg, st.params, ebm, rng))
            assert np.array_equal(x0[:, 0], x0_ref)
            assert abs(beta0[0] - want) <= 1e-12 * max(1.0, abs(want))

    def test_halfwidth_validation(self):
        """The halfwidth is checked where it enters, in the experiment
        config: the estimate must stay in the main lobe."""
        ec = ExperimentConfig(ScenarioConfig(QuasiStatic()), CFG, "JBCT_S",
                              init_halfwidth=1.0)
        with pytest.raises(ConfigError):
            run_experiment(ec)


class TestEstimatedGainVariance:
    def test_matches_pattern_at_physical_estimate(self):
        sc = ScenarioConfig(QuasiStatic())
        ch = _many_inits(sc, 1, seed=15)
        got = estimated_gain_variance(CFG, ch.x[:, 0], 1.0)
        eta = element_gain(Aoa(ch.theta[0], ch.phi[0]))
        assert abs(got - eta**2) < 1e-9

    def test_clamps_unphysical_estimate(self):
        got = estimated_gain_variance(CFG, (0.0, 7.0), 1.0)
        assert np.isfinite(got) and got > 0
