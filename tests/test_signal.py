"""Unit tests for probing-beam construction, observations, and recovery."""

import numpy as np
import pytest

import reference
from reference import observe

from beamtrack.arrays import ArrayConfig
from beamtrack.offsets import STATIC_OFFSETS
from beamtrack.signal import (AmbiguousSolution, ChannelParams, NoSolution,
                              OffsetSet, _amplitude_residual, build_ebm,
                              noiseless_mean, observation_matrix,
                              observe_fast,
                              real_observation_jacobian,
                              recover_from_noiseless)

CFG = ArrayConfig(8, 8)


class TestOffsetSet:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            OffsetSet(np.zeros((2, 2)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OffsetSet(np.array([[0.1, 0.1], [0.1, 0.1], [0.2, 0.2]]))

    def test_rejects_out_of_lobe(self):
        with pytest.raises(ValueError):
            OffsetSet(np.array([[1.0, 0.0], [0.1, 0.1], [0.2, 0.2]]))


class TestBuildEbm:
    def test_zero_offset_column_is_uniform(self):
        offs = OffsetSet(np.array([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]]))
        ebm = build_ebm(CFG, (0.0, 0.0), offs)
        assert np.allclose(reference.ebm_columns(CFG, ebm)[:, 0],
                           1 / np.sqrt(64))

    def test_directions_are_center_plus_offsets(self):
        """At the origin the probe directions are the offsets themselves."""
        ebm = build_ebm(CFG, (0.0, 0.0), STATIC_OFFSETS)
        expected = np.array([[-0.0963, 0.5098], [-0.2906, -0.2906],
                             [0.5098, -0.0963]])
        assert np.allclose(ebm.directions, expected)

    def test_column_modulus(self):
        ebm = build_ebm(CFG, (1.3, -0.7), STATIC_OFFSETS)
        assert np.allclose(np.abs(reference.ebm_columns(CFG, ebm)),
                           1 / np.sqrt(64))


class TestObserve:
    PSI = ChannelParams.from_parts(0.8 - 0.3j, (0.4, -1.1))

    def test_zero_noise_is_exact_mean(self):
        cfg = ArrayConfig(8, 8, noise_var=1e-300)
        ebm = build_ebm(cfg, self.PSI.x, STATIC_OFFSETS)
        y = observe(cfg, self.PSI, ebm, np.random.default_rng(0))
        mean = reference.noiseless_mean(cfg, self.PSI, ebm)
        assert np.abs(y - mean).max() < 1e-140

    def test_noise_mean_and_variance(self):
        """With beta = 0 the draws are pure CN(0, noise_var) noise.  The 1e5
        draws of ``observe`` run as one ``observe_fast`` call on the same
        normals: ``observe`` takes three real parts, then three imaginary
        parts, per call, which is the row layout of ``observe_fast``."""
        psi0 = ChannelParams.from_parts(0.0, (0.0, 0.0))
        ebm = build_ebm(CFG, (0.0, 0.0), STATIC_OFFSETS)
        normals = np.random.default_rng(1).standard_normal((100_000, 6))
        draws = observe_fast(CFG, np.zeros(2), 0.0, ebm.directions, normals)
        rng = np.random.default_rng(1)
        first = np.stack([observe(CFG, psi0, ebm, rng) for _ in range(20)])
        assert np.array_equal(first, draws[:20])
        # componentwise mean within a 4-sigma band of zero
        band = 4 * np.sqrt(CFG.noise_var / 2 / len(draws))
        assert np.abs(draws.mean(axis=0).view(float)).max() < band
        var = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.all(np.abs(var - CFG.noise_var) < 0.03 * CFG.noise_var)

    def test_deterministic_given_seed(self):
        ebm = build_ebm(CFG, self.PSI.x, STATIC_OFFSETS)
        y1 = observe(CFG, self.PSI, ebm, np.random.default_rng(42))
        y2 = observe(CFG, self.PSI, ebm, np.random.default_rng(42))
        assert np.array_equal(y1, y2)


class TestNoiselessMean:
    def test_zero_offset_gives_root_mn(self):
        offs = OffsetSet(np.array([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]]))
        psi = ChannelParams.from_parts(1.0, (0.7, -0.2))
        ebm = build_ebm(CFG, psi.x, offs)
        y = noiseless_mean(CFG, psi, ebm)
        assert abs(y[0] - np.sqrt(64)) < 1e-9

    def test_unit_offset_gives_zero(self):
        offs = OffsetSet(np.array([[0.999999999, 0.0], [0.3, 0.1], [-0.2, 0.4]]))
        psi = ChannelParams.from_parts(1.0, (0.0, 0.0))
        ebm = build_ebm(CFG, psi.x, offs)
        assert abs(noiseless_mean(CFG, psi, ebm)[0]) < 1e-6

    def test_matches_separable_closed_form(self):
        """Explicit Dirichlet-kernel-and-phase form of the mean."""
        rng = np.random.default_rng(2)
        from beamtrack.arrays import beam_gain_kernel
        for _ in range(20):
            psi = ChannelParams.from_parts(
                rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                rng.uniform(-2, 2, 2))
            center = psi.x + rng.uniform(-0.3, 0.3, 2)
            ebm = build_ebm(CFG, center, STATIC_OFFSETS)
            y = noiseless_mean(CFG, psi, ebm)
            d = ebm.directions - psi.x
            expected = (CFG.pilot_amp * psi.beta / np.sqrt(64)
                        * beam_gain_kernel(d, 8, 8)
                        * np.exp(-1j * np.pi * (7 / 8) * (d[:, 0] + d[:, 1])))
            assert np.abs(y - expected).max() < 1e-9


class TestObservationMatrix:
    """The kernel route to W^H J and to the noiseless mean agrees with the
    explicit steering matrices of ``tests/reference.py`` to 1e-12 relative,
    scaled by sqrt(MN), at random channels and EBM centres."""

    @pytest.mark.parametrize("m, n", [(8, 8), (6, 10), (16, 4), (1, 7)])
    def test_matches_explicit_steering_matrices(self, m, n):
        cfg = ArrayConfig(m, n, pilot_amp=1.7)
        rng = np.random.default_rng(11)
        span = np.array([m, n]) / 2.0
        tol = 1e-12 * np.sqrt(cfg.size)
        for _ in range(50):
            psi = ChannelParams.from_parts(
                rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                rng.uniform(-span, span))
            ebm = build_ebm(cfg, rng.uniform(-span, span), STATIC_OFFSETS)
            ref = (reference.ebm_columns(cfg, ebm).conj().T
                   @ reference.jacobian(cfg, psi))
            got = observation_matrix(cfg, psi, ebm)
            assert got.shape == (3, 4)
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()
            mean = reference.noiseless_mean(cfg, psi, ebm)
            assert (np.abs(noiseless_mean(cfg, psi, ebm) - mean).max()
                    <= tol * np.abs(mean).max())


class TestPhaseOffsetConstancy:
    def test_relative_phases_independent_of_channel(self):
        """For noiseless y the phase differences depend only on the probe
        direction differences, across 20 random channels."""
        rng = np.random.default_rng(3)
        ref = None
        for _ in range(20):
            psi = ChannelParams.from_parts(
                rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                rng.uniform(-1, 1, 2))
            ebm = build_ebm(CFG, psi.x + rng.uniform(-0.2, 0.2, 2),
                            STATIC_OFFSETS)
            y = noiseless_mean(CFG, psi, ebm)
            rel = np.angle(y[1:] / y[0])
            if ref is None:
                ref = rel
            assert np.abs(np.angle(np.exp(1j * (rel - ref)))).max() < 1e-9


class TestIdentifiability:
    def test_three_probe_jacobian_full_rank(self):
        """With three generic probes the real observation Jacobian has rank 4."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = ChannelParams.from_parts(
                0.5 + rng.uniform(0, 1) + 0.3j, rng.uniform(-1, 1, 2))
            ebm = build_ebm(CFG, psi.x + rng.uniform(-0.3, 0.3, 2),
                            STATIC_OFFSETS)
            sv = np.linalg.svd(real_observation_jacobian(CFG, psi, ebm),
                               compute_uv=False)
            assert sv[3] / sv[0] > 1e-9

    def test_two_probe_jacobian_rank_deficient(self):
        """Two probes give 4 real equations of rank at most 3."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = ChannelParams.from_parts(
                0.5 + rng.uniform(0, 1) + 0.3j, rng.uniform(-1, 1, 2))
            ebm = build_ebm(CFG, psi.x + rng.uniform(-0.3, 0.3, 2),
                            STATIC_OFFSETS)
            sv = np.linalg.svd(real_observation_jacobian(CFG, psi, ebm, probes=2),
                               compute_uv=False)
            assert sv[2] / max(sv[3], 1e-300) > 1e6


class TestRecovery:
    @pytest.mark.parametrize("cfg", [CFG, ArrayConfig(16, 5)])
    def test_amplitude_jacobian_matches_central_differences(self, cfg):
        """The Newton Jacobian that comes with the amplitude residual equals
        central differences of the residual (rtol 1e-6), at random
        directions and EBM centres."""
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(40):
            centre = rng.uniform(-2, 2, 2)
            ebm = build_ebm(cfg, centre, STATIC_OFFSETS)
            x = centre + rng.uniform(-0.6, 0.6, 2)
            ratios = rng.uniform(0, 2, 2)
            _, jac = _amplitude_residual(cfg, ebm, x, ratios)
            num = np.empty((2, 2))
            for p in range(2):
                dx = np.zeros(2)
                dx[p] = h
                num[:, p] = (_amplitude_residual(cfg, ebm, x + dx, ratios)[0]
                             - _amplitude_residual(cfg, ebm, x - dx, ratios)[0]
                             ) / (2 * h)
            np.testing.assert_allclose(jac, num, rtol=1e-6)

    def test_round_trip(self):
        """Generate-then-invert reproduces the channel to 1e-9."""
        psi = ChannelParams.from_parts(0.7 + 0.2j, (0.1, -0.2))
        ebm = build_ebm(CFG, (0.0, 0.0), STATIC_OFFSETS)
        y = noiseless_mean(CFG, psi, ebm)
        rec = recover_from_noiseless(CFG, ebm, y,
                                     ((-0.9, 0.9), (-0.9, 0.9)))
        assert np.linalg.norm(rec.as_vector() - psi.as_vector()) < 1e-9

    def test_round_trip_random(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            psi = ChannelParams.from_parts(
                (0.3 + rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                rng.uniform(-2, 2, 2))
            center = psi.x + rng.uniform(-0.4, 0.4, 2)
            ebm = build_ebm(CFG, center, STATIC_OFFSETS)
            y = noiseless_mean(CFG, psi, ebm)
            box = ((center[0] - 0.95, center[0] + 0.95),
                   (center[1] - 0.95, center[1] + 0.95))
            rec = recover_from_noiseless(CFG, ebm, y, box)
            assert np.linalg.norm(rec.as_vector() - psi.as_vector()) < 1e-9

    def test_center_amplitude_ratios_are_kernel_ratios(self):
        """At the probe center the amplitude ratios equal the offset-only
        kernel magnitude ratios (shift property)."""
        from beamtrack.arrays import probe_kernels
        psi = ChannelParams.from_parts(1.0, (0.6, -0.9))
        ebm = build_ebm(CFG, psi.x, STATIC_OFFSETS)
        y = noiseless_mean(CFG, psi, ebm)
        g, _, _ = probe_kernels(STATIC_OFFSETS.deltas, 8, 8)
        assert np.allclose(np.abs(y[1:]) / abs(y[0]),
                           np.abs(g[1:]) / abs(g[0]), atol=1e-10)

    def test_weak_reference_raises(self):
        ebm = build_ebm(CFG, (0.0, 0.0), STATIC_OFFSETS)
        with pytest.raises(NoSolution):
            recover_from_noiseless(CFG, ebm, np.zeros(3, complex),
                                   ((-0.9, 0.9), (-0.9, 0.9)))

    def test_garbage_observation_raises(self):
        ebm = build_ebm(CFG, (0.0, 0.0), STATIC_OFFSETS)
        # amplitudes no offset pattern can produce within the box
        y = np.array([1e-3 + 0j, 50.0, 50.0j])
        with pytest.raises((NoSolution, AmbiguousSolution)):
            recover_from_noiseless(CFG, ebm, y, ((-0.9, 0.9), (-0.9, 0.9)))
