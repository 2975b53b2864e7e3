"""Unit tests for Fisher information and CRLBs, both models."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import di_log_pdf, di_score, ebm_columns, jacobian, sigma_di

from beamtrack.arrays import ArrayConfig, probe_kernels, probe_kernels_limit
from beamtrack.checks import mc_fisher_di, mc_fisher_static
from beamtrack.estimation import (DiModel, SingularFisher, _di_info,
                                  _di_score, _di_score_terms, _gain_blocks,
                                  _products, _sym2, _trace_solve, crlb_di,
                                  crlb_di_asymptotic, crlb_static,
                                  crlb_static_asymptotic, di_offsets_crlb,
                                  fisher_di, fisher_static,
                                  snr_beta_db_ceiling, static_offsets_crlb,
                                  steering_gram)
from beamtrack.offsets import FADING_OFFSETS, STATIC_OFFSETS
from beamtrack.signal import ChannelParams, OffsetSet, build_ebm

CFG = ArrayConfig(8, 8)
PSI = ChannelParams.from_parts(0.8 - 0.3j, (0.4, -1.1))


def _ebm_at(x, offsets=STATIC_OFFSETS, cfg=CFG):
    return build_ebm(cfg, x, offsets)


class TestJacobian:
    def test_columns_at_origin(self):
        psi = ChannelParams.from_parts(1.0, (0.0, 0.0))
        v = jacobian(CFG, psi)
        assert np.allclose(v[:, 0], 1.0)
        assert np.allclose(v[:, 1], 1j)
        assert v[0, 2] == 0

    def test_gram_matches_closed_form_and_is_direction_free(self):
        """V^H V equals the exact closed form at two different directions."""
        beta = 0.7 + 0.2j
        gram = steering_gram(8, 8, beta)
        for x in ((0.3, -1.1), (1.9, 0.4)):
            v = jacobian(CFG, ChannelParams.from_parts(beta, x))
            assert np.abs(v.conj().T @ v - gram).max() < 1e-10 * CFG.size

    def test_gain_columns_cancel_under_plain_transpose(self):
        """V1 V1^T = 0: each entry is a_i a_j + (j a_i)(j a_j) = 0."""
        v = jacobian(CFG, PSI)
        v1 = v[:, :2]
        assert np.abs(v1 @ v1.T).max() < 1e-10


class TestFisherStatic:
    def test_symmetric_psd(self):
        info = fisher_static(CFG, PSI, _ebm_at(PSI.x))
        assert np.array_equal(info, info.T)
        assert np.linalg.eigvalsh(info).min() >= -1e-10 * np.trace(info)

    def test_pilot_scaling(self):
        """Doubling the pilot amplitude quadruples every entry."""
        cfg2 = ArrayConfig(8, 8, pilot_amp=2.0)
        i1 = fisher_static(CFG, PSI, _ebm_at(PSI.x))
        i2 = fisher_static(cfg2, PSI, _ebm_at(PSI.x, cfg=cfg2))
        assert np.allclose(i2, 4 * i1, rtol=1e-12)

    def test_gain_block_identity(self):
        """Top-left 2x2 of Fisher/(2|s|^2) is ||W^H a||^2 I2."""
        ebm = _ebm_at(PSI.x)
        info = fisher_static(CFG, PSI, ebm) / (2 * CFG.pilot_amp**2)
        e = ebm_columns(CFG, ebm).conj().T @ jacobian(CFG, PSI)[:, 0]
        norm = float(np.vdot(e, e).real)
        assert np.allclose(info[:2, :2], norm * np.eye(2), atol=1e-9 * norm)

    def test_matches_mc_score_covariance(self):
        """Monte-Carlo score covariance, 2e5 draws, < 3% Frobenius."""
        rng = np.random.default_rng(7)
        ebm = _ebm_at(PSI.x)
        ana = fisher_static(CFG, PSI, ebm)
        mc = mc_fisher_static(CFG, PSI, ebm, 200_000, rng)
        assert np.linalg.norm(mc - ana) / np.linalg.norm(ana) < 0.03


class TestCrlbStatic:
    def test_gain_invariance(self):
        """Identical value for different gain magnitudes and phases."""
        ref = crlb_static(CFG, ChannelParams.from_parts(1.0, (0.2, 0.3)),
                          _ebm_at((0.2, 0.3)))
        other = crlb_static(CFG, ChannelParams.from_parts(0.3 * np.exp(1.1j),
                                                          (0.2, 0.3)),
                            _ebm_at((0.2, 0.3)))
        assert abs(other - ref) < 1e-9 * ref

    def test_direction_invariance(self):
        ref = crlb_static(CFG, ChannelParams.from_parts(1.0, (0.0, 0.0)),
                          _ebm_at((0.0, 0.0)))
        other = crlb_static(CFG, ChannelParams.from_parts(1.0, (1.7, -2.3)),
                            _ebm_at((1.7, -2.3)))
        assert abs(other - ref) < 1e-9 * ref

    def test_ten_random_invariance(self):
        """Criterion-grade check across 10 gains and 10 directions."""
        rng = np.random.default_rng(8)
        ref = None
        for _ in range(10):
            beta = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            x = rng.uniform(-2, 2, 2)
            val = crlb_static(CFG, ChannelParams.from_parts(beta, x), _ebm_at(x))
            ref = val if ref is None else ref
            assert abs(val - ref) < 1e-9 * ref

    def test_collinear_offsets_singular(self):
        offs = OffsetSet(np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]))
        with pytest.raises(SingularFisher):
            crlb_static(CFG, PSI, _ebm_at(PSI.x, offs))

    def test_offsets_route_agrees(self):
        """Kernel-based evaluator matches the explicit-matrix route."""
        val = crlb_static(CFG, PSI, _ebm_at(PSI.x))
        fast = static_offsets_crlb(STATIC_OFFSETS.deltas, 8, 8,
                                   CFG.pilot_amp)
        assert abs(val - fast) < 1e-12 * val

    def test_offsets_route_pilot_domain(self):
        """The bare pilot amplitude has the array's domain, and a zero
        pilot observes nothing."""
        for pilot in (1e155, 1e-155):
            with pytest.raises(ValueError, match="pilot amplitude"):
                static_offsets_crlb(STATIC_OFFSETS.deltas, 8, 8, pilot)
        assert static_offsets_crlb(STATIC_OFFSETS.deltas, 8, 8, 0.0) == np.inf


class TestTraceSolve:
    def test_overflowing_quotient_is_inf_without_a_warning(self):
        """A regular F whose quotient overflows gives +inf silently."""
        f = (np.array(1e-150), np.array(0.0), np.array(1e-150))
        h = (np.array(1e160), np.array(0.0), np.array(1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _trace_solve(f, h, 1e-290) == np.inf


class TestCrlbStaticAsymptotic:
    def test_finite_size_converges_monotonically(self):
        """MN * crlb approaches the limit through 16, 32, 64; < 1% at 64."""
        lim = crlb_static_asymptotic(STATIC_OFFSETS.deltas)
        prev = np.inf
        for m in (16, 32, 64):
            val = static_offsets_crlb(STATIC_OFFSETS.deltas, m, m) * m * m
            gap = abs(val - lim) / lim
            assert gap < prev
            prev = gap
        assert prev < 0.01


class TestSigmaDi:
    MODEL = DiModel(1.0)

    def test_zero_variance_reduces_to_noise(self):
        det, inv = sigma_di(CFG, (0.0, 0.0), DiModel(0.0),
                            _ebm_at((0.0, 0.0), FADING_OFFSETS))
        assert abs(det - 1.0) < 1e-9
        assert np.allclose(inv, np.eye(3))

    def test_matches_direct_inverse_and_det(self):
        """Generic 3x3 inversion of the assembled covariance."""
        from beamtrack.signal import observation_kernels
        cfg = ArrayConfig(8, 8, pilot_amp=1.3 / np.sqrt(0.7))
        x = (0.4, -1.1)
        ebm = _ebm_at(x, FADING_OFFSETS, cfg)
        det, inv = sigma_di(cfg, x, self.MODEL, ebm)
        g, _, _ = observation_kernels(cfg, x, ebm)
        sigma = (cfg.pilot_amp**2 * self.MODEL.sigma_beta_sq
                 * np.outer(g, g.conj()) + np.eye(3))
        assert np.abs(inv @ sigma - np.eye(3)).max() < 1e-10
        assert abs(det - np.linalg.det(sigma).real) < 1e-10 * abs(det)


class TestFisherDi:
    MODEL = DiModel(1.0)

    def test_direction_invariance(self):
        a = fisher_di(CFG, (0.0, 0.0), self.MODEL,
                      _ebm_at((0.0, 0.0), FADING_OFFSETS))
        b = fisher_di(CFG, (2.2, -1.4), self.MODEL,
                      _ebm_at((2.2, -1.4), FADING_OFFSETS))
        assert np.abs(a - b).max() < 1e-9 * np.abs(a).max()

    def test_ten_random_direction_invariance(self):
        rng = np.random.default_rng(9)
        ref = fisher_di(CFG, (0.0, 0.0), self.MODEL,
                        _ebm_at((0.0, 0.0), FADING_OFFSETS))
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            val = fisher_di(CFG, x, self.MODEL, _ebm_at(x, FADING_OFFSETS))
            assert np.abs(val - ref).max() < 1e-9 * np.abs(ref).max()

    def test_norm_gradient_matches_finite_difference(self):
        """The cached gradient of ||g||^2 against central differences."""
        from beamtrack.signal import observation_kernels
        x = np.array([0.3, -0.6])
        ebm = _ebm_at(x, FADING_OFFSETS)
        fd = np.empty(2)
        h = 1e-6
        for p in range(2):
            dx = np.zeros(2)
            dx[p] = h
            gp, _, _ = observation_kernels(CFG, x + dx, ebm)
            gm, _, _ = observation_kernels(CFG, x - dx, ebm)
            fd[p] = (np.vdot(gp, gp).real - np.vdot(gm, gm).real) / (2 * h)
        got = _gain_blocks(*observation_kernels(CFG, x, ebm))[1]
        assert np.abs(fd - got).max() / np.abs(got).max() < 1e-6

    def test_matches_generic_gaussian_fisher(self):
        """Slepian-Bangs form Tr{S^-1 dS S^-1 dS} as an independent oracle."""
        from beamtrack.signal import observation_kernels
        x = np.array([0.9, 0.2])
        cfg = ArrayConfig(8, 8, pilot_amp=1.2 / np.sqrt(0.6))
        model = DiModel(0.8)
        ebm = _ebm_at(x, FADING_OFFSETS, cfg)
        g, d1, d2 = observation_kernels(cfg, x, ebm)
        c = cfg.pilot_amp**2 * model.sigma_beta_sq
        sigma = c * np.outer(g, g.conj()) + np.eye(3)
        si = np.linalg.inv(sigma)
        parts = [c * (np.outer(d, g.conj()) + np.outer(g, d.conj()))
                 for d in (d1, d2)]
        oracle = np.array([[np.trace(si @ parts[p] @ si @ parts[j]).real
                            for j in range(2)] for p in range(2)])
        got = fisher_di(cfg, x, model, ebm)
        assert np.abs(got - oracle).max() < 1e-9 * np.abs(oracle).max()

    def test_matches_mc_score_covariance(self):
        rng = np.random.default_rng(10)
        x = np.array([0.4, -1.2])
        ebm = _ebm_at(x, FADING_OFFSETS)
        ana = fisher_di(CFG, x, self.MODEL, ebm)
        mc = mc_fisher_di(CFG, x, self.MODEL, ebm, 200_000, rng)
        assert np.linalg.norm(mc - ana) / np.linalg.norm(ana) < 0.03


class TestDiScore:
    MODEL = DiModel(1.0)

    def test_matches_log_pdf_finite_difference(self):
        """Analytic score against central differences of the log-density."""
        rng = np.random.default_rng(11)
        x = np.array([0.2, -0.7])
        ebm = _ebm_at(x, FADING_OFFSETS)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = di_score(CFG, x, self.MODEL, ebm, y)
        h = 1e-6
        for p in range(2):
            dx = np.zeros(2)
            dx[p] = h
            fd = (di_log_pdf(CFG, x + dx, self.MODEL, ebm, y)
                  - di_log_pdf(CFG, x - dx, self.MODEL, ebm, y)) / (2 * h)
            assert abs(fd - got[p]) / max(abs(got[p]), 1e-12) < 1e-6

    def test_zero_mean_at_truth(self):
        """Score averages to zero over draws from the true model (4-sigma)."""
        rng = np.random.default_rng(12)
        x = np.array([0.2, -0.7])
        ebm = _ebm_at(x, FADING_OFFSETS)
        from beamtrack.signal import observation_kernels
        g, _, _ = observation_kernels(CFG, x, ebm)
        n = 100_000
        beta = np.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        z = np.sqrt(0.5) * (rng.standard_normal((n, 3))
                            + 1j * rng.standard_normal((n, 3)))
        ys = beta[:, None] * g[None, :] + z
        info = fisher_di(CFG, x, self.MODEL, ebm)
        mean = np.zeros(2)
        for i in range(0, n, 20000):
            for y in ys[i:i + 20000:200]:  # thinned loop keeps runtime low
                mean += di_score(CFG, x, self.MODEL, ebm, y)
        count = len(range(0, 20000, 200)) * len(range(0, n, 20000))
        mean /= count
        band = 4 * np.sqrt(np.diag(info) / count)
        assert np.all(np.abs(mean) < band)

    def test_zero_variance_gives_zero_score(self):
        """With no gain variance the covariance loses its direction
        dependence and the score vanishes for any observation."""
        x = np.array([0.1, 0.4])
        ebm = _ebm_at(x, FADING_OFFSETS)
        y = np.array([0.3 - 1j, 0.2, 1.1j])
        got = di_score(CFG, x, DiModel(0.0), ebm, y)
        assert np.abs(got).max() < 1e-12


class TestBatchedScoreTerms:
    """The shared score terms and the batched Fisher on the shape the
    direction tracker uses: one offset set, a gain power and an observation
    per row."""

    @settings(max_examples=50, deadline=None)
    @given(deltas=st.lists(st.floats(-0.99, 0.99), min_size=6, max_size=6),
           x=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           c=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
           noise_var=st.floats(0.1, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_explicit_oracles(self, deltas, x, c, noise_var, seed):
        try:
            offsets = OffsetSet(np.reshape(deltas, (3, 2)))
        except ValueError:
            assume(False)
        # gain power c at noise variance noise_var: c / noise_var at unit
        # noise, with the observations scaled by 1 / sqrt(noise_var)
        cfg = ArrayConfig(8, 8)
        c = np.array(c) / noise_var
        rng = np.random.default_rng(seed)
        y = (rng.standard_normal((len(c), 3))
             + 1j * rng.standard_normal((len(c), 3))) / np.sqrt(noise_var)
        g, k1, k2 = probe_kernels(offsets.deltas, cfg.m, cfg.n)
        q_mats, c0 = _di_score_terms(g, k1, k2, c)
        scores = _di_score(q_mats, c0, y)
        info = _sym2(_di_info(_products(g, k1, k2), c)[0])
        ebm = _ebm_at(x, offsets, cfg)
        h = 1e-6
        for row in range(len(c)):
            model = DiModel(c[row])
            for p in range(2):
                dx = np.zeros(2)
                dx[p] = h
                fd = (di_log_pdf(cfg, np.add(x, dx), model, ebm, y[row])
                      - di_log_pdf(cfg, np.subtract(x, dx), model, ebm, y[row])
                      ) / (2 * h)
                assert abs(fd - scores[row, p]) < 1e-6 * max(abs(fd), 1.0)
            sigma = c[row] * np.outer(g, g.conj()) + np.eye(3)
            si = np.linalg.inv(sigma)
            parts = [c[row] * (np.outer(d, g.conj()) + np.outer(g, d.conj()))
                     for d in (k1, k2)]
            oracle = np.array([[np.trace(si @ parts[p] @ si @ parts[q]).real
                                for q in range(2)] for p in range(2)])
            assert np.abs(info[row] - oracle).max() \
                < 1e-9 * np.abs(oracle).max()


_OFFSET = st.floats(-0.95, 0.95)


class TestOffsetBoundProperties:
    """The offset-only bounds take (..., 3, 2) and return the leading shape:
    one set is a batch of shape (), and the explicit per-cycle CRLBs agree
    with them at any gain and direction."""

    @settings(max_examples=100, deadline=None)
    @given(sets=st.lists(st.lists(_OFFSET, min_size=6, max_size=6),
                         min_size=1, max_size=5),
           data=st.data(), m=st.integers(2, 20), n=st.integers(2, 20),
           snr=st.floats(0.05, 50.0))
    def test_one_set_is_its_row_of_a_batch(self, sets, data, m, n, snr):
        batch = np.reshape(sets, (-1, 3, 2))
        row = data.draw(st.integers(0, len(batch) - 1))
        for bound in (lambda d: static_offsets_crlb(d, m, n),
                      lambda d: crlb_static_asymptotic(d),
                      lambda d: di_offsets_crlb(d, m, n, snr),
                      lambda d: crlb_di_asymptotic(d, snr)):
            many = bound(batch)
            one = bound(batch[row])
            assert many.shape == (len(batch),)
            assert type(one) is np.float64
            assert one == many[row]

    @settings(max_examples=100, deadline=None)
    @given(deltas=st.lists(_OFFSET, min_size=6, max_size=6),
           m=st.integers(2, 20), n=st.integers(2, 20),
           gain=st.floats(0.2, 5.0), phase=st.floats(-np.pi, np.pi),
           x=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           sigma_beta_sq=st.floats(0.05, 50.0))
    def test_explicit_crlbs_ignore_gain_and_direction(
            self, deltas, m, n, gain, phase, x, sigma_beta_sq):
        try:
            offsets = OffsetSet(np.reshape(deltas, (3, 2)))
        except ValueError:
            assume(False)
        cfg = ArrayConfig(m, n)
        ebm = _ebm_at(x, offsets, cfg)
        model = DiModel(sigma_beta_sq)
        psi = ChannelParams.from_parts(gain * np.exp(1j * phase), x)
        # rtol 1e-9 holds where rounding is not amplified by the inversion
        assume(np.linalg.cond(fisher_static(cfg, psi, ebm)) < 1e5)
        assume(np.linalg.cond(fisher_di(cfg, x, model, ebm)) < 1e5)
        static = crlb_static(cfg, psi, ebm)
        di = crlb_di(cfg, x, model, ebm)
        assert np.isclose(static, static_offsets_crlb(offsets.deltas, m, n),
                          rtol=1e-9, atol=0)
        assert np.isclose(di, di_offsets_crlb(offsets.deltas, m, n,
                                              sigma_beta_sq),
                          rtol=1e-9, atol=0)


def _mp_col(v, mpmath):
    return mpmath.matrix([mpmath.mpc(float(z.real), float(z.imag)) for z in v])


def _mp_tr_inv(f):
    return (f[0, 0] + f[1, 1]) / (f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0])


def _static_oracle(mpmath, kernels, gram):
    """Tr{I^-1 gram} / 2 of the explicit 4x4 static Fisher (unit pilot,
    noise and gain) and the Fisher itself."""
    g, k1, k2 = (_mp_col(v, mpmath) for v in kernels)
    cols = [g, 1j * g, k1, k2]
    info = mpmath.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            info[i, j] = mpmath.re((cols[i].H * cols[j])[0])
    sol = info**-1 * mpmath.matrix(gram.tolist())
    return sum(sol[i, i] for i in range(4)) / 2, info


def _di_oracle(mpmath, kernels, snr):
    """Slepian-Bangs Tr{S^-1 dS_p S^-1 dS_q}, S = snr g g^H + I."""
    g, k1, k2 = (_mp_col(v, mpmath) for v in kernels)
    si = (snr * g * g.H + mpmath.eye(3))**-1
    parts = [snr * (k * g.H + g * k.H) for k in (k1, k2)]
    info = mpmath.matrix(2, 2)
    for p in range(2):
        for q in range(2):
            prod = si * parts[p] * si * parts[q]
            info[p, q] = mpmath.re(sum(prod[i, i] for i in range(3)))
    return _mp_tr_inv(info), info


def _di_limit_oracle(mpmath, kernels, snr):
    """snr (Tr{G_p G_q} - tau_p tau_q) / ||g||^2 with the explicit
    G_p = k_p g^H + g k_p^H and tau_p = 2 Re g^H k_p."""
    g, k1, k2 = (_mp_col(v, mpmath) for v in kernels)
    a = mpmath.re((g.H * g)[0])
    mats = [k * g.H + g * k.H for k in (k1, k2)]
    tau = [2 * mpmath.re((g.H * k)[0]) for k in (k1, k2)]
    info = mpmath.matrix(2, 2)
    for p in range(2):
        for q in range(2):
            prod = mats[p] * mats[q]
            info[p, q] = snr * (mpmath.re(sum(prod[i, i] for i in range(3)))
                                - tau[p] * tau[q]) / a
    return _mp_tr_inv(info), info


def _near_collinear(rng, jitter):
    """Three offsets on a random line, moved off it by ``jitter``."""
    angle = rng.uniform(0, np.pi)
    along = np.array([np.cos(angle), np.sin(angle)])
    perp = np.array([-along[1], along[0]])
    return (rng.uniform(-0.4, 0.4, 2) + rng.uniform(-0.45, 0.45, 3)[:, None]
            * along + jitter * rng.standard_normal(3)[:, None] * perp)


# Re V^H V / MN at unit gain as the array grows
_GRAM_LIMIT = np.array([[1, 0, 0, 0], [0, 1, np.pi, np.pi],
                        [0, np.pi, 4 * np.pi**2 / 3, np.pi**2],
                        [0, np.pi, np.pi**2, 4 * np.pi**2 / 3]])

_ACCURACY_CASES = {
    "static-asymptotic": (lambda d: crlb_static_asymptotic(d),
                          lambda mp, d: _static_oracle(
                              mp, probe_kernels_limit(d), _GRAM_LIMIT), 1e8),
    "static-finite": (lambda d: static_offsets_crlb(d, 8, 8),
                      lambda mp, d: _static_oracle(
                          mp, probe_kernels(d, 8, 8),
                          steering_gram(8, 8, 1.0).real / 64), 1e8),
    "di-finite": (lambda d: di_offsets_crlb(d, 8, 8, 3.0),
                  lambda mp, d: _di_oracle(mp, probe_kernels(d, 8, 8), 3), 1e3),
    "di-asymptotic": (lambda d: crlb_di_asymptotic(d, 3.0),
                      lambda mp, d: _di_limit_oracle(
                          mp, probe_kernels_limit(d), 3), 1e6),
}


# offsets sharing one coordinate at zero: the other kernel derivative is
# j times a real multiple of g, so neither model identifies that direction,
# while rounding leaves its projected diagonal entries at noise size
_AXIS_SETS = [np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]),
              np.array([[0.0, -0.4], [0.0, 0.05], [0.0, 0.3]])]


@pytest.mark.parametrize("deltas", _AXIS_SETS)
def test_axis_collinear_sets_are_singular(deltas):
    """All four offset bounds, and ``crlb_di`` at an EBM with these offsets,
    give +inf, at several sizes, SNRs and EBM centres."""
    for m, n in ((4, 4), (8, 8), (16, 8), (64, 64)):
        assert static_offsets_crlb(deltas, m, n) == np.inf
        cfg = ArrayConfig(m, n)
        for snr in (0.1, 3.0, 1e3):
            assert di_offsets_crlb(deltas, m, n, snr) == np.inf
            for x in ((0.0, 0.0), (0.3, -1.7)):
                ebm = build_ebm(cfg, x, OffsetSet(deltas))
                assert crlb_di(cfg, x, DiModel(snr), ebm) == np.inf
    assert crlb_static_asymptotic(deltas) == np.inf
    assert crlb_di_asymptotic(deltas, 3.0) == np.inf


class TestBoundAccuracy:
    """The closed-form offset bounds against a 50-digit evaluation of the
    explicit Fisher matrix on the same kernels (taken as exact).  The sets
    run from spread to nearly collinear, stratified by cond(I) over six
    decades of jitter; the relative error stays within 2 cond(I) eps (at
    most 0.7 cond(I) eps was measured)."""

    @pytest.mark.parametrize("name", sorted(_ACCURACY_CASES))
    def test_error_within_conditioning(self, name):
        mpmath = pytest.importorskip("mpmath")
        bound, oracle, cond_reached = _ACCURACY_CASES[name]
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        conds = []
        with mpmath.workdps(50):
            for jitter in (0.3, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
                for _ in range(8):
                    d = _near_collinear(rng, jitter)
                    want, info = oracle(mpmath, d)
                    cond = np.linalg.cond(np.array(info.tolist(), float))
                    conds.append(cond)
                    got = bound(d)
                    rel = float(abs(mpmath.mpf(float(got)) - want) / want)
                    assert rel <= 2 * cond * eps, (d, cond, rel)
        assert max(conds) > cond_reached


class TestCrlbDi:
    def test_snr_scaling_converges(self):
        """snr * crlb approaches a constant as the gain SNR grows."""
        prev = None
        last_change = None
        for snr_db in (10, 20, 30, 40):
            snr = 10 ** (snr_db / 10)
            val = snr * di_offsets_crlb(FADING_OFFSETS.deltas, 8, 8, snr)
            if prev is not None:
                last_change = abs(val - prev) / prev
            prev = val
        assert last_change < 0.01

    def test_more_noise_is_worse(self):
        cfg1 = ArrayConfig(8, 8)
        cfg2 = ArrayConfig(8, 8, pilot_amp=1 / np.sqrt(2))
        model = DiModel(1.0)
        x = (0.0, 0.0)
        v1 = crlb_di(cfg1, x, model, _ebm_at(x, FADING_OFFSETS, cfg1))
        v2 = crlb_di(cfg2, x, model, _ebm_at(x, FADING_OFFSETS, cfg2))
        assert v2 > v1

    def test_asymptotic_consistency(self):
        """MN * crlb at 20 dB approaches the limit; < 2% by M = N = 64."""
        snr = 100.0
        lim = crlb_di_asymptotic(FADING_OFFSETS.deltas, snr)
        prev = np.inf
        for m in (16, 32, 64):
            val = di_offsets_crlb(FADING_OFFSETS.deltas, m, m, snr) * m * m
            gap = abs(val - lim) / lim
            assert gap < prev
            prev = gap
        assert prev < 0.02

    def test_asymptotic_symmetries(self):
        """Coordinate swap leaves the limit unchanged; no direction enters."""
        snr = 1.0
        a = crlb_di_asymptotic(FADING_OFFSETS.deltas, snr)
        swapped = OffsetSet(FADING_OFFSETS.deltas[:, ::-1].copy())
        b = crlb_di_asymptotic(swapped.deltas, snr)
        assert abs(a - b) < 1e-9 * a


class TestGainSnrCeiling:
    """Above the gain SNR's ceiling the direction bounds raise instead of
    overflowing; at and below it, down to zero, they take no warning."""

    @pytest.mark.parametrize("call", [
        lambda: fisher_di(ArrayConfig(8, 8, pilot_amp=1e150), (0.0, 0.0),
                          DiModel(1.0), _ebm_at((0.0, 0.0), FADING_OFFSETS)),
        lambda: crlb_di(ArrayConfig(8, 8, pilot_amp=1e150), (0.0, 0.0),
                        DiModel(1.0), _ebm_at((0.0, 0.0), FADING_OFFSETS)),
        lambda: di_offsets_crlb(FADING_OFFSETS.deltas, 8, 8, 1e300),
        # a per-set call is held to the ceiling of its largest size
        lambda: di_offsets_crlb(np.stack([FADING_OFFSETS.deltas] * 2),
                                np.array([2, 64]), np.array([2, 64]),
                                10 ** (snr_beta_db_ceiling(64 * 64) / 10)
                                * 1.001)], ids=["fisher_di", "crlb_di",
                                                "offsets", "per-set"])
    def test_above_the_ceiling_raises(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="ceiling"):
                call()

    def test_zero_and_ceiling_snr_take_no_warning(self):
        """A zero gain SNR gives +inf; at the ceiling the bound is a finite
        float."""
        ceiling = 10 ** (snr_beta_db_ceiling(64) / 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert di_offsets_crlb(FADING_OFFSETS.deltas, 8, 8, 0.0) == np.inf
            assert 0 < di_offsets_crlb(FADING_OFFSETS.deltas, 8, 8,
                                       ceiling) < np.inf
            assert np.all(fisher_di(CFG, (0.0, 0.0), DiModel(0.0),
                                    _ebm_at((0.0, 0.0), FADING_OFFSETS)) == 0)


def _bits(a):
    return np.asarray(a).view(np.int64)


@st.composite
def _sized_sets(draw):
    """Offset sets with an array size each, 2-64 elements per axis, square
    or not, and a gain SNR each: (k, 3, 2) sets of coordinates in the
    search box and in the series branch |pi r| < 0.1."""
    k = draw(st.integers(1, 6))
    per_set = lambda elements: st.lists(elements, min_size=k, max_size=k)
    m = np.array(draw(per_set(st.integers(2, 64))))
    n = np.where(draw(per_set(st.booleans())), m,
                 draw(per_set(st.integers(2, 64))))
    values = np.array(draw(st.lists(st.floats(-0.95, 0.95)
                                    | st.floats(-0.03, 0.03),
                                    min_size=1, max_size=10)))
    index = np.array(draw(st.lists(st.integers(0, len(values) - 1),
                                   min_size=6 * k, max_size=6 * k)))
    snr = np.array(draw(per_set(st.floats(0.01, 100.0))))
    return m, n, values[index].reshape(k, 3, 2), snr


class TestPerSetSizes:
    """Sizes given per set: each set gets the bits of a call at its own
    size.  (The table route, sizes per row of a table of offsets, is
    checked against this route in ``test_offsets.TestKernelTables``.)"""

    @settings(max_examples=200, deadline=None)
    @given(case=_sized_sets())
    def test_each_set_gets_the_bits_of_its_own_size(self, case):
        m, n, sets, snr = case
        kernels = probe_kernels(sets, m[:, None], n[:, None])
        bounds = (static_offsets_crlb(sets, m, n),
                  di_offsets_crlb(sets, m, n, 2.0),
                  di_offsets_crlb(sets, m, n, snr))
        for i, (mi, ni) in enumerate(zip(m.tolist(), n.tolist())):
            for g, w in zip(kernels, probe_kernels(sets[i], mi, ni)):
                assert np.array_equal(_bits(g[i]), _bits(w)), (mi, ni)
            alone = (static_offsets_crlb(sets[i], mi, ni),
                     di_offsets_crlb(sets[i], mi, ni, 2.0),
                     di_offsets_crlb(sets[i], mi, ni, snr[i]))
            for got, want in zip(bounds, alone):
                assert _bits(got[i]) == _bits(want), (mi, ni)


class TestScoreZeroMeanStatic:
    def test_static_score_zero_mean(self):
        """Static-model score has zero mean at the truth (4-sigma band)."""
        rng = np.random.default_rng(13)
        ebm = _ebm_at(PSI.x)
        kmat = ebm_columns(CFG, ebm).conj().T @ jacobian(CFG, PSI)
        n = 100_000
        z = np.sqrt(0.5) * (rng.standard_normal((n, 3))
                            + 1j * rng.standard_normal((n, 3)))
        scores = (2 * CFG.pilot_amp) * np.real(z.conj() @ kmat)
        info = fisher_static(CFG, PSI, ebm)
        band = 4 * np.sqrt(np.diag(info) / n)
        assert np.all(np.abs(scores.mean(axis=0)) < band)


class TestAsymptoticFisherDistance:
    def test_static_fisher_over_mn_approaches_limit(self):
        """|| Fisher/MN - limit ||_F strictly decreasing over 8..64."""
        from beamtrack.arrays import probe_kernels_limit
        beta = 1.0 + 0j
        g, k1, k2 = probe_kernels_limit(STATIC_OFFSETS.deltas)
        kmat = np.stack([g, 1j * g, beta * k1, beta * k2], axis=-1)
        lim = 2 * np.real(kmat.conj().T @ kmat)
        prev = np.inf
        for m in (8, 16, 32, 64):
            cfg = ArrayConfig(m, m)
            psi = ChannelParams.from_parts(beta, (0.0, 0.0))
            info = fisher_static(cfg, psi, _ebm_at((0.0, 0.0), cfg=cfg)) / (m * m)
            dist = np.linalg.norm(info - lim)
            assert dist < prev
            prev = dist
