"""Self-contained correctness suites behind ``beamtrack verify``.

Each check returns (name, passed, detail).  The Fisher checks compare the
analytic matrices against Monte-Carlo score covariances sampled from the
physical observation model.  The static score and Fisher share the
kernels' observation matrix (:func:`~.signal.observation_matrix`), so that
check covers the Gaussian score algebra; the tests compare the matrix with
the explicit W^H J of ``tests/reference.py``.  The fading-gain score is the
direction tracker's (:func:`~.estimation._di_score`, from the derivative
matrices G_p of g g^H), while the Fisher it checks is the closed form on
six inner products of the kernels, so the two routes share only the
kernels.  Each is also tested
against an explicit-matrix oracle in ``tests/reference.py``: the score
against central differences of ``di_log_pdf``, and the Fisher against the
Slepian-Bangs form Tr{Sigma^-1 dSigma_p Sigma^-1 dSigma_q}.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig
from .estimation import (DiModel, _di_score, _di_score_terms, fisher_di,
                         fisher_static)
from .offsets import FADING_OFFSETS, STATIC_OFFSETS
from .signal import (ChannelParams, build_ebm, noiseless_mean,
                     observation_kernels, observation_matrix,
                     real_observation_jacobian, recover_from_noiseless)
from .trackers import (_jbct_direction_batch, build_fast_cache, count_ops,
                       jbct_direction, mean_field)


def _random_params(rng, spread=2.0) -> ChannelParams:
    beta = (0.3 + rng.uniform(0, 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    x = rng.uniform(-spread, spread, 2)
    return ChannelParams.from_parts(beta, x)


def check_identifiability(seed: int = 0, count: int = 100):
    """Noiseless three-probe recovery is exact; two probes are rank-deficient."""
    cfg = ArrayConfig(8, 8)
    rng = np.random.default_rng(seed)
    worst_rec = 0.0
    worst_gap2 = np.inf
    worst_rank3 = np.inf
    for _ in range(count):
        psi = _random_params(rng)
        center = psi.x + rng.uniform(-0.4, 0.4, 2)
        ebm = build_ebm(cfg, center, STATIC_OFFSETS)
        y = noiseless_mean(cfg, psi, ebm)
        box = ((center[0] - 0.95, center[0] + 0.95),
               (center[1] - 0.95, center[1] + 0.95))
        rec = recover_from_noiseless(cfg, ebm, y, box)
        worst_rec = max(worst_rec,
                        float(np.linalg.norm(rec.as_vector() - psi.as_vector())))
        sv2 = np.linalg.svd(real_observation_jacobian(cfg, psi, ebm, probes=2),
                            compute_uv=False)
        worst_gap2 = min(worst_gap2, float(sv2[2] / max(sv2[3], 1e-300)))
        sv3 = np.linalg.svd(real_observation_jacobian(cfg, psi, ebm, probes=3),
                            compute_uv=False)
        worst_rank3 = min(worst_rank3, float(sv3[3] / sv3[0]))
    ok = worst_rec < 1e-9 and worst_gap2 > 1e6 and worst_rank3 > 1e-9
    detail = (f"max recovery err {worst_rec:.2e} (<1e-9); two-probe sv gap "
              f"{worst_gap2:.2e} (>1e6); three-probe rank margin {worst_rank3:.2e}")
    return "identifiability", ok, detail


def check_mean_field(seed: int = 0, count: int = 50):
    """The expected update vanishes at the truth with Jacobian -I4."""
    cfg = ArrayConfig(8, 8)
    rng = np.random.default_rng(seed)
    worst_zero = 0.0
    worst_jac = 0.0
    h = 1e-6
    eye = np.eye(4)
    for _ in range(count):
        psi = _random_params(rng)
        ebm = build_ebm(cfg, psi.x, STATIC_OFFSETS)
        worst_zero = max(worst_zero,
                         float(np.linalg.norm(mean_field(psi, psi, cfg, ebm))))
        jac = np.empty((4, 4))
        base = psi.as_vector()
        for j in range(4):
            dv = np.zeros(4)
            dv[j] = h
            fp = mean_field(ChannelParams.from_vector(base + dv), psi, cfg, ebm)
            fm = mean_field(ChannelParams.from_vector(base - dv), psi, cfg, ebm)
            jac[:, j] = (fp - fm) / (2 * h)
        worst_jac = max(worst_jac, float(np.abs(jac + eye).max()))
    ok = worst_zero < 1e-12 and worst_jac < 1e-5
    detail = (f"max |f(psi)| {worst_zero:.2e} (<1e-12); "
              f"max |df/dpsi + I| {worst_jac:.2e} (<1e-5)")
    return "mean-field", ok, detail


def check_op_counts(seed: int = 0, pairs: int = 100):
    """Audited per-cycle multiply/divide counts, and the batched joint
    kernel against the explicit Fisher build."""
    cfg = ArrayConfig(8, 8)
    rng = np.random.default_rng(seed)
    counts = {k: count_ops(k, cfg) for k in ("jbct_static", "jbct_dii", "rbt")}
    cache = build_fast_cache(cfg, STATIC_OFFSETS)
    worst = 0.0
    for _ in range(pairs):
        psi_hat = _random_params(rng)
        ebm = build_ebm(cfg, psi_hat.x, STATIC_OFFSETS)
        y = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 2
        fast = _jbct_direction_batch(cache, np.array([psi_hat.beta]), y[None])
        naive = jbct_direction(cfg, psi_hat, ebm, y)
        worst = max(worst, float(np.abs(fast[0] - naive).max()))
    ok = counts["jbct_static"] == counts["jbct_dii"] == 39 \
        and counts["rbt"] == 28 and worst < 1e-10
    detail = (f"joint tracker {counts['jbct_static']} ops, direction tracker "
              f"{counts['rbt']} ops; fast vs naive max err {worst:.2e}")
    return "op-counts", ok, detail


def mc_fisher_static(cfg: ArrayConfig, psi: ChannelParams, ebm, draws: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo score covariance under the static observation model."""
    kmat = observation_matrix(cfg, psi, ebm)
    scale = np.sqrt(cfg.noise_var / 2.0)
    z = scale * (rng.standard_normal((draws, 3))
                 + 1j * rng.standard_normal((draws, 3)))
    scores = (2 * cfg.pilot_amp / cfg.noise_var) * np.real(z.conj() @ kmat)
    return scores.T @ scores / draws


def mc_fisher_di(cfg: ArrayConfig, x, model: DiModel, ebm, draws: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo score covariance under the fading-gain model, sampling the
    physical observation y = s*beta*g + z and scoring each draw with the
    analytic score of :func:`~.estimation._di_score`."""
    g, d1, d2 = observation_kernels(cfg, x, ebm)
    beta = np.sqrt(model.sigma_beta_sq / 2.0) * (
        rng.standard_normal(draws) + 1j * rng.standard_normal(draws))
    z = np.sqrt(cfg.noise_var / 2.0) * (
        rng.standard_normal((draws, 3)) + 1j * rng.standard_normal((draws, 3)))
    ys = cfg.pilot_amp * beta[:, None] * g[None, :] + z
    # the score takes G_p, the Fisher the six products; see the module
    # docstring for the tests that check both against explicit-matrix oracles
    q_mats, c0 = _di_score_terms(g, d1, d2,
                                 cfg.pilot_amp**2 * model.sigma_beta_sq,
                                 cfg.noise_var)
    scores = _di_score(q_mats, c0, ys)
    return scores.T @ scores / draws


def check_fisher_oracles(seed: int = 0, draws: int = 200_000):
    """Analytic Fisher matrices match Monte-Carlo score covariances."""
    cfg = ArrayConfig(8, 8)
    rng = np.random.default_rng(seed)
    psi = ChannelParams.from_parts(0.8 - 0.3j, (0.4, -1.2))
    ebm_s = build_ebm(cfg, psi.x, STATIC_OFFSETS)
    ana_s = fisher_static(cfg, psi, ebm_s)
    mc_s = mc_fisher_static(cfg, psi, ebm_s, draws, rng)
    err_s = np.linalg.norm(mc_s - ana_s) / np.linalg.norm(ana_s)

    model = DiModel(1.0)
    x = np.array([0.4, -1.2])
    ebm_d = build_ebm(cfg, x, FADING_OFFSETS)
    ana_d = fisher_di(cfg, x, model, ebm_d)
    mc_d = mc_fisher_di(cfg, x, model, ebm_d, draws, rng)
    err_d = np.linalg.norm(mc_d - ana_d) / np.linalg.norm(ana_d)

    ok = err_s < 0.03 and err_d < 0.03
    detail = (f"static rel err {err_s:.4f} (<0.03); "
              f"fading-gain rel err {err_d:.4f} (<0.03); {draws} draws each")
    return "fisher-oracles", ok, detail

