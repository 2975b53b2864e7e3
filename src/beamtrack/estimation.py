"""Fisher information and CRLBs for the two tractable observation models.

Static model: y ~ CN(|s| beta W^H a(x), noise_var I3), parameter vector
psi = [beta_re, beta_im, x1, x2].  Fading-gain model ("direction-only"):
beta ~ CN(0, sigma_beta_sq) fresh per cycle, so y ~ CN(0, Sigma(x)) and only
the 2D direction is estimable.

Normalized CRLBs follow the conventions used throughout the package:
``crlb_static`` is (1/MN) Tr{I^-1 V^H V} (channel-vector MSE per element),
``crlb_di`` is Tr{I^-1} (direction MSE).  The ``*_asymptotic`` variants
return the large-array limits of MN times these quantities.

The offset-only bounds take ``deltas`` (..., 3, 2) and return the leading
shape (an ``np.float64`` for one set); a degenerate set gets +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (ArrayConfig, probe_kernels, probe_kernels_limit,
                     steering_derivative, steering_vector)
from .signal import ChannelParams, Ebm, observation_kernels

COND_LIMIT = 1e12


class SingularFisher(np.linalg.LinAlgError):
    """Fisher information too ill-conditioned to invert (degenerate probes)."""


@dataclass(frozen=True)
class DiModel:
    """Fading-gain model: variance of the equivalent channel gain."""

    sigma_beta_sq: float

    def __post_init__(self):
        if self.sigma_beta_sq < 0:
            raise ValueError("gain variance must be nonnegative")


def jacobian(cfg: ArrayConfig, psi: ChannelParams) -> np.ndarray:
    """Jacobian of the channel vector w.r.t. psi: columns
    [a, j a, beta da/dx1, beta da/dx2], shape (MN, 4)."""
    a = steering_vector(cfg, psi.x)
    return np.stack([a, 1j * a,
                     psi.beta * steering_derivative(cfg, psi.x, 1),
                     psi.beta * steering_derivative(cfg, psi.x, 2)], axis=1)


def steering_gram(m: int, n: int, beta: complex) -> np.ndarray:
    """Closed form of V^H V for the Jacobian above.  Independent of the
    direction; exact for any array size."""
    b = complex(beta)
    ab2 = abs(b) ** 2
    c1 = np.pi * (m - 1) / m
    c2 = np.pi * (n - 1) / n
    g = np.array([
        [1, 1j, 1j * b * c1, 1j * b * c2],
        [-1j, 1, b * c1, b * c2],
        [-1j * b.conjugate() * c1, b.conjugate() * c1,
         (2 * np.pi**2 / 3) * ab2 * (m - 1) * (2 * m - 1) / m**2,
         np.pi**2 * ab2 * (m - 1) * (n - 1) / (m * n)],
        [-1j * b.conjugate() * c2, b.conjugate() * c2,
         np.pi**2 * ab2 * (m - 1) * (n - 1) / (m * n),
         (2 * np.pi**2 / 3) * ab2 * (n - 1) * (2 * n - 1) / n**2],
    ], complex)
    return m * n * g


def steering_gram_limit(beta: complex) -> np.ndarray:
    """Limit of V^H V / MN as the array grows."""
    b = complex(beta)
    ab2 = abs(b) ** 2
    return np.array([
        [1, 1j, 1j * np.pi * b, 1j * np.pi * b],
        [-1j, 1, np.pi * b, np.pi * b],
        [-1j * np.pi * b.conjugate(), np.pi * b.conjugate(),
         4 * np.pi**2 * ab2 / 3, np.pi**2 * ab2],
        [-1j * np.pi * b.conjugate(), np.pi * b.conjugate(),
         np.pi**2 * ab2, 4 * np.pi**2 * ab2 / 3],
    ], complex)


def fisher_static(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm) -> np.ndarray:
    """4x4 Fisher information of the static model,
    (2|s|^2/noise_var) Re{V^H W W^H V}."""
    wv = ebm.columns.conj().T @ jacobian(cfg, psi)
    return (2 * cfg.pilot_amp**2 / cfg.noise_var) * np.real(wv.conj().T @ wv)


def _guarded_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(mat)) or np.linalg.cond(mat) > COND_LIMIT:
        raise SingularFisher("Fisher information is numerically singular")
    return np.linalg.solve(mat, rhs)


def crlb_static(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm) -> float:
    """Normalized channel-vector CRLB (1/MN) Tr{I^-1 V^H V} for one cycle's
    probe pattern.  Invariant to the gain and the direction."""
    info = fisher_static(cfg, psi, ebm)
    gram = steering_gram(cfg.m, cfg.n, psi.beta)
    return float(np.trace(_guarded_solve(info, gram)).real) / cfg.size


def _finite_positive(out):
    """The result tail of the batched CRLB traces: +inf where a value is
    non-finite or non-positive; an ``np.float64`` for one set."""
    return np.where(np.isfinite(out) & (out > 0), out, np.inf)[()]


def _batch_trace_solve(info, gram, scale: float):
    """Tr{info^-1 gram} * scale per (..., 4, 4) item; +inf where singular."""
    flat = info.reshape((-1, 4, 4))
    out = np.full(flat.shape[0], np.inf)
    finite = np.all(np.isfinite(flat), axis=(1, 2))
    with np.errstate(all="ignore"):
        dets = np.zeros(flat.shape[0])
        dets[finite] = np.abs(np.linalg.det(flat[finite]))
    good = np.where(finite & (dets > 1e-12 * np.abs(flat).max(axis=(1, 2)).clip(1e-300) ** 4))[0]
    if good.size:
        rhs = np.broadcast_to(gram, (good.size, 4, 4))
        try:
            sol = np.linalg.solve(flat[good], rhs)
            out[good] = np.einsum("...ii->...", sol).real * scale
        except np.linalg.LinAlgError:
            for i in good:
                try:
                    out[i] = np.trace(np.linalg.solve(flat[i], gram)).real * scale
                except np.linalg.LinAlgError:
                    pass
    return _finite_positive(out.reshape(info.shape[:-2]))


def _static_info(g, k1, k2, pilot_amp: float, noise_var: float, beta):
    """Static-model Fisher matrices (..., 4, 4) from the probe kernels."""
    kmat = np.stack([g, 1j * g, beta * k1, beta * k2], axis=-1)  # (..., 3, 4)
    return (2 * pilot_amp**2 / noise_var) * np.real(
        np.einsum("...iq,...ip->...qp", kmat.conj(), kmat))


def static_offsets_crlb(deltas, m: int, n: int, pilot_amp: float = 1.0,
                        noise_var: float = 1.0, beta: complex = 1.0 + 0j):
    """Normalized static CRLB as a function of the offsets alone (shift
    property), per offset set of ``deltas`` (..., 3, 2)."""
    info = _static_info(*probe_kernels(deltas, m, n), pilot_amp, noise_var,
                        beta)
    return _batch_trace_solve(info, steering_gram(m, n, beta), 1.0 / (m * n))


def crlb_static_asymptotic(deltas, pilot_amp: float = 1.0,
                           noise_var: float = 1.0,
                           beta: complex = 1.0 + 0j):
    """Large-array limit of MN times the normalized static CRLB, per offset
    set of ``deltas`` (..., 3, 2)."""
    info = _static_info(*probe_kernels_limit(deltas), pilot_amp, noise_var, beta)
    return _batch_trace_solve(info, steering_gram_limit(beta), 1.0)


# ---------------------------------------------------------------------------
# fading-gain (direction-only) model
# ---------------------------------------------------------------------------

def sigma_di(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm):
    """Determinant and inverse of the observation covariance
    Sigma = |s|^2 sigma_beta^2 g g^H + noise_var I3."""
    g, _, _ = observation_kernels(cfg, x, ebm)
    c = cfg.pilot_amp**2 * model.sigma_beta_sq
    sz2 = cfg.noise_var
    g0 = float(np.vdot(g, g).real)
    det = sz2**2 * (c * g0 + sz2)
    inv = np.eye(3) / sz2 - (sz2 * c / det) * np.outer(g, g.conj())
    return float(det), inv


def _gain_blocks(g, k1, k2):
    """The fading-gain blocks of probe responses ``g`` (..., 3) with
    direction derivatives ``k1``, ``k2``: ||g||^2 (...), its gradient
    g~ (..., 2), and the derivative matrices G_p = d_p g^H + g d_p^H of
    g g^H (..., 2, 3, 3)."""
    g0 = np.einsum("...i,...i->...", g.conj(), g).real
    ds = np.stack([k1, k2], axis=-2)                      # (..., 2, 3)
    gt = 2 * np.einsum("...i,...pi->...p", g.conj(), ds).real
    big = (np.einsum("...pi,...j->...pij", ds, g.conj())
           + np.einsum("...i,...pj->...pij", g, ds.conj()))
    return g0, gt, big


def _di_score_terms(g, k1, k2, c, sz2: float):
    """Score terms of the fading-gain model at gain powers
    c = |s|^2 sigma_beta^2 (broadcast against the leading shape of ``g``):
    the derivatives Q_p of the inverse covariance (..., 2, 3, 3) and the
    log-determinant slopes c0 = -d log|Sigma| / dx_p (..., 2).  The score
    of an observation y is c0 - Re y^H Q_p y."""
    g0, gt, big = _gain_blocks(g, k1, k2)
    cv = np.asarray(c, float)[..., None]
    det = sz2**2 * (cv * g0[..., None] + sz2)              # (..., 1)
    ddet = sz2**2 * cv * gt                                # (..., 2)
    gg = (g[..., :, None] * g.conj()[..., None, :])[..., None, :, :]
    det4 = det[..., None, None]
    q_mats = -sz2 * cv[..., None, None] * (
        big * det4 - gg * ddet[..., None, None]) / det4**2
    return q_mats, -ddet / det


def fisher_di(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm) -> np.ndarray:
    """2x2 direction Fisher information of the fading-gain model, via the
    closed-form element expression in g, its norm gradient, and the
    derivative matrices of g g^H."""
    snr = cfg.pilot_amp**2 * model.sigma_beta_sq / cfg.noise_var
    if snr == 0:
        return np.zeros((2, 2))
    return _di_fisher_batch(*observation_kernels(cfg, x, ebm), snr)


def crlb_di(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm) -> float:
    """Direction CRLB Tr{I_DI^-1} for one cycle's probe pattern."""
    info = fisher_di(cfg, x, model, ebm)
    return float(np.trace(_guarded_solve(info, np.eye(2))))


def _di_fisher_batch(g, k1, k2, snr_beta):
    """Direction Fisher matrices (..., 2, 2) from probe responses ``g``
    (..., 3) and their direction derivatives at gain SNRs ``snr_beta`` =
    |s|^2 sigma_beta^2 / noise_var (broadcast against the leading shape).
    numpy's scalar and array powers round differently: a scalar SNR stays a
    scalar, and det is squared as det * det."""
    c = np.asarray(snr_beta, float)[()]
    g0, gt, big = _gain_blocks(g, k1, k2)
    det = c * g0 + 1.0
    tr = np.einsum("...pij,...qji->...pq", big, big).real
    quad = np.einsum("...i,...pij,...qjk,...k->...pq", g.conj(), big, big, g).real
    quad = quad + np.swapaxes(quad, -1, -2)
    pref = c**3 / (det * det)
    return pref[..., None, None] * (
        -2.0 * g0[..., None, None] * np.einsum("...p,...q->...pq", gt, gt)
        + (1.0 / c)[..., None, None] * tr + quad)


def di_offsets_crlb(deltas, m: int, n: int, snr_beta):
    """Direction CRLB Tr{I_DI^-1} from the offsets alone, per offset set of
    ``deltas`` (..., 3, 2).  ``snr_beta`` is |s|^2 sigma_beta^2 / noise_var,
    a scalar or an array that broadcasts against the leading shape."""
    return _trace_inv_2x2(_di_fisher_batch(*probe_kernels(deltas, m, n),
                                           snr_beta))


def _trace_inv_2x2(info):
    """Tr{info^-1} per (..., 2, 2) item; +inf where singular."""
    a, b, d = info[..., 0, 0], info[..., 0, 1], info[..., 1, 1]
    det = a * d - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        return _finite_positive(np.where(det > 1e-30, (a + d) / det, np.inf))


def crlb_di_asymptotic(deltas, snr_beta: float):
    """Large-array limit of MN times the direction CRLB, per offset set of
    ``deltas`` (..., 3, 2).  In the limit the array gain swamps the noise,
    so the SNR enters only as an overall scale."""
    s0, tau, big = _gain_blocks(*probe_kernels_limit(deltas))
    tr = np.einsum("...pij,...qji->...pq", big, big).real
    info = snr_beta * (tr - np.einsum("...p,...q->...pq", tau, tau)) \
        / s0[..., None, None]
    return _trace_inv_2x2(info)


def di_log_pdf(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm, y) -> float:
    """Log-density of one observation under the fading-gain model."""
    det, inv = sigma_di(cfg, x, model, ebm)
    y = np.asarray(y, complex)
    return float(-3 * np.log(np.pi) - np.log(det)
                 - np.real(y.conj() @ inv @ y))


def di_score(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm, y) -> np.ndarray:
    """Gradient of :func:`di_log_pdf` in the direction coordinates."""
    q_mats, c0 = _di_score_terms(*observation_kernels(cfg, x, ebm),
                                 cfg.pilot_amp**2 * model.sigma_beta_sq,
                                 cfg.noise_var)
    y = np.asarray(y, complex)
    return c0 - np.einsum("i,pij,j->p", y.conj(), q_mats, y).real
