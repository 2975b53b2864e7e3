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
shape (an ``np.float64`` for one set); a degenerate set gets +inf.  With
an integer ``index`` (..., 3, 2), ``deltas`` is 1-D coordinate values and
the sets are deltas[index], with the same bits: the kernels' per-axis
factors are then taken once per value and gathered
(``arrays.probe_kernels``), which pays where many sets share few values,
as on the offset search's grid.

Every offset bound and tracker cache is closed-form 2x2 algebra on six inner
products of the probe kernels g, k1, k2 (:func:`_products`): the static bound
through the Schur complement S of the gain block a I2, the fading-gain Fisher
through tr(G_p G_q) and g^H G_p G_q g.  One singularity rule gives +inf
(:func:`_regular`): det I <= ref / COND_LIMIT, where ref is the product of
the diagonal of I taken before g is projected out of k1, k2, i.e. with a K
in place of the Schur block W.  For the static model ref is prod(diag I)
itself.  ``fisher_static`` and ``crlb_static`` form the 4x4 Fisher matrix
of the static model from the kernels' (3, 4) observation matrix
(``signal.observation_matrix``) and solve it; their guard
:func:`_guarded_solve` (cond > COND_LIMIT) serves only them.  ``crlb_di``
is ``di_offsets_crlb`` at an EBM's offsets.  The explicit O(MN) oracles
(W^H J from steering columns, the Slepian-Bangs Fisher, the covariance
and log-density the score is differenced against) live in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, _xy, probe_kernels, probe_kernels_limit
from .signal import (ChannelParams, Ebm, _sum3, observation_kernels,
                     observation_matrix)

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


def steering_gram(m: int, n: int, beta: complex) -> np.ndarray:
    """Closed form of V^H V for the channel vector's Jacobian in psi,
    V = [a, j a, beta da/dx1, beta da/dx2] (MN, 4).  Independent of the
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


# (c, P) of Re V^H V / MN at unit gain as the array grows (_static_bound)
_GRAM_LIMIT = ((np.pi, np.pi), (4 * np.pi**2 / 3, np.pi**2, 4 * np.pi**2 / 3))


def fisher_static(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm) -> np.ndarray:
    """4x4 Fisher information of the static model,
    (2|s|^2/noise_var) Re{V^H W W^H V}, with W^H V the observation matrix
    of the kernels."""
    wv = observation_matrix(cfg, psi, ebm)
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


def _products(g, k1, k2):
    """The six inner products of probe kernels g, k1, k2 (..., 3), each of
    the leading shape: a = <g,g>, u = (u1, u2) with u_p = <g,k_p>, and
    k = (K11, K12, K22) with K_pq = Re<k_p,k_q>; and w = (W11, W12, W22),
    W = a K - Re(conj(u) u^T), summed from the minors g_i k_pj - g_j k_pi,
    (i, j) in (0, 1), (1, 2), (2, 0) (Binet-Cauchy), to keep that
    cancellation out.  numpy's complex product is not commutative bit for
    bit and swaps a large temporary right operand to the left, so
    temporaries stay left: chunked calls match one call."""
    gc = g.conj()
    a = _sum3((gc * g).real)
    k = tuple(_sum3((p.conj() * q).real) for p, q in ((k1, k1), (k1, k2),
                                                       (k2, k2)))
    gn = g[..., [1, 2, 0]]
    m1 = k1[..., [1, 2, 0]] * g - gn * k1
    m2 = k2[..., [1, 2, 0]] * g - gn * k2
    w = tuple(_sum3((p.conj() * q).real) for p, q in ((m1, m1), (m1, m2),
                                                       (m2, m2)))
    return a, (_sum3(gc * k1), _sum3(gc * k2)), k, w


def _regular(f, ref):
    """det F of symmetric 2x2 F = (F11, F12, F22), and where the Fisher
    matrix I is regular: det I > ref / COND_LIMIT, with det F and ``ref``
    equal to det I and its reference scale (module docstring) up to one
    positive factor.  The reference lies outside the projected block: a
    diagonal of W that is itself rounding noise cannot vouch for det W."""
    f11, f12, f22 = f
    det = f11 * f22 - f12 * f12
    return det, det > ref / COND_LIMIT


def _trace_solve(f, h, ref, scale=1.0):
    """Tr{F^-1 H} * scale for symmetric 2x2 F, H given by their entries; +inf
    where F is singular or the value not finite and positive."""
    (f11, f12, f22), (h11, h12, h22) = f, h
    det, regular = _regular(f, ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (f22 * h11 + f11 * h22 - 2.0 * f12 * h12) * scale / det
    return np.where(regular & np.isfinite(out) & (out > 0), out, np.inf)[()]


def _static_bound(kernels, gram, scale):
    """Tr{I^-1 Re V^H V} of the static model times ``scale``, with
    ``gram`` = (c, P) from Re V^H V = [[I2, [0; c]], [[0; c]^T, P]] at unit
    gain.  For I = (2|s|^2/noise_var) [[a I2, B], [B^T, K]], B = [Re u; Im u],
    the Schur block W / a gives (noise_var / 2|s|^2) Tr{W^-1 (a P + K -
    Im(u) c^T - c Im(u)^T)}, so ``scale`` is noise_var / 2|s|^2; the
    channel gain cancels."""
    a, (u1, u2), (k11, k12, k22), w = _products(*kernels)
    j1, j2 = u1.imag, u2.imag
    (c1, c2), (p11, p12, p22) = gram
    h = (a * p11 + k11 - 2.0 * c1 * j1, a * p12 + k12 - (c2 * j1 + c1 * j2),
         a * p22 + k22 - 2.0 * c2 * j2)
    return _trace_solve(w, h, a * a * k11 * k22, scale)


@functools.lru_cache(maxsize=64)
def _unit_gram(m: int, n: int):
    """(c1, c2, P11, P12, P22) of Re V^H V / MN at unit gain
    (:func:`_static_bound`)."""
    gram = steering_gram(m, n, 1.0).real / (m * n)
    return gram[1, 2], gram[1, 3], gram[2, 2], gram[2, 3], gram[3, 3]


def static_offsets_crlb(deltas, m: int, n: int, pilot_amp: float = 1.0,
                        noise_var: float = 1.0, index=None):
    """Normalized static CRLB as a function of the offsets alone (shift
    property), per offset set of ``deltas`` (..., 3, 2), or of
    deltas[index]; +inf at a zero pilot."""
    c1, c2, p11, p12, p22 = _unit_gram(m, n)
    scale = noise_var / (2 * pilot_amp**2) if pilot_amp != 0 else np.inf
    return _static_bound(probe_kernels(deltas, m, n, index),
                         ((c1, c2), (p11, p12, p22)), scale)


def crlb_static_asymptotic(deltas, index=None):
    """Large-array limit of MN times the normalized static CRLB at unit SNR
    |s|^2 / noise_var, per offset set of ``deltas`` (..., 3, 2), or of
    deltas[index]."""
    return _static_bound(probe_kernels_limit(deltas, index), _GRAM_LIMIT,
                         0.5)


# ---------------------------------------------------------------------------
# fading-gain (direction-only) model
# ---------------------------------------------------------------------------

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


def _di_score(q_mats, c0, y):
    """Fading-gain score c0 - Re y^H Q_p y (..., 2) of observations
    ``y`` (..., 3), from the terms of :func:`_di_score_terms` (broadcast
    against the leading shape of ``y``)."""
    qy = (q_mats @ y[..., None, :, None])[..., 0]     # (..., 2, 3)
    return c0 - _sum3((y.conj()[..., None, :] * qy).real)


def fisher_di(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm) -> np.ndarray:
    """2x2 direction Fisher information of the fading-gain model, via the
    closed form of :func:`_di_info` on the six inner products of g and its
    direction derivatives; zero at zero gain variance."""
    snr = cfg.pilot_amp**2 * model.sigma_beta_sq / cfg.noise_var
    return _sym2(_di_info(_products(*observation_kernels(cfg, x, ebm)),
                          snr)[0])


def crlb_di(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm) -> float:
    """Direction CRLB Tr{I_DI^-1} for one cycle's probe pattern:
    :func:`di_offsets_crlb` at the EBM's offsets from ``x``, so +inf at a
    singular Fisher."""
    snr = cfg.pilot_amp**2 * model.sigma_beta_sq / cfg.noise_var
    deltas = ebm.directions - np.asarray(_xy(x), float)
    return float(di_offsets_crlb(deltas, cfg.m, cfg.n, snr))


def _di_info(products, snr_beta):
    """Entries (11, 12, 22) of the direction Fisher from :func:`_products`
    at gain SNRs ``snr_beta`` = |s|^2 sigma_beta^2 / noise_var.  With
    d = 1 + snr a, snr^2 Tr{P G_p P G_q}, P = I - (snr/d) g g^H, from
    tr(G_p G_q) = 2 Re(u_p u_q) + 2 a K_pq and g^H G_p G_q g, collapses to
    (2 snr^2 / d) (W + (2/d) Re(u) Re(u)^T).  Also returns the reference
    of :func:`_regular`: the diagonal product with a K in place of W."""
    a, (u1, u2), (k11, _, k22), (w11, w12, w22) = products
    snr = np.asarray(snr_beta, float)[()]
    d = snr * a + 1.0
    s2, q = 2.0 * snr * snr / d, 2.0 / d
    r1, r2 = u1.real, u2.real
    qr1, qr2 = q * r1, q * r2
    f = (s2 * (w11 + qr1 * r1), s2 * (w12 + qr1 * r2), s2 * (w22 + qr2 * r2))
    return f, (s2 * (a * k11 + qr1 * r1)) * (s2 * (a * k22 + qr2 * r2))


def _sym2(f):
    """Symmetric matrices (..., 2, 2) from their entries (11, 12, 22)."""
    f11, f12, f22 = f
    return np.stack([np.stack([f11, f12], -1), np.stack([f12, f22], -1)], -2)


def di_offsets_crlb(deltas, m: int, n: int, snr_beta, index=None):
    """Direction CRLB Tr{I_DI^-1} from the offsets alone, per offset set of
    ``deltas`` (..., 3, 2), or of deltas[index].  ``snr_beta`` is
    |s|^2 sigma_beta^2 / noise_var, a scalar or an array that broadcasts
    against the leading shape."""
    f, ref = _di_info(_products(*probe_kernels(deltas, m, n, index)),
                      snr_beta)
    return _trace_solve(f, (1.0, 0.0, 1.0), ref)


def crlb_di_asymptotic(deltas, snr_beta: float, index=None):
    """Large-array limit of MN times the direction CRLB, per offset set of
    ``deltas`` (..., 3, 2), or of deltas[index].  The array gain swamps the
    noise (snr a -> inf in :func:`_di_info`), so I = 2 snr W / a: the SNR
    is a scale; +inf at a zero gain SNR, as :func:`di_offsets_crlb`."""
    a, _, (k11, _, k22), w = _products(*probe_kernels_limit(deltas, index))
    scale = 0.5 / snr_beta if snr_beta != 0 else np.inf
    return _trace_solve(w, (a, 0.0, a), a * a * k11 * k22, scale)
