"""Exploring-beam construction, observation synthesis, and noiseless recovery.

One exploration cycle probes the channel with three steering beams built at
fixed offsets around the current direction estimate and collects the three
matched-filter outputs ``y = |s| beta W^H a(x) + z``.  Complex noise follows
the convention CN(0, s2) = independent real/imaginary parts, each N(0, s2/2);
this convention is used everywhere in the package.

Observations are plain complex (3,) ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, _gain_kernel, _xy, probe_kernels


class NoSolution(ValueError):
    """The amplitude system has no root at the required tolerance."""


class AmbiguousSolution(ValueError):
    """Two distinct directions in the search box reproduce the observation."""


@dataclass(frozen=True)
class ChannelParams:
    """The 4-real-parameter target [beta_re, beta_im, x1, x2]: equivalent
    complex gain plus direction coordinates.  The ordering is fixed
    package-wide."""

    beta_re: float
    beta_im: float
    x1: float
    x2: float

    @property
    def beta(self) -> complex:
        return complex(self.beta_re, self.beta_im)

    @property
    def x(self) -> np.ndarray:
        return np.array([self.x1, self.x2])

    def as_vector(self) -> np.ndarray:
        return np.array([self.beta_re, self.beta_im, self.x1, self.x2])

    @classmethod
    def from_parts(cls, beta: complex, x) -> "ChannelParams":
        x1, x2 = _xy(x)
        return cls(float(np.real(beta)), float(np.imag(beta)), x1, x2)

    @classmethod
    def from_vector(cls, v) -> "ChannelParams":
        return cls(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


@dataclass(frozen=True)
class OffsetSet:
    """Three 2D exploration offsets defining the probing beam pattern."""

    deltas: np.ndarray  # shape (3, 2)

    def __post_init__(self):
        d = np.asarray(self.deltas, float)
        if d.shape != (3, 2):
            raise ValueError("exactly three 2D offsets are required")
        if not np.all(np.abs(d) < 1.0):
            raise ValueError("offsets must lie in the open square (-1, 1)^2")
        for i in range(3):
            for j in range(i + 1, 3):
                if np.allclose(d[i], d[j]):
                    raise ValueError("offsets must be pairwise distinct")
        object.__setattr__(self, "deltas", d)


@dataclass(frozen=True)
class Ebm:
    """Exploring beamforming matrix W, given by its three probing
    directions d_i: its columns are the steering probes a(d_i)/sqrt(MN),
    which enter only through the probe kernels (shift property)."""

    directions: np.ndarray  # (3, 2) probe directions


def build_ebm(cfg: ArrayConfig, center, offsets: OffsetSet) -> Ebm:
    """Probe beams at center + delta_i for the three exploration offsets."""
    return Ebm(np.asarray(_xy(center), float)[None, :] + offsets.deltas)


def noiseless_mean(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm) -> np.ndarray:
    """Deterministic part of the observation, |s| beta W^H a(x) = |s| beta g."""
    g, _, _ = observation_kernels(cfg, psi.x, ebm)
    return cfg.pilot_amp * psi.beta * g


def observe_fast(cfg: ArrayConfig, x, beta, dirs, normals) -> np.ndarray:
    """Noisy observations of a batch of channels on the kernel path.

    ``x`` (..., 2) and ``beta`` (...) are the channels' directions and
    equivalent gains, ``dirs`` (..., 3, 2) the probe directions and
    ``normals`` (..., 6) standard normals: the real parts of the three noise
    values, then their imaginary parts.  Equal to the noiseless mean of an
    EBM pointing at ``dirs`` (shift property) plus CN(0, noise_var) noise,
    from the gain kernel alone: O(1) per probe.
    """
    x = np.asarray(x, float)
    g = _gain_kernel(np.asarray(dirs, float) - x[..., None, :], cfg.m, cfg.n)
    normals = np.asarray(normals, float)
    noise = np.sqrt(cfg.noise_var / 2.0) * (normals[..., :3]
                                            + 1j * normals[..., 3:])
    return cfg.pilot_amp * np.asarray(beta)[..., None] * g + noise


def _sum3(x):
    """Sum over a last axis of length 3, in one fixed order: numpy's sum
    over that axis without a reduction pass, bit for bit but for the sign
    of a zero sum of three negative zeros (numpy's reads +0)."""
    return (x[..., 0] + x[..., 1]) + x[..., 2]


def fit_gains(e, y, pilot_amp: float) -> np.ndarray:
    """Least-squares gains beta = e^H y / (s ||e||^2) of observations
    ``y`` (..., 3) whose responses per unit gain are s * ``e`` (3,); zero
    where the responses vanish."""
    denom = pilot_amp * float(np.vdot(e, e).real)
    if denom < 1e-30:
        return np.zeros(np.shape(y)[:-1], complex)
    return _sum3(e.conj() * y) / denom


def observation_kernels(cfg: ArrayConfig, x, ebm: Ebm):
    """Probe kernels (w^H a, w^H da/dx1, w^H da/dx2) of an EBM evaluated at an
    arbitrary direction ``x`` (not necessarily the EBM's own center)."""
    deltas = ebm.directions - np.asarray(_xy(x), float)[None, :]
    return probe_kernels(deltas, cfg.m, cfg.n)


def observation_matrix(cfg: ArrayConfig, psi: ChannelParams,
                       ebm: Ebm) -> np.ndarray:
    """W^H J, the probes' view of the channel vector's Jacobian in psi,
    from the kernels at psi's direction: columns [g, j g, beta k1, beta k2],
    shape (3, 4).  The noiseless observation's Jacobian is |s| times it."""
    g, k1, k2 = observation_kernels(cfg, psi.x, ebm)
    return np.stack([g, 1j * g, psi.beta * k1, psi.beta * k2], axis=1)


def real_observation_jacobian(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm,
                              probes: int = 3) -> np.ndarray:
    """Real Jacobian of psi -> (Re y, Im y) for the noiseless observation,
    restricted to the first ``probes`` beams.  Shape (2*probes, 4)."""
    cols = cfg.pilot_amp * observation_matrix(cfg, psi, ebm)[:probes]
    return np.vstack([cols.real, cols.imag])


def _amplitude_residual(cfg, ebm, x, ratios):
    """Residuals of the relative-amplitude equations |g_i|/|g_0| - |y_i|/|y_0|
    (i = 1, 2) and their (2, 2) Jacobian in the direction, from the same
    kernels: d|g_i|/dx_p = Re(conj(g_i) k_p,i)/|g_i|, then the quotient
    rule.  The Jacobian is None where |g_0| vanishes."""
    g, k1, k2 = observation_kernels(cfg, x, ebm)
    mag = np.abs(g)
    if mag[0] < 1e-12:
        return np.array([np.inf, np.inf]), None
    dmag = (g.conj()[:, None] * np.stack([k1, k2], 1)).real / mag[:, None]
    rel = mag[1:] / mag[0]
    return rel - ratios, (dmag[1:] - rel[:, None] * dmag[0]) / mag[0]


def recover_from_noiseless(cfg: ArrayConfig, ebm: Ebm, y: np.ndarray,
                           search_box) -> ChannelParams:
    """Invert an exact noiseless three-probe observation.

    Solves the two relative-amplitude equations for the direction by a dense
    grid over ``search_box`` (((x1_lo, x1_hi), (x2_lo, x2_hi))) followed by
    damped Newton, then reads the complex gain off the first observation.
    Raises :class:`NoSolution` when no root fits to 1e-6 and
    :class:`AmbiguousSolution` when two distinct roots do.
    """
    y = np.asarray(y, complex)
    if abs(y[0]) <= 1e-9:
        raise NoSolution("reference observation is too weak to set a phase")
    ratios = np.abs(y[1:]) / abs(y[0])
    (lo1, hi1), (lo2, hi2) = search_box

    # dense grid seed over the box, ranked by full complex reproduction error
    # (the amplitude-ratio system alone admits spurious sign-flipped roots)
    g1 = np.linspace(lo1, hi1, 41)
    g2 = np.linspace(lo2, hi2, 41)
    xx, yy = np.meshgrid(g1, g2, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    deltas = ebm.directions[None, :, :] - pts[:, None, :]
    gk = _gain_kernel(deltas, cfg.m, cfg.n)
    ok = np.abs(gk[:, 0]) > 1e-12
    res = np.full(len(pts), np.inf)
    beta_fit = y[0] / np.where(ok, cfg.pilot_amp * gk[:, 0], 1.0)
    res[ok] = np.linalg.norm(
        cfg.pilot_amp * beta_fit[ok, None] * gk[ok] - y[None, :], axis=1)
    order = np.argsort(res)

    def newton(x0):
        x = np.asarray(x0, float).copy()
        r, jac = _amplitude_residual(cfg, ebm, x, ratios)
        for _ in range(60):
            if not np.all(np.isfinite(r)):
                return None
            if np.dot(r, r) < 1e-26:
                break
            try:
                step = np.linalg.solve(jac, r)
            except np.linalg.LinAlgError:
                return None
            lam = 1.0
            for _ in range(30):
                xn = x - lam * step
                rn, jn = _amplitude_residual(cfg, ebm, xn, ratios)
                if np.all(np.isfinite(rn)) and np.dot(rn, rn) <= np.dot(r, r):
                    x, r, jac = xn, rn, jn
                    break
                lam *= 0.5
            else:
                return None
        if np.dot(r, r) >= 1e-12:  # residual tolerance 1e-6 per equation
            return None
        if not (lo1 - 1e-9 <= x[0] <= hi1 + 1e-9 and lo2 - 1e-9 <= x[1] <= hi2 + 1e-9):
            return None
        return x

    def reproduction(x_hat):
        """Gain fit from the reference probe plus the full complex residual;
        moduli alone admit spurious roots whose beams have sign-flipped
        (out-of-lobe) kernels, so the complex equations are the arbiter."""
        g, _, _ = observation_kernels(cfg, x_hat, ebm)
        beta = y[0] / (cfg.pilot_amp * g[0])
        mean = cfg.pilot_amp * beta * g
        return beta, np.linalg.norm(mean - y) / max(np.linalg.norm(y), 1e-30)

    roots = []
    for idx in order[:8]:
        root = newton(pts[idx])
        if root is None:
            continue
        # uniqueness holds on the positive-kernel branch: every probe must
        # stay within the candidate's main lobe.  Outside it, sign-flipped
        # kernels admit exact far-off duplicates (absorbed into the gain
        # phase), which are solutions of a different sign branch.
        if np.max(np.abs(ebm.directions - root[None, :])) >= 1.0:
            continue
        beta, err = reproduction(root)
        if err > 1e-6:
            continue
        if not any(np.linalg.norm(root - r0) < 1e-6 for r0, _, _ in roots):
            roots.append((root, beta, err))
    if not roots:
        raise NoSolution("no direction in the search box reproduces the observation")
    # an essentially-exact root dominates inexact near-collisions (sidelobe
    # impostors can fit an exact observation to ~1e-8 but never exactly);
    # ambiguity is only declared between comparable fits
    best_err = min(err for _, _, err in roots)
    roots = [r for r in roots if r[2] <= max(100.0 * best_err, 1e-13)]
    if len(roots) > 1:
        raise AmbiguousSolution(f"{len(roots)} distinct directions reproduce "
                                "the observation comparably well")
    x_hat, beta, _ = roots[0]
    return ChannelParams.from_parts(beta, x_hat)
