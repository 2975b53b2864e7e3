"""Exploring-beam construction, observation synthesis, and noiseless recovery.

One exploration cycle probes the channel with three steering beams built at
fixed offsets around the current direction estimate and collects the three
matched-filter outputs ``y = |s| beta W^H a(x) + z``.  The noise z is
CN(0, I3) everywhere in the package, so the pilot amplitude |s| alone sets
the SNR.  Complex noise follows the convention CN(0, s2) = independent
real/imaginary parts, each N(0, s2/2).

Observations are plain complex (3,) ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, _gain_kernel, _xy, probe_kernels


class NoSolution(ValueError):
    """No direction in the search box fits the observation model to the
    required tolerance."""


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


@dataclass(frozen=True, eq=False)
class OffsetSet:
    """Three 2D exploration offsets defining the probing beam pattern.
    Holds a read-only copy of ``deltas``; sets compare and hash by value."""

    deltas: np.ndarray  # shape (3, 2)

    def __post_init__(self):
        d = np.array(self.deltas, float)
        if d.shape != (3, 2):
            raise ValueError("exactly three 2D offsets are required")
        if not np.all(np.abs(d) < 1.0):
            raise ValueError("offsets must lie in the open square (-1, 1)^2")
        for i in range(3):
            for j in range(i + 1, 3):
                if np.allclose(d[i], d[j]):
                    raise ValueError("offsets must be pairwise distinct")
        d.flags.writeable = False
        object.__setattr__(self, "deltas", d)

    def __eq__(self, other):
        if not isinstance(other, OffsetSet):
            return NotImplemented
        return bool(np.array_equal(self.deltas, other.deltas))

    def __hash__(self):
        # float hashing maps -0.0 and 0.0 alike, as == compares them
        return hash(tuple(self.deltas.ravel().tolist()))


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


def observe_kernels(cfg: ArrayConfig, beta, g, normals) -> np.ndarray:
    """Noisy observations (3, ...) of a batch of channels on the kernel
    path, from the channels' equivalent gains ``beta`` (...), the gain
    kernels ``g`` (3, ...) at the probe-minus-channel offsets and standard
    ``normals`` (6, ...): the real parts of the three noise values, then
    their imaginary parts.  Equal to the noiseless mean of an EBM pointing
    at the probes (shift property) plus CN(0, 1) noise: O(1) per probe."""
    normals = np.asarray(normals, float)
    noise = np.sqrt(0.5) * (normals[:3] + 1j * normals[3:])
    return cfg.pilot_amp * np.asarray(beta) * g + noise


def _sum3(x):
    """Sum over a last axis of length 3, in one fixed order: numpy's sum
    over that axis without a reduction pass, bit for bit but for the sign
    of a zero sum of three negative zeros (numpy's reads +0).  The probe
    sum of a trials-last (3, T) array ``a`` is ``_sum3(a.T)``, a view."""
    return (x[..., 0] + x[..., 1]) + x[..., 2]


def fit_gains(e, y, pilot_amp: float) -> np.ndarray:
    """Least-squares gains beta = e^H y / (s ||e||^2) of observations
    ``y`` (3,) or trials last (3, T) whose responses per unit gain are
    s * ``e`` (3,); zero where ``e`` vanishes, at any pilot amplitude s."""
    energy = float(np.vdot(e, e).real)
    y = np.asarray(y)
    if energy < 1e-30:
        return np.zeros(y.shape[1:], complex)
    ec = np.reshape(e.conj(), (3,) + (1,) * (y.ndim - 1))
    return _sum3((ec * y).T) / (pilot_amp * energy)


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


def recover_from_noiseless(cfg: ArrayConfig, ebm: Ebm, y: np.ndarray,
                           search_box) -> ChannelParams:
    """Invert an exact noiseless three-probe observation.

    Fits the observation model |s| beta W^H a(x) to ``y`` in all four
    parameters by damped Gauss-Newton on the real form of |s| W^H J
    (:func:`real_observation_jacobian`, the matrix whose rank shows that
    three probes are needed).  Each start is one of the best points of a
    41 x 41 grid over ``search_box`` (((x1_lo, x1_hi), (x2_lo, x2_hi))),
    with the gain that matches its first probe to ``y``.  Raises
    :class:`NoSolution` when no root fits to 1e-6 relative to ``y`` and
    :class:`AmbiguousSolution` when two distinct roots do.
    """
    y = np.asarray(y, complex)
    if abs(y[0]) <= 1e-9:
        raise NoSolution("reference observation is too weak to set a phase")
    s = cfg.pilot_amp
    (lo1, hi1), (lo2, hi2) = search_box
    xx, yy = np.meshgrid(np.linspace(lo1, hi1, 41), np.linspace(lo2, hi2, 41),
                         indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    gk = _gain_kernel(ebm.directions.T[:, None, :] - pts.T[:, :, None],
                      cfg.m, cfg.n)
    ok = np.abs(gk[:, 0]) > 1e-12
    beta_fit = y[0] / np.where(ok, s * gk[:, 0], 1.0)
    res = np.where(ok, np.linalg.norm(s * beta_fit[:, None] * gk - y, axis=1),
                   np.inf)

    y_real = np.concatenate([y.real, y.imag])
    scale = np.linalg.norm(y_real)

    def fit(v):
        """Relative residual of the model at v, its real residual and real
        Jacobian, from one evaluation of the observation matrix: the model
        is linear in the gain, so its mean is the gain columns times it."""
        jac = real_observation_jacobian(cfg, ChannelParams.from_vector(v), ebm)
        r = jac[:, :2] @ v[:2] - y_real
        return np.linalg.norm(r) / scale, r, jac

    def gauss_newton(v):
        # damped steps: the step or its half, whichever first halves the
        # residual, is taken, and the seed ends when neither does or when
        # the residual is down to rounding; an exact root draws it down
        # quadratically
        err, r, jac = fit(v)
        while err > 1e-15:
            step = np.linalg.lstsq(jac, r, rcond=None)[0]
            for lam in (1.0, 0.5):
                trial = fit(v - lam * step)
                if trial[0] < 0.5 * err:
                    break
            else:
                break
            v, (err, r, jac) = v - lam * step, trial
        return v, err

    roots = []
    for idx in np.argsort(res)[:8]:
        v, err = gauss_newton(np.array([beta_fit[idx].real, beta_fit[idx].imag,
                                        *pts[idx]]))
        x = v[2:]
        # uniqueness holds on the positive-kernel branch: every probe must
        # stay within the candidate's main lobe.  Outside it, sign-flipped
        # kernels admit exact far-off duplicates (absorbed into the gain
        # phase), which are solutions of a different sign branch.
        if (err > 1e-6 or np.max(np.abs(ebm.directions - x)) >= 1.0
                or not (lo1 - 1e-9 <= x[0] <= hi1 + 1e-9
                        and lo2 - 1e-9 <= x[1] <= hi2 + 1e-9)):
            continue
        if not any(np.linalg.norm(x - r0[2:]) < 1e-6 for r0, _ in roots):
            roots.append((v, err))
    if not roots:
        raise NoSolution("no direction in the search box reproduces the observation")
    # an essentially-exact root dominates inexact near-collisions (sidelobe
    # impostors can fit an exact observation to ~1e-8 but never exactly);
    # ambiguity is only declared between comparable fits
    best_err = min(err for _, err in roots)
    roots = [r for r in roots if r[1] <= max(100.0 * best_err, 1e-13)]
    if len(roots) > 1:
        raise AmbiguousSolution(f"{len(roots)} distinct directions reproduce "
                                "the observation comparably well")
    return ChannelParams.from_vector(roots[0][0])
