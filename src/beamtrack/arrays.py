"""Planar-array geometry: direction coordinates, steering vectors, beam-gain
kernels, and the 3GPP-style element pattern.

The array has ``m`` elements along the x-axis and ``n`` along the z-axis.
Steering vectors are indexed m-major / n-minor (flat index ``(i-1)*n + (j-1)``
for element row ``i``, column ``j``), matching the Kronecker product
``a1(x1) (x) a2(x2)``.  This ordering is fixed package-wide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OutOfPhysicalRange(ValueError):
    """Direction coordinates that no physical arrival angle produces."""


@dataclass(frozen=True)
class ArrayConfig:
    """Planar array geometry plus pilot amplitude and observation noise level.

    Spacings and wavelength share one length unit; the defaults give
    half-wavelength spacing.  ``pilot_amp`` is the norm of the (unmodelled)
    pilot sequence; ``noise_var`` the post-matched-filter complex noise
    variance.
    """

    m: int
    n: int
    d1: float = 0.5
    d2: float = 0.5
    wavelength: float = 1.0
    pilot_amp: float = 1.0
    noise_var: float = 1.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("array needs at least one element per axis")
        if min(self.d1, self.d2, self.wavelength) <= 0:
            raise ValueError("spacings and wavelength must be positive")
        if self.pilot_amp < 0:
            raise ValueError("pilot amplitude must be nonnegative")
        if self.noise_var <= 0:
            raise ValueError("noise variance must be positive")

    @property
    def size(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class Aoa:
    """Arrival angle: elevation theta in [-pi/2, pi/2), azimuth phi in [0, pi]."""

    theta: float
    phi: float


@dataclass(frozen=True)
class Dpv:
    """Direction parameter vector, the normalized 2D beam coordinates."""

    x1: float
    x2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2])


@dataclass(frozen=True)
class PatternConfig:
    """Per-element radiation pattern: 3 dB beamwidths and maximum attenuation."""

    theta_3db: float = 13 * np.pi / 36
    phi_3db: float = 13 * np.pi / 36
    eta_max_db: float = 30.0

    def __post_init__(self):
        if min(self.theta_3db, self.phi_3db, self.eta_max_db) <= 0:
            raise ValueError("pattern parameters must be positive")


def _xy(x) -> tuple[float, float]:
    if isinstance(x, Dpv):
        return x.x1, x.x2
    return float(x[0]), float(x[1])


def dpv_coords(cfg: ArrayConfig, theta, phi):
    """Direction coordinates (x1, x2) of arrival angles; vectorized."""
    x1 = cfg.m * cfg.d1 * np.cos(theta) * np.cos(phi) / cfg.wavelength
    x2 = cfg.n * cfg.d2 * np.sin(theta) / cfg.wavelength
    return x1, x2


def dpv_from_aoa(cfg: ArrayConfig, aoa: Aoa) -> Dpv:
    """Map an arrival angle to direction coordinates."""
    x1, x2 = dpv_coords(cfg, aoa.theta, aoa.phi)
    return Dpv(float(x1), float(x2))


def aoa_coords(cfg: ArrayConfig, x1, x2):
    """Arrival angles (theta, phi) of direction coordinates, clamped to the
    physical cone: the inverse of :func:`dpv_coords` on the branch
    theta in [-pi/2, pi/2], phi in [0, pi]; vectorized."""
    theta = np.arcsin(np.clip(cfg.wavelength * x2 / (cfg.n * cfg.d2),
                              -1.0, 1.0))
    c = np.cos(theta)
    tiny = c < 1e-15
    u = np.where(tiny, 0.0, cfg.wavelength * x1
                 / (cfg.m * cfg.d1 * np.where(tiny, 1.0, c)))
    return theta, np.arccos(np.clip(u, -1.0, 1.0))


def aoa_from_dpv(cfg: ArrayConfig, x) -> Aoa:
    """Invert :func:`dpv_from_aoa` on the branch theta in [-pi/2, pi/2),
    phi in [0, pi].

    Raises :class:`OutOfPhysicalRange` when the coordinates exceed the
    physical direction cone (:func:`aoa_coords` clamps instead).
    """
    x1, x2 = _xy(x)
    theta, phi = aoa_coords(cfg, x1, x2)
    if abs(cfg.wavelength * x2 / (cfg.n * cfg.d2)) > 1 + 1e-12:
        raise OutOfPhysicalRange(f"x2={x2} exceeds the physical range")
    c = np.cos(theta)
    if c >= 1e-15 and abs(cfg.wavelength * x1
                           / (cfg.m * cfg.d1 * c)) > 1 + 1e-12:
        raise OutOfPhysicalRange(f"x1={x1} exceeds the physical range")
    return Aoa(float(theta), float(phi))


def steering_vector(cfg: ArrayConfig, x) -> np.ndarray:
    """2D steering vector a(x), unit-modulus entries, flat m-major order."""
    x1, x2 = _xy(x)
    a1 = np.exp(2j * np.pi * np.arange(cfg.m) * x1 / cfg.m)
    a2 = np.exp(2j * np.pi * np.arange(cfg.n) * x2 / cfg.n)
    return np.kron(a1, a2)


def steering_derivative(cfg: ArrayConfig, x, axis: int) -> np.ndarray:
    """Elementwise derivative of the steering vector along coordinate 1 or 2."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    x1, x2 = _xy(x)
    a1 = np.exp(2j * np.pi * np.arange(cfg.m) * x1 / cfg.m)
    a2 = np.exp(2j * np.pi * np.arange(cfg.n) * x2 / cfg.n)
    if axis == 1:
        return np.kron(2j * np.pi * np.arange(cfg.m) / cfg.m * a1, a2)
    return np.kron(a1, 2j * np.pi * np.arange(cfg.n) / cfg.n * a2)


def beam_gain_kernel(delta, m: int, n: int):
    """Separable Dirichlet gain between a probing beam offset by ``delta``
    and the arrival direction: sin(pi d)/sin(pi d/M) per axis.

    The removable singularities at integer multiples of M (or N) take the
    limit value M (or N).  Accepts a (..., 2) array of offsets.
    """
    d = np.asarray(delta, float)
    scalar = d.ndim == 1
    d = np.atleast_2d(d)

    def ratio(dd, size):
        den = np.sin(np.pi * dd / size)
        num = np.sin(np.pi * dd)
        # limit branch at den -> 0: both vanish together, ratio -> size
        safe = np.abs(den) >= 1e-12
        out = np.where(safe, num / np.where(safe, den, 1.0), float(size))
        return out

    val = ratio(d[..., 0], m) * ratio(d[..., 1], n)
    return float(val[0]) if scalar else val


def probe_kernels(deltas, m: int, n: int):
    """Exact inner products of a steering probe with an arrival and its
    derivatives, as functions of the probe-minus-arrival offset.

    For w = a(x + delta)/sqrt(MN) returns the triple
    ``(w^H a(x), w^H da/dx1, w^H da/dx2)``; by the array's shift property
    these depend on ``delta`` only.  ``deltas`` has shape (..., 2); each
    output has the leading shape.
    """
    d = np.asarray(deltas, float)
    d1 = d[..., 0][..., None]
    d2 = d[..., 1][..., None]
    im = np.arange(m)
    inn = np.arange(n)
    e1 = np.exp(-2j * np.pi * d1 * im / m)
    e2 = np.exp(-2j * np.pi * d2 * inn / n)
    s1 = e1.sum(-1)
    s2 = e2.sum(-1)
    t1 = (im * e1).sum(-1)
    t2 = (inn * e2).sum(-1)
    root = np.sqrt(m * n)
    return (s1 * s2 / root,
            (2j * np.pi / m) * t1 * s2 / root,
            (2j * np.pi / n) * s1 * t2 / root)


def _sa(t):
    """sin(t)/t with the limit 1 at t = 0."""
    return np.sinc(np.asarray(t, float) / np.pi)


def _phase_deriv_kernel(t):
    """(e^{-jt}(1+jt) - 1)/t^2 with a series branch near t = 0 (limit 1/2)."""
    t = np.asarray(t, float)
    small = np.abs(t) < 1e-3
    ts = np.where(small, 1.0, t)
    direct = (np.exp(-1j * ts) * (1 + 1j * ts) - 1) / ts**2
    series = 0.5 - 1j * t / 3 - t**2 / 8 + 1j * t**3 / 30 + t**4 / 144
    return np.where(small, series, direct)


def probe_kernels_limit(deltas):
    """Large-array limits of :func:`probe_kernels` scaled by 1/sqrt(MN).

    Entries become products of Sa(pi d) = sin(pi d)/(pi d) factors and a
    linear-phase term; the derivative kernels have removable singularities
    at zero offset handled by a series branch.
    """
    d = np.asarray(deltas, float)
    d1 = d[..., 0]
    d2 = d[..., 1]
    g = _sa(np.pi * d1) * _sa(np.pi * d2) * np.exp(-1j * np.pi * (d1 + d2))
    k1 = 2j * np.pi * _sa(np.pi * d2) * np.exp(-1j * np.pi * d2) \
        * _phase_deriv_kernel(2 * np.pi * d1)
    k2 = 2j * np.pi * _sa(np.pi * d1) * np.exp(-1j * np.pi * d1) \
        * _phase_deriv_kernel(2 * np.pi * d2)
    return g, k1, k2


def element_gain_db_angles(pc: PatternConfig, theta, phi):
    """Normalized combined element power pattern in dB (vectorized).

    Vertical and horizontal cuts are parabolic in angle, each floored at
    -eta_max; their sum is floored at -eta_max again.
    """
    ev = np.minimum(12.0 * (np.asarray(theta) / pc.theta_3db) ** 2, pc.eta_max_db)
    eh = np.minimum(12.0 * ((np.asarray(phi) - np.pi / 2) / pc.phi_3db) ** 2,
                    pc.eta_max_db)
    return -np.minimum(ev + eh, pc.eta_max_db)


def element_gain_db(pc: PatternConfig, aoa: Aoa) -> float:
    """Element power gain in dB at one arrival angle (0 dB at broadside)."""
    return float(element_gain_db_angles(pc, aoa.theta, aoa.phi))


def element_gain_angles(pc: PatternConfig, theta, phi):
    """Element gain as a linear amplitude factor (vectorized)."""
    return 10.0 ** (element_gain_db_angles(pc, theta, phi) / 20.0)


def element_gain(pc: PatternConfig, aoa: Aoa) -> float:
    """Element gain as a linear amplitude factor (multiplies the path gain)."""
    return float(element_gain_angles(pc, aoa.theta, aoa.phi))


def in_main_lobe(center, candidate) -> bool:
    """True iff the candidate lies in the open unit-halfwidth square around
    the center, per direction coordinate."""
    c1, c2 = _xy(center)
    x1, x2 = _xy(candidate)
    return abs(x1 - c1) < 1.0 and abs(x2 - c2) < 1.0
