"""Planar-array geometry: direction coordinates, steering vectors, beam-gain
kernels, and the 3GPP-style element pattern.

The array has ``m`` elements along the x-axis and ``n`` along the z-axis.
Steering vectors are indexed m-major / n-minor (flat index ``(i-1)*n + (j-1)``
for element row ``i``, column ``j``), matching the Kronecker product
``a1(x1) (x) a2(x2)``.  This ordering is fixed package-wide.

The probe kernels are separable: per-axis factors of each offset
coordinate (:func:`_axis_sums`, or :func:`_limit_axis` in the large-array
limit), then one combine step that forms the three kernels from them
(:func:`_combine`, :func:`_limit_combine`).  The factors of both axes are
taken in one pass: the offsets are laid out axis-first, (2, k), so that
every numpy loop runs along the k offsets, and an m x n array carries its
sizes as a (2, 1) column (a square array as one scalar).  Every step is
elementwise, so an offset's kernels are the same bits wherever it sits in
a call: the offset search takes the kernels of a table of offsets once per
row and gathers them per set (``offsets._batched``).

The sizes may also be integer arrays, one array size per offset (the
finite bounds give each offset set, or each row of a table of offsets,
its own size): the route then carries a (2, k) array of sizes, and the
combine step takes each offset's sizes, for the bits of a call at that
offset's size.  Off a square array each element of the series branch
gathers its own size's coefficients (:func:`_series_at`); a square array
at one scalar size keeps its scalar work, the tracking loop's.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class OutOfPhysicalRange(ValueError):
    """Direction coordinates that no physical arrival angle produces."""


# Largest number of elements per axis: the element count m*n then fits a
# 64-bit integer, which numpy needs where it takes the count as an operand.
MAX_AXIS = 10**9


# Pilot amplitudes whose square, the pilot SNR at unit noise, is a normal
# float: the bounds and trackers form it as a Python float and divide by it.
PILOT_AMP_RANGE = (math.sqrt(sys.float_info.min),
                   math.sqrt(sys.float_info.max))


def db_to_power(db: float) -> float:
    """The power ratio 10^(db/10) of a level in dB.  ValueError for a level
    that is not finite or whose ratio overflows a float."""
    if not math.isfinite(db):
        raise ValueError(f"expected a finite number, got {db!r}")
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows a float power ratio") from None


def _check_pilot_amp(pilot_amp: float) -> None:
    """A ValueError unless ``pilot_amp`` lies in ``PILOT_AMP_RANGE``."""
    lo, hi = PILOT_AMP_RANGE
    if not lo <= pilot_amp <= hi:
        raise ValueError(f"pilot amplitude must lie in [{lo:.6g}, {hi:.6g}], "
                         f"where its square is a normal float, got "
                         f"{pilot_amp!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Planar array geometry plus the pilot amplitude.

    Spacings are in wavelengths; the defaults give half-wavelength spacing.
    ``pilot_amp`` is the norm |s| of the (unmodelled) pilot sequence.  The
    post-matched-filter noise is CN(0, 1), so |s|^2 is the pilot SNR.
    """

    m: int
    n: int
    d1: float = 0.5
    d2: float = 0.5
    pilot_amp: float = 1.0

    def __post_init__(self):
        if not (1 <= self.m <= MAX_AXIS and 1 <= self.n <= MAX_AXIS):
            raise ValueError(f"array needs 1 to {MAX_AXIS} elements per axis")
        if min(self.d1, self.d2) <= 0:
            raise ValueError("spacings must be positive")
        _check_pilot_amp(self.pilot_amp)

    @property
    def size(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class Aoa:
    """Arrival angle: elevation theta in [-pi/2, pi/2), azimuth phi in [0, pi]."""

    theta: float
    phi: float


# The per-element radiation pattern of 3GPP TR 38.901 (Table 7.3-1): 65
# degree vertical and horizontal 3 dB beamwidths and a 30 dB floor.
THETA_3DB = PHI_3DB = 13 * np.pi / 36
ETA_MAX_DB = 30.0


def _xy(x) -> tuple[float, float]:
    return float(x[0]), float(x[1])


def dpv_coords(cfg: ArrayConfig, theta, phi):
    """Direction coordinates (x1, x2) of arrival angles; vectorized."""
    x1 = cfg.m * cfg.d1 * np.cos(theta) * np.cos(phi)
    x2 = cfg.n * cfg.d2 * np.sin(theta)
    return x1, x2


def dpv_from_aoa(cfg: ArrayConfig, aoa: Aoa) -> np.ndarray:
    """Map an arrival angle to direction coordinates, a float (2,) array."""
    return np.array(dpv_coords(cfg, aoa.theta, aoa.phi), float)


def aoa_coords(cfg: ArrayConfig, x1, x2):
    """Arrival angles (theta, phi) of direction coordinates, clamped to the
    physical cone: the inverse of :func:`dpv_coords` on the branch
    theta in [-pi/2, pi/2], phi in [0, pi]; vectorized."""
    theta = np.arcsin(np.clip(x2 / (cfg.n * cfg.d2), -1.0, 1.0))
    c = np.cos(theta)
    tiny = c < 1e-15
    u = np.where(tiny, 0.0, x1 / (cfg.m * cfg.d1 * np.where(tiny, 1.0, c)))
    return theta, np.arccos(np.clip(u, -1.0, 1.0))


def aoa_from_dpv(cfg: ArrayConfig, x) -> Aoa:
    """Invert :func:`dpv_from_aoa` on the branch theta in [-pi/2, pi/2),
    phi in [0, pi].

    Raises :class:`OutOfPhysicalRange` when the coordinates exceed the
    physical direction cone (:func:`aoa_coords` clamps instead).
    """
    x1, x2 = _xy(x)
    theta, phi = aoa_coords(cfg, x1, x2)
    if abs(x2 / (cfg.n * cfg.d2)) > 1 + 1e-12:
        raise OutOfPhysicalRange(f"x2={x2} exceeds the physical range")
    c = np.cos(theta)
    if c >= 1e-15 and abs(x1 / (cfg.m * cfg.d1 * c)) > 1 + 1e-12:
        raise OutOfPhysicalRange(f"x1={x1} exceeds the physical range")
    return Aoa(float(theta), float(phi))


def steering_vector(cfg: ArrayConfig, x) -> np.ndarray:
    """2D steering vector a(x), unit-modulus entries, flat m-major order."""
    x1, x2 = _xy(x)
    a1 = np.exp(2j * np.pi * np.arange(cfg.m) * x1 / cfg.m)
    a2 = np.exp(2j * np.pi * np.arange(cfg.n) * x2 / cfg.n)
    return np.kron(a1, a2)


# The closed form's series branch covers |pi r| below this; its terms
# through u^10 leave a truncation error below 1e-20 relative there.
_SERIES_X = 0.1

# Phase-derivative kernel: series for |t| below this, direct form above.
# The series in t^2, ten terms each: Re Phi = sum_p (-1)^p (2p+1)/(2p+2)!
# t^2p and Im Phi = -t sum_p (-1)^p (2p+2)/(2p+3)! t^2p.
_PHASE_SERIES_T = 0.5
_PHI_RE = tuple((-1) ** p * (2 * p + 1) / math.factorial(2 * p + 2)
                for p in range(10))
_PHI_IM = tuple((-1) ** p * (2 * p + 2) / math.factorial(2 * p + 3)
                for p in range(10))


def _horner(coeffs, x):
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


@functools.lru_cache(maxsize=64)
def _ratio_series(size: int):
    """Coefficients a_0..a_5 of sin(size u)/sin(u) in powers of u^2, each
    the correctly rounded float of its exact rational value.

    Exact power-series division: with sin(v u) = u sum_k s_k(v) u^(2k),
    s_k(v) = (-1)^k v^(2k+1) / (2k+1)!, a_k = s_k(size) - sum_{j<k} a_j
    s_(k-j)(1), since s_0(1) = 1; O(1) in the size.
    """
    def s(k, v):
        return Fraction((-1) ** k * v ** (2 * k + 1), math.factorial(2 * k + 1))

    a = []
    for k in range(6):
        a.append(s(k, size) - sum(a[j] * s(k - j, 1) for j in range(k)))
    return tuple(float(c) for c in a)


@functools.lru_cache(maxsize=64)
def _slope_series(size: int):
    """Coefficients of f = dR/du = u sum_j 2 j a_j u^(2(j-1)), j = 1..5,
    from :func:`_ratio_series`."""
    return tuple(2 * j * c for j, c in enumerate(_ratio_series(size)))[1:]


def _distinct(values):
    """The sorted distinct values of an array of sizes and the position of
    each element among them, as ``np.unique(values, return_inverse=True)``
    at a fraction of its cost on the few sizes of a call."""
    flat = np.sort(values, axis=None)
    distinct = flat[np.concatenate([[True], flat[1:] != flat[:-1]])]
    return distinct, np.searchsorted(distinct, values)


def _sized(m, n=None) -> bool:
    """Whether a size is an array, of one size per element."""
    # not np.ndim: 1.6 us on an int, per call of the tracking loop's kernels
    return isinstance(m, np.ndarray) or isinstance(n, np.ndarray)


def _series_at(sizes):
    """The ratio and slope series of each element of ``sizes``, one column
    per element: (6, k) and (5, k) arrays, from one gather of the distinct
    sizes' coefficients."""
    distinct, at = _distinct(sizes)
    a = np.array([_ratio_series(int(s)) for s in distinct]).T
    b = np.array([_slope_series(int(s)) for s in distinct]).T
    return a[:, at], b[:, at]


def _sizes(m, n):
    """Per-axis sizes for axis-first offsets (2, k): the one size of a
    square array as a scalar, else the column [[m], [n]], or with
    per-offset sizes (m, n flat arrays of k) a (2, k) array."""
    # the column with gathered series coefficients took the 500-trial 8x8
    # channel-error kernel (all series branch) 131-212 us against 87-145
    if not _sized(m, n) and m == n:
        return m
    return np.reshape(np.array([m, n], float), (2, -1))


def _by_axis(deltas):
    """Offsets (..., 2) laid out axis-first, a contiguous (2, k) array."""
    return np.ascontiguousarray(np.reshape(deltas, (-1, 2)).T, float)


def _dirichlet(d, size, slope: bool = False):
    """Reduced Dirichlet ratios of offsets ``d`` of any shape at the sizes
    ``size`` (a scalar or an array that broadcasts against ``d``), as for
    axis-first offsets (2, k) with the sizes of :func:`_sizes`: row 0
    along the m-element axis, row 1 along the n-element axis.

    With size the axis' element count, writes d = k*size + r with
    k = round(d/size), so |r| <= size/2, and x = pi r, u = x/size.  Returns
    k, the sines and cosines (sin x, cos x, sin u, cos u), the ratio
    R = sin(x)/sin(u), and with ``slope`` also
    f = dR/du = (size cos(x) sin(u) - sin(x) cos(u))/sin(u)^2 (else None).
    Both come from the u^2 series where |x| < _SERIES_X, since the direct
    forms cancel near x = 0; at one scalar size all such elements share its
    coefficients, else each gathers those of its own size
    (:func:`_series_at`).  The Dirichlet ratio sin(pi d)/sin(pi d/size) is
    sigma*R with sigma = (-1)^(k(size-1)).
    """
    k = np.rint(d / size)
    x = np.pi * (d - k * size)
    u = x / size
    trig = sx, cx, su, cu = np.sin(x), np.cos(x), np.sin(u), np.cos(u)
    small = np.abs(x) < _SERIES_X
    den = np.where(small, 1.0, su)
    ratio = sx / den
    f = (size * cx * su - sx * cu) / (den * den) if slope else None
    if small.any():
        if not _sized(size):
            a, b = _ratio_series(size), _slope_series(size)
        else:
            a, b = _series_at(np.broadcast_to(size, x.shape)[small])
        us = u[small]
        u2 = us * us
        ratio[small] = _horner(a, u2)
        if slope:
            f[small] = us * _horner(b, u2)
    return k, trig, ratio, f


def beam_gain_kernel(delta, m: int, n: int):
    """Separable Dirichlet gain between a probing beam offset by ``delta``
    and the arrival direction: sin(pi d)/sin(pi d/M) per axis.

    At an integer multiple kM of M the axis factor takes its limit value
    (-1)^(k(M-1)) M, and likewise for N.  Accepts a (..., 2) array of
    offsets.
    """
    d = np.asarray(delta, float)
    scalar = d.ndim == 1
    d = np.atleast_2d(d)
    size = _sizes(m, n)
    k, _, r, _ = _dirichlet(_by_axis(d), size)
    h = 0.5 * k * (size - 1)
    r = np.where(np.floor(h) == h, r, -r)
    val = (r[0] * r[1]).reshape(d.shape[:-1])
    return float(val[0]) if scalar else val


def _axis_sums(d, size, deriv: bool):
    """s = sum_i z^i and (with ``deriv``) t = sum_i i z^i over an axis'
    elements, z = e^{-2j pi d/size}, for the offsets ``d`` and sizes of
    :func:`_dirichlet` (both axes of axis-first offsets in one pass), O(1)
    per offset.

    The closed form s = P R and t = P ((size-1)/2 R + (j/2) f) of
    :func:`_dirichlet`, where the phase P = e^{-j pi d (size-1)/size} =
    sigma e^{-j(x-u)}: the sign sigma cancels against the one of the
    Dirichlet ratio, and P comes from the reduced angles without further
    sines.
    """
    _, (sx, cx, su, cu), ratio, f = _dirichlet(d, size, deriv)
    pc = cx * cu + sx * su          # cos(x - u)
    ps = sx * cu - cx * su          # sin(x - u)
    s = np.empty(ratio.shape, complex)
    np.multiply(pc, ratio, out=s.real)
    np.multiply(ps, ratio, out=s.imag)
    np.negative(s.imag, out=s.imag)
    t = None
    if deriv:
        a = 0.5 * (size - 1) * ratio
        b = 0.5 * f
        t = np.empty(ratio.shape, complex)
        t.real = pc * a + ps * b
        t.imag = pc * b - ps * a
    return s, t


def _combine(s1, t1, s2, t2, m, n):
    """The three kernels of :func:`probe_kernels` from the per-axis sums
    (s, t) of :func:`_axis_sums`, in one fixed operand order."""
    root = np.sqrt(m * n)
    return (s1 * s2 / root,
            (2 * np.pi / m) * 1j * t1 * s2 / root,
            (2 * np.pi / n) * 1j * s1 * t2 / root)


def probe_kernels(deltas, m, n):
    """Exact inner products of a steering probe with an arrival and its
    derivatives, as functions of the probe-minus-arrival offset.

    For w = a(x + delta)/sqrt(MN) returns the triple
    ``(w^H a(x), w^H da/dx1, w^H da/dx2)``; by the array's shift property
    these depend on ``delta`` only.  ``deltas`` has shape (..., 2); each
    output has the leading shape.  The sizes ``m`` and ``n`` are integers,
    or integer arrays that broadcast against the leading shape, one array
    size per offset, with the bits of a call at each offset's own size.

    Each kernel is a product of per-axis geometric sums, taken in their
    O(1) closed form (a Dirichlet ratio times a phase, plus its
    derivative) at every array size, both axes in one pass.  The closed
    form agrees with the summed exponentials to within 1e-12 of the
    kernel's peak up to 256 elements per axis, at and next to multiples
    of M and N too.
    """
    d = np.asarray(deltas, float)
    lead = d.shape[:-1]
    if _sized(m, n):
        m, n = (np.broadcast_to(v, lead).ravel() for v in (m, n))
    s, t = _axis_sums(_by_axis(d), _sizes(m, n), True)
    return tuple(k.reshape(lead)
                 for k in _combine(s[0], t[0], s[1], t[1], m, n))


def _gain_kernel(deltas, m: int, n: int):
    """The first of :func:`probe_kernels`, w^H a, without the derivative
    sums; equal to it bit for bit."""
    # probe_kernels(...)[0] instead made in-process mc-converge and
    # mc-dynamic passes 14-16% slower (12 interleaved pairs), same CSVs
    d = np.asarray(deltas, float)
    s, _ = _axis_sums(_by_axis(d), _sizes(m, n), False)
    return (s[0] * s[1] / np.sqrt(m * n)).reshape(d.shape[:-1])


def _phase_deriv_kernel(x, s, c):
    """Phi(t) = (e^{-jt}(1+jt) - 1)/t^2 at t = 2x, given s = sin(x) and
    c = cos(x), for ``x`` of any shape; Phi(0) = 1/2.

    Direct form from the half angle: Re Phi = s(2xc - s)/(2x^2) and
    Im Phi = (x(1 - 2s^2) - sc)/(2x^2).  The imaginary part cancels as
    t -> 0, so |t| < _PHASE_SERIES_T takes the series
    Phi = sum_m (m+1)/(m+2)! (-jt)^m instead.  Each branch is evaluated
    only on its own elements.
    """
    out = np.empty(x.shape, complex)
    small = np.abs(x) < 0.5 * _PHASE_SERIES_T
    big = ~small
    xb, sb, cb = x[big], s[big], c[big]
    den = 2.0 * xb * xb
    out.real[big] = sb * (2.0 * xb * cb - sb) / den
    out.imag[big] = (xb * (1.0 - 2.0 * sb * sb) - sb * cb) / den
    if small.any():
        t = 2.0 * x[small]
        t2 = t * t
        out.real[small] = _horner(_PHI_RE, t2)
        out.imag[small] = -t * _horner(_PHI_IM, t2)
    return out


def _limit_axis(d):
    """Sa(pi d) e^{-j pi d} and Phi(2 pi d) of offsets ``d`` of any shape
    (both axes of axis-first offsets in one pass), from one sine and one
    cosine of pi d."""
    x = np.pi * d
    s, c = np.sin(x), np.cos(x)
    phi = _phase_deriv_kernel(x, s, c)
    zero = x == 0
    sa = s / np.where(zero, 1.0, x)
    sa[zero] = 1.0
    h = np.empty(x.shape, complex)
    h.real = sa * c
    h.imag = -sa * s
    return h, phi


def _limit_combine(h1, phi1, h2, phi2):
    """The three kernels of :func:`probe_kernels_limit` from the per-axis
    factors (h, Phi) of :func:`_limit_axis`."""
    # a fixed operand order, so that chunked calls match one whole call;
    # the array products not in place: numpy's in-place complex product of
    # two one-element arrays takes other bits than on longer ones (1,342 of
    # 3,000 random products, numpy 2.4 on AVX-512), and the kernels of a
    # one-row table would then differ from those of its sets
    k1 = phi1 * h2
    k1 *= 2j * np.pi
    k2 = phi2 * h1
    k2 *= 2j * np.pi
    return h1 * h2, k1, k2


def probe_kernels_limit(deltas):
    """Large-array limits of :func:`probe_kernels` scaled by 1/sqrt(MN).

    Entries become products of Sa(pi d) e^{-j pi d} factors per axis and,
    for the derivative kernels, the phase-derivative kernel Phi(2 pi d) of
    the other axis, both axes in one pass as in :func:`probe_kernels`.
    """
    d = np.asarray(deltas, float)
    h, phi = _limit_axis(_by_axis(d))
    return tuple(k.reshape(d.shape[:-1])
                 for k in _limit_combine(h[0], phi[0], h[1], phi[1]))


def element_gain_db_angles(theta, phi):
    """Normalized combined element power pattern in dB (vectorized).

    Vertical and horizontal cuts are parabolic in angle, each floored at
    -ETA_MAX_DB; their sum is floored at -ETA_MAX_DB again.
    """
    ev = np.minimum(12.0 * (np.asarray(theta) / THETA_3DB) ** 2, ETA_MAX_DB)
    eh = np.minimum(12.0 * ((np.asarray(phi) - np.pi / 2) / PHI_3DB) ** 2,
                    ETA_MAX_DB)
    return -np.minimum(ev + eh, ETA_MAX_DB)


def element_gain_db(aoa: Aoa) -> float:
    """Element power gain in dB at one arrival angle (0 dB at broadside)."""
    return float(element_gain_db_angles(aoa.theta, aoa.phi))


def element_gain_angles(theta, phi):
    """Element gain as a linear amplitude factor (vectorized)."""
    return 10.0 ** (element_gain_db_angles(theta, phi) / 20.0)
