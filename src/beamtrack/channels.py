"""Ground-truth channel generation for the three dynamics classes, plus the
in-main-lobe initial-estimate model.

Scenario kinds: quasi-static Rician gain with a fixed arrival; fast Rayleigh
gain redrawn each cycle with a fixed arrival; Gauss-Markov gain with a
reflected random walk over the arrival angles.  The per-element pattern
attenuates the path gain into the equivalent gain actually observed.

The per-trial functions (``init_channel``, ``evolve``, ``initial_estimate``)
draw from a generator; their ``*_batch`` counterparts apply the same
transforms to many trials at once, from random numbers drawn beforehand in
the same order (``initial_draws``, ``evolve_normals``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .arrays import (Aoa, ArrayConfig, PatternConfig, aoa_coords, dpv_coords,
                     dpv_from_aoa, element_gain, element_gain_angles,
                     probe_kernels)
from .signal import ChannelParams, OffsetSet, fit_gains, observe_fast

AOA_REGIONS = {
    "central": ((-np.pi / 6, np.pi / 6), (np.pi / 3, 2 * np.pi / 3)),
    "edge": ((np.pi / 3, np.pi / 2), (5 * np.pi / 6, np.pi)),
}


@dataclass(frozen=True)
class QuasiStatic:
    """Fixed arrival and fixed Rician path gain (unit mean power)."""

    rician_k_db: float = 15.0


@dataclass(frozen=True)
class DynamicI:
    """Fixed arrival, Rayleigh path gain redrawn independently per cycle."""

    sigma_beta_c_sq: float = 1.0

    def __post_init__(self):
        if self.sigma_beta_c_sq <= 0:
            raise ValueError("gain variance must be positive")


@dataclass(frozen=True)
class DynamicII:
    """Gauss-Markov path gain plus a reflected random walk over the angles.

    ``delta_a`` is the per-cycle angular step deviation in radians; the walk
    reflects at the configured angle ranges (defaults: the arrival region).
    """

    rho: float = 0.995
    delta_a: float = np.deg2rad(0.3)
    theta_range: Optional[tuple] = None
    phi_range: Optional[tuple] = None

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if self.delta_a <= 0:
            raise ValueError("delta_a must be positive")


ScenarioKind = Union[QuasiStatic, DynamicI, DynamicII]


@dataclass(frozen=True)
class ScenarioConfig:
    kind: ScenarioKind
    aoa_region: Union[str, tuple] = "central"
    pattern: PatternConfig = PatternConfig()

    def ranges(self):
        if isinstance(self.aoa_region, str):
            try:
                return AOA_REGIONS[self.aoa_region]
            except KeyError:
                raise ValueError(f"unknown arrival region {self.aoa_region!r}")
        (t_lo, t_hi), (p_lo, p_hi) = self.aoa_region
        return (float(t_lo), float(t_hi)), (float(p_lo), float(p_hi))


@dataclass
class ChannelState:
    """Ground truth for one trial at one cycle: arrival angle, its direction
    coordinates, the path gain, and the pattern-weighted equivalent gain."""

    aoa: Aoa
    x: np.ndarray
    beta_c: complex
    beta_eff: complex
    ecc_index: int = 0

    @property
    def params(self) -> ChannelParams:
        return ChannelParams.from_parts(self.beta_eff, self.x)


def _cn(rng: np.random.Generator, var: float = 1.0) -> complex:
    z = rng.standard_normal(2)
    return complex(z[0], z[1]) * np.sqrt(var / 2.0)


def _draw_gain(kind: ScenarioKind, rng: np.random.Generator) -> complex:
    if isinstance(kind, QuasiStatic):
        kappa = 10.0 ** (kind.rician_k_db / 10.0)
        los = np.sqrt(kappa / (kappa + 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return complex(los + _cn(rng, 1.0 / (kappa + 1.0)))
    if isinstance(kind, DynamicI):
        return _cn(rng, kind.sigma_beta_c_sq)
    return _cn(rng, 1.0)  # Gauss-Markov stationary start


def init_channel(sc: ScenarioConfig, cfg: ArrayConfig,
                 rng: np.random.Generator) -> ChannelState:
    """Uniform arrival over the scenario's angle region plus a gain draw."""
    (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
    aoa = Aoa(float(rng.uniform(t_lo, t_hi)), float(rng.uniform(p_lo, p_hi)))
    beta_c = _draw_gain(sc.kind, rng)
    x = dpv_from_aoa(cfg, aoa).as_array()
    eta = element_gain(sc.pattern, aoa)
    return ChannelState(aoa, x, beta_c, eta * beta_c)


def _reflect(value: float, lo: float, hi: float) -> float:
    # fold back into [lo, hi]; per-cycle steps are far smaller than the range
    for _ in range(8):
        if value > hi:
            value = 2 * hi - value
        elif value < lo:
            value = 2 * lo - value
        else:
            break
    return float(np.clip(value, lo, hi))


def evolve(state: ChannelState, sc: ScenarioConfig, cfg: ArrayConfig,
           rng: np.random.Generator) -> ChannelState:
    """Per-cycle channel transition; identity for the quasi-static kind."""
    kind = sc.kind
    if isinstance(kind, QuasiStatic):
        return state
    if isinstance(kind, DynamicI):
        beta_c = _cn(rng, kind.sigma_beta_c_sq)
        eta = element_gain(sc.pattern, state.aoa)
        return ChannelState(state.aoa, state.x, beta_c, eta * beta_c,
                            state.ecc_index + 1)
    (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
    t_rng = kind.theta_range or (t_lo, t_hi)
    p_rng = kind.phi_range or (p_lo, p_hi)
    theta = _reflect(state.aoa.theta + rng.normal(0.0, kind.delta_a), *t_rng)
    phi = _reflect(state.aoa.phi + rng.normal(0.0, kind.delta_a), *p_rng)
    aoa = Aoa(theta, phi)
    beta_c = complex(kind.rho * state.beta_c + _cn(rng, 1.0 - kind.rho**2))
    x = dpv_from_aoa(cfg, aoa).as_array()
    eta = element_gain(sc.pattern, aoa)
    return ChannelState(aoa, x, beta_c, eta * beta_c, state.ecc_index + 1)


def bootstrap_gains(cfg: ArrayConfig, offsets: OffsetSet, x, beta_eff, x0,
                    normals):
    """Bootstrap gain fits from one probing cycle centred at ``x0``.

    Observes channels (``x`` (..., 2), ``beta_eff`` (...)) with probes at
    ``x0 + offsets`` and noise from ``normals`` (..., 6), then fits the
    gains with :func:`~.signal.fit_gains`, e being the probe kernels at the
    offsets.
    The kernel path of building an EBM at ``x0``, :func:`~.signal.observe`
    and :func:`~.trackers.bootstrap_gain`.
    """
    x0 = np.asarray(x0, float)
    y0 = observe_fast(cfg, x, beta_eff, x0[..., None, :] + offsets.deltas,
                      normals)
    e, _, _ = probe_kernels(offsets.deltas, cfg.m, cfg.n)
    return fit_gains(e, y0, cfg.pilot_amp)


def initial_estimate(state: ChannelState, cfg: ArrayConfig,
                     rng: np.random.Generator, halfwidth: float = 0.5,
                     offsets: Optional[OffsetSet] = None) -> ChannelParams:
    """In-main-lobe initial estimate: the direction is uniform within
    +-halfwidth of the truth per coordinate; the gain comes from a bootstrap
    least-squares fit over one extra probing cycle when ``offsets`` are
    given (otherwise zero).
    """
    if not 0 <= halfwidth < 1:
        raise ValueError("halfwidth must lie in [0, 1)")
    x0 = state.x + rng.uniform(-halfwidth, halfwidth, 2)
    beta0 = 0.0 + 0.0j
    if offsets is not None:
        beta0 = complex(bootstrap_gains(cfg, offsets, state.x,
                                        state.beta_eff, x0,
                                        rng.standard_normal(6)))
    return ChannelParams.from_parts(beta0, x0)


def estimated_gain_variance(sc: ScenarioConfig, cfg: ArrayConfig, x_hat,
                            sigma_beta_c_sq: float):
    """Equivalent-gain variance inferred from the pattern at direction
    estimates ``x_hat`` (..., 2), clamped to the physical cone (the branch
    of :func:`~.arrays.aoa_from_dpv` with ``clamp``)."""
    x = np.asarray(x_hat, float)
    theta, phi = aoa_coords(cfg, x[..., 0], x[..., 1])
    eta = element_gain_angles(sc.pattern, theta, phi)
    return eta**2 * sigma_beta_c_sq


# ---------------------------------------------------------------------------
# batches of trials: one row per trial, drawn from per-trial streams
# ---------------------------------------------------------------------------

INITIAL_DRAWS = 13


def initial_draws(sc: ScenarioConfig, rng: np.random.Generator,
                  halfwidth: float) -> np.ndarray:
    """One trial's initial random numbers, drawn as :func:`init_channel`
    and then :func:`initial_estimate` (with offsets) draw them: arrival
    angles theta and phi, the Rician phase (0 and not drawn for the other
    kinds), two gain normals, two estimate offsets, six bootstrap noise
    normals."""
    (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
    out = np.zeros(INITIAL_DRAWS)
    out[0] = rng.uniform(t_lo, t_hi)
    out[1] = rng.uniform(p_lo, p_hi)
    if isinstance(sc.kind, QuasiStatic):
        out[2] = rng.uniform(0, 2 * np.pi)
    out[3:5] = rng.standard_normal(2)
    out[5:7] = rng.uniform(-halfwidth, halfwidth, 2)
    out[7:] = rng.standard_normal(6)
    return out


def evolve_normals(kind: ScenarioKind) -> int:
    """Standard normals one trial's channel transition uses per cycle."""
    if isinstance(kind, QuasiStatic):
        return 0
    return 2 if isinstance(kind, DynamicI) else 4


@dataclass(frozen=True)
class ChannelBatch:
    """Ground truth of a batch of trials at one cycle, one row per trial."""

    theta: np.ndarray     # (T,) arrival elevation
    phi: np.ndarray       # (T,) arrival azimuth
    x: np.ndarray         # (T, 2) direction coordinates
    beta_c: np.ndarray    # (T,) complex path gain
    eta: np.ndarray       # (T,) element gain at the arrival
    beta_eff: np.ndarray  # (T,) eta * beta_c


def _channel_batch(sc: ScenarioConfig, cfg: ArrayConfig, theta, phi,
                   beta_c) -> ChannelBatch:
    x1, x2 = dpv_coords(cfg, theta, phi)
    eta = element_gain_angles(sc.pattern, theta, phi)
    return ChannelBatch(theta, phi, np.stack([x1, x2], axis=-1), beta_c,
                        eta, eta * beta_c)


def init_channel_batch(sc: ScenarioConfig, cfg: ArrayConfig,
                       draws: np.ndarray) -> ChannelBatch:
    """Batched :func:`init_channel` from rows of :func:`initial_draws`."""
    kind = sc.kind
    z = draws[:, 3] + 1j * draws[:, 4]
    if isinstance(kind, QuasiStatic):
        kappa = 10.0 ** (kind.rician_k_db / 10.0)
        los = np.sqrt(kappa / (kappa + 1.0)) * np.exp(1j * draws[:, 2])
        beta_c = los + z * np.sqrt(1.0 / (kappa + 1.0) / 2.0)
    elif isinstance(kind, DynamicI):
        beta_c = z * np.sqrt(kind.sigma_beta_c_sq / 2.0)
    else:
        beta_c = z * np.sqrt(1.0 / 2.0)
    return _channel_batch(sc, cfg, draws[:, 0].copy(), draws[:, 1].copy(),
                          beta_c)


def initial_estimate_batch(ch: ChannelBatch, cfg: ArrayConfig,
                           offsets: OffsetSet, draws: np.ndarray):
    """Batched :func:`initial_estimate` with offsets: (x0 (T, 2), beta0
    (T,)) from rows of :func:`initial_draws`."""
    x0 = ch.x + draws[:, 5:7]
    return x0, bootstrap_gains(cfg, offsets, ch.x, ch.beta_eff, x0,
                               draws[:, 7:])


def _reflect_batch(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    for _ in range(8):
        out = (value > hi) | (value < lo)
        if not out.any():
            break
        value = np.where(value > hi, 2 * hi - value,
                         np.where(value < lo, 2 * lo - value, value))
    return np.clip(value, lo, hi)


def evolve_batch(ch: ChannelBatch, sc: ScenarioConfig, cfg: ArrayConfig,
                 normals: np.ndarray) -> ChannelBatch:
    """Batched :func:`evolve`; ``normals`` (T, evolve_normals(kind)) are
    the standard normals :func:`evolve` draws, in its order."""
    kind = sc.kind
    if isinstance(kind, QuasiStatic):
        return ch
    if isinstance(kind, DynamicI):
        beta_c = (normals[:, 0] + 1j * normals[:, 1]) \
            * np.sqrt(kind.sigma_beta_c_sq / 2.0)
        return replace(ch, beta_c=beta_c, beta_eff=ch.eta * beta_c)
    (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
    t_rng = kind.theta_range or (t_lo, t_hi)
    p_rng = kind.phi_range or (p_lo, p_hi)
    theta = _reflect_batch(ch.theta + kind.delta_a * normals[:, 0], *t_rng)
    phi = _reflect_batch(ch.phi + kind.delta_a * normals[:, 1], *p_rng)
    beta_c = kind.rho * ch.beta_c + (normals[:, 2] + 1j * normals[:, 3]) \
        * np.sqrt((1.0 - kind.rho**2) / 2.0)
    return _channel_batch(sc, cfg, theta, phi, beta_c)
