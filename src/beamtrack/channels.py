"""Ground-truth channel generation for the three dynamics classes, plus the
in-main-lobe initial-estimate model.

Scenario kinds: quasi-static Rician gain with a fixed arrival; fast Rayleigh
gain redrawn each cycle with a fixed arrival; Gauss-Markov gain with a
reflected random walk over the arrival angles.  The per-element pattern
attenuates the path gain into the equivalent gain actually observed.

Channels are simulated for a batch of trials at once, one row per trial,
from random numbers drawn beforehand: each trial's ``INITIAL_DRAWS``
numbers of :func:`initial_draws` set up its channel
(:func:`init_channel_batch`) and its initial estimate
(:func:`initial_estimate_batch`), and each cycle's transition takes
``evolve_normals(kind)`` standard normals per trial.  The ground truth
does not depend on the tracker, so :func:`evolve_chunk` computes a whole
chunk of cycles at once, from the channel before the chunk and the
chunk's normals; a one-cycle chunk is one transition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple, Union

import numpy as np

from .arrays import (ArrayConfig, PatternConfig, _gain_kernel, aoa_coords,
                     dpv_coords, element_gain_angles)
from .offsets import db_to_power
from .signal import OffsetSet, fit_gains, observe_fast

AOA_REGIONS = {
    "central": ((-np.pi / 6, np.pi / 6), (np.pi / 3, 2 * np.pi / 3)),
    "edge": ((np.pi / 3, np.pi / 2), (5 * np.pi / 6, np.pi)),
}


@dataclass(frozen=True)
class QuasiStatic:
    """Fixed arrival and fixed Rician path gain (unit mean power)."""

    rician_k_db: float = 15.0

    def __post_init__(self):
        db_to_power(self.rician_k_db)


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
    reflects at the edges of the scenario's arrival region.
    """

    rho: float = 0.995
    delta_a: float = np.deg2rad(0.3)

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if self.delta_a <= 0:
            raise ValueError("delta_a must be positive")


ScenarioKind = Union[QuasiStatic, DynamicI, DynamicII]


@dataclass(frozen=True)
class ScenarioConfig:
    kind: ScenarioKind
    aoa_region: str = "central"
    pattern: PatternConfig = PatternConfig()

    def ranges(self):
        """(theta, phi) ranges of the named arrival region."""
        try:
            return AOA_REGIONS[self.aoa_region]
        except KeyError:
            raise ValueError(f"unknown arrival region {self.aoa_region!r}")


def bootstrap_gains(cfg: ArrayConfig, offsets: OffsetSet, x, beta_eff, x0,
                    normals):
    """Bootstrap gain fits from one probing cycle centred at ``x0``.

    Observes channels (``x`` (..., 2), ``beta_eff`` (...)) with probes at
    ``x0 + offsets`` and noise from ``normals`` (..., 6), then fits the
    gains with :func:`~.signal.fit_gains`, e being the probe kernels at the
    offsets: by the shift property, the least-squares fit through an EBM
    built at ``x0``, from the gain kernel alone: O(1) per probe.
    """
    x0 = np.asarray(x0, float)
    y0 = observe_fast(cfg, x, beta_eff, x0[..., None, :] + offsets.deltas,
                      normals)
    e = _gain_kernel(offsets.deltas, cfg.m, cfg.n)
    return fit_gains(e, y0, cfg.pilot_amp)


def estimated_gain_variance(sc: ScenarioConfig, cfg: ArrayConfig, x_hat,
                            sigma_beta_c_sq: float):
    """Equivalent-gain variance inferred from the pattern at direction
    estimates ``x_hat`` (..., 2), clamped to the physical cone (the angles of
    :func:`~.arrays.aoa_coords`)."""
    x = np.asarray(x_hat, float)
    theta, phi = aoa_coords(cfg, x[..., 0], x[..., 1])
    eta = element_gain_angles(sc.pattern, theta, phi)
    return eta**2 * sigma_beta_c_sq


# ---------------------------------------------------------------------------
# batches of trials: one row per trial, drawn from per-trial streams
# ---------------------------------------------------------------------------

INITIAL_DRAWS = 13


def initial_draws(sc: ScenarioConfig, rngs: Sequence[np.random.Generator],
                  halfwidth: float) -> np.ndarray:
    """The ``INITIAL_DRAWS`` initial random numbers of a batch, one row per
    generator of ``rngs``, drawn generator by generator in four calls:
    ``random(3)`` on the quasi-static kind, else ``random(2)``, then
    ``standard_normal(2)``, ``random(2)`` and ``standard_normal(6)``.  Row
    columns, in that order: [0] theta and [1] phi, uniform over the arrival
    region; [2] the Rician line-of-sight phase, uniform over [0, 2 pi)
    (quasi-static only; 0 and not drawn for the other kinds); [3:5] two
    standard normals for the gain; [5:7] the initial-estimate offsets,
    uniform over [-halfwidth, halfwidth) per coordinate; [7:13] six
    standard normals of the bootstrap cycle's noise (the real parts of the
    three noise values, then the imaginary parts).  A uniform over
    [lo, hi) is lo + (hi - lo) u for u of ``random``, which is how
    ``Generator.uniform`` computes it, so the rows equal per-value
    ``uniform`` draws bit for bit."""
    (t_lo, t_hi), (p_lo, p_hi) = sc.ranges()
    angles = 3 if isinstance(sc.kind, QuasiStatic) else 2
    out = np.zeros((len(rngs), INITIAL_DRAWS))
    for rng, row in zip(rngs, out):
        rng.random(out=row[:angles])
        rng.standard_normal(out=row[3:5])
        rng.random(out=row[5:7])
        rng.standard_normal(out=row[7:])
    lo = np.array([t_lo, p_lo, 0.0, -halfwidth, -halfwidth])
    hi = np.array([t_hi, p_hi, 2 * np.pi, halfwidth, halfwidth])
    uniform = [0, 1, 2, 5, 6]
    out[:, uniform] = lo + (hi - lo) * out[:, uniform]
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


def init_channel_batch(sc: ScenarioConfig, cfg: ArrayConfig,
                       draws: np.ndarray) -> ChannelBatch:
    """Channels of a batch from rows of :func:`initial_draws`: the arrival
    from columns 0-1 and the path gain from z = d3 + j d4, Rician
    sqrt(K/(K+1)) exp(j d2) + z sqrt(1/(2(K+1))) (unit mean power),
    Rayleigh z sqrt(sigma^2/2), Gauss-Markov (stationary start)
    z sqrt(1/2); then the direction coordinates and the element gain at
    the arrival."""
    kind = sc.kind
    z = draws[:, 3] + 1j * draws[:, 4]
    if isinstance(kind, QuasiStatic):
        kappa = db_to_power(kind.rician_k_db)
        los = np.sqrt(kappa / (kappa + 1.0)) * np.exp(1j * draws[:, 2])
        beta_c = los + z * np.sqrt(1.0 / (kappa + 1.0) / 2.0)
    elif isinstance(kind, DynamicI):
        beta_c = z * np.sqrt(kind.sigma_beta_c_sq / 2.0)
    else:
        beta_c = z * np.sqrt(1.0 / 2.0)
    theta, phi = draws[:, 0].copy(), draws[:, 1].copy()
    x1, x2 = dpv_coords(cfg, theta, phi)
    eta = element_gain_angles(sc.pattern, theta, phi)
    return ChannelBatch(theta, phi, np.stack([x1, x2], axis=-1), beta_c,
                        eta, eta * beta_c)


def initial_estimate_batch(ch: ChannelBatch, cfg: ArrayConfig,
                           offsets: OffsetSet, draws: np.ndarray):
    """In-main-lobe initial estimates (x0 (T, 2), beta0 (T,)) from rows of
    :func:`initial_draws`: x0 is the true direction plus columns 5-6, and
    beta0 the :func:`bootstrap_gains` fit of one probing cycle centred at
    x0, with the noise of columns 7-12."""
    x0 = ch.x + draws[:, 5:7]
    return x0, bootstrap_gains(cfg, offsets, ch.x, ch.beta_eff, x0,
                               draws[:, 7:])


def _reflect(value: np.ndarray, lo, hi) -> None:
    """Reflect ``value`` into [lo, hi] in place (bounds broadcast against
    it), at most 8 reflections per entry; an entry still outside is
    clipped."""
    for _ in range(8):
        above, below = value > hi, value < lo
        # returning here: 6-11 us against 11-22 us for a pass at 200 trials
        if not (above.any() or below.any()):
            return
        np.subtract(2 * hi, value, out=value, where=above)
        np.subtract(2 * lo, value, out=value, where=below)
    np.clip(value, lo, hi, out=value)


def evolve_chunk(ch: ChannelBatch, sc: ScenarioConfig, cfg: ArrayConfig,
                 normals: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, ChannelBatch]:
    """The ground truth over a chunk of K cycles that follows channel
    ``ch``, from standard ``normals`` (T, K, evolve_normals(kind)), cycle
    k's transition reading ``normals[:, k]``.  Returns the direction
    coordinates x (K, T, 2) and equivalent gains beta_eff (K, T) at each
    cycle, and the channel after the last cycle, from which the next chunk
    goes on.

    A cycle's transition: the identity for the quasi-static kind (x and
    beta_eff are broadcast views of ``ch``'s); a fresh Rayleigh gain
    z sqrt(sigma^2/2), z = n0 + j n1, for the fading kind; for
    Gauss-Markov, theta and phi step by delta_a times n0 and n1, reflected
    into the arrival region, and the gain moves to
    rho beta + (n2 + j n3) sqrt((1 - rho^2)/2).  Only those two recursions
    run cycle by cycle, on (2, T) and (T,) rows; the steps, the gain
    innovations, the direction coordinates and the element gain run once
    on (K, T) arrays.  Every operation is elementwise and in the order of
    a one-cycle chunk's, so a chunk equals its cycles taken one chunk each
    bit for bit."""
    kind = sc.kind
    cycles = normals.shape[1]
    if isinstance(kind, QuasiStatic):
        return (np.broadcast_to(ch.x, (cycles, *ch.x.shape)),
                np.broadcast_to(ch.beta_eff, (cycles, *ch.beta_eff.shape)),
                ch)
    if isinstance(kind, DynamicI):
        beta_c = _gain_normals(normals[..., 0], normals[..., 1],
                               np.sqrt(kind.sigma_beta_c_sq / 2.0))
        last = beta_c[-1].copy()
        beta_eff = np.multiply(ch.eta, beta_c, out=beta_c)
        return (np.broadcast_to(ch.x, (cycles, *ch.x.shape)), beta_eff,
                replace(ch, beta_c=last, beta_eff=beta_eff[-1]))
    lo, hi = np.array(sc.ranges()).T[..., None]     # (2, 1) each
    walk = np.empty((cycles, 2, len(ch.theta)))
    np.multiply(kind.delta_a, normals[..., :2].transpose(1, 2, 0), out=walk)
    prev = np.stack([ch.theta, ch.phi])
    for angles in walk:
        angles += prev
        _reflect(angles, lo, hi)
        prev = angles
    beta_c = _gain_normals(normals[..., 2], normals[..., 3],
                           np.sqrt((1.0 - kind.rho**2) / 2.0))
    prev = ch.beta_c
    for gain in beta_c:
        gain += kind.rho * prev
        prev = gain
    theta, phi = walk[:, 0], walk[:, 1]
    x1, x2 = dpv_coords(cfg, theta, phi)
    x = np.stack([x1, x2], axis=-1)
    eta = element_gain_angles(sc.pattern, theta, phi)
    # only x and beta_eff outlive the call: the gains turn into beta_eff in
    # place, and the channel after the chunk copies its other rows
    last = beta_c[-1].copy()
    beta_eff = np.multiply(eta, beta_c, out=beta_c)
    return x, beta_eff, ChannelBatch(theta[-1].copy(), phi[-1].copy(), x[-1],
                                     last, eta[-1].copy(), beta_eff[-1])


def _gain_normals(re: np.ndarray, im: np.ndarray, scale: float) -> np.ndarray:
    """(re + j im) scale as a (K, T) array from (T, K) normals."""
    out = np.empty(re.shape[::-1], complex)
    np.multiply(1j, im.T, out=out)
    np.add(re.T, out, out=out)
    out *= scale
    return out
