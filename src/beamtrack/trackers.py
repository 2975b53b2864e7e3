"""Recursive tracking loops: the stochastic-Newton joint tracker (diminishing
or constant step), the direction-only tracker for fast-fading gains, their
mean-field map, and two reference baselines (grid beam switching, EKF).

Batched trackers
----------------
The Monte-Carlo harness runs the ``*Batch`` classes at the end of this
module: each update over a batch of trials, one row per trial, behind one
interface (``BatchTracker``).  Each update exists only there; the tests
check the joint and direction-only updates against the explicit-matrix
routes, and the baselines against per-trial reference steps.

Update kernels and operation audit
----------------------------------
All probe-dependent quantities entering one update are functions of the
fixed exploration offsets only (shift property), so they are precomputed
once per (offsets, array, pilot) into a cache.  The per-cycle online work is
audited by counting every multiplication and division executed while
computing the update direction -- real or complex alike, additions and
Re/Im/conjugate extractions free.  Cache construction is offline and
excluded; so is the final step-size scale-and-add.  ``count_ops`` counts by
running the batched kernels on one row of ``_OpTally`` arrays: one cycle
costs 39 operations for the joint tracker and 28 for the direction-only
tracker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .arrays import ArrayConfig, probe_kernels
from .estimation import (COND_LIMIT, SingularFisher, _di_info, _di_score,
                         _di_score_terms, _products, _regular, _sym2)
from .signal import (ChannelParams, Ebm, OffsetSet, _sum3, fit_gains,
                     noiseless_mean, observation_matrix)


@dataclass(frozen=True)
class DiminishingStep:
    """b_k = epsilon / (k + k0); the classic stochastic-approximation rate."""

    epsilon: float
    k0: float = 0.0

    def __post_init__(self):
        if self.epsilon <= 0 or self.k0 < 0:
            raise ValueError("need epsilon > 0 and k0 >= 0")

    def at(self, k: int) -> float:
        return self.epsilon / (k + self.k0)


@dataclass(frozen=True)
class ConstantStep:
    b: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("need b > 0")

    def at(self, k: int) -> float:
        return self.b


# ---------------------------------------------------------------------------
# joint gain + direction tracker
# ---------------------------------------------------------------------------

# per-cycle estimate moves are truncated at half the main-lobe halfwidth,
# and the direction preconditioner never trusts a gain estimate below twice
# its own one-cycle measurement noise (see _jbct_direction_batch): standard
# stochastic-approximation safeguards for deep-fade cycles.  In the
# criterion-9a run (JBCT_S, 500 trials x 2000 cycles, seed 7) the cap
# truncates the first update, whose step is b_1 = 1, in 155 trials and no
# later one, and the floor never acts.
STEP_CAP = 0.5
GAIN_FLOOR_MULT = 4.0


def _sym_inv2(a, b, d):
    """Inverses [[a', b'], [b', d']] of symmetric 2x2 matrices [[a, b], [b, d]]
    given elementwise; one off-diagonal value keeps them exactly symmetric."""
    det = a * d - b * b
    return d / det, -b / det, a / det


@dataclass(frozen=True)
class FastUpdateCache:
    """Offset-only terms for the joint tracker's update, all independent of
    the running estimate: probe kernels, the Fisher blocks they induce, and
    pilot-folded copies used by the gradient inner products."""

    se: np.ndarray       # pilot_amp * e, e (3,) the probe gains w^H a
    e_s: np.ndarray      # e / pilot_amp  (gradient weights, scale folded)
    d1_s: np.ndarray     # w^H da/dx1 / pilot_amp
    d2_s: np.ndarray     # w^H da/dx2 / pilot_amp
    r12: np.ndarray      # (2,) e^H [d1, d2]; the gain-direction coupling row
    a_inv: float         # 1 / ||e||^2  (inverse of the gain block / I2)
    is_inv: np.ndarray   # (2, 2) inverse of the direction Schur block
    gain_floor_sq: float  # |gain|^2 floor for the direction Schur scale


def build_fast_cache(cfg: ArrayConfig, offsets: OffsetSet) -> FastUpdateCache:
    e, d1, d2 = probe_kernels(offsets.deltas, cfg.m, cfg.n)
    # gain block ||e||^2 I2 (columns e and j e), direction Schur block W / a
    a, u, k, w = _products(e, d1, d2)
    if not _regular(w, a * a * k[0] * k[2])[1]:
        raise SingularFisher("static Fisher is singular: degenerate offsets "
                             "or a one-element axis")
    a, s = float(a), cfg.pilot_amp
    return FastUpdateCache(s * e, e / s, d1 / s, d2 / s, np.array(u), 1.0 / a,
                           _sym2(_sym_inv2(*(x / a for x in w))),
                           GAIN_FLOOR_MULT * cfg.noise_var / (s**2 * a))


def _jbct_direction_batch(cache: FastUpdateCache, beta: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
    """Update direction I^-1 grad-log-likelihood via a block solve, for a
    batch: beta (T,), y (T, 3) -> (T, 4).

    The 4x4 Fisher has blocks [[||e||^2 I2, B(beta)], [B^T, |beta|^2 D]];
    only scalar functions of beta enter online, everything else is cached.
    The direction Schur scale |beta|^2 is floored at the one-cycle
    gain-noise level (times GAIN_FLOOR_MULT), which freezes direction
    updates through deep gain fades instead of letting the near-singular
    preconditioner amplify pure noise; inactive at healthy gains.
    """
    # gradient of the log-likelihood (pilot scale folded into the caches)
    resid = y - beta[:, None] * cache.se
    ip0 = _sum3(cache.e_s.conj() * resid)
    ub0 = _sum3(((beta[:, None] * cache.d1_s).conj() * resid).real)
    ub1 = _sum3(((beta[:, None] * cache.d2_s).conj() * resid).real)
    # block solve: gain block is ||e||^2 I2, coupling rows are Re/Im of
    # beta * r12, direction Schur block is |beta|^2 * Is
    br0 = beta * cache.r12[0]
    br1 = beta * cache.r12[1]
    t0 = cache.a_inv * ip0.real
    t1 = cache.a_inv * ip0.imag
    v0 = ub0 - (br0.real * t0 + br0.imag * t1)
    v1 = ub1 - (br1.real * t0 + br1.imag * t1)
    b2 = np.maximum((beta * beta.conjugate()).real, cache.gain_floor_sq)
    w0 = (cache.is_inv[0, 0] * v0 + cache.is_inv[0, 1] * v1) / b2
    w1 = (cache.is_inv[1, 0] * v0 + cache.is_inv[1, 1] * v1) / b2
    xa0 = cache.a_inv * (ip0.real - (br0.real * w0 + br1.real * w1))
    xa1 = cache.a_inv * (ip0.imag - (br0.imag * w0 + br1.imag * w1))
    return np.stack([xa0, xa1, w0, w1], axis=1)


def jbct_direction(cfg: ArrayConfig, psi_hat: ChannelParams, ebm: Ebm,
                   y) -> np.ndarray:
    """Reference (naive) update direction: the 4x4 Fisher built from the
    observation matrix, and a dense solve.

    Equals :func:`_jbct_direction_batch` to numerical precision (gain floor
    included); kept as the slow oracle.
    """
    kmat = observation_matrix(cfg, psi_hat, ebm)
    rem = np.real(kmat.conj().T @ kmat)
    if not np.all(np.isfinite(rem)) or np.linalg.cond(rem) > COND_LIMIT:
        raise SingularFisher("Fisher information is numerically singular")
    b2 = abs(psi_hat.beta) ** 2
    floor = GAIN_FLOOR_MULT * cfg.noise_var / (cfg.pilot_amp**2 * rem[0, 0])
    if 0 < b2 < floor:
        # same regularization as the fast path: lift the direction Schur
        # block from |beta|^2 Is to floor * Is
        coupling = rem[:2, 2:]
        schur = rem[2:, 2:] - coupling.T @ coupling / rem[0, 0]
        rem = rem.copy()
        rem[2:, 2:] += ((floor - b2) / b2) * schur
    resid = np.asarray(y, complex) - cfg.pilot_amp * psi_hat.beta * kmat[:, 0]
    u = np.real(kmat.conj().T @ resid)
    return np.linalg.solve(rem, u) / cfg.pilot_amp


def mean_field(psi_hat: ChannelParams, psi_true: ChannelParams,
               cfg: ArrayConfig, ebm: Ebm) -> np.ndarray:
    """Expected update direction at estimate ``psi_hat`` when the channel is
    ``psi_true``.  Zero with Jacobian -I4 at psi_hat = psi_true."""
    return jbct_direction(cfg, psi_hat, ebm,
                          noiseless_mean(cfg, psi_true, ebm))


# ---------------------------------------------------------------------------
# direction-only tracker (fading gain)
# ---------------------------------------------------------------------------

def _rbt_terms(e, d1, d2, c, sz2: float):
    """Offset-only terms of the direction tracker at gain powers
    c = |s|^2 sigma_beta^2 (any shape): Q_p (..., 2, 3, 3) and c0 (..., 2)
    of :func:`~.estimation._di_score_terms`, and the inverse Fisher."""
    info, ref = _di_info(_products(e, d1, d2), c / sz2)
    if np.any(c <= 0) or not np.all(_regular(info, ref)[1]):
        raise SingularFisher("no direction information: zero gain variance "
                             "or degenerate offsets")
    return (*_di_score_terms(e, d1, d2, c, sz2), _sym2(_sym_inv2(*info)))


def _rbt_direction_batch(q_mats, c0, i_inv, y: np.ndarray) -> np.ndarray:
    """Fisher-preconditioned score step direction of the direction tracker
    for a batch, y (T, 3) -> (T, 2), from the per-row terms of
    :func:`_rbt_terms`: the score of :func:`~.estimation._di_score`, then
    I^-1 times it."""
    return (i_inv @ _di_score(q_mats, c0, y)[..., None])[..., 0]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

# lattice spacing of the grid-of-beams baseline: oversampling 2, i.e. half
# the main-lobe halfwidth in direction coordinates
BEAM_SPACING = 0.5

# equilateral probe triangle of circumradius 0.5 around the estimate
EKF_PROBE_OFFSETS = 0.5 * np.array([
    [np.cos(np.pi / 2), np.sin(np.pi / 2)],
    [np.cos(np.pi / 2 + 2 * np.pi / 3), np.sin(np.pi / 2 + 2 * np.pi / 3)],
    [np.cos(np.pi / 2 + 4 * np.pi / 3), np.sin(np.pi / 2 + 4 * np.pi / 3)],
])

EKF_PROCESS_NOISE = 1e-4
EKF_PRIOR_VAR = 0.1


# ---------------------------------------------------------------------------
# batched trackers: one row per trial, one numpy pass per cycle
# ---------------------------------------------------------------------------
#
# Each class runs its tracker's update on a batch of independent trials.
# The safeguards are per-trial masks: a trial whose update is skipped or
# dropped keeps its estimate while the others move.


@dataclass(frozen=True)
class TrackerRun:
    """What a batched tracker knows of its run."""

    cfg: ArrayConfig
    offsets: OffsetSet
    schedule: object
    gain_var: np.ndarray      # (T,) equivalent-gain variance per trial
    # variance estimated at the direction estimates, x (T, 2) -> (T,);
    # None means the direction tracker uses ``gain_var``
    gain_var_at: Optional[Callable] = None


class BatchTracker(Protocol):
    """The interface the Monte-Carlo harness drives: construct from the run
    and the initial estimates (x0 (T, 2), beta0 (T,)), then each cycle
    ``probes`` (T, 3, 2), ``update(y)`` with y (T, 3), and ``estimate`` ->
    (x_hat (T, 2), beta_hat (T,) or None for a direction-only tracker)."""

    def __init__(self, run: TrackerRun, x0: np.ndarray,
                 beta0: np.ndarray): ...

    def probes(self) -> np.ndarray: ...

    def update(self, y: np.ndarray) -> None: ...

    def estimate(self): ...


def _as_complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), complex)
    out.real = re
    out.imag = im
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a (T, c) array: np.maximum over its columns in order,
    the short-axis ``max(axis=1)`` without a reduction pass."""
    return functools.reduce(np.maximum, a.T)


def _rows_finite(a: np.ndarray) -> np.ndarray:
    """Rows of a (T, c) array whose entries are all finite: the short-axis
    ``isfinite(a).all(axis=1)`` as a chain of column ands."""
    return functools.reduce(np.logical_and, np.isfinite(a).T)


def _stepped(state: np.ndarray, schedule, k: int, direction: np.ndarray,
             usable=True) -> np.ndarray:
    """The stochastic-approximation step of both trackers: ``state`` (T, c)
    moved by the schedule's step at cycle ``k`` along ``direction``, each
    row's step truncated to STEP_CAP in max-norm.  A row keeps its state
    where its direction is not finite or ``usable`` (T,) is False."""
    with np.errstate(all="ignore"):
        step = schedule.at(k) * direction
        largest = _row_max(np.abs(step))
        step *= np.where(largest > STEP_CAP, STEP_CAP / largest, 1.0)[:, None]
    apply = usable & _rows_finite(direction)
    return np.where(apply[:, None], state + step, state)


class JbctBatch:
    """Joint gain + direction tracker (both step configurations)."""

    def __init__(self, run: TrackerRun, x0, beta0):
        self.psi = np.column_stack([beta0.real, beta0.imag, x0])
        self.k = 0
        self.schedule = run.schedule
        self.deltas = run.offsets.deltas
        self.cache = build_fast_cache(run.cfg, run.offsets)

    def probes(self) -> np.ndarray:
        return self.psi[:, None, 2:] + self.deltas

    def update(self, y: np.ndarray) -> None:
        self.k += 1
        beta = _as_complex(self.psi[:, 0], self.psi[:, 1])
        b2 = np.abs(beta) ** 2
        with np.errstate(all="ignore"):
            direction = _jbct_direction_batch(self.cache, beta, y)
        # the Fisher is singular at a vanishing gain estimate: skip those
        self.psi = _stepped(self.psi, self.schedule, self.k, direction,
                            np.isfinite(b2) & (b2 >= 1e-24))

    def estimate(self):
        return self.psi[:, 2:], _as_complex(self.psi[:, 0], self.psi[:, 1])


class RbtBatch:
    """Direction-only tracker for fading gains."""

    def __init__(self, run: TrackerRun, x0, beta0):
        self.x = np.array(x0, float)
        self.k = 0
        self.run = run
        self.kernels = probe_kernels(run.offsets.deltas, run.cfg.m, run.cfg.n)
        self.q_mats, self.c0, self.i_inv = self._terms(run.gain_var)

    def _terms(self, var):
        cfg = self.run.cfg
        return _rbt_terms(*self.kernels, cfg.pilot_amp**2 * var, cfg.noise_var)

    def probes(self) -> np.ndarray:
        return self.x[:, None, :] + self.run.offsets.deltas

    def update(self, y: np.ndarray) -> None:
        if self.run.gain_var_at is not None:
            # every row: rebuilding only the rows whose variance changed
            # (52-100% per cycle) timed alike on 200-trial runs
            self.q_mats, self.c0, self.i_inv = self._terms(
                self.run.gain_var_at(self.x))
        direction = _rbt_direction_batch(self.q_mats, self.c0, self.i_inv, y)
        self.k += 1
        self.x = _stepped(self.x, self.run.schedule, self.k, direction)

    def estimate(self):
        return self.x, None


class BeamSwitchBatch:
    """Grid-of-beams baseline."""

    def __init__(self, run: TrackerRun, x0, beta0):
        cfg = run.cfg
        self.limits = np.array([cfg.m / 2.0, cfg.n / 2.0])
        snapped = np.round(np.asarray(x0, float) / BEAM_SPACING) * BEAM_SPACING
        self.x = np.clip(snapped, -self.limits, self.limits)
        self.beta_hat = np.zeros(len(self.x), complex)
        self.k = 0
        self.gain_scale = cfg.pilot_amp * np.sqrt(cfg.size)

    def probes(self) -> np.ndarray:
        step = np.zeros(2)
        step[self.k % 2] = BEAM_SPACING
        probes = np.stack([self.x, self.x + step, self.x - step], axis=1)
        self.pattern = np.clip(probes, -self.limits, self.limits)
        return self.pattern

    def update(self, y: np.ndarray) -> None:
        """Switch to the strongest beam of this cycle's :meth:`probes`."""
        rows = np.arange(len(y))
        best = np.argmax(np.abs(y), axis=1)
        self.x = self.pattern[rows, best]
        self.beta_hat = y[rows, best] / self.gain_scale
        self.k += 1

    def estimate(self):
        return self.x, self.beta_hat


class EkfBatch:
    """Identity-dynamics EKF baseline in information form: with R = r I,
    r = noise_var/2, and H = [Re h; Im h] for h = s beta [k1, k2] (3, 2),
    P+ = (P_pred^-1 + Re(h^H h)/r)^-1 and x += P+ Re(h^H resid)/r."""

    def __init__(self, run: TrackerRun, x0, beta0):
        self.cfg = cfg = run.cfg
        self.x = np.array(x0, float)
        self.p = np.tile(EKF_PRIOR_VAR * np.eye(2), (len(self.x), 1, 1))
        self.beta_hat = np.array(beta0, complex)
        self.g, self.k1, self.k2 = probe_kernels(EKF_PROBE_OFFSETS, cfg.m,
                                                 cfg.n)

    def probes(self) -> np.ndarray:
        return self.x[:, None, :] + EKF_PROBE_OFFSETS

    def update(self, y: np.ndarray) -> None:
        s, r = self.cfg.pilot_amp, self.cfg.noise_var / 2.0
        # a row with a non-finite observation updates on y = 0, which moves
        # nothing; it keeps its gain estimate and its covariance is reset
        finite = _rows_finite(y)
        y = np.where(finite[:, None], y, 0.0)
        beta = fit_gains(self.g, y, s)
        self.beta_hat = np.where(finite, beta, self.beta_hat)
        sb = s * beta
        resid = y - sb[:, None] * self.g
        h1 = sb[:, None] * self.k1                                # (T, 3)
        h2 = sb[:, None] * self.k2
        c1, c2 = h1.conj(), h2.conj()
        # entries (11, 12, 22) of Re(h^H h) and Re(h^H resid), per probe
        # products summed in probe order
        f11, f12, f22, u1, u2 = (_sum3((p * q).real) / r for p, q in (
            (c1, h1), (c1, h2), (c2, h2), (c1, resid), (c2, resid)))
        p_pred = self.p + EKF_PROCESS_NOISE * np.eye(2)
        ia, ib, id_ = _sym_inv2(p_pred[:, 0, 0], p_pred[:, 0, 1], p_pred[:, 1, 1])
        a, b, d = _sym_inv2(ia + f11, ib + f12, id_ + f22)
        self.x = self.x + np.stack([a * u1 + b * u2, b * u1 + d * u2], axis=1)
        # covariance reset where the observation was not finite or P+ is not
        # positive definite (a non-finite P+ fails the same test)
        det = a * d - b * b
        ok = finite & (a > 0) & (det > 0) & np.isfinite(det)
        self.p = np.where(ok[:, None, None], _sym2((a, b, d)),
                          EKF_PRIOR_VAR * np.eye(2))

    def estimate(self):
        return self.x, self.beta_hat


# ---------------------------------------------------------------------------
# operation audit
# ---------------------------------------------------------------------------

class _OpTally(np.ndarray):
    """Array type of the operation audit: ``_OpTally(a, ops)`` views ``a``.
    Every ufunc on it returns an ``_OpTally`` on the same one-item list
    ``ops`` and adds to ``ops[0]`` one operation per output element of a
    multiply or divide, and one per inner-dimension term of a matmul; other
    ufuncs and all reductions are free.  Views share ``ops`` too."""

    def __new__(cls, a, ops: list):
        out = np.asarray(a).view(cls)
        out.ops = ops
        return out

    def __array_finalize__(self, obj):
        self.ops = getattr(obj, "ops", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _OpTally) else x
                 for x in inputs]
        out = np.asarray(getattr(ufunc, method)(*plain, **kwargs))
        if method == "__call__":
            if ufunc is np.multiply or ufunc is np.divide:
                self.ops[0] += out.size
            elif ufunc is np.matmul:
                self.ops[0] += out.size * np.shape(plain[0])[-1]
        return _OpTally(out, self.ops)


def count_ops(step_kind: str, cfg: Optional[ArrayConfig] = None) -> int:
    """Audited online multiply/divide count of one tracking cycle: the
    update-direction kernel of a one-row batched tracker on a generic
    configuration, run on ``_OpTally`` arrays (both joint configurations
    share one kernel).  The joint tracker costs 39 and the direction
    tracker 28.  (A nominal hand count of 45 for the joint tracker treats
    the gain block of the inverse Fisher as precomputable; that block
    rotates with the gain-estimate phase, and the correct block solve
    implemented here is cheaper.)
    """
    from .offsets import FADING_OFFSETS, STATIC_OFFSETS
    joint = step_kind in ("jbct_static", "jbct_dii")
    if not joint and step_kind != "rbt":
        raise ValueError(f"unknown step kind: {step_kind}")
    run = TrackerRun(cfg or ArrayConfig(8, 8),
                     STATIC_OFFSETS if joint else FADING_OFFSETS,
                     DiminishingStep(1.0), np.ones(1))
    tracker = (JbctBatch if joint else RbtBatch)(run, np.zeros((1, 2)),
                                                 np.array([1.0 + 0.2j]))
    ops = [0]
    # the kernels do not branch on values, so any observation counts the same
    y = _OpTally(np.full((1, 3), 0.5 - 1.0j), ops)
    if joint:
        beta = _OpTally(tracker.estimate()[1], ops)
        _jbct_direction_batch(tracker.cache, beta, y)
    else:
        _rbt_direction_batch(tracker.q_mats, tracker.c0, tracker.i_inv, y)
    return ops[0]
