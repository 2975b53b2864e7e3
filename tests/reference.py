"""Test oracles: the references the library's code is compared against.

Per-axis kernels: ``axis_sums``, the closed-form geometric sums of one
axis at a time (the library takes both axes in one pass), and the kernels
built from it (``probe_kernels_per_axis``, ``gain_kernel_per_axis``,
``beam_gain_kernel_per_axis``, ``probe_kernels_limit_per_axis``), which
the one-pass kernels must equal bit for bit.

Explicit steering matrices, O(MN) per probe: ``steering_derivative``,
the channel vector's Jacobian ``jacobian``, an EBM's probe columns
``ebm_columns`` and the noiseless mean W^H a from them
(``noiseless_mean``).  The library forms the same quantities from the
probe kernels (``signal.observation_matrix``, ``signal.noiseless_mean``).

Per-trial references, one trial at a time, each function drawing from the
trial's generator call by call: the trial's generator ``_trial_rng``, a
trial's row of initial draws ``initial_draws_row`` (one ``uniform`` call
per value), the channel model (``init_channel``, ``evolve``, the scalar
element gain ``element_gain``), the observation ``observe``, the
in-main-lobe initial estimate with its bootstrap gain fit, the explicit-EBM
gain fit, and the scalar steps of the two baselines.  The library runs only
the batched counterparts (``harness._trial_rngs``,
``channels.initial_draws``, ``init_channel_batch``,
``initial_estimate_batch``, ``evolve_chunk``, ``signal.observe_fast``,
``trackers.BeamSwitchBatch``, ``EkfBatch``).

Explicit fading-gain model: the covariance ``sigma_di``, the log-density
``di_log_pdf`` and the score ``di_score`` (the library's
``estimation._di_score`` for one observation), which tests difference
against the log-density.  And ``read_csv``, the inverse of
``harness.format_csv``.

Offset search: the lockstep bounded Nelder-Mead ``_nelder_mead`` (scipy's
iterates, restart by restart), the oracle whose minima the library's
Newton search is compared against, and ``_slice_seeds``, the whole 4D seed
families whose symmetry classes the library's seeds must cover.  Only
tests import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from beamtrack.arrays import (_SERIES_X, Aoa, ArrayConfig, PatternConfig,
                              _combine, _horner, _limit_axis, _limit_combine,
                              _ratio_series, _xy, dpv_from_aoa,
                              element_gain_angles, probe_kernels,
                              steering_vector)
from beamtrack.channels import (INITIAL_DRAWS, DynamicI, QuasiStatic,
                                ScenarioConfig, ScenarioKind, bootstrap_gains)
from beamtrack.estimation import DiModel, _di_score, _di_score_terms
from beamtrack.harness import CSV_HEADER, MetricsRecord
from beamtrack.offsets import (SearchConfig, _grid_axis, _lex_key,
                               swap_applies)
from beamtrack.signal import (ChannelParams, Ebm, OffsetSet,
                              observation_kernels)
from beamtrack.trackers import (BEAM_SPACING, EKF_PRIOR_VAR,
                                EKF_PROBE_OFFSETS, EKF_PROCESS_NOISE)

# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Trial ``trial``'s generator, the random-number contract's words."""
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(trial,)))


def initial_draws_row(sc: ScenarioConfig, rng: np.random.Generator,
                      halfwidth: float) -> np.ndarray:
    """One trial's row of ``channels.initial_draws``, each uniform drawn by
    its own ``Generator.uniform`` call."""
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


# ---------------------------------------------------------------------------
# per-axis kernels
# ---------------------------------------------------------------------------


def axis_dirichlet(d, size: int, slope: bool = False):
    """``arrays._dirichlet`` of one axis: 1-D offsets ``d``, scalar size."""
    k = np.round(d / size)
    x = np.pi * (d - k * size)
    u = x / size
    trig = sx, cx, su, cu = np.sin(x), np.cos(x), np.sin(u), np.cos(u)
    small = np.abs(x) < _SERIES_X
    den = np.where(small, 1.0, su)
    ratio = sx / den
    f = (size * cx * su - sx * cu) / (den * den) if slope else None
    if small.any():
        a = _ratio_series(size)
        us = u[small]
        u2 = us * us
        ratio[small] = _horner(a, u2)
        if slope:
            f[small] = us * _horner([2 * j * c for j, c in enumerate(a)][1:],
                                    u2)
    return k, trig, ratio, f


def axis_sums(d, size: int, deriv: bool):
    """``arrays._axis_sums`` of one axis, for offsets ``d`` of any shape:
    the per-axis oracle of the library's one-pass form."""
    _, (sx, cx, su, cu), ratio, f = axis_dirichlet(d.reshape(-1), size, deriv)
    pc = cx * cu + sx * su
    ps = sx * cu - cx * su
    s = np.empty(ratio.shape, complex)
    s.real = pc * ratio
    s.imag = -ps * ratio
    t = None
    if deriv:
        a = 0.5 * (size - 1) * ratio
        b = 0.5 * f
        t = np.empty(ratio.shape, complex)
        t.real = pc * a + ps * b
        t.imag = pc * b - ps * a
        t = t.reshape(d.shape)
    return s.reshape(d.shape), t


def probe_kernels_per_axis(deltas, m: int, n: int):
    """``arrays.probe_kernels`` with one :func:`axis_sums` pass per axis."""
    d = np.asarray(deltas, float)
    return _combine(*axis_sums(d[..., 0], m, True),
                    *axis_sums(d[..., 1], n, True), m, n)


def gain_kernel_per_axis(deltas, m: int, n: int):
    """``arrays._gain_kernel`` with one :func:`axis_sums` pass per axis."""
    d = np.asarray(deltas, float)
    s1, _ = axis_sums(d[..., 0], m, False)
    s2, _ = axis_sums(d[..., 1], n, False)
    return s1 * s2 / np.sqrt(m * n)


def beam_gain_kernel_per_axis(delta, m: int, n: int):
    """``arrays.beam_gain_kernel`` of (..., 2) offsets, one
    :func:`axis_dirichlet` pass per axis."""
    d = np.asarray(delta, float)

    def ratio(dd, size):
        k, _, r, _ = axis_dirichlet(dd.reshape(-1), size)
        h = 0.5 * k * (size - 1)
        return np.where(np.floor(h) == h, r, -r).reshape(dd.shape)

    return ratio(d[..., 0], m) * ratio(d[..., 1], n)


def probe_kernels_limit_per_axis(deltas):
    """The direct route of ``arrays.probe_kernels_limit``, one
    ``_limit_axis`` pass per axis."""
    d = np.asarray(deltas, float)
    lead = d.shape[:-1]
    return tuple(k.reshape(lead) for k in _limit_combine(
        *_limit_axis(d[..., 0].reshape(-1)),
        *_limit_axis(d[..., 1].reshape(-1))))


# ---------------------------------------------------------------------------
# explicit steering matrices
# ---------------------------------------------------------------------------


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


def jacobian(cfg: ArrayConfig, psi: ChannelParams) -> np.ndarray:
    """Jacobian of the channel vector w.r.t. psi: columns
    [a, j a, beta da/dx1, beta da/dx2], shape (MN, 4)."""
    a = steering_vector(cfg, psi.x)
    return np.stack([a, 1j * a,
                     psi.beta * steering_derivative(cfg, psi.x, 1),
                     psi.beta * steering_derivative(cfg, psi.x, 2)], axis=1)


def ebm_columns(cfg: ArrayConfig, ebm: Ebm) -> np.ndarray:
    """The EBM's probe columns a(d_i)/sqrt(MN), shape (MN, 3)."""
    cols = np.stack([steering_vector(cfg, d) for d in ebm.directions], axis=1)
    return cols / np.sqrt(cfg.size)


def noiseless_mean(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm) -> np.ndarray:
    """Deterministic part of the observation, |s| beta W^H a(x), from the
    explicit columns."""
    a = steering_vector(cfg, psi.x)
    return cfg.pilot_amp * psi.beta * (ebm_columns(cfg, ebm).conj().T @ a)


# ---------------------------------------------------------------------------
# channel model
# ---------------------------------------------------------------------------


@dataclass
class ChannelState:
    """Ground truth for one trial at one cycle: arrival angle, its direction
    coordinates, the path gain, and the pattern-weighted equivalent gain."""

    aoa: Aoa
    x: np.ndarray
    beta_c: complex
    beta_eff: complex

    @property
    def params(self) -> ChannelParams:
        return ChannelParams.from_parts(self.beta_eff, self.x)


def element_gain(pc: PatternConfig, aoa: Aoa) -> float:
    """Element gain as a linear amplitude factor (multiplies the path gain)."""
    return float(element_gain_angles(pc, aoa.theta, aoa.phi))


def observe(cfg: ArrayConfig, psi: ChannelParams, ebm: Ebm,
            rng: np.random.Generator) -> np.ndarray:
    """One noisy exploration cycle: the explicit noiseless mean plus i.i.d.
    circularly-symmetric complex Gaussian noise of unit variance."""
    mean = noiseless_mean(cfg, psi, ebm)
    z = np.sqrt(0.5) * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return mean + z


def _cn(rng: np.random.Generator, var: float) -> complex:
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
    x = dpv_from_aoa(cfg, aoa)
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
        return ChannelState(state.aoa, state.x, beta_c, eta * beta_c)
    t_rng, p_rng = sc.ranges()
    theta = _reflect(state.aoa.theta + rng.normal(0.0, kind.delta_a), *t_rng)
    phi = _reflect(state.aoa.phi + rng.normal(0.0, kind.delta_a), *p_rng)
    aoa = Aoa(theta, phi)
    beta_c = complex(kind.rho * state.beta_c + _cn(rng, 1.0 - kind.rho**2))
    x = dpv_from_aoa(cfg, aoa)
    eta = element_gain(sc.pattern, aoa)
    return ChannelState(aoa, x, beta_c, eta * beta_c)


def initial_estimate(state: ChannelState, cfg: ArrayConfig,
                     rng: np.random.Generator, halfwidth: float,
                     offsets: OffsetSet) -> ChannelParams:
    """In-main-lobe initial estimate: the direction is uniform within
    +-halfwidth of the truth per coordinate; the gain comes from a bootstrap
    least-squares fit over one extra probing cycle."""
    x0 = state.x + rng.uniform(-halfwidth, halfwidth, 2)
    beta0 = complex(bootstrap_gains(cfg, offsets, state.x, state.beta_eff,
                                    x0, rng.standard_normal(6)))
    return ChannelParams.from_parts(beta0, x0)


def bootstrap_gain(cfg: ArrayConfig, ebm: Ebm, center, y) -> complex:
    """Least-squares gain fit from one cycle observed with an EBM built at
    ``center``: beta = (e^H e)^-1 e^H y / s with e = W^H a(center)."""
    e, _, _ = observation_kernels(cfg, center, ebm)
    denom = cfg.pilot_amp * float(np.vdot(e, e).real)
    if denom < 1e-30:
        return 0.0 + 0.0j
    return complex(np.vdot(e, np.asarray(y, complex)) / denom)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


@dataclass
class BeamSwitchState:
    """Grid-of-beams baseline: the estimate lives on a uniform direction
    lattice; each cycle probes the current beam plus its two neighbors along
    one axis (axes alternate between cycles)."""

    x: np.ndarray
    beta_hat: complex
    k: int
    limits: tuple


def beam_switch_tracker(cfg: ArrayConfig, x0) -> BeamSwitchState:
    limits = (cfg.m / 2.0, cfg.n / 2.0)
    x = np.asarray(_xy(x0), float)
    snapped = np.round(x / BEAM_SPACING) * BEAM_SPACING
    snapped = np.clip(snapped, [-limits[0], -limits[1]], list(limits))
    return BeamSwitchState(snapped, 0.0 + 0.0j, 0, limits)


def beam_switch_probes(state: BeamSwitchState) -> np.ndarray:
    axis = state.k % 2
    step = np.zeros(2)
    step[axis] = BEAM_SPACING
    probes = np.stack([state.x, state.x + step, state.x - step])
    lim = np.array(state.limits)
    return np.clip(probes, -lim, lim)


def baseline_beam_switch_step(state: BeamSwitchState, cfg: ArrayConfig,
                              y) -> BeamSwitchState:
    """Switch to the strongest of the probed beams; matched-filter gain."""
    probes = beam_switch_probes(state)
    y = np.asarray(y, complex)
    i = int(np.argmax(np.abs(y)))
    state.x = probes[i].copy()
    state.beta_hat = complex(y[i] / (cfg.pilot_amp * np.sqrt(cfg.size)))
    state.k += 1
    return state


@dataclass
class EkfState:
    x: np.ndarray
    p: np.ndarray
    beta_hat: complex
    k: int


def ekf_tracker(cfg: ArrayConfig, x0) -> EkfState:
    return EkfState(np.asarray(_xy(x0), float), EKF_PRIOR_VAR * np.eye(2),
                    0.0 + 0.0j, 0)


def ekf_probes(state: EkfState) -> np.ndarray:
    return state.x + EKF_PROBE_OFFSETS


def baseline_ekf_step(state: EkfState, cfg: ArrayConfig, y) -> EkfState:
    """Identity-dynamics EKF on the 2D direction with a per-cycle
    least-squares gain refit and a Joseph-form covariance update."""
    y = np.asarray(y, complex)
    p_pred = state.p + EKF_PROCESS_NOISE * np.eye(2)
    deltas = EKF_PROBE_OFFSETS  # probes minus predicted state
    g, k1, k2 = probe_kernels(deltas, cfg.m, cfg.n)
    s = cfg.pilot_amp
    denom = s * float(np.vdot(g, g).real)
    beta = complex(np.vdot(g, y) / denom) if denom > 1e-30 else 0.0 + 0.0j
    state.beta_hat = beta
    mean = s * beta * g
    h_cplx = s * beta * np.stack([k1, k2], axis=1)
    h_r = np.vstack([h_cplx.real, h_cplx.imag])
    resid = np.concatenate([(y - mean).real, (y - mean).imag])
    r_mat = 0.5 * np.eye(6)
    s_mat = h_r @ p_pred @ h_r.T + r_mat
    # pseudo-inverse: identical to the inverse when the measurement noise
    # makes S full rank, and the correct rank-2 limit when it vanishes
    gain = p_pred @ h_r.T @ np.linalg.pinv(s_mat, rcond=1e-12)
    state.x = state.x + gain @ resid
    ikh = np.eye(2) - gain @ h_r
    p_new = ikh @ p_pred @ ikh.T + gain @ r_mat @ gain.T
    p_new = 0.5 * (p_new + p_new.T)
    if not np.all(np.isfinite(p_new)) or np.min(np.linalg.eigvalsh(p_new)) < -1e-12:
        p_new = EKF_PRIOR_VAR * np.eye(2)
    state.p = p_new
    state.k += 1
    return state


# ---------------------------------------------------------------------------
# explicit fading-gain model
# ---------------------------------------------------------------------------


def sigma_di(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm):
    """Determinant and inverse of the observation covariance
    Sigma = |s|^2 sigma_beta^2 g g^H + I3."""
    g, _, _ = observation_kernels(cfg, x, ebm)
    c = cfg.pilot_amp**2 * model.sigma_beta_sq
    det = c * float(np.vdot(g, g).real) + 1.0
    inv = np.eye(3) - (c / det) * np.outer(g, g.conj())
    return float(det), inv


def di_log_pdf(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm, y) -> float:
    """Log-density of one observation under the fading-gain model."""
    det, inv = sigma_di(cfg, x, model, ebm)
    y = np.asarray(y, complex)
    return float(-3 * np.log(np.pi) - np.log(det)
                 - np.real(y.conj() @ inv @ y))


def di_score(cfg: ArrayConfig, x, model: DiModel, ebm: Ebm, y) -> np.ndarray:
    """Gradient of :func:`di_log_pdf` in the direction coordinates, by the
    library's score."""
    q_mats, c0 = _di_score_terms(*observation_kernels(cfg, x, ebm),
                                 cfg.pilot_amp**2 * model.sigma_beta_sq)
    return _di_score(q_mats, c0, np.asarray(y, complex))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def read_csv(path) -> list:
    """The records of a CSV written by ``harness.emit_csv``."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header!r}")
        for line in fh:
            ecc, expl, mh, mx, cr, tr = line.strip().split(",")
            records.append(MetricsRecord(int(ecc), int(expl), float(mh),
                                         float(mx), float(cr), int(tr)))
    return records


# ---------------------------------------------------------------------------
# offset search
# ---------------------------------------------------------------------------


def _nelder_mead(f, x0, lo, hi, maxiter, maxfev, xatol, fatol):
    """Bounded Nelder-Mead from each row of ``x0`` (R, n), all in lockstep.

    Each restart follows scipy's ``minimize(method="Nelder-Mead",
    bounds=...)`` step for step: the coefficients 1, 2, 1/2, 1/2, the
    initial simplex (5% steps, 0.00025 for zero coordinates, reflected into
    the box), clipping of every new vertex, the ``xatol``/``fatol`` test, the
    per-restart ``maxiter``/``maxfev`` counters, and an iteration that
    ``maxfev`` cuts short (a partly shrunk simplex included).
    ``f(points, restarts)`` maps (k, n) points and the (k,) index of the
    restart each belongs to to (k,) values, each independent of the batch.
    One call per step evaluates the reflection, expansion and both
    contraction points of every running restart; a second call evaluates
    shrink points.  ``nfev`` counts only the points scipy would have
    evaluated.

    Returns scipy's final simplex ``(sim, fsim)``, (R, n + 1, n) and
    (R, n + 1), and ``nit``, ``nfev`` per restart; scipy's ``x`` is
    ``sim[:, 0]`` and its ``fun`` is ``fsim.min(axis=1)``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.clip(np.atleast_2d(np.asarray(x0, float)), lo, hi)
    r, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    first = min(n + 1, maxfev)
    fsim = np.full((r, n + 1), np.inf)
    fsim[:, :first] = f(sim[:, :first].reshape(-1, n),
                        np.repeat(np.arange(r), first)).reshape(r, first)
    for _ in range(2):  # scipy sorts the initial simplex twice
        sim, fsim = _sort_simplex(sim, fsim)
    nfev = np.full(r, first)
    nit = np.ones(r, int)
    done = np.zeros(r, bool)
    while True:
        done |= (nfev >= maxfev) | (nit >= maxiter)
        with np.errstate(invalid="ignore"):  # inf - inf before any step
            xspan = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2))
            fspan = np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1)
        done |= (xspan <= xatol) & (fspan <= fatol)
        run = np.flatnonzero(~done)
        if not run.size:
            break
        s, fs, used = sim[run], fsim[run], nfev[run] + 1
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        cand = np.clip(np.stack([
            (1 + rho) * xbar - rho * worst,
            (1 + rho * chi) * xbar - rho * chi * worst,
            (1 + psi * rho) * xbar - psi * rho * worst,
            (1 - psi) * xbar + psi * worst], axis=1), lo, hi)
        fxr, fxe, fxc, fxcc = f(cand.reshape(-1, n),
                                np.repeat(run, 4)).reshape(-1, 4).T
        # scipy's branches: which candidate replaces the worst vertex
        expand = fxr < fs[:, 0]
        reflect = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~reflect & (fxr < fs[:, -1])
        inside = ~expand & ~reflect & ~outside
        pick = np.select([expand & (fxe < fxr), outside, inside], [1, 2, 3], 0)
        accept = (expand | reflect | (outside & (fxc <= fxr))
                  | (inside & (fxcc < fs[:, -1])))
        # a second evaluation past maxfev stops scipy before any change
        cut = ~reflect & (used >= maxfev)
        used = used + (~reflect & ~cut)
        whole = accept & ~cut
        rows = np.flatnonzero(whole)
        s[rows, -1] = cand[rows, pick[rows]]
        fs[rows, -1] = np.stack([fxr, fxe, fxc, fxcc], 1)[rows, pick[rows]]
        shrink = np.flatnonzero(~accept & ~cut)
        if shrink.size:
            best = s[shrink, :1]
            pts = np.clip(best + sigma * (s[shrink, 1:] - best), lo, hi)
            vals = f(pts.reshape(-1, n),
                     np.repeat(run[shrink], n)).reshape(-1, n)
            # with budget b < n left, scipy evaluates vertices 1..b and
            # moves vertex b+1 before it stops
            left = maxfev - used[shrink]
            j = np.arange(1, n + 1)
            s[shrink, 1:] = np.where((j <= left[:, None] + 1)[..., None],
                                     pts, s[shrink, 1:])
            fs[shrink, 1:] = np.where(j <= left[:, None], vals, fs[shrink, 1:])
            used[shrink] += np.minimum(left, n)
            whole[shrink] = left >= n
        sim[run], fsim[run] = _sort_simplex(s, fs)
        nfev[run] = used
        nit[run] += whole
    return sim, fsim, nit, nfev


def _sort_simplex(sim, fsim):
    """Order each simplex by value, as scipy's ``np.argsort`` step does."""
    ind = np.argsort(fsim, axis=1)
    return (np.take_along_axis(sim, ind[..., None], 1),
            np.take_along_axis(fsim, ind, 1))


def _slice_seeds(sc: SearchConfig):
    """Candidate sets from two symmetry-reduced 4D families:
    swap-symmetric {(a,b), (c,d), (b,a)} and axis-mirror {(a,b), (-a,b), (c,d)}.
    """
    g = _grid_axis(sc.grid_points_per_axis)
    aa, bb, cc, dd = np.meshgrid(g, g, g, g, indexing="ij")
    a, b, c, d = (v.ravel() for v in (aa, bb, cc, dd))
    swap = np.stack([np.stack([a, b], -1), np.stack([c, d], -1),
                     np.stack([b, a], -1)], axis=1)
    mirror = np.stack([np.stack([a, b], -1), np.stack([-a, b], -1),
                       np.stack([c, d], -1)], axis=1)
    return np.concatenate([swap, mirror], axis=0)


def _class_seeds(sc: SearchConfig):
    """The sets of ``offsets._slice_seeds``, one image per symmetry class of
    each family, built from grid coordinates instead of grid indices: the
    index inequalities pick the sets, then their floats are taken from the
    grid, with -a negated in place for the mirror family."""
    p = sc.grid_points_per_axis
    q = p - 1
    g = _grid_axis(p)
    swap = swap_applies(sc.objective)
    ab = np.triu_indices(p)
    cd = np.triu_indices(p) if swap else np.indices((p, p)).reshape(2, -1)
    i, j = np.indices((len(ab[0]), len(cd[0]))).reshape(2, -1)
    a, b, c, d = ab[0][i], ab[1][i], cd[0][j], cd[1][j]
    fc, fd = (q - d, q - c) if swap else (q - c, q - d)
    keep = _lex_key(p, a, b, c, d) <= _lex_key(p, q - b, q - a, fc, fd)
    a, b, c, d = (g[v[keep]] for v in (a, b, c, d))
    swap_sets = np.stack([a, b, c, d, b, a], -1)
    half = np.arange(q // 2 + 1)
    bd = np.indices((p, p)).reshape(2, -1)
    bd = bd[:, _lex_key(p, *bd) <= _lex_key(p, *(q - bd))]
    i, j, k = np.indices((len(half), len(half), len(bd[0]))).reshape(3, -1)
    a, b, c, d = g[half[i]], g[bd[0][k]], g[half[j]], g[bd[1][k]]
    mirror_sets = np.stack([a, b, -a, b, c, d], -1)
    return np.concatenate([swap_sets, mirror_sets]).reshape(-1, 3, 2)
