"""Derivative-free search for optimal exploration-offset sets.

The objective is a CRLB as a function of the three 2D offsets only (both
bounds are invariant to the gain and the direction).  The search runs a
coarse grid over two symmetry-reduced 4D slices to seed multi-start
Nelder-Mead refinement in the full 6D space.  The restarts run in lockstep:
each simplex step evaluates the candidate points of every restart in one
batched objective call, and the iterates are those of scipy's bounded
Nelder-Mead run on each restart alone.  A robustness sweep is one such
search over the restarts of every array size it sweeps: the finite bounds
take a size per offset set, so one call per step serves all sizes.

``STATIC_OFFSETS`` and ``FADING_OFFSETS`` hold the asymptotically optimal
sets for the two objectives that the optimizer reproduces; they double as
the ``tableII`` / ``tableIII`` configuration presets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .estimation import (crlb_di_asymptotic, crlb_static_asymptotic,
                         di_offsets_crlb, static_offsets_crlb)
from .signal import OffsetSet

STATIC_OFFSETS = OffsetSet(np.array([
    [-0.0963, 0.5098],
    [-0.2906, -0.2906],
    [0.5098, -0.0963],
]))

FADING_OFFSETS = OffsetSet(np.array([
    [0.5486, 0.2451],
    [-0.5462, 0.2482],
    [-0.0012, -0.6837],
]))

OFFSET_PRESETS = {"tableII": STATIC_OFFSETS, "tableIII": FADING_OFFSETS}


class NoImprovement(RuntimeError):
    """Every refinement start failed to produce a finite objective value."""


def db_to_power(db: float) -> float:
    """The power ratio 10^(db/10) of a level in dB.  ValueError for a level
    that is not finite or whose ratio overflows a float."""
    if not math.isfinite(db):
        raise ValueError(f"expected a finite number, got {db!r}")
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows a float power ratio") from None


@dataclass(frozen=True)
class StaticAsymptotic:
    """Large-array limit of the normalized joint gain+direction CRLB."""

    def evaluate(self, deltas):
        return crlb_static_asymptotic(deltas)


@dataclass(frozen=True)
class StaticFinite:
    """Finite-array normalized joint CRLB at SNR |s|^2/noise_var = 1 (the
    offsets minimizing it do not depend on the SNR scale)."""

    m: int
    n: int

    def evaluate(self, deltas):
        return static_offsets_crlb(deltas, self.m, self.n)


@dataclass(frozen=True)
class DiAsymptotic:
    """Large-array limit of MN times the direction-only CRLB."""

    snr_beta_db: float = 0.0

    def evaluate(self, deltas):
        return crlb_di_asymptotic(deltas, db_to_power(self.snr_beta_db))


@dataclass(frozen=True)
class DiFinite:
    """Finite-array direction-only CRLB at a gain SNR in dB."""

    m: int
    n: int
    snr_beta_db: float = 0.0

    def evaluate(self, deltas):
        return di_offsets_crlb(deltas, self.m, self.n,
                               db_to_power(self.snr_beta_db))


Objective = Union[StaticAsymptotic, StaticFinite, DiAsymptotic, DiFinite]

# Halfwidth of the search box for each offset coordinate, inside the open
# main lobe (-1, 1).
BOX_HALFWIDTH = 0.95


@dataclass(frozen=True)
class SearchConfig:
    objective: Objective
    grid_points_per_axis: int = 21
    refine_iters: int = 400


@dataclass(frozen=True)
class SearchResult:
    offsets: OffsetSet
    crlb_value: float
    restarts_used: int


# Sets per objective call.  The kernels' temporaries are O(1) per set at
# any array size: one chunk peaks at 31.5 MiB (tracemalloc) for a finite
# objective at 8x8 or 64x64, and at 29.5 MiB for a limit objective.
_CHUNK_SETS = 65536


def _batched(objective, flat_sets, sizes=None):
    """Evaluate the objective on (k, 3, 2) offset sets in chunks of
    ``_CHUNK_SETS``.  ``sizes`` = (m, n), two integer arrays of k array
    sizes, replace a finite objective's ``m`` and ``n`` set by set."""
    out = np.empty(len(flat_sets))
    for lo in range(0, len(flat_sets), _CHUNK_SETS):
        part = slice(lo, lo + _CHUNK_SETS)
        obj = objective if sizes is None else \
            replace(objective, m=sizes[0][part], n=sizes[1][part])
        out[part] = obj.evaluate(flat_sets[part])
    return out


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


def _grid_axis(points):
    # avoid exact zeros/duplicate offsets on the grid
    g = np.linspace(-BOX_HALFWIDTH, BOX_HALFWIDTH, points)
    g[np.abs(g) < 1e-9] = 1e-3
    return g


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


def _distinct_rows(sets, count):
    """First ``count`` sets pairwise separated in offset space."""
    picked = []
    for s in sets:
        if all(np.abs(s - p).max() > 0.05 for p in picked):
            picked.append(s)
        if len(picked) == count:
            break
    return picked


def _grid_starts(sc: SearchConfig, count: int):
    """The ``count`` best pairwise-distinct grid seeds and the best grid
    value."""
    seeds = _slice_seeds(sc)
    vals = _batched(sc.objective, seeds)
    order = np.argsort(vals)
    return _distinct_rows(seeds[order[:4096]], count), float(vals[order[0]])


def _search(objective, starts, refine_iters, sizes=None, incumbents=None):
    """Multi-start Nelder-Mead from each search's ``starts``, then a polish
    from each search's best point: every search in one lockstep run per
    stage, with one objective call per simplex step.

    ``starts`` lists the (3, 2) start sets of each search.  With ``sizes``
    = (m, n), integer arrays of one size per search, search s runs the
    finite ``objective`` at m[s] x n[s]; without, there is one search, on
    ``objective`` itself.  ``incumbents``, the best value each search
    already holds, defaults to the best value among its starts.  Returns a
    :class:`SearchResult` per search; :class:`NoImprovement` names the size
    of a failing search.
    """
    bh = BOX_HALFWIDTH
    x0 = np.concatenate([np.reshape(st, (-1, 6)) for st in starts])
    owner = np.repeat(np.arange(len(starts)), [len(st) for st in starts])

    def values(search):
        """f of a lockstep run whose restart r belongs to search[r]."""
        def f(points, restarts):
            per_set = None
            if sizes is not None:
                s = search[restarts]
                per_set = (sizes[0][s], sizes[1][s])
            vals = _batched(objective, points.reshape(-1, 3, 2), per_set)
            return np.where(np.isfinite(vals), vals, 1e30)
        return f

    if incumbents is None:
        start_vals = values(owner)(x0, np.arange(len(x0)))
        incumbents = [float(start_vals[owner == s].min())
                      for s in range(len(starts))]
    sim, fsim, _, _ = _nelder_mead(values(owner), x0, -bh, bh, refine_iters,
                                   4 * refine_iters, 1e-10, 1e-12)
    fun = fsim.min(axis=1)
    # ties keep the lowest restart index
    firsts = [int(np.argmin(np.where(owner == s, fun, np.inf)))
              for s in range(len(starts))]
    best_v, best_val = sim[firsts, 0], fun[firsts]
    sim, fsim, _, _ = _nelder_mead(values(np.arange(len(starts))), best_v,
                                   -bh, bh, 4 * refine_iters,
                                   16 * refine_iters, 1e-12, 1e-14)
    polished = fsim.min(axis=1) < best_val
    best_v[polished] = sim[polished, 0]
    best_val[polished] = fsim[polished].min(axis=1)
    results = []
    for s, incumbent in enumerate(incumbents):
        obj, where = objective, ""
        if sizes is not None:
            m, n = int(sizes[0][s]), int(sizes[1][s])
            obj, where = replace(objective, m=m, n=n), f" at {m}x{n}"
        val = float(best_val[s])
        if val >= 1e30:
            raise NoImprovement("no refinement start produced a finite "
                                "objective" + where)
        if np.isfinite(incumbent) and incumbent < 1e30 \
                and val > incumbent * (1 + 1e-9):
            raise NoImprovement("refinement lost to its own seed; objective "
                                "is likely inconsistent" + where)
        deltas = best_v[s].reshape(3, 2)
        results.append(SearchResult(OffsetSet(deltas),
                                    float(obj.evaluate(deltas)),
                                    len(starts[s])))
    return results


def optimize_offsets(sc: SearchConfig, starts=None) -> SearchResult:
    """Best offset set from grid-seeded multi-start Nelder-Mead.

    ``starts`` overrides the grid seeds with explicit (3, 2) arrays (used by
    tests and by callers that already hold a good incumbent).
    """
    incumbents = None
    if starts is None:
        starts, best = _grid_starts(sc, 16)
        incumbents = [best]
    return _search(sc.objective, [starts], sc.refine_iters,
                   incumbents=incumbents)[0]


def _symmetry_images(deltas):
    """All images under offset permutations, joint per-axis sign flips, and
    the coordinate swap (the invariance group of the square-array limit)."""
    d = np.asarray(deltas, float)
    for perm, s1, s2 in itertools.product(itertools.permutations(range(3)),
                                          (1.0, -1.0), (1.0, -1.0)):
        flipped = d[list(perm)] * np.array([s1, s2])
        yield flipped
        yield flipped[:, ::-1]


def canonicalize(offsets: OffsetSet) -> OffsetSet:
    """Symmetry-canonical form: the lexicographically smallest row-sorted
    image under the square-array invariance group.  Idempotent."""
    images = (img[np.lexsort((img[:, 1], img[:, 0]))]
              for img in _symmetry_images(offsets.deltas))
    best = min(images, key=lambda rows: tuple(np.round(rows.ravel(), 12)))
    return OffsetSet(best.copy())


def robustness_sweep(offsets: OffsetSet, objective, sizes):
    """How close a fixed offset set comes to the finite-size optimum.

    ``objective`` is a :class:`StaticFinite` or :class:`DiFinite`.  For each
    (m, n) in ``sizes`` searches the same objective at that size (any SNR
    kept), seeded per size and with every size's restarts in one lockstep
    search, and reports ``((m, n), crlb_at_offsets, crlb_min, rel_gap)``.
    """
    if not sizes:
        return []
    at, starts = [], []
    for m, n in sizes:
        sc = SearchConfig(replace(objective, m=m, n=n),
                          grid_points_per_axis=13)
        at.append(float(sc.objective.evaluate(offsets.deltas)))
        # the fixed set is a legitimate incumbent: include it as a restart
        starts.append([offsets.deltas] + _grid_starts(sc, 8)[0])
    best = _search(objective, starts, sc.refine_iters, np.array(sizes).T)
    return [((m, n), a, b.crlb_value, (a - b.crlb_value) / b.crlb_value)
            for (m, n), a, b in zip(sizes, at, best)]
