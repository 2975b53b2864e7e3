"""Derivative-free search for optimal exploration-offset sets.

The objective is a CRLB as a function of the three 2D offsets only (both
bounds are invariant to the gain and the direction).  The search runs a
coarse grid over two symmetry-reduced 4D slices to seed multi-start
Nelder-Mead refinement in the full 6D space.

``STATIC_OFFSETS`` and ``FADING_OFFSETS`` hold the asymptotically optimal
sets for the two objectives that the optimizer reproduces; they double as
the ``tableII`` / ``tableIII`` configuration presets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.optimize import minimize

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
        return crlb_di_asymptotic(deltas, 10.0 ** (self.snr_beta_db / 10.0))


@dataclass(frozen=True)
class DiFinite:
    """Finite-array direction-only CRLB at a gain SNR in dB."""

    m: int
    n: int
    snr_beta_db: float = 0.0

    def evaluate(self, deltas):
        return di_offsets_crlb(deltas, self.m, self.n,
                               10.0 ** (self.snr_beta_db / 10.0))


Objective = Union[StaticAsymptotic, StaticFinite, DiAsymptotic, DiFinite]


@dataclass(frozen=True)
class SearchConfig:
    objective: Objective
    grid_points_per_axis: int = 21
    refine_iters: int = 400
    box_halfwidth: float = 0.95

    def __post_init__(self):
        if not 0 < self.box_halfwidth < 1:
            raise ValueError("offsets are confined to the open main lobe")


@dataclass(frozen=True)
class SearchResult:
    offsets: OffsetSet
    crlb_value: float
    restarts_used: int


def _batched(objective, flat_sets):
    """Evaluate the objective on (k, 3, 2) offset sets, chunked."""
    out = np.empty(len(flat_sets))
    for lo in range(0, len(flat_sets), 65536):
        hi = min(lo + 65536, len(flat_sets))
        out[lo:hi] = objective.evaluate(flat_sets[lo:hi])
    return out


def _grid_axis(halfwidth, points):
    # avoid exact zeros/duplicate offsets on the grid
    g = np.linspace(-halfwidth, halfwidth, points)
    g[np.abs(g) < 1e-9] = 1e-3
    return g


def _slice_seeds(sc: SearchConfig):
    """Candidate sets from two symmetry-reduced 4D families:
    swap-symmetric {(a,b), (c,d), (b,a)} and axis-mirror {(a,b), (-a,b), (c,d)}.
    """
    g = _grid_axis(sc.box_halfwidth, sc.grid_points_per_axis)
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


def optimize_offsets(sc: SearchConfig, starts=None) -> SearchResult:
    """Best offset set from grid-seeded multi-start Nelder-Mead.

    ``starts`` overrides the grid seeds with explicit (3, 2) arrays (used by
    tests and by callers that already hold a good incumbent).
    """
    bh = sc.box_halfwidth
    bounds = [(-bh, bh)] * 6

    def fun(v):
        d = v.reshape(3, 2)
        val = sc.objective.evaluate(d)
        return val if np.isfinite(val) else 1e30

    if starts is None:
        seeds = _slice_seeds(sc)
        vals = _batched(sc.objective, seeds)
        order = np.argsort(vals)
        starts = _distinct_rows(seeds[order[:4096]], 16)
        incumbent_val = float(vals[order[0]])
    else:
        starts = [np.asarray(s, float) for s in starts]
        svals = [fun(s.ravel()) for s in starts]
        incumbent_val = float(min(svals))

    best_v = None
    best_val = np.inf
    for i, s0 in enumerate(starts):
        res = minimize(fun, np.clip(s0.ravel(), -bh, bh), method="Nelder-Mead",
                       bounds=bounds,
                       options=dict(maxiter=sc.refine_iters,
                                    maxfev=4 * sc.refine_iters,
                                    xatol=1e-10, fatol=1e-12))
        if res.fun < best_val:  # ties keep the lowest restart index
            best_val = float(res.fun)
            best_v = res.x
    if best_v is not None and np.isfinite(best_val):
        res = minimize(fun, best_v, method="Nelder-Mead", bounds=bounds,
                       options=dict(maxiter=4 * sc.refine_iters,
                                    maxfev=16 * sc.refine_iters,
                                    xatol=1e-12, fatol=1e-14))
        if res.fun < best_val:
            best_val = float(res.fun)
            best_v = res.x
    if best_v is None or not np.isfinite(best_val) or best_val >= 1e30:
        raise NoImprovement("no refinement start produced a finite objective")
    if np.isfinite(incumbent_val) and incumbent_val < 1e30 \
            and best_val > incumbent_val * (1 + 1e-9):
        raise NoImprovement("refinement lost to its own seed; objective "
                            "is likely inconsistent")
    deltas = best_v.reshape(3, 2)
    return SearchResult(OffsetSet(deltas), float(sc.objective.evaluate(deltas)),
                        len(starts))


def _symmetry_images(deltas):
    """All images under offset permutations, joint per-axis sign flips, and
    the coordinate swap (the invariance group of the square-array limit)."""
    d = np.asarray(deltas, float)
    for perm in itertools.permutations(range(3)):
        base = d[list(perm)]
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                flipped = base * np.array([s1, s2])
                yield flipped
                yield flipped[:, ::-1]


def canonicalize(offsets: OffsetSet) -> OffsetSet:
    """Symmetry-canonical form: the lexicographically smallest row-sorted
    image under the square-array invariance group.  Idempotent."""
    best = None
    best_key = None
    for img in _symmetry_images(offsets.deltas):
        rows = img[np.lexsort((img[:, 1], img[:, 0]))]
        key = tuple(np.round(rows.ravel(), 12))
        if best_key is None or key < best_key:
            best_key = key
            best = rows
    return OffsetSet(best.copy())


def robustness_sweep(offsets: OffsetSet, sizes, objective_kind: str,
                     snr_beta_db: float = 0.0):
    """How close a fixed offset set comes to the finite-size optimum.

    For each (m, n) in ``sizes`` runs a finite-size search and reports
    ``(size, crlb_at_offsets, crlb_min, rel_gap)``.  ``objective_kind`` is
    "static" or "di"; for "di" the sweep can also iterate over SNR values by
    passing sizes as (m, n, snr_db) triples.
    """
    rows = []
    for size in sizes:
        if len(size) == 3:
            m, n, snr = size
        else:
            (m, n), snr = size, snr_beta_db
        if objective_kind == "static":
            obj = StaticFinite(m, n)
        elif objective_kind == "di":
            obj = DiFinite(m, n, snr)
        else:
            raise ValueError("objective_kind must be 'static' or 'di'")
        sc = SearchConfig(obj, grid_points_per_axis=13)
        at = float(obj.evaluate(offsets.deltas))
        # the fixed set is a legitimate incumbent: include it as a restart
        seeds = _slice_seeds(sc)
        vals = _batched(obj, seeds)
        order = np.argsort(vals)
        starts = [offsets.deltas] + _distinct_rows(seeds[order[:4096]], 8)
        best = optimize_offsets(sc, starts=starts)
        gap = (at - best.crlb_value) / best.crlb_value
        rows.append((size, at, best.crlb_value, gap))
    return rows
