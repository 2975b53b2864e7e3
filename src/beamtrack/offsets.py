"""Search for optimal exploration-offset sets.

The objective is a CRLB as a function of the three 2D offsets only (both
bounds are invariant to the gain and the direction).  The bounds are also
invariant under a group of maps of the offsets: their permutations, the
sign flip of one coordinate of all three and, on a square array or in the
large-array limit, the coordinate swap.  The search runs a coarse grid
over two 4D families of sets, one image of each class of that group, to
seed multi-start damped Newton refinement in the full 6D space, on
central-difference derivatives; its restarts are the best grid sets that
are pairwise distinct up to the group.  The restarts run in lockstep:
each Newton iteration evaluates the derivative stencils of every restart
in one batched objective call and their trial steps in a second, and each
restart's iterates are those of a run on its own.  A robustness sweep is
one such search over the restarts of every array size it sweeps: the
finite bounds take a size per offset set, so one call serves all sizes,
and one call evaluates the grid seeds of all sizes that share a seed
index.

The grid seeds and the Newton stencils reuse a few coordinate values in
many sets, so they reach the objectives as those values and an integer
index of the sets into them (``evaluate(values, index)``): the kernels'
per-axis factors are then computed once per value and array size and
gathered, with the bits of ``evaluate(values[index])``.  The trial steps
and single sets take the direct route.

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

    def evaluate(self, deltas, index=None):
        return crlb_static_asymptotic(deltas, index)


@dataclass(frozen=True)
class StaticFinite:
    """Finite-array normalized joint CRLB at SNR |s|^2/noise_var = 1 (the
    offsets minimizing it do not depend on the SNR scale)."""

    m: int
    n: int

    def evaluate(self, deltas, index=None):
        return static_offsets_crlb(deltas, self.m, self.n, index=index)


@dataclass(frozen=True)
class DiAsymptotic:
    """Large-array limit of MN times the direction-only CRLB."""

    snr_beta_db: float = 0.0

    def evaluate(self, deltas, index=None):
        return crlb_di_asymptotic(deltas, db_to_power(self.snr_beta_db),
                                  index)


@dataclass(frozen=True)
class DiFinite:
    """Finite-array direction-only CRLB at a gain SNR in dB."""

    m: int
    n: int
    snr_beta_db: float = 0.0

    def evaluate(self, deltas, index=None):
        return di_offsets_crlb(deltas, self.m, self.n,
                               db_to_power(self.snr_beta_db), index)


Objective = Union[StaticAsymptotic, StaticFinite, DiAsymptotic, DiFinite]

# Halfwidth of the search box for each offset coordinate, inside the open
# main lobe (-1, 1).
BOX_HALFWIDTH = 0.95
# Most grid points per axis of the seed grid: 41 points give 741,762 seed
# sets (1,094,562 off a square array), 53 MB of offsets.
MAX_GRID_POINTS = 41


@dataclass(frozen=True)
class SearchConfig:
    objective: Objective
    grid_points_per_axis: int = 21
    refine_iters: int = 400  # Newton iterations per restart, at most


@dataclass(frozen=True)
class SearchResult:
    offsets: OffsetSet
    crlb_value: float
    restarts_used: int


# Sets per objective call.  The temporaries are O(1) per set at any array
# size, and the bound algebra's set the peak (tracemalloc): one chunk of
# float sets peaks at 31.5 MiB for a finite objective at 8x8 or 64x64 and
# at 29.5 MiB for a limit objective; given as values and an index (the
# kernel tables), at 29.5 MiB for both.  With a size per set, 33.0-36.0
# MiB for float sets and 29.5-32.5 MiB with the index.
_CHUNK_SETS = 65536


def _batched(objective, flat_sets, sizes=None, index=None):
    """Evaluate the objective on (k, 3, 2) offset sets, or with an integer
    ``index`` (k, 3, 2) on the sets flat_sets[index] of coordinate values,
    in chunks of ``_CHUNK_SETS`` sets.  ``sizes`` = (m, n), two integer
    arrays of k array sizes, replace a finite objective's ``m`` and ``n``
    set by set."""
    out = np.empty(len(flat_sets if index is None else index))
    for lo in range(0, len(out), _CHUNK_SETS):
        part = slice(lo, lo + _CHUNK_SETS)
        obj = objective if sizes is None else \
            replace(objective, m=sizes[0][part], n=sizes[1][part])
        out[part] = obj.evaluate(flat_sets[part]) if index is None else \
            obj.evaluate(flat_sets, index[part])
    return out


# The Newton iteration: central differences with step _H, trial step
# lengths _LADDER, moves of these lengths along the most negative curvature
# direction (they leave saddles whose gradient is exactly zero), and a
# restart stops after _STALL iterations without a relative gain above _GAIN.
# An iterate at 1e30 steps to the best point of a stencil of step _ESCAPE,
# wide enough that its derivatives are not taken next to the singular set.
_H, _ESCAPE = 1e-4, 0.05
_LADDER = 0.5 ** np.arange(6)
_CURVE = 0.25 ** np.arange(1, 5)
_STEPS = np.array([-1.0, 0.0, 1.0])
_STALL, _GAIN = 3, 1e-13


def _stencil(n):
    """The 1 + 2n + 2n(n - 1) central-difference offsets in n dimensions
    (the centre, +-e_i, then the (+-e_i +-e_j) corners of each pair i < j,
    sign pattern by sign pattern) and the pair indices."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    corners = [a * eye[i] + b * eye[j]
               for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.concatenate([np.zeros((1, n)), eye, -eye, *corners]), i, j


def _newton(f, x0, lo, hi, maxiter):
    """Projected, saddle-free damped Newton from each row of ``x0`` (R, n)
    in the box [lo, hi], all restarts in lockstep.

    ``f(points, restarts, index=None)`` maps (k, n) points, or with an
    integer ``index`` (k, n) the points points[index] of 1-D coordinate
    values, and the (k,) index of the restart each belongs to to (k,)
    values, each independent of the batch, so every restart's iterates are
    those of a run on its own.  Each iteration makes two calls for all
    running restarts: the central-difference stencil, centred inside
    [lo + h, hi - h] and passed as the three values c - h, c, c + h of each
    coordinate c with the fixed pattern of the stencil's index, gives the
    gradient and Hessian; then a ladder of step lengths along
    -V diag(1/max(|w|, lam max|w|)) V^T g, with (w, V) the Hessian's
    eigenpairs, and moves along the most negative eigenvector.  The best
    trial point replaces the iterate only if it is lower.  A coordinate on
    the bound whose gradient points outward is held fixed; lam falls
    tenfold after a full step and grows tenfold after a failed one.  An
    iterate whose value is 1e30 or more has no derivatives: it moves to the
    best point of a stencil of the wider step ``_ESCAPE``.

    Returns the final points (R, n) and their values (R,).
    """
    x = np.clip(np.atleast_2d(np.asarray(x0, float)), lo, hi)
    r, n = x.shape
    fx = f(x, np.arange(r))
    lam = np.full(r, 1e-3)
    stall = np.zeros(r, int)
    offs, pi, pj = _stencil(n)
    # a stencil point's column in its restart's row of 3n values
    column = offs.astype(int) + 1 + 3 * np.arange(n)
    diag = np.arange(n)
    for _ in range(maxiter):
        run = np.flatnonzero(stall < _STALL)
        if not run.size:
            break
        xr, fr, k = x[run], fx[run], len(run)
        finite = fr < 1e30
        h = np.where(finite, _H, _ESCAPE)[:, None]
        centre = np.clip(xr, lo + h, hi - h)
        values = centre[:, :, None] + h[:, :, None] * _STEPS
        index = 3 * n * np.arange(k)[:, None, None] + column
        vals = f(values.reshape(-1), np.repeat(run, len(offs)),
                 index.reshape(-1, n)).reshape(k, -1)
        plus, minus = vals[:, 1:n + 1], vals[:, n + 1:2 * n + 1]
        q = vals[:, 2 * n + 1:].reshape(k, 4, -1)
        hess = np.empty((k, n, n))
        hess[:, diag, diag] = (plus - 2 * vals[:, :1] + minus) / _H ** 2
        hess[:, pi, pj] = hess[:, pj, pi] = \
            (q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3]) / (4 * _H ** 2)
        # the gradient at the iterate, not at the centre
        grad = (plus - minus) / (2 * _H) + (hess * (xr - centre)[:, None]).sum(-1)
        fixed = ((xr <= lo) & (grad > 0)) | ((xr >= hi) & (grad < 0))
        grad[fixed | ~finite[:, None]] = 0
        hess *= ~(fixed[:, :, None] | fixed[:, None, :])
        w, v = np.linalg.eigh(hess)
        scale = np.abs(w).max(-1, keepdims=True)
        # the floor keeps 0/0 out where every coordinate is held fixed
        damp = np.maximum(np.maximum(np.abs(w), lam[run, None] * scale), 1e-300)
        step = -(v * ((v * grad[:, :, None]).sum(1) / damp)[:, None]).sum(-1)
        curve = v[:, :, 0]
        step[fixed] = curve[fixed] = 0
        trial = np.clip(xr[:, None] + np.concatenate([
            _LADDER[:, None] * step[:, None],
            _CURVE[:, None] * curve[:, None],
            -_CURVE[:, None] * curve[:, None]], 1), lo, hi)
        # the curvature moves exist only where the curvature is negative
        use = finite[:, None] & np.concatenate([
            np.ones((k, len(_LADDER)), bool),
            np.repeat(w[:, :1] < 0, 2 * len(_CURVE), 1)], 1)
        tval = np.full(use.shape, np.inf)
        if use.any():
            tval[use] = f(trial[use], np.repeat(run, use.sum(1)))
        rows, pick, jump = np.arange(k), np.argmin(tval, 1), np.argmin(vals, 1)
        best = np.where(finite, tval[rows, pick], vals[rows, jump])
        better = best < fr
        x[run] = np.where(better[:, None], np.where(
            finite[:, None], trial[rows, pick], centre + h * offs[jump]), xr)
        fx[run] = np.where(better, best, fr)
        lam[run] = np.clip(lam[run] * np.select(
            [better & finite & (pick == 0), ~better], [0.1, 10.0], 1.0),
            1e-15, 1e15)
        stall[run] = np.where(fr - fx[run] > _GAIN * np.abs(fr), 0,
                              stall[run] + 1)
    return x, fx


def _grid_axis(points):
    # avoid exact zeros/duplicate offsets on the grid
    g = np.linspace(-BOX_HALFWIDTH, BOX_HALFWIDTH, points)
    g[np.abs(g) < 1e-9] = 1e-3
    return g


def swap_applies(objective) -> bool:
    """Whether the coordinate swap is a symmetry of ``objective``: in the
    large-array limit (an objective without an array size) or on a square
    array."""
    return getattr(objective, "m", None) == getattr(objective, "n", None)


_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))
_FLIPS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _symmetry_images(deltas, swap=True):
    """The images of (..., 3, 2) offset sets under offset permutations,
    joint per-axis sign flips and, with ``swap``, the coordinate swap (the
    invariance group of a square array or the limit; ``swap_applies``):
    (..., 48, 3, 2), or (..., 24, 3, 2) without the swap."""
    d = np.asarray(deltas, float)
    images = d[..., _PERMUTATIONS, :][..., None, :, :] * _FLIPS[:, None]
    if swap:
        images = np.stack([images, images[..., ::-1]], -3)
    return images.reshape(*d.shape[:-2], -1, 3, 2)


def canonicalize(offsets: OffsetSet) -> OffsetSet:
    """Symmetry-canonical form: the lexicographically smallest row-sorted
    image under the square-array invariance group.  Idempotent."""
    images = _symmetry_images(offsets.deltas)
    order = np.lexsort((images[..., 1], images[..., 0]))
    rows = np.take_along_axis(images, order[..., None], -2)
    key = np.round(rows.reshape(len(rows), -1), 12)
    return OffsetSet(rows[np.lexsort(key.T[::-1])[0]].copy())


def _lex_key(p, *indices):
    """One integer per index tuple on a ``p``-point grid, ordered as the
    tuples are lexicographically."""
    key = np.zeros_like(indices[0])
    for i in indices:
        key = key * p + i
    return key


def _slice_seeds(sc: SearchConfig):
    """Candidate sets from two 4D families on the grid of ``_grid_axis``,
    swap-symmetric {(a,b), (c,d), (b,a)} and axis-mirror
    {(a,b), (-a,b), (c,d)}: one image of each class of each family under
    the invariance group (``_symmetry_images``, with the swap where
    ``swap_applies``).

    Inequalities on the grid indices cut out the classes; index i maps to
    p - 1 - i under negation.  Each map named in the code takes its family
    to itself, and of a set and its image the lexicographically smaller
    index tuple is kept.  A set that is its own image is kept, so the sets
    with two equal offsets (a = b, or a at the grid's stand-in for zero)
    are there as in the whole families.  Every set of the whole families
    has an image here, exact but for the stand-in, 1e-3, which is its own
    image.  Grid 21 gives 53,482 sets where the whole families hold
    388,962; grid 13 gives 8,330 of 57,122, or 11,858 where the swap does
    not apply.

    Returns the sets as coordinate values, the grid then its negation, and
    an integer index (k, 3, 2) into them: the sets are values[index], and
    the few values let the objective take the kernels' factors once per
    value (``_batched``).  The negation makes the mirror family's -a exact.
    """
    p = sc.grid_points_per_axis
    q = p - 1
    g = _grid_axis(p)
    swap = swap_applies(sc.objective)
    # swap family: a <-> b is the identity, and the swap, where it
    # applies, maps (c, d) to (d, c)
    ab = np.triu_indices(p)
    cd = np.triu_indices(p) if swap else np.indices((p, p)).reshape(2, -1)
    i, j = np.indices((len(ab[0]), len(cd[0]))).reshape(2, -1)
    a, b, c, d = ab[0][i], ab[1][i], cd[0][j], cd[1][j]
    # the joint flip maps (a, b, c, d) to (-b, -a, -c, -d), whose (c, d)
    # the swap puts back in order
    fc, fd = (q - d, q - c) if swap else (q - c, q - d)
    keep = _lex_key(p, a, b, c, d) <= _lex_key(p, q - b, q - a, fc, fd)
    a, b, c, d = (v[keep] for v in (a, b, c, d))
    swap_sets = np.stack([a, b, c, d, b, a], -1)
    # mirror family: a -> -a is the identity, the first-axis flip maps c to
    # -c, and the second-axis flip maps (b, d) to (-b, -d)
    half = np.arange(q // 2 + 1)
    bd = np.indices((p, p)).reshape(2, -1)
    bd = bd[:, _lex_key(p, *bd) <= _lex_key(p, *(q - bd))]
    i, j, k = np.indices((len(half), len(half), len(bd[0]))).reshape(3, -1)
    a, b, c, d = half[i], bd[0][k], half[j], bd[1][k]
    mirror_sets = np.stack([a, b, p + a, b, c, d], -1)
    return (np.concatenate([g, -g]),
            np.concatenate([swap_sets, mirror_sets]).reshape(-1, 3, 2))


def _distinct_rows(sets, count, swap):
    """First ``count`` sets pairwise distinct up to symmetry: each differs
    by more than 0.05 in some coordinate from every image of every set
    picked before it (``_symmetry_images``, with the swap or without)."""
    picked, images = [], np.empty((0, 3, 2))
    for s in sets:
        if np.all(np.abs(images - s).max(axis=(1, 2)) > 0.05):
            picked.append(s)
            if len(picked) == count:
                break
            images = np.concatenate([images, _symmetry_images(s, swap)])
    return picked


def _ranked_starts(values, index, vals, count, swap):
    """The ``count`` best of the seeds values[index] with values ``vals``
    that are pairwise distinct up to symmetry, and the best value."""
    order = np.argsort(vals)
    return (_distinct_rows(values[index[order[:4096]]], count, swap),
            float(vals[order[0]]))


def _grid_starts(sc: SearchConfig, count: int):
    """The ``count`` best grid seeds that are pairwise distinct up to
    symmetry, and the best grid value."""
    values, index = _slice_seeds(sc)
    vals = _batched(sc.objective, values, index=index)
    return _ranked_starts(values, index, vals, count,
                          swap_applies(sc.objective))


def _search(objective, starts, refine_iters, sizes=None, incumbents=None):
    """Damped Newton from each of each search's ``starts``, every search in
    one lockstep run of at most ``refine_iters`` iterations per restart,
    with two objective calls per Newton iteration.

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

    def f(points, restarts, index=None):
        per_set = None
        if sizes is not None:
            s = owner[restarts]
            per_set = (sizes[0][s], sizes[1][s])
        if index is None:
            vals = _batched(objective, points.reshape(-1, 3, 2), per_set)
        else:
            vals = _batched(objective, points, per_set,
                            index.reshape(-1, 3, 2))
        return np.where(np.isfinite(vals), vals, 1e30)

    if incumbents is None:
        start_vals = f(x0, np.arange(len(x0)))
        incumbents = [float(start_vals[owner == s].min())
                      for s in range(len(starts))]
    x, fun = _newton(f, x0, -bh, bh, refine_iters)
    # ties keep the lowest restart index
    firsts = [int(np.argmin(np.where(owner == s, fun, np.inf)))
              for s in range(len(starts))]
    best_v, best_val = x[firsts], fun[firsts]
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


def optimize_offsets(sc: SearchConfig) -> SearchResult:
    """Best offset set from grid-seeded multi-start Newton."""
    starts, best = _grid_starts(sc, 16)
    return _search(sc.objective, [starts], sc.refine_iters,
                   incumbents=[best])[0]


def robustness_sweep(offsets: OffsetSet, objective, sizes):
    """How close a fixed offset set comes to the finite-size optimum.

    ``objective`` is a :class:`StaticFinite` or :class:`DiFinite`.  For each
    (m, n) in ``sizes`` searches the same objective at that size (any SNR
    kept), seeded per size and with every size's restarts in one lockstep
    search, and reports ``((m, n), crlb_at_offsets, crlb_min, rel_gap)``.
    The sizes where the swap applies share one seed index, as do the
    others, and each share's seeds at all its sizes take one objective
    call.
    """
    if not sizes:
        return []
    configs = [SearchConfig(replace(objective, m=m, n=n),
                            grid_points_per_axis=13) for m, n in sizes]
    at = [float(sc.objective.evaluate(offsets.deltas)) for sc in configs]
    # the fixed set is a legitimate incumbent: include it as a restart
    starts = [[offsets.deltas] for _ in sizes]
    for swap in (True, False):
        share = [s for s, sc in enumerate(configs)
                 if swap_applies(sc.objective) == swap]
        if not share:
            continue
        values, index = _slice_seeds(configs[share[0]])
        m, n = np.repeat(np.array(sizes)[share].T, len(index), 1)
        vals = _batched(objective, values, (m, n),
                        np.tile(index, (len(share), 1, 1)))
        for s, v in zip(share, vals.reshape(len(share), -1)):
            starts[s] += _ranked_starts(values, index, v, 8, swap)[0]
    best = _search(objective, starts, configs[0].refine_iters,
                   np.array(sizes).T)
    return [((m, n), a, b.crlb_value, (a - b.crlb_value) / b.crlb_value)
            for (m, n), a, b in zip(sizes, at, best)]
