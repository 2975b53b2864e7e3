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
restart's iterates are those of a run on its own.  A robustness sweep
runs the searches of all the array sizes it sweeps in one such lockstep
run, each size on its own objective: an objective call takes the sets of
one size, as that size's search alone would, so a stage of an iteration
makes one call per size.

The grid seeds and the Newton stencils reuse a few coordinate values in
many sets, so they reach the objectives as those values and an integer
index of the sets into them (``evaluate(values, index)``): the kernels'
per-axis factors are then computed once per value and gathered, with the
bits of ``evaluate(values[index])``.  The trial steps and single sets take
the direct route.

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


# Sets per objective call, the cheapest per set in a sweep over the 53,482
# seeds of each objective at grid 21 (best of 5, 2-vCPU x86-64, numpy 2.4),
# in us per set at 1,024 / 2,048 / 4,096 / 8,192 / 16,384 / 65,536 sets per
# call, with the kernel tables (values and an index),
#   StaticAsymptotic      0.46 0.35 0.27 0.38 0.42 0.53
#   DiAsymptotic          0.24 0.20 0.18 0.19 0.21 0.46
#   StaticFinite(8, 8)    0.34 0.27 0.26 0.26 0.27 0.47
#   DiFinite(8, 8)        0.37 0.27 0.26 0.25 0.27 0.46
#   StaticFinite(64, 64)  0.38 0.27 0.24 0.25 0.28 0.47
#   DiFinite(64, 64)      0.36 0.28 0.26 0.25 0.27 0.48
# and on float sets 0.39-0.54 us at 4,096 against 0.85-1.03 at 65,536.
# Small calls pay the fixed cost of a call; large ones outgrow the cache,
# and their temporaries page-fault afresh on every call.  The temporaries
# are O(1) per set at any array size: one chunk peaks at 2.1 MiB
# (tracemalloc), 31.5 MiB at 65,536 sets.
_CHUNK_SETS = 4096


def _batched(objective, flat_sets, index=None):
    """Evaluate the objective on (k, 3, 2) offset sets, or with an integer
    ``index`` (k, 3, 2) on the sets flat_sets[index] of coordinate values,
    in chunks of ``_CHUNK_SETS`` sets."""
    # the tables pay: materialised sets instead took the four offsets-search
    # commands 286-423 ms against 258-293 ms CPU, with the same stdout
    out = np.empty(len(flat_sets if index is None else index))
    for lo in range(0, len(out), _CHUNK_SETS):
        part = slice(lo, lo + _CHUNK_SETS)
        out[part] = objective.evaluate(flat_sets[part]) if index is None \
            else objective.evaluate(flat_sets, index[part])
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
        # float sets, not a table over their own coordinates: a table took
        # di_offsets_crlb at 16x16 410-450 us against 313-360 us on 224 sets
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


def _grid_starts(sc: SearchConfig, count: int):
    """The ``count`` best grid seeds that are pairwise distinct up to
    symmetry, and the best grid value."""
    values, index = _slice_seeds(sc)
    vals = _batched(sc.objective, values, index)
    order = np.argsort(vals)
    return (_distinct_rows(values[index[order[:4096]]], count,
                           swap_applies(sc.objective)),
            float(vals[order[0]]))


def _search(objectives, starts, refine_iters, incumbents):
    """Damped Newton from each of each search's ``starts``, every search in
    one lockstep run of at most ``refine_iters`` iterations per restart.

    Search s runs ``objectives[s]`` from the (3, 2) start sets
    ``starts[s]``.  Each Newton iteration makes two objective calls per
    search with running restarts, on that search's rows in the order of a
    run of it alone.  ``incumbents[s]`` is the best value search s holds
    from other calls (inf for none); a result above it, or no finite value,
    raises :class:`NoImprovement` naming the size of a finite search.
    Returns a :class:`SearchResult` per search.
    """
    # one lockstep run, not a search per size: per-size searches took a
    # four-size sweep 96-99 ms against 78 ms, with the same rows
    bh = BOX_HALFWIDTH
    x0 = np.concatenate([np.reshape(st, (-1, 6)) for st in starts])
    owner = np.repeat(np.arange(len(starts)), [len(st) for st in starts])

    def f(points, restarts, index=None):
        vals, own = np.empty(len(restarts)), owner[restarts]
        for s, objective in enumerate(objectives):
            rows = own == s
            if index is None:
                vals[rows] = _batched(objective,
                                      points[rows].reshape(-1, 3, 2))
            else:
                vals[rows] = _batched(objective, points,
                                      index[rows].reshape(-1, 3, 2))
        return np.where(np.isfinite(vals), vals, 1e30)

    x, fun = _newton(f, x0, -bh, bh, refine_iters)
    results = []
    for s, (objective, incumbent) in enumerate(zip(objectives, incumbents)):
        # ties keep the lowest restart index
        first = int(np.argmin(np.where(owner == s, fun, np.inf)))
        val = float(fun[first])
        where = f" at {objective.m}x{objective.n}" \
            if hasattr(objective, "m") else ""
        if val >= 1e30:
            raise NoImprovement("no refinement start produced a finite "
                                "objective" + where)
        if np.isfinite(incumbent) and incumbent < 1e30 \
                and val > incumbent * (1 + 1e-9):
            raise NoImprovement("refinement lost to its own seed; objective "
                                "is likely inconsistent" + where)
        deltas = x[first].reshape(3, 2)
        results.append(SearchResult(OffsetSet(deltas),
                                    float(objective.evaluate(deltas)),
                                    len(starts[s])))
    return results


def optimize_offsets(sc: SearchConfig) -> SearchResult:
    """Best offset set from grid-seeded multi-start Newton."""
    starts, best = _grid_starts(sc, 16)
    return _search([sc.objective], [starts], sc.refine_iters, [best])[0]


def robustness_sweep(offsets: OffsetSet, objective, sizes):
    """How close a fixed offset set comes to the finite-size optimum.

    ``objective`` is a :class:`StaticFinite` or :class:`DiFinite`.  For each
    (m, n) in ``sizes`` searches the same objective at that size (any SNR
    kept), seeded from that size's grid and from the fixed set, with every
    size's search in one lockstep run, and reports
    ``((m, n), crlb_at_offsets, crlb_min, rel_gap)``.
    """
    if not sizes:
        return []
    configs = [SearchConfig(replace(objective, m=m, n=n),
                            grid_points_per_axis=13) for m, n in sizes]
    at = [float(sc.objective.evaluate(offsets.deltas)) for sc in configs]
    grids = [_grid_starts(sc, 8) for sc in configs]
    # the fixed set is a legitimate incumbent: include it as a restart, and
    # hold the lower of its value and the grid's best against Newton's
    starts = [[offsets.deltas] + seeds for seeds, _ in grids]
    best = _search([sc.objective for sc in configs], starts,
                   configs[0].refine_iters,
                   [min(grid, a) for (_, grid), a in zip(grids, at)])
    return [((m, n), a, b.crlb_value, (a - b.crlb_value) / b.crlb_value)
            for (m, n), a, b in zip(sizes, at, best)]
