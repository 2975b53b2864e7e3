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
run, on one objective with per-row sizes (the finite bounds take integer
arrays m, n, one size per table row), so a stage of an iteration makes
one call for every size; the sweep's grid seeds, from one seed table per
swap rule, take one call for all sizes too.

Every batched objective call takes its sets as a table of offsets (P, 2)
and an integer index (k, 3) of the sets into its rows: ``_batched`` takes
the kernels of each row once (``kernels(table)``), at the row's size, and
each chunk of sets gathers its rows' kernels (``evaluate(kernels,
index)``), with the bits of ``evaluate(table[index])``.  The grid's table
holds the (2p)^2 pairs of its p values and their negations, one block per
distinct size of the call.  ``_newton`` builds the tables of its own
calls and hands each to the search's objective with its index and the
restart that owns each row: a stencil stage's holds the 27 offsets of
each running restart's stencil, the 3 x 3 value pairs of each of its
three offsets; its first call's and a trial stage's hold the sets' own
offsets, three rows per set.  Single sets take the objectives' direct
route.

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

from .arrays import db_to_power, probe_kernels, probe_kernels_limit
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

    def kernels(self, table):
        return probe_kernels_limit(table)

    def evaluate(self, deltas, index=None):
        return crlb_static_asymptotic(deltas, index)


@dataclass(frozen=True)
class StaticFinite:
    """Finite-array normalized joint CRLB at unit pilot SNR |s|^2 = 1 (the
    offsets minimizing it do not depend on the SNR scale)."""

    m: int
    n: int

    def kernels(self, table):
        return probe_kernels(table, self.m, self.n)

    def evaluate(self, deltas, index=None):
        return static_offsets_crlb(deltas, self.m, self.n, index=index)


@dataclass(frozen=True)
class DiAsymptotic:
    """Large-array limit of MN times the direction-only CRLB."""

    snr_beta_db: float = 0.0

    def kernels(self, table):
        return probe_kernels_limit(table)

    def evaluate(self, deltas, index=None):
        return crlb_di_asymptotic(deltas, db_to_power(self.snr_beta_db),
                                  index)


@dataclass(frozen=True)
class DiFinite:
    """Finite-array direction-only CRLB at a gain SNR in dB."""

    m: int
    n: int
    snr_beta_db: float = 0.0

    def kernels(self, table):
        return probe_kernels(table, self.m, self.n)

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


# Sets per objective call.  A sweep over the 53,482 grid-21 seeds of each
# objective on the table route (best of 15 after a warm-up call, so that
# the allocator's thresholds are raised as in a command sequence; 2-vCPU
# x86-64, numpy 2.4), in us per set at 1,024 / 2,048 / 4,096 / 8,192 /
# 16,384 / 65,536 sets per chunk:
#   StaticAsymptotic      0.17 0.15 0.22 0.28 0.28 0.35
#   DiAsymptotic          0.15 0.13 0.12 0.13 0.23 0.38
#   StaticFinite(8, 8)    0.18 0.14 0.13 0.14 0.25 0.36
#   DiFinite(8, 8)        0.19 0.16 0.15 0.15 0.29 0.37
#   StaticFinite(64, 64)  0.17 0.14 0.13 0.14 0.24 0.36
#   DiFinite(64, 64)      0.19 0.15 0.15 0.16 0.30 0.39
# 2,048 sets gained only in the static limit, and the four offsets-search
# commands timed alike at 2,048 and 4,096 (104 against 105 ms CPU, medians
# of 30 alternating in-process passes, 17 won by 2,048), so 4,096 stays.
# Small calls pay the fixed cost of a call; large ones outgrow the cache.
# The temporaries are O(1) per set at any array size: one chunk peaks at
# 2.4 MiB (tracemalloc), 24.6 MiB at 65,536 sets.
_CHUNK_SETS = 4096


def _batched(objective, table, index):
    """Evaluate the objective on the offset sets ``index`` (k, 3), rows of
    a table of offsets ``table`` (P, 2), in chunks of ``_CHUNK_SETS`` sets:
    the kernels of every row are taken once, at its size (per row for an
    objective of :func:`_at_sizes`), and each chunk gathers those of its
    sets' rows."""
    # kernels once per row, not per-axis sums once per coordinate value and
    # a combine per offset: the grid stage of a grid-21 search took 9.0-10.8
    # against 11.6-16.8 ms (best of 15, each of the four objectives), a
    # four-size sweep stage's stencils 0.70-0.73 against 0.95-0.99 ms; the
    # same stdout
    kernels = objective.kernels(table)
    out = np.empty(len(index))
    for lo in range(0, len(out), _CHUNK_SETS):
        part = slice(lo, lo + _CHUNK_SETS)
        out[part] = objective.evaluate(kernels, index[part])
    return out


def _at_sizes(objectives, owner):
    """One objective for the table rows of several searches, row i of
    search ``owner[i]``: the searches' objectives differ in their size
    only, and the first of them takes per-row sizes (integer arrays m, n,
    as the finite bounds do), each row's search's.  A single search keeps
    its own objective."""
    if len(objectives) == 1:
        return objectives[0]
    m, n = np.array([(o.m, o.n) for o in objectives]).T
    return replace(objectives[0], m=m[owner], n=n[owner])


# The Newton iteration: central differences with step _H, trial step
# lengths _LADDER, moves of these lengths along the most negative curvature
# direction (they leave saddles whose gradient is exactly zero), and a
# restart stops after _STALL iterations without a relative gain above _GAIN.
# An iterate at 1e30 steps to the best point of a stencil of step _ESCAPE,
# wide enough that its derivatives are not taken next to the singular set.
_H, _ESCAPE = 1e-4, 0.05
_LADDER = 0.5 ** np.arange(6)
_CURVE = 0.25 ** np.arange(1, 5)
# the 3 x 3 step pairs of an offset's two coordinates, pair 3 a + b the
# a-th step of -1, 0, 1 of the first with the b-th of the second
_PAIRS = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=2)))
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


def _own_rows(points, restarts):
    """Sets (k, 6) as a table of their own offsets (3k, 2), three rows per
    set, with the identity index (k, 3) and each row's restart (3k,)."""
    table = points.reshape(-1, 2)
    return table, np.arange(len(table)).reshape(-1, 3), np.repeat(restarts, 3)


def _newton(f, x0, lo, hi, maxiter):
    """Projected, saddle-free damped Newton over three 2-D offsets (n = 6)
    from each row of ``x0`` (R, 6) in the box [lo, hi], all restarts in
    lockstep.

    ``f(table, index, restarts)`` maps the sets table[index] of a table of
    offsets (P, 2) and an integer index (k, 3) into its rows, with
    ``restarts`` (P,) the restart that owns each row, to (k,) values, each
    independent of the batch, so every restart's iterates are those of a
    run on its own.  Each iteration makes two calls for all running
    restarts.  The central-difference stencil, centred inside
    [lo + h, hi - h], gives the gradient and Hessian: its table holds 27
    offsets per restart, the 3 x 3 pairs of the values c - h, c, c + h of
    each of its three offsets, and the restart's 73 stencil sets take its
    rows in one fixed pattern.  Then a ladder of step lengths along
    -V diag(1/max(|w|, lam max|w|)) V^T g, with (w, V) the Hessian's
    eigenpairs, and moves along the most negative eigenvector; these trial
    sets, like the starts of the first call, share no offsets and are a
    table of their own (:func:`_own_rows`).  The best trial point replaces
    the iterate only if it is lower.  A coordinate on the bound whose
    gradient points outward is held fixed; lam falls tenfold after a full
    step and grows tenfold after a failed one.  An iterate whose value is
    1e30 or more has no derivatives: it moves to the best point of a
    stencil of the wider step ``_ESCAPE``.

    Returns the final points (R, 6) and their values (R,).
    """
    x = np.clip(np.atleast_2d(np.asarray(x0, float)), lo, hi)
    r, n = x.shape
    fx = f(*_own_rows(x, np.arange(r)))
    lam = np.full(r, 1e-3)
    stall = np.zeros(r, int)
    offs, pi, pj = _stencil(6)
    # a restart's 27 stencil offsets are row 9 s + 3 a + b for offset s and
    # step pair 3 a + b of _PAIRS; a stencil point's offset s has the steps
    # of its coordinates 2 s and 2 s + 1
    steps = offs.astype(int) + 1
    pattern = 9 * np.arange(3) + 3 * steps[:, 0::2] + steps[:, 1::2]
    diag = np.arange(n)
    for _ in range(maxiter):
        run = np.flatnonzero(stall < _STALL)
        if not run.size:
            break
        xr, fr, k = x[run], fx[run], len(run)
        finite = fr < 1e30
        h = np.where(finite, _H, _ESCAPE)[:, None]
        centre = np.clip(xr, lo + h, hi - h)
        table = centre.reshape(k, 3, 1, 2) + h[:, None, None] * _PAIRS
        index = 27 * np.arange(k)[:, None, None] + pattern
        vals = f(table.reshape(-1, 2), index.reshape(-1, 3),
                 np.repeat(run, 27)).reshape(k, -1)
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
        tval[use] = f(*_own_rows(trial[use], np.repeat(run, use.sum(1))))
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


def _slice_seeds(points: int, swap: bool):
    """Candidate sets from two 4D families on the ``points``-point grid of
    ``_grid_axis``, swap-symmetric {(a,b), (c,d), (b,a)} and axis-mirror
    {(a,b), (-a,b), (c,d)}: one image of each class of each family under
    the invariance group (``_symmetry_images``, with the swap where
    ``swap``, the objective's ``swap_applies``, is true).

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

    Returns a table of offsets, every pair (u, v) of the 2p values of the
    grid then its negation at row 2p i + j for values i and j, and an
    integer index (k, 3) of the sets into its rows: the sets are
    table[index], and the few rows let the objective take the kernels once
    per row (``_batched``).  The negation makes the mirror family's -a
    exact.  The index is filled by broadcast assignment from the (a, b),
    (c, d) and (b, d) pairs, without temporaries of the families' size.
    """
    p = points
    q, w = p - 1, 2 * p
    g = _grid_axis(p)
    values = np.concatenate([g, -g])
    # swap family: a <-> b is the identity, and the swap, where it
    # applies, maps (c, d) to (d, c)
    ab = np.triu_indices(p)
    cd = np.triu_indices(p) if swap else np.indices((p, p)).reshape(2, -1)
    # the joint flip maps (a, b, c, d) to (-b, -a, -c, -d), whose (c, d)
    # the swap puts back in order; the (a, b) keys order a set and its
    # image, and where they tie the (c, d) keys do
    fc, fd = (q - cd[1], q - cd[0]) if swap else (q - cd[0], q - cd[1])
    key, flip = _lex_key(p, *ab), _lex_key(p, q - ab[1], q - ab[0])
    tie = _lex_key(p, *cd) <= _lex_key(p, fc, fd)
    i, j = np.nonzero((key < flip)[:, None] | ((key == flip)[:, None] & tie))
    # mirror family: a -> -a is the identity, the first-axis flip maps c to
    # -c, and the second-axis flip maps (b, d) to (-b, -d)
    half = np.arange(q // 2 + 1)
    bd = np.indices((p, p)).reshape(2, -1)
    bd = bd[:, _lex_key(p, *bd) <= _lex_key(p, *(q - bd))]
    sets = np.empty((len(i) + len(half) ** 2 * len(bd[0]), 3), int)
    swap_sets = sets[:len(i)]                     # (a, b), (c, d), (b, a)
    a, b = ab[0][i], ab[1][i]
    swap_sets[:, 0] = w * a + b
    swap_sets[:, 1] = (w * cd[0] + cd[1])[j]
    swap_sets[:, 2] = w * b + a
    mirror_sets = sets[len(i):].reshape(len(half), len(half), -1, 3)
    a = half[:, None, None]                       # (a, b), (-a, b), (c, d)
    mirror_sets[..., 0] = w * a + bd[0]
    mirror_sets[..., 1] = w * (p + a) + bd[0]
    mirror_sets[..., 2] = w * half[:, None] + bd[1]
    table = np.empty((w, w, 2))
    table[..., 0], table[..., 1] = values[:, None], values
    return table.reshape(-1, 2), sets


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


def _grid_starts(objectives, points: int, count: int):
    """For each of ``objectives`` (one objective at several sizes, as in
    :func:`_at_sizes`), on the ``points``-point grid: the ``count`` best
    grid seeds that are pairwise distinct up to symmetry, and the best grid
    value.  Every objective's seeds are evaluated in one call, from one
    seed index per swap rule into one table of offsets with a block of the
    grid's pairs per distinct size."""
    seeds = {}
    for o in objectives:
        swap = swap_applies(o)
        if swap not in seeds:
            table, seeds[swap] = _slice_seeds(points, swap)
    sizes = list(dict.fromkeys(objectives))
    # each objective's seeds as rows of its size's block; a single search's
    # index as it is, not a copy (1.3 MB at grid 21)
    parts = []
    for o in objectives:
        part, block = seeds[swap_applies(o)], sizes.index(o)
        parts.append(part + block * len(table) if block else part)
    lengths = [len(part) for part in parts]
    index = parts[0] if len(parts) == 1 else np.concatenate(parts)
    blocks = np.repeat(np.arange(len(sizes)), len(table))
    vals = _batched(_at_sizes(sizes, blocks),
                    np.tile(table, (len(sizes), 1)), index)
    out = []
    for o, v in zip(objectives, np.split(vals, np.cumsum(lengths)[:-1])):
        order = np.argsort(v)
        swap = swap_applies(o)
        out.append((_distinct_rows(table[seeds[swap][order[:4096]]], count,
                                   swap), float(v[order[0]])))
    return out


def _where(objective) -> str:
    """The " at MxN" that names a finite objective's size in an error."""
    return f" at {objective.m}x{objective.n}" if hasattr(objective, "m") \
        else ""


def check_domain(objective, offsets: OffsetSet) -> None:
    """A ValueError where ``objective`` is finite at ``offsets`` but 1e30
    or more.  The search holds a non-finite value at 1e30 and reads every
    value there as one (:func:`_newton`), so it cannot refine a bound at
    that level: a gain SNR low enough puts the whole landscape there."""
    value = float(objective.evaluate(offsets.deltas))
    if math.isfinite(value) and value >= 1e30:
        raise ValueError(f"the bound is {value:.6g}{_where(objective)}, "
                         f"outside the search's domain of bounds below "
                         f"1e+30")


def _search(objectives, starts, refine_iters, incumbents):
    """Damped Newton from each of each search's ``starts``, every search in
    one lockstep run of at most ``refine_iters`` iterations per restart.

    Search s runs ``objectives[s]`` (objectives that differ in size only,
    :func:`_at_sizes`) from the (3, 2) start sets ``starts[s]``.  Each
    stage of a Newton iteration makes one objective call for the running
    restarts of every search, each set at its search's size.
    ``incumbents[s]`` is the best value search s holds from other calls
    (inf for none); a result above it, or no finite value, raises
    :class:`NoImprovement` naming the size of a finite search.  Returns a
    :class:`SearchResult` per search.
    """
    # one lockstep run, not a search per size: per-size searches took a
    # four-size sweep 96-99 ms against 78 ms, with the same rows
    bh = BOX_HALFWIDTH
    x0 = np.concatenate([np.reshape(st, (-1, 6)) for st in starts])
    owner = np.repeat(np.arange(len(starts)), [len(st) for st in starts])

    def f(table, index, restarts):
        # one call for every search, at per-row sizes, not one per search:
        # a 36-restart stage at four sizes took 1.1 against 1.4 ms for the
        # stencils and 0.54 against 0.79 ms for the trial steps
        vals = _batched(_at_sizes(objectives, owner[restarts]), table, index)
        return np.where(np.isfinite(vals), vals, 1e30)

    x, fun = _newton(f, x0, -bh, bh, refine_iters)
    results = []
    for s, (objective, incumbent) in enumerate(zip(objectives, incumbents)):
        # ties keep the lowest restart index
        first = int(np.argmin(np.where(owner == s, fun, np.inf)))
        val = float(fun[first])
        where = _where(objective)
        if val >= 1e30:
            raise NoImprovement("no refinement start produced a finite "
                                "objective" + where)
        if np.isfinite(incumbent) and incumbent < 1e30 \
                and val > incumbent * (1 + 1e-9):
            raise NoImprovement("refinement lost to its own seed; objective "
                                "is likely inconsistent" + where)
        # val is the objective at the point: every route has the same bits
        results.append(SearchResult(OffsetSet(x[first].reshape(3, 2)), val,
                                    len(starts[s])))
    return results


def optimize_offsets(sc: SearchConfig) -> SearchResult:
    """Best offset set from grid-seeded multi-start Newton."""
    starts, best = _grid_starts([sc.objective], sc.grid_points_per_axis,
                                16)[0]
    return _search([sc.objective], [starts], sc.refine_iters, [best])[0]


def robustness_sweep(offsets: OffsetSet, objective, sizes):
    """How close a fixed offset set comes to the finite-size optimum.

    ``objective`` is a :class:`StaticFinite` or :class:`DiFinite`.  For each
    (m, n) in ``sizes`` searches the same objective at that size (any SNR
    kept), seeded from that size's 13-point grid and from the fixed set,
    with every size's search in one lockstep run, and reports
    ``((m, n), crlb_at_offsets, crlb_min, rel_gap)``.
    """
    if not sizes:
        return []
    objectives = [replace(objective, m=m, n=n) for m, n in sizes]
    at = [float(o.evaluate(offsets.deltas)) for o in objectives]
    grids = _grid_starts(objectives, 13, 8)
    # the fixed set is a legitimate incumbent: include it as a restart, and
    # hold the lower of its value and the grid's best against Newton's
    starts = [[offsets.deltas] + seeds for seeds, _ in grids]
    best = _search(objectives, starts, SearchConfig.refine_iters,
                   [min(grid, a) for (_, grid), a in zip(grids, at)])
    return [((m, n), a, b.crlb_value, (a - b.crlb_value) / b.crlb_value)
            for (m, n), a, b in zip(sizes, at, best)]
