"""Unit tests for the exploration-offset optimizer and canonicalization."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import beamtrack
from beamtrack.offsets import (_CHUNK_SETS, _CURVE, _LADDER, BOX_HALFWIDTH,
                               FADING_OFFSETS, STATIC_OFFSETS, DiAsymptotic,
                               DiFinite, NoImprovement, SearchConfig,
                               StaticAsymptotic, StaticFinite, _batched,
                               _distinct_rows, _grid_axis, _grid_starts,
                               _newton, _search, _slice_seeds, _stencil,
                               _symmetry_images, canonicalize,
                               optimize_offsets, robustness_sweep,
                               swap_applies)
from beamtrack.signal import OffsetSet
import reference
from reference import _nelder_mead


def _search_from(sc, starts):
    """The search of ``optimize_offsets(sc)`` from explicit (3, 2) starts
    instead of the grid seeds, holding nothing yet (incumbent inf)."""
    return _search([sc.objective], [starts], sc.refine_iters, [np.inf])[0]


class TestObjectiveInvariances:
    def test_permutation_invariance_exact(self):
        """Reordering the three offsets leaves every objective unchanged."""
        rng = np.random.default_rng(0)
        d = rng.uniform(-0.8, 0.8, (3, 2))
        for obj in (StaticAsymptotic(), StaticFinite(8, 8),
                    DiAsymptotic(0.0), DiFinite(8, 8, 0.0)):
            ref = obj.evaluate(d)
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                assert obj.evaluate(d[list(perm)]) == pytest.approx(ref, abs=1e-12 * ref)

    def test_swap_symmetry_of_limit_objectives(self):
        """Swapping both coordinates of all offsets preserves the limits."""
        for obj, offs in ((StaticAsymptotic(), STATIC_OFFSETS),
                          (DiAsymptotic(0.0), FADING_OFFSETS)):
            ref = obj.evaluate(offs.deltas)
            swapped = offs.deltas[:, ::-1].copy()
            assert abs(obj.evaluate(swapped) - ref) < 1e-10 * ref

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        batch = rng.uniform(-0.8, 0.8, (5, 3, 2))
        for obj in (StaticAsymptotic(), StaticFinite(8, 8), DiFinite(8, 8, 0.0)):
            vals = obj.evaluate(batch)
            for i in range(5):
                assert vals[i] == pytest.approx(obj.evaluate(batch[i]), rel=1e-12)


class TestBatchedChunks:
    @pytest.mark.parametrize("obj", [StaticFinite(64, 64),
                                     DiFinite(64, 64, 0.0),
                                     StaticFinite(8, 8)])
    def test_chunks_match_one_call(self, obj):
        """A chunk holds ``_CHUNK_SETS`` sets at any array size: three
        chunks and 539 sets, an index into one table of offsets, take four
        calls on the table's kernels, and the values equal one call over
        all sets bit for bit."""
        sizes = []

        @dataclass(frozen=True)
        class Spy(type(obj)):
            def evaluate(self, d, index=None):
                sizes.append(len(index))
                return super().evaluate(d, index)

        rng = np.random.default_rng(2)
        table = rng.uniform(-0.9, 0.9, (1000, 2))
        index = rng.integers(0, len(table), (3 * _CHUNK_SETS + 539, 3))
        vals = _batched(Spy(**vars(obj)), table, index)
        assert sizes == [_CHUNK_SETS] * 3 + [539]
        assert _same_bits(vals, obj.evaluate(obj.kernels(table), index))


@st.composite
def _tables(draw, sized):
    """A table of offsets (P, 2), an integer index (k, 3) of sets into its
    rows, and with ``sized`` one array size per row (m, n), else None.

    The coordinates hold the grid's stand-in for zero and its negation,
    the box edges, the three values c - h, c, c + h of Newton stencils at
    one of the two steps, values in the series branch |pi r| < 0.1 and
    free values.  The table is in blocks, one to three with ``sized``,
    each at its own size of 2-64 elements per axis, square or not.  Each
    set takes its three rows from the first ``used`` + 1 rows of one block,
    the last of which repeats the first; the block's other rows are
    referenced by no set."""
    h = draw(st.sampled_from([1e-4, 0.05]))
    centres = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=1,
                                     max_size=4)))
    stencil = centres[:, None] + h * np.array([-1.0, 0.0, 1.0])
    free = draw(st.lists(st.floats(-BOX_HALFWIDTH, BOX_HALFWIDTH)
                         | st.floats(-0.03, 0.03), max_size=4))
    values = np.concatenate([[1e-3, -1e-3, BOX_HALFWIDTH, -BOX_HALFWIDTH],
                             stencil.ravel(), free])
    coordinate = st.integers(0, len(values) - 1)
    blocks = draw(st.integers(1, 3)) if sized else 1
    used, unused = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    pairs = np.array(draw(st.lists(
        st.tuples(coordinate, coordinate),
        min_size=blocks * (used + unused), max_size=blocks * (used + unused))))
    table = values[pairs].reshape(blocks, used + unused, 2)
    table[:, used] = table[:, 0]
    k = draw(st.integers(1, 12))
    block = np.array(draw(st.lists(st.integers(0, blocks - 1), min_size=k,
                                   max_size=k)))
    rows = np.array(draw(st.lists(st.integers(0, used), min_size=3 * k,
                                  max_size=3 * k))).reshape(k, 3)
    index = block[:, None] * (used + unused) + rows
    table = table.reshape(-1, 2)
    if not sized:
        return table, index, None
    size = st.integers(2, 64)
    m = np.array(draw(st.lists(size, min_size=blocks, max_size=blocks)))
    n = np.where(draw(st.lists(st.booleans(), min_size=blocks,
                               max_size=blocks)),
                 m, draw(st.lists(size, min_size=blocks, max_size=blocks)))
    per_row = np.repeat(np.arange(blocks), used + unused)
    return table, index, (m[per_row], n[per_row])


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, float).view(np.int64),
                          np.asarray(b, float).view(np.int64))


class TestKernelTables:
    """The table route, sets given as an index (k, 3) into the rows of a
    table of offsets whose kernels are taken once per row, is the direct
    route at the sets table[index], bit for bit: at the objective's own
    size, scalar or off a square array, and for the finite bounds at one
    size per row, each set at its rows' size; through ``_batched`` too."""

    @pytest.mark.parametrize("objective", [
        StaticAsymptotic(), DiAsymptotic(3.0), StaticFinite(8, 8),
        DiFinite(8, 8, -2.0), StaticFinite(6, 12), DiFinite(6, 12, 0.0)],
        ids=repr)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_table_equals_direct(self, objective, data):
        sized = hasattr(objective, "m") and data.draw(st.booleans())
        table, index, sizes = data.draw(_tables(sized))
        rows = sets = objective
        if sized:
            m, n = sizes
            rows = replace(objective, m=m, n=n)
            sets = replace(objective, m=m[index[:, 0]], n=n[index[:, 0]])
        want = sets.evaluate(table[index])
        assert _same_bits(rows.evaluate(rows.kernels(table), index), want)
        assert _same_bits(_batched(rows, table, index), want)


def _work_spy(base, log):
    """``base`` that logs ("rows", P) for each table whose kernels it
    takes and ("sets", k) for each chunk of k sets it takes from one."""

    @dataclass(frozen=True)
    class Spy(type(base)):
        def kernels(self, table):
            log.append(("rows", len(table)))
            return super().kernels(table)

        def evaluate(self, d, index=None):
            if index is not None:
                log.append(("sets", len(index)))
            return super().evaluate(d, index)

    return Spy(**vars(base))


class TestKernelWork:
    """How many kernels each table call takes: once per row of its table,
    for all its chunks, so a return to kernels per offset (or per chunk)
    fails here instead of only slowing the benchmark."""

    @pytest.mark.parametrize("sizes, points", [
        ([None], 21), ([(8, 8)], 13),
        ([(8, 8), (16, 16), (8, 8), (6, 12)], 13)], ids=str)
    def test_grid_call_takes_each_pair_once_per_size(self, sizes, points):
        """A grid call takes (2p)^2 rows per distinct size, once, and
        chunks of ``_CHUNK_SETS`` sets gather from them."""
        log = []
        spy = _work_spy(StaticAsymptotic() if sizes == [None]
                        else DiFinite(8, 8, 1.0), log)
        objectives = [spy if size is None else replace(
            spy, m=size[0], n=size[1]) for size in sizes]
        _grid_starts(objectives, points, 4)
        seeds = sum(len(_slice_seeds(points, swap_applies(o))[1])
                    for o in objectives)
        chunks = [_CHUNK_SETS] * (seeds // _CHUNK_SETS) + [seeds % _CHUNK_SETS]
        distinct = len(set(sizes))
        assert log == [("rows", (2 * points) ** 2 * distinct)] + [
            ("sets", k) for k in chunks if k]

    def test_stencil_stage_takes_27_rows_per_restart(self):
        """Every kernel call of a four-size sweep is accounted for: the
        grid call first, then Newton's first call on the 36 starts and its
        trial stages, 3 rows per set (the sets' own offsets), alternating
        with its stencil stages, 27 rows per running restart for its 73
        stencil sets."""
        log = []
        robustness_sweep(FADING_OFFSETS, _work_spy(DiFinite(8, 8, 0.0), log),
                         [(8, 8), (16, 16), (32, 32), (64, 64)])
        calls = []   # [rows, sets] per table, the sets of its chunks summed
        for kind, count in log:
            if kind == "rows":
                calls.append([count, 0])
            else:
                calls[-1][1] += count
        grid, first, *stages = calls
        assert grid[0] == 26 ** 2 * 4
        assert first == [3 * 36, 36]
        assert len(stages) > 2 and len(stages) % 2 == 0
        trials = len(_LADDER) + 2 * len(_CURVE)   # trial sets per restart
        for (p, k), (q, j) in zip(stages[::2], stages[1::2]):
            assert p % 27 == 0 and k == 73 * (p // 27)
            assert q == 3 * j and j <= trials * (p // 27)


def _quadratic(x):
    w = np.array([1.0, 2.0, 3.0, 0.5, 1.5, 4.0])
    c = np.array([0.3, -0.2, 0.1, 0.45, -0.6, 0.05])
    return (w * (np.asarray(x) - c) ** 2).sum(-1)


def _rosenbrock(x):
    x = np.asarray(x)
    return (100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2
            + (1 - x[..., :-1]) ** 2).sum(-1)


# a start near the minimum, a far one, one on the box edge with zero
# coordinates (the reflect-into-interior and zdelt paths), and the origin
_STARTS = np.array([[0.25, -0.15, 0.05, 0.4, -0.55, 0.1],
                    [-0.9, 0.9, -0.9, 0.9, -0.9, 0.9],
                    [0.95, 0.0, 0.3, -0.2, 0.95, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def _assert_matches_scipy(f, starts, bound, maxiter, maxfev, xatol, fatol):
    """Lockstep final simplex, x, fun, nit and nfev equal scipy's for every
    restart; returns scipy's status per restart."""
    sim, fsim, nit, nfev = _nelder_mead(lambda x, _: f(x), starts, -bound,
                                        bound, maxiter, maxfev, xatol, fatol)
    status = []
    for i, s0 in enumerate(starts):
        res = minimize(f, s0, method="Nelder-Mead",
                       bounds=[(-bound, bound)] * len(s0),
                       options=dict(maxiter=maxiter, maxfev=maxfev,
                                    xatol=xatol, fatol=fatol))
        assert np.array_equal(sim[i], res.final_simplex[0]), i
        assert np.array_equal(fsim[i], res.final_simplex[1]), i
        assert np.array_equal(sim[i, 0], res.x), i
        assert (fsim[i].min(), nit[i], nfev[i]) == (res.fun, res.nit,
                                                     res.nfev), i
        status.append(res.status)
    return status


class TestLockstepNelderMead:
    """scipy's bounded Nelder-Mead is the oracle, restart by restart."""

    def test_quadratic(self):
        status = _assert_matches_scipy(_quadratic, _STARTS, 0.95, 400,
                                       100000, 1e-4, 1e-8)
        assert status == [0, 2, 2, 0]  # tolerance and maxiter in one batch

    def test_rosenbrock(self):
        status = _assert_matches_scipy(_rosenbrock, 1.5 * _STARTS, 1.5, 400,
                                       100000, 1e-6, 1e-10)
        assert status == [2, 0, 2, 2]

    def test_maxfev_cuts_an_iteration(self):
        """A budget that runs out before the second evaluation or inside a
        shrink (vertices 1..b evaluated, vertex b+1 moved) stops every
        restart where scipy stops."""
        def steps(x):  # plateaus make contractions fail and shrink
            return np.floor(5 * _quadratic(x))

        for maxfev in range(3, 40):
            status = _assert_matches_scipy(steps, _STARTS, 0.95, 1000, maxfev,
                                           1e-8, 1e-12)
            assert 1 in status

    def test_restart_index_of_each_point(self):
        """f learns the restart of each point it evaluates: restarts that
        minimize different functions, one per index, run in lockstep and
        each equals scipy on its own function."""
        centres = np.linspace(-0.4, 0.4, len(_STARTS))[:, None]

        def shifted(x, restarts):
            return _quadratic(np.asarray(x) - centres[restarts])

        sim, fsim, nit, nfev = _nelder_mead(shifted, _STARTS, -0.95, 0.95,
                                            300, 100000, 1e-6, 1e-10)
        for i, s0 in enumerate(_STARTS):
            res = minimize(lambda x: shifted(x, i), s0, method="Nelder-Mead",
                           bounds=[(-0.95, 0.95)] * len(s0),
                           options=dict(maxiter=300, maxfev=100000,
                                        xatol=1e-6, fatol=1e-10))
            assert np.array_equal(sim[i], res.final_simplex[0]), i
            assert (fsim[i].min(), nit[i], nfev[i]) == (res.fun, res.nit,
                                                         res.nfev), i

    def test_real_objective(self):
        """On grid starts of the static limit the lockstep search equals
        scipy's bit for bit."""
        starts, _ = _grid_starts([StaticAsymptotic()], 9, 4)[0]

        def values(points):
            vals = StaticAsymptotic().evaluate(points.reshape(-1, 3, 2))
            return np.where(np.isfinite(vals), vals, 1e30)

        _assert_matches_scipy(values, np.reshape(starts, (-1, 6)), 0.95, 120,
                              480, 1e-10, 1e-12)


def test_scipy_stays_off_the_import_path():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(beamtrack.__file__)))
    code = ("import sys, beamtrack, beamtrack.cli; "
            "assert 'scipy' not in sys.modules, 'scipy imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestCanonicalize:
    def test_permutation_collapses(self):
        a = canonicalize(STATIC_OFFSETS)
        b = canonicalize(OffsetSet(STATIC_OFFSETS.deltas[[2, 0, 1]]))
        assert np.allclose(a.deltas, b.deltas)

    def test_sign_and_swap_collapse(self):
        a = canonicalize(FADING_OFFSETS)
        image = FADING_OFFSETS.deltas * np.array([-1.0, 1.0])
        b = canonicalize(OffsetSet(image[:, ::-1].copy()))
        assert np.allclose(a.deltas, b.deltas)

    def test_idempotent(self):
        once = canonicalize(FADING_OFFSETS)
        twice = canonicalize(once)
        assert np.array_equal(once.deltas, twice.deltas)


class TestSymmetryImages:
    @pytest.mark.parametrize("objective", [
        StaticAsymptotic(), DiAsymptotic(3.0), StaticFinite(8, 8),
        DiFinite(8, 8, 0.0), StaticFinite(6, 12), DiFinite(6, 12, 0.0)],
        ids=repr)
    def test_every_image_has_the_same_bound(self, objective):
        """The bound is the same at all 48 images of a set, or at all 24
        without the swap off a square array, where the swap changes it."""
        rng = np.random.default_rng(2)
        sets = rng.uniform(-0.8, 0.8, (4, 3, 2))
        swap = swap_applies(objective)
        images = _symmetry_images(sets, swap)
        assert images.shape == (4, 48 if swap else 24, 3, 2)
        ref = objective.evaluate(sets)[:, None]
        assert np.allclose(objective.evaluate(images), ref, rtol=1e-12,
                           atol=0)
        if not swap:
            swapped = objective.evaluate(sets[..., ::-1])
            assert np.all(np.abs(swapped / ref[:, 0] - 1) > 1e-6)

    def test_images_are_distinct(self):
        """A set with no symmetry of its own has 48 distinct images: the 6
        orders of each of 8 distinct sets."""
        images = _symmetry_images(FADING_OFFSETS.deltas)
        assert len(np.unique(images.reshape(48, 6), axis=0)) == 48
        points = np.sort(images.view(complex)[..., 0], -1)
        assert len(np.unique(points, axis=0)) == 8


def _grid_codes(sets, points):
    """One integer per (..., 3, 2) set of grid coordinates, equal for two
    sets exactly when they hold the same grid points in any order.  A
    coordinate is coded by its nearest grid index, so the grid's stand-in
    for zero and its negation share a code."""
    step = 2 * BOX_HALFWIDTH / (points - 1)
    index = np.rint((np.asarray(sets) + BOX_HALFWIDTH) / step).astype(int)
    rows = np.sort(index[..., 0] * points + index[..., 1], -1)
    return (rows[..., 0] * points ** 2 + rows[..., 1]) * points ** 2 \
        + rows[..., 2]


def _rows_in(table, sets):
    """The index (..., 3) of the offsets of ``sets`` (..., 3, 2) into the
    rows of ``_slice_seeds``' table of offsets, every pair of the p grid
    values and their negations: each offset at a row that holds its bits.
    A coordinate is the grid value nearest it, or else that value's
    negation."""
    w = math.isqrt(len(table))
    values, q = table[::w, 0], w // 2 - 1
    near = np.rint((sets + BOX_HALFWIDTH) * (q / (2 * BOX_HALFWIDTH)))
    near = near.astype(int)
    at = np.where(values[near] == sets, near, w - 1 - near)
    assert np.array_equal(values[at].view(np.int64),
                          np.asarray(sets).view(np.int64))
    return w * at[..., 0] + at[..., 1]


class TestSliceSeeds:
    """The seeds, one image per symmetry class, against the whole 4D
    families of ``reference._slice_seeds``."""

    @pytest.mark.parametrize("objective", [StaticAsymptotic(),
                                           StaticFinite(6, 12)], ids=repr)
    def test_index_form_equals_float_seeds(self, objective):
        """At every grid of 2-21 points the sets table[index] are the
        float seeds of ``reference._class_seeds`` bit for bit, in order:
        the table holds every pair of the grid's values and their
        negations."""
        for points in range(2, 22):
            sc = SearchConfig(objective, grid_points_per_axis=points)
            table, index = _slice_seeds(points, swap_applies(objective))
            values = np.concatenate([_grid_axis(points), -_grid_axis(points)])
            pairs = np.stack(np.meshgrid(values, values, indexing="ij"), -1)
            assert np.array_equal(table, pairs.reshape(-1, 2))
            want = reference._class_seeds(sc)
            assert np.array_equal(table[index].view(np.int64),
                                  want.view(np.int64)), points

    @pytest.mark.parametrize("objective", [
        StaticAsymptotic(), StaticFinite(8, 8), DiAsymptotic(0.0),
        DiFinite(8, 8, 0.0), StaticFinite(6, 12)], ids=repr)
    def test_seeds_cover_the_oracles_best_classes(self, objective):
        """At every grid of 2-21 points: each symmetry class among the
        oracle's 4,096 best finite seeds has an image among the seeds, and
        the best seed value equals the oracle's within 1e-12 relative.  At
        21 points the seeds are at most a third of the oracle's sets."""
        swap = swap_applies(objective)
        for points in range(2, 22):
            sc = SearchConfig(objective, grid_points_per_axis=points)
            table, index = _slice_seeds(points, swap)
            whole, seeds = reference._slice_seeds(sc), table[index]
            whole_vals = _batched(objective, table, _rows_in(table, whole))
            best = np.argsort(whole_vals)[:4096]
            best = best[np.isfinite(whole_vals[best])]
            codes = _grid_codes(_symmetry_images(whole[best], swap), points)
            found = np.isin(codes, _grid_codes(seeds, points)).any(-1)
            assert found.all(), (points, whole[best[~found][0]])
            assert _batched(objective, table, index).min() == pytest.approx(
                whole_vals.min(), rel=1e-12), points
        assert 3 * len(seeds) <= len(whole)


def _distinct_up_to_symmetry(sets, swap):
    """Whether every two of ``sets`` differ by more than 0.05 in some
    coordinate at every image of one of them."""
    images = _symmetry_images(np.array(sets), swap)
    return all(np.abs(images[i] - sets[j]).max(axis=(1, 2)).min() > 0.05
               for i in range(len(sets)) for j in range(i))


class TestDistinctStarts:
    @pytest.mark.parametrize("objective, points, count", [
        (StaticAsymptotic(), 21, 16), (DiAsymptotic(0.0), 21, 16),
        (StaticFinite(8, 8), 21, 16), (StaticFinite(6, 12), 21, 16),
        # the grid starts of each size of a --robustness 8,16,32,64 sweep
        *[(cls(m, m), 13, 8) for cls in (StaticFinite, DiFinite)
          for m in (8, 16, 32, 64)]], ids=str)
    def test_restarts_are_distinct_up_to_symmetry(self, objective, points,
                                                  count):
        """No grid start is within 0.05 of an image of another one."""
        starts, _ = _grid_starts([objective], points, count)[0]
        assert len(starts) == count
        assert _distinct_up_to_symmetry(starts, swap_applies(objective))

    def test_images_of_a_picked_set_are_skipped(self):
        """Every image of a picked set is skipped, and so is a set within
        0.05 of one; the swap images only where the swap applies."""
        first, other = FADING_OFFSETS.deltas, STATIC_OFFSETS.deltas
        images = list(_symmetry_images(first)[1:]) + [
            _symmetry_images(first)[17] + 0.04]
        assert not _distinct_up_to_symmetry([first, *images], swap=True)
        picked = _distinct_rows([first, *images, other], 3, swap=True)
        assert np.array_equal(picked, [first, other])
        swapped = first[:, ::-1]
        picked = _distinct_rows([first, swapped, other], 3, swap=False)
        assert np.array_equal(picked, [first, swapped, other])


class TestOptimizer:
    def test_static_asymptotic_matches_preset_value(self):
        """The search result is at least as good as the shipped preset and
        within 0.1% of its value."""
        sc = SearchConfig(StaticAsymptotic(), grid_points_per_axis=13,
                          refine_iters=400)
        res = optimize_offsets(sc)
        preset = StaticAsymptotic().evaluate(STATIC_OFFSETS.deltas)
        assert res.crlb_value <= preset * (1 + 1e-3)
        assert res.crlb_value > 0.9 * preset  # same landscape, same scale

    def test_result_value_is_reproducible_and_consistent(self):
        sc = SearchConfig(StaticAsymptotic(), grid_points_per_axis=9,
                          refine_iters=200)
        r1 = optimize_offsets(sc)
        r2 = optimize_offsets(sc)
        assert r1.crlb_value == r2.crlb_value
        assert np.array_equal(r1.offsets.deltas, r2.offsets.deltas)
        # SearchResult invariant: value equals the objective at the offsets
        assert r1.crlb_value == pytest.approx(
            StaticAsymptotic().evaluate(r1.offsets.deltas), abs=1e-12)

    def test_never_leaves_the_box(self):
        calls = []

        class Spy(StaticAsymptotic):
            def kernels(self, table):
                calls.append(float(np.abs(table).max()))
                return super().kernels(table)

            def evaluate(self, d, index=None):
                if index is None:
                    calls.append(float(np.abs(d).max()))
                return super().evaluate(d, index)

        sc = SearchConfig(Spy(), grid_points_per_axis=5, refine_iters=60)
        optimize_offsets(sc)
        # starts on the box edge, and a singular one with its wide stencil
        edge = np.clip(3 * STATIC_OFFSETS.deltas, -BOX_HALFWIDTH,
                       BOX_HALFWIDTH)
        _search_from(sc, [edge, -edge, np.full((3, 2), 0.2)])
        assert max(calls) <= BOX_HALFWIDTH + 1e-12

    def test_degenerate_starts(self):
        """All-equal offsets either escape to a finite optimum or raise."""
        start = np.full((3, 2), 0.2)
        sc = SearchConfig(StaticAsymptotic(), refine_iters=200)
        try:
            res = _search_from(sc, [start])
            assert np.isfinite(res.crlb_value)
        except NoImprovement:
            pass


class TestResultValue:
    """A result's ``crlb_value`` is the value Newton holds for its offsets,
    and equals the objective's direct route at them bit for bit."""

    @pytest.mark.parametrize("objective", [
        StaticAsymptotic(), DiAsymptotic(0.0), StaticFinite(8, 8),
        DiFinite(8, 8, 0.0)], ids=repr)
    def test_search(self, objective):
        res = optimize_offsets(SearchConfig(objective,
                                            grid_points_per_axis=13))
        assert _same_bits(res.crlb_value,
                          objective.evaluate(res.offsets.deltas))

    @pytest.mark.parametrize("base, preset", [
        (StaticFinite(8, 8), STATIC_OFFSETS),
        (DiFinite(8, 8, 0.0), FADING_OFFSETS)], ids=["static", "di"])
    def test_every_size_of_a_sweep(self, base, preset, monkeypatch):
        results = []
        search = beamtrack.offsets._search

        def spy(objectives, *args):
            out = search(objectives, *args)
            results.extend(zip(objectives, out))
            return out

        monkeypatch.setattr(beamtrack.offsets, "_search", spy)
        sizes = [(8, 8), (16, 16), (32, 32), (64, 64)]
        rows = robustness_sweep(preset, base, sizes)
        assert [o for o, _ in results] == [replace(base, m=m, n=n)
                                           for m, n in sizes]
        for (objective, res), row in zip(results, rows):
            assert _same_bits(res.crlb_value,
                              objective.evaluate(res.offsets.deltas))
            assert row[2] == res.crlb_value


def _held(vals):
    """Values as the search holds them, non-finite ones at 1e30."""
    return np.where(np.isfinite(vals), vals, 1e30)


def _search_values(objective):
    """The objective in the lockstep Newton's ``f(table, index, restarts)``
    form: the values of the sets table[index]."""
    def f(table, index, restarts):
        return _held(objective.evaluate(table[index]))
    return f


def _oracle_values(objective):
    """The objective in the Nelder-Mead oracle's ``f(points, restarts)``
    form: the values of the sets (k, 6)."""
    def f(points, restarts):
        return _held(objective.evaluate(points.reshape(-1, 3, 2)))
    return f


def _oracle_minimum(objective, starts, iters=400):
    """The best value of the two bounded Nelder-Mead stages from ``starts``:
    multi-start, then a polish from the best restart."""
    f, bh = _oracle_values(objective), BOX_HALFWIDTH
    sim, fsim, _, _ = _nelder_mead(f, np.reshape(starts, (-1, 6)), -bh, bh,
                                   iters, 4 * iters, 1e-10, 1e-12)
    best = int(np.argmin(fsim.min(axis=1)))
    _, polished, _, _ = _nelder_mead(f, sim[best, :1], -bh, bh, 4 * iters,
                                     16 * iters, 1e-12, 1e-14)
    return min(fsim[best].min(), polished.min())


_PRESET = {StaticAsymptotic: STATIC_OFFSETS, StaticFinite: STATIC_OFFSETS,
           DiAsymptotic: FADING_OFFSETS, DiFinite: FADING_OFFSETS}


class TestNewton:
    """The lockstep Newton search against the Nelder-Mead oracle."""

    @pytest.mark.parametrize("objective, rel", [
        (StaticAsymptotic(), 1e-12), (DiAsymptotic(0.0), 1e-12),
        *[(cls(m, n), 1e-12) for cls in (StaticFinite, DiFinite)
          for m, n in ((4, 4), (8, 8), (16, 16), (64, 64), (6, 12))],
        *[(cls(m, m), 1e-8) for cls in (StaticFinite, DiFinite)
          for m in (2, 3)]], ids=repr)
    def test_minimum_matches_oracle(self, objective, rel):
        """From the same grid starts the searched minimum is at most the
        oracle's; at 2x2 and 3x3, where the optimum can sit on the box
        edge, within 1e-8."""
        starts, _ = _grid_starts([objective], 13, 8)[0]
        res = _search_from(SearchConfig(objective), starts)
        assert res.crlb_value <= _oracle_minimum(objective, starts) * (1 + rel)

    @pytest.mark.parametrize("objective", [StaticAsymptotic(),
                                           DiAsymptotic(0.0)], ids=repr)
    def test_box_edge_and_corner_starts(self, objective):
        """Starts on the box edge, and the corner starts of a two-point
        grid (from which the oracle stalls at 3.727 in the static limit),
        reach the preset's value within 0.1%."""
        preset = _PRESET[type(objective)].deltas
        edges = [np.clip(3 * preset, -BOX_HALFWIDTH, BOX_HALFWIDTH),
                 np.where(preset > 0, BOX_HALFWIDTH, -BOX_HALFWIDTH)
                 * np.array([1.0, 0.5])]
        target = objective.evaluate(preset)
        for res in (_search_from(SearchConfig(objective), edges),
                    optimize_offsets(SearchConfig(objective,
                                                  grid_points_per_axis=2))):
            assert res.crlb_value == pytest.approx(target, rel=1e-3)

    @pytest.mark.parametrize("objective", [
        StaticAsymptotic(), DiAsymptotic(0.0), StaticFinite(8, 8),
        DiFinite(8, 8, 0.0)], ids=repr)
    @pytest.mark.parametrize("start", [
        np.full((3, 2), 0.2), np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]),
        np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])],
        ids=["equal", "diagonal", "axis"])
    def test_singular_start(self, objective, start):
        """A start whose bound is infinite (f = 1e30) either reaches a
        finite minimum, here the preset's value within 0.1%, or raises."""
        assert np.isinf(objective.evaluate(start))
        try:
            res = _search_from(SearchConfig(objective), [start])
        except NoImprovement:
            return
        target = objective.evaluate(_PRESET[type(objective)].deltas)
        assert res.crlb_value == pytest.approx(target, rel=1e-3)

    def test_restart_alone_equals_restart_in_batch(self):
        """Each restart's final point and value are the same bits run
        alone, in a split batch and in the whole batch: grid starts, starts
        on the box edge and a singular start."""
        grid, _ = _grid_starts([DiFinite(8, 8, 0.0)], 9, 6)[0]
        edge = np.clip(3 * FADING_OFFSETS.deltas, -BOX_HALFWIDTH,
                       BOX_HALFWIDTH)
        starts = np.reshape(grid + [edge, -edge, np.full((3, 2), 0.2)],
                            (-1, 6))
        f, bh = _search_values(DiFinite(8, 8, 0.0)), BOX_HALFWIDTH
        x, fx = _newton(f, starts, -bh, bh, 400)
        half = len(starts) // 2
        for part in (slice(0, half), slice(half, None)):
            xp, fp = _newton(f, starts[part], -bh, bh, 400)
            assert np.array_equal(xp, x[part]) and np.array_equal(fp, fx[part])
        for i, s0 in enumerate(starts):
            xi, fi = _newton(f, s0[None], -bh, bh, 400)
            assert np.array_equal(xi[0], x[i]) and fi[0] == fx[i], i


class TestNewtonCalls:
    """The tables and indices ``_newton`` hands its objective: the starts
    and every trial stage as a table of the sets' own offsets with the
    identity index, every stencil stage as 27 offsets per running restart
    that only that restart's 73 stencil sets index."""

    def test_every_call_of_a_multi_restart_run(self, monkeypatch):
        calls = []
        newton = beamtrack.offsets._newton

        def spied(f, *args):
            def g(table, index, restarts):
                calls.append((table.copy(), index.copy(), restarts.copy()))
                return f(table, index, restarts)
            return newton(g, *args)

        monkeypatch.setattr(beamtrack.offsets, "_newton", spied)
        objective = DiFinite(8, 8, 0.0)
        grid, _ = _grid_starts([objective], 9, 6)[0]
        # a singular start takes the wide stencil of step _ESCAPE
        starts = grid + [np.full((3, 2), 0.2)]
        _search_from(SearchConfig(objective), starts)
        offs = _stencil(6)[0]

        def assert_own_rows(table, index, restarts):
            assert np.array_equal(index, np.arange(len(table)).reshape(-1, 3))
            assert np.all(restarts.reshape(-1, 3) == restarts[::3, None])

        (table, index, restarts), *stages = calls
        assert_own_rows(table, index, restarts)
        assert np.array_equal(table.reshape(-1, 6),
                              np.reshape(starts, (-1, 6)))
        assert np.array_equal(restarts[::3], np.arange(len(starts)))
        assert len(stages) > 2 and len(stages) % 2 == 0
        steps = set()
        for (table, index, restarts), trial in zip(stages[::2], stages[1::2]):
            run = restarts[::27]
            assert len(table) == 27 * len(run) and len(index) == 73 * len(run)
            assert np.all(np.diff(run) > 0)
            for r in range(len(run)):
                own = slice(27 * r, 27 * r + 27)
                sets = index[73 * r:73 * r + 73]
                assert np.all(restarts[own] == run[r])
                assert np.array_equal(np.unique(sets), np.arange(27)
                                      + 27 * r)
                # the sets are the stencil around its centre, set 0
                points = table[sets].reshape(73, 6)
                h = points[1, 0] - points[0, 0]
                steps.add(round(h, 6))
                np.testing.assert_allclose(points - points[0], h * offs,
                                           atol=1e-12)
            assert_own_rows(*trial)
            assert set(trial[2]) <= set(run)
        assert steps == {1e-4, 0.05}


class TestRobustnessSweep:
    @pytest.mark.parametrize("base, preset", [
        (StaticFinite(8, 8), STATIC_OFFSETS),
        (DiFinite(8, 8, 3.0), FADING_OFFSETS)])
    def test_lockstep_sweep_equals_per_size_searches(self, base, preset,
                                                     monkeypatch):
        """One lockstep run of every size's search, a non-square and a
        duplicate size included, gives each size the row of a search at
        that size alone, bit for bit.  Each Newton stage makes exactly one
        objective call for all sizes, and each size's sets, split out of
        the sweep's grid call and of each stage's call by their per-set
        size, are the sets of that size's search alone (twice over, one
        copy per search, for the duplicate size)."""
        sizes = [(4, 4), (6, 12), (8, 8), (8, 8), (12, 12)]
        calls, phases = [], []

        tables = []

        @dataclass(frozen=True)
        class Spy(type(base)):
            def kernels(self, table):
                lead = table.shape[:1]
                tables.append((np.broadcast_to(self.m, lead),
                               np.broadcast_to(self.n, lead), table))
                return super().kernels(table)

            def evaluate(self, d, index=None):
                if index is not None:   # sets of a table's rows
                    m, n, table = tables[-1]
                    calls.append((m[index[:, 0]], n[index[:, 0]],
                                  table[index]))
                elif np.ndim(d) == 3:   # not one of the single-set calls
                    lead = np.shape(d)[:1]
                    calls.append((np.broadcast_to(self.m, lead),
                                  np.broadcast_to(self.n, lead), d))
                return super().evaluate(d, index)

        newton = beamtrack.offsets._newton

        def staged(f, *args):
            """Newton with each stage's calls as one phase, after the grid
            calls as the first."""
            phases.append(calls[:])

            def stage(*stage_args):
                calls.clear()
                vals = f(*stage_args)
                phases.append(calls[:])
                return vals
            return newton(stage, *args)

        monkeypatch.setattr(beamtrack.offsets, "_newton", staged)

        def at_size(phase, size):
            return np.concatenate([np.empty((0, 3, 2))] + [
                sets[(m == size[0]) & (n == size[1])]
                for m, n, sets in phase])

        spy = Spy(**vars(base))
        rows = robustness_sweep(preset, spy, sizes)
        swept = phases[:]
        assert all(len(phase) == 1 for phase in swept[1:])
        expected = []
        for m, n in sizes:
            sc = SearchConfig(replace(spy, m=m, n=n))
            calls.clear()
            phases.clear()
            at = float(sc.objective.evaluate(preset.deltas))
            starts, _ = _grid_starts([sc.objective], 13, 8)[0]
            best = _search_from(sc, [preset.deltas] + starts)
            gap = (at - best.crlb_value) / best.crlb_value
            expected.append(((m, n), at, best.crlb_value, gap))
            assert len(phases) <= len(swept)
            copies = sizes.count((m, n))
            for p, phase in enumerate(swept):
                alone = at_size(phases[p], (m, n)) if p < len(phases) \
                    else np.empty((0, 3, 2))
                assert np.array_equal(at_size(phase, (m, n)),
                                      np.concatenate([alone] * copies)), p
        assert rows == expected

    def test_incumbent_check_fires(self):
        """Each size's result is held against the values the sweep took
        outside Newton: on an objective whose single-set route reads lower
        than its batches, the fixed set's value beats every Newton iterate
        and the sweep fails, naming the size."""

        @dataclass(frozen=True)
        class Skewed(StaticFinite):
            def evaluate(self, d, index=None):
                val = super().evaluate(d, index)
                return 0.5 * val if index is None and np.ndim(d) == 2 else val

        with pytest.raises(NoImprovement, match="lost to its own seed.*6x6"):
            robustness_sweep(STATIC_OFFSETS, Skewed(8, 8), [(6, 6)])

    def test_small_array_has_larger_gap(self):
        """The shipped static preset is <0.1% suboptimal at 8x8 but visibly
        worse at 4x4."""
        rows = robustness_sweep(STATIC_OFFSETS, StaticFinite(8, 8),
                                [(4, 4), (8, 8)])
        gap4 = rows[0][3]
        gap8 = rows[1][3]
        assert gap8 < 1e-3
        assert gap4 > gap8

    def test_fading_preset_across_gain_snr(self):
        """The fading preset stays within 0.1% of the finite-size minimum
        for gain SNRs of 0/10/20 dB at 8x8; well below 0 dB it visibly
        degrades (the edge of its design regime)."""
        rows = [row for snr in (0.0, 10.0, 20.0)
                for row in robustness_sweep(FADING_OFFSETS,
                                            DiFinite(8, 8, snr), [(8, 8)])]
        for _, _, _, gap in rows:
            assert -1e-9 <= gap < 1e-3
        low = robustness_sweep(FADING_OFFSETS, DiFinite(8, 8, -10.0),
                               [(8, 8)])
        assert low[0][3] > 5e-3
