"""Unit tests for the exploration-offset optimizer and canonicalization."""

import numpy as np
import pytest

from beamtrack.offsets import (FADING_OFFSETS, STATIC_OFFSETS, DiAsymptotic,
                               DiFinite, NoImprovement, SearchConfig,
                               StaticAsymptotic, StaticFinite, canonicalize,
                               optimize_offsets, robustness_sweep)
from beamtrack.signal import OffsetSet


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

        class Spy:
            def evaluate(self, d):
                arr = np.asarray(d)
                calls.append(float(np.abs(arr).max()))
                return StaticAsymptotic().evaluate(d)

        sc = SearchConfig(Spy(), grid_points_per_axis=5, refine_iters=60,
                          box_halfwidth=0.9)
        optimize_offsets(sc)
        assert max(calls) <= 0.9 + 1e-12

    def test_degenerate_starts(self):
        """All-equal offsets either escape to a finite optimum or raise."""
        start = np.full((3, 2), 0.2)
        sc = SearchConfig(StaticAsymptotic(), refine_iters=200)
        try:
            res = optimize_offsets(sc, starts=[start])
            assert np.isfinite(res.crlb_value)
        except NoImprovement:
            pass

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            SearchConfig(StaticAsymptotic(), box_halfwidth=1.0)


class TestRobustnessSweep:
    def test_small_array_has_larger_gap(self):
        """The shipped static preset is <0.1% suboptimal at 8x8 but visibly
        worse at 4x4."""
        rows = robustness_sweep(STATIC_OFFSETS, [(4, 4), (8, 8)], "static")
        gap4 = rows[0][3]
        gap8 = rows[1][3]
        assert gap8 < 1e-3
        assert gap4 > gap8

    def test_fading_preset_across_gain_snr(self):
        """The fading preset stays within 0.1% of the finite-size minimum
        for gain SNRs of 0/10/20 dB at 8x8; well below 0 dB it visibly
        degrades (the edge of its design regime)."""
        rows = robustness_sweep(FADING_OFFSETS,
                                [(8, 8, 0.0), (8, 8, 10.0), (8, 8, 20.0)],
                                "di")
        for _, _, _, gap in rows:
            assert -1e-9 <= gap < 1e-3
        low = robustness_sweep(FADING_OFFSETS, [(8, 8, -10.0)], "di")
        assert low[0][3] > 5e-3
