"""Unit tests for array geometry, steering vectors, kernels, and the pattern."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.arrays import (Aoa, ArrayConfig, OutOfPhysicalRange,
                              _gain_kernel, _phase_deriv_kernel,
                              _ratio_series, aoa_coords,
                              aoa_from_dpv,
                              beam_gain_kernel,
                              dpv_coords, dpv_from_aoa, element_gain_db,
                              element_gain_db_angles, probe_kernels, probe_kernels_limit,
                              steering_vector)

from reference import (beam_gain_kernel_per_axis, gain_kernel_per_axis,
                       probe_kernels_limit_per_axis, probe_kernels_per_axis,
                       steering_derivative)

CFG = ArrayConfig(8, 8)


def sum_kernels(deltas, m, n):
    """The probe kernels by summing the M + N exponentials: the oracle of the
    closed form."""
    d = np.asarray(deltas, float)
    d1 = d[..., 0][..., None]
    d2 = d[..., 1][..., None]
    im = np.arange(m)
    inn = np.arange(n)
    e1 = np.exp(-2j * np.pi * d1 * im / m)
    e2 = np.exp(-2j * np.pi * d2 * inn / n)
    s1 = e1.sum(-1)
    s2 = e2.sum(-1)
    t1 = (im * e1).sum(-1)
    t2 = (inn * e2).sum(-1)
    root = np.sqrt(m * n)
    return (s1 * s2 / root,
            (2j * np.pi / m) * t1 * s2 / root,
            (2j * np.pi / n) * s1 * t2 / root)


class TestDpvMapping:
    def test_broadside(self):
        """theta=0, phi=pi/2 maps to the origin."""
        x = dpv_from_aoa(CFG, Aoa(0.0, np.pi / 2))
        assert abs(x[0]) < 1e-12 and abs(x[1]) < 1e-12

    def test_endfire(self):
        """theta=0, phi=0 gives x1 = M*d1/lambda = 4."""
        x = dpv_from_aoa(CFG, Aoa(0.0, 0.0))
        assert abs(x[0] - 4.0) < 1e-12 and abs(x[1]) < 1e-12

    def test_elevation(self):
        """theta=pi/6, phi=pi/2 gives x2 = N*d2*sin(pi/6)/lambda = 2."""
        x = dpv_from_aoa(CFG, Aoa(np.pi / 6, np.pi / 2))
        assert abs(x[0]) < 1e-12 and abs(x[1] - 2.0) < 1e-12

    def test_inverse_trivial(self):
        assert aoa_from_dpv(CFG, (0.0, 0.0)) == Aoa(0.0, np.pi / 2)
        a = aoa_from_dpv(CFG, (4.0, 0.0))
        assert abs(a.theta) < 1e-12 and abs(a.phi) < 1e-12

    def test_round_trip(self):
        """Random physical directions survive the dpv -> aoa -> dpv loop."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            aoa = Aoa(rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01),
                      rng.uniform(0.01, np.pi - 0.01))
            x = dpv_from_aoa(CFG, aoa)
            back = dpv_from_aoa(CFG, aoa_from_dpv(CFG, x))
            assert abs(back[0] - x[0]) <= 1e-12 * max(1, abs(x[0]))
            assert abs(back[1] - x[1]) <= 1e-12 * max(1, abs(x[1]))

    def test_out_of_range(self):
        with pytest.raises(OutOfPhysicalRange):
            aoa_from_dpv(CFG, (0.0, 4.5))
        with pytest.raises(OutOfPhysicalRange):
            aoa_from_dpv(CFG, (4.5, 0.0))
        # the clamping inverse maps to the nearest physical angle instead
        theta, _ = aoa_coords(CFG, 0.0, 4.5)
        assert abs(theta - np.pi / 2) < 1e-9


_CONFIGS = st.builds(ArrayConfig, m=st.integers(1, 64), n=st.integers(1, 64),
                     d1=st.floats(0.1, 2.0), d2=st.floats(0.1, 2.0))


class TestDpvInverseProperties:
    """The inverses on the documented branch, theta in [-pi/2, pi/2) and
    phi in [0, pi], away from the edges where phi or theta is not
    determined (cos theta = 0, sin phi = 0)."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=_CONFIGS, theta=st.floats(-np.pi / 2 + 0.01, np.pi / 2 - 0.01),
           phi=st.floats(0.01, np.pi - 0.01))
    def test_aoa_from_dpv_inverts_dpv_from_aoa(self, cfg, theta, phi):
        back = aoa_from_dpv(cfg, dpv_from_aoa(cfg, Aoa(theta, phi)))
        assert abs(back.theta - theta) < 1e-9
        assert abs(back.phi - phi) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(cfg=_CONFIGS,
           angles=st.lists(st.tuples(st.floats(-np.pi / 2 + 0.01,
                                               np.pi / 2 - 0.01),
                                     st.floats(0.01, np.pi - 0.01)),
                           min_size=1, max_size=8))
    def test_aoa_coords_inverts_dpv_coords(self, cfg, angles):
        theta, phi = np.array(angles).T
        back_theta, back_phi = aoa_coords(cfg, *dpv_coords(cfg, theta, phi))
        assert np.abs(back_theta - theta).max() < 1e-9
        assert np.abs(back_phi - phi).max() < 1e-9


class TestSteering:
    def test_all_ones_at_origin(self):
        assert np.allclose(steering_vector(CFG, (0.0, 0.0)), 1.0)

    def test_two_element_sign(self):
        cfg = ArrayConfig(2, 1)
        a = steering_vector(cfg, (1.0, 0.0))
        assert np.allclose(a, [1.0, -1.0])

    def test_unit_modulus_norm(self):
        """Squared 2-norm is MN for any direction."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = steering_vector(CFG, rng.uniform(-4, 4, 2))
            assert abs(np.vdot(a, a).real - CFG.size) < 1e-9

    def test_kronecker_layout(self):
        """Flat order is m-major: entry (i*n + j) has phase i*x1/M + j*x2/N."""
        x1, x2 = 0.7, -1.3
        a = steering_vector(CFG, (x1, x2))
        a1 = np.exp(2j * np.pi * np.arange(8) * x1 / 8)
        a2 = np.exp(2j * np.pi * np.arange(8) * x2 / 8)
        assert np.allclose(a, np.kron(a1, a2))
        assert abs(a[1 * 8 + 2] - a1[1] * a2[2]) < 1e-12

    def test_derivative_first_entry_zero(self):
        d = steering_derivative(CFG, (0.4, 0.9), 1)
        assert d[0] == 0

    def test_derivative_two_element(self):
        cfg = ArrayConfig(2, 1)
        d = steering_derivative(cfg, (0.0, 0.0), 1)
        assert np.allclose(d, [0.0, 1j * np.pi])

    def test_derivative_matches_finite_difference(self):
        """Central differences of the steering vector, h = 1e-6."""
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            for axis in (1, 2):
                dx = np.zeros(2)
                dx[axis - 1] = h
                fd = (steering_vector(CFG, x + dx)
                      - steering_vector(CFG, x - dx)) / (2 * h)
                an = steering_derivative(CFG, x, axis)
                assert np.abs(fd - an).max() / np.abs(an).max() < 1e-6


class TestBeamGainKernel:
    def test_peak(self):
        assert beam_gain_kernel((0.0, 0.0), 8, 8) == 64.0

    def test_null(self):
        assert abs(beam_gain_kernel((1.0, 0.0), 8, 8)) < 1e-9

    def test_matches_brute_force_inner_product(self):
        """|sqrt(MN) w(x+d)^H a(x)| by direct summation."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.uniform(-2, 2, 2)
            d = rng.uniform(-0.99, 0.99, 2)
            w = steering_vector(CFG, x + d) / np.sqrt(CFG.size)
            val = abs(np.sqrt(CFG.size) * np.vdot(w, steering_vector(CFG, x)))
            assert abs(val - abs(beam_gain_kernel(d, 8, 8))) < 1e-8

    def test_even_in_each_coordinate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d1, d2 = rng.uniform(-0.9, 0.9, 2)
            v = beam_gain_kernel((d1, d2), 8, 8)
            assert abs(v - beam_gain_kernel((-d1, d2), 8, 8)) < 1e-10
            assert abs(v - beam_gain_kernel((d1, -d2), 8, 8)) < 1e-10

    def test_limit_branch_at_multiples(self):
        """At d = kM the axis factor takes its limit (-1)^(k(M-1)) M."""
        assert abs(beam_gain_kernel((8.0, 0.0), 8, 8) + 64.0) < 1e-6

    @pytest.mark.parametrize("m", [3, 8])
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_continuous_at_multiples(self, m, k):
        """The value at d = kM equals its neighbours at kM +- 1e-9."""
        at = beam_gain_kernel((k * m, 0.3), m, 5)
        for eps in (1e-9, -1e-9):
            assert abs(beam_gain_kernel((k * m + eps, 0.3), m, 5) - at) < 1e-6


def _axis_offsets(size):
    """Offsets along one axis: uniform in +-2 size, or at and within
    +-1e-12, +-1e-9, +-1e-6 of an integer multiple of size."""
    near = st.builds(lambda k, eps: k * size + eps, st.integers(-2, 2),
                     st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9,
                                      1e-6, -1e-6]))
    return st.lists(st.floats(-2.0 * size, 2.0 * size) | near,
                    min_size=1, max_size=8)


@st.composite
def _array_and_offsets(draw):
    sizes = st.sampled_from([1, 2, 8]) | st.integers(1, 256)
    m, n = draw(sizes), draw(sizes)
    d1 = draw(_axis_offsets(m))
    d2 = draw(_axis_offsets(n))
    rows = max(len(d1), len(d2))
    d = np.stack([np.resize(d1, rows), np.resize(d2, rows)], axis=-1)
    return m, n, d


class TestClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(case=_array_and_offsets())
    def test_matches_sums(self, case):
        """Within 1e-12 sqrt(MN) for w^H a and 1e-12 pi sqrt(MN) for the
        derivative kernels, including at and next to multiples of M, N."""
        m, n, d = case
        got = probe_kernels(d, m, n)
        want = sum_kernels(d, m, n)
        tol = 1e-12 * np.sqrt(m * n)
        assert np.abs(got[0] - want[0]).max() <= tol
        assert np.abs(got[1] - want[1]).max() <= np.pi * tol
        assert np.abs(got[2] - want[2]).max() <= np.pi * tol
        assert np.array_equal(_gain_kernel(d, m, n), got[0])

    def test_ratio_series_matches_power_sums(self):
        """The series of sin(size u)/sin(u) equals, bit for bit, the exact
        integer power sums of its cosine expansion sum_i cos(b_i u),
        b_i = 2i - (size - 1), for sizes 1-300; at size 10^12 the first two
        coefficients are size and -size(size^2 - 1)/6."""
        for size in range(1, 301):
            b = range(1 - size, size, 2)
            want = tuple((-1) ** k * sum(v ** (2 * k) for v in b)
                         / math.factorial(2 * k) for k in range(6))
            assert _ratio_series(size) == want
        big = 10**12
        a = _ratio_series(big)
        assert a[:2] == (float(big), -float((big**3 - big) // 6))

    def test_phase_derivative_kernel(self):
        """(e^{-jt}(1+jt) - 1)/t^2 within 1e-14 relative of a 50-digit
        evaluation over t in [1e-8, 1], across the series/direct switch."""
        mpmath = pytest.importorskip("mpmath")
        t = np.concatenate([np.geomspace(1e-8, 1.0, 400), [1.001e-3, 1e-2],
                            -np.geomspace(1e-8, 1.0, 40)])
        with mpmath.workdps(50):
            want = np.array([complex((mpmath.exp(-1j * mpmath.mpf(v))
                                      * (1 + 1j * mpmath.mpf(v)) - 1)
                                     / mpmath.mpf(v) ** 2) for v in t])
        x = t / 2
        got = _phase_deriv_kernel(x, np.sin(x), np.cos(x))
        assert (np.abs(got - want) / np.abs(want)).max() <= 1e-14


def _same_bits(got, want):
    """Equal shapes, dtypes and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


def _one_pass_offsets(size):
    """Offsets along one axis: those of :func:`_axis_offsets`, plus offsets
    in the series branch, k * size + r with |pi r| < 0.1."""
    series = st.builds(lambda k, r: k * size + r, st.integers(-2, 2),
                       st.floats(-0.03, 0.03))
    return st.lists(st.floats(-2.0 * size, 2.0 * size) | series,
                    min_size=1, max_size=8) | _axis_offsets(size)


@st.composite
def _one_pass_case(draw):
    """An m x n array, square or not, sizes 1-256, and (k, 2) offsets."""
    sizes = st.sampled_from([1, 2, 8, 256]) | st.integers(1, 256)
    m = draw(sizes)
    n = m if draw(st.booleans()) else draw(sizes.filter(lambda v: v != m))
    d1 = draw(_one_pass_offsets(m))
    d2 = draw(_one_pass_offsets(n))
    rows = max(len(d1), len(d2))
    return m, n, np.stack([np.resize(d1, rows), np.resize(d2, rows)], axis=-1)


class TestOnePassKernels:
    """Both axes in one pass give the bits of one pass per axis
    (``reference.axis_sums``), on every kernel route, for square and
    non-square arrays of 1-256 elements per axis, with offsets in the
    series branch and at and next to multiples of M and N."""

    @settings(max_examples=200, deadline=None)
    @given(case=_one_pass_case(), lead=st.sampled_from([0, 1, 2]))
    def test_direct_routes(self, case, lead):
        """(k, 2), (1, k, 2) and (2, k, 2) offsets."""
        m, n, d = case
        d = [d, d[None], np.stack([d, -d])][lead]
        for got, want in zip(probe_kernels(d, m, n),
                             probe_kernels_per_axis(d, m, n)):
            assert _same_bits(got, want)
        assert _same_bits(_gain_kernel(d, m, n), gain_kernel_per_axis(d, m, n))
        assert _same_bits(beam_gain_kernel(d, m, n),
                          beam_gain_kernel_per_axis(d, m, n))
        for got, want in zip(probe_kernels_limit(d / m),
                             probe_kernels_limit_per_axis(d / m)):
            assert _same_bits(got, want)

    @settings(max_examples=200, deadline=None)
    @given(case=_one_pass_case(), data=st.data())
    def test_table_routes(self, case, data):
        """The kernels of a table of offsets, taken once per row and
        gathered by an index (k, 3), as the offset search takes them: the
        bits of the kernels of the gathered offsets, at one size and at
        one size per row, and in the limit.  An offset's kernels do not
        depend on where it sits in a call."""
        m, n, table = case
        rows = st.integers(0, len(table) - 1)
        index = np.array(data.draw(st.lists(rows, min_size=3, max_size=24)))
        index = index[:len(index) // 3 * 3].reshape(-1, 3)
        # per row, this size or the other axis' (off a square array)
        per_row = np.array(data.draw(st.lists(st.booleans(),
                                              min_size=len(table),
                                              max_size=len(table))))
        mr, nr = np.where(per_row, m, n), np.where(per_row, n, m)
        for sizes, at_sets in (((m, n), (m, n)),
                               ((mr, nr), (mr[index], nr[index]))):
            for got, want in zip(probe_kernels(table, *sizes),
                                 probe_kernels(table[index], *at_sets)):
                assert _same_bits(got[index], want)
        for got, want in zip(probe_kernels_limit(table / m),
                             probe_kernels_limit(table[index] / m)):
            assert _same_bits(got[index], want)


class TestShiftProperty:
    def test_probe_kernels_independent_of_center(self):
        """w(x+d)^H a(x) depends only on d, across 50 random centers."""
        rng = np.random.default_rng(5)
        d = np.array([0.31, -0.47])
        ref_g, ref_k1, ref_k2 = probe_kernels(d, 8, 8)
        for _ in range(50):
            x = rng.uniform(-4, 4, 2)
            w = steering_vector(CFG, x + d) / np.sqrt(CFG.size)
            assert abs(np.vdot(w, steering_vector(CFG, x)) - ref_g) < 1e-12 * 64
            assert abs(np.vdot(w, steering_derivative(CFG, x, 1)) - ref_k1) < 1e-10 * 64
            assert abs(np.vdot(w, steering_derivative(CFG, x, 2)) - ref_k2) < 1e-10 * 64

    def test_limit_kernels_are_large_array_limits(self):
        """Finite kernels scaled by 1/sqrt(MN) approach the Sa-form limits."""
        d = np.array([0.37, -0.52])
        gl, k1l, k2l = probe_kernels_limit(d)
        prev = np.inf
        for m in (8, 32, 128, 512):
            g, k1, k2 = probe_kernels(d, m, m)
            err = max(abs(g / m - gl), abs(k1 / m - k1l), abs(k2 / m - k2l))
            assert err < prev
            prev = err
        assert prev < 5e-3  # kernel error decays like 1/M

    def test_limit_kernel_zero_offset(self):
        """At zero offset the limit gain is 1 and the derivative is j*pi."""
        g, k1, k2 = probe_kernels_limit(np.zeros(2))
        assert abs(g - 1.0) < 1e-12
        assert abs(k1 - 1j * np.pi) < 1e-9
        assert abs(k2 - 1j * np.pi) < 1e-9


class TestElementPattern:
    """The 3GPP TR 38.901 element pattern, pinned by its numbers: 65 degree
    (13 pi / 36) 3 dB beamwidths and a 30 dB floor."""

    def test_broadside_is_zero_db(self):
        assert element_gain_db(Aoa(0.0, np.pi / 2)) == 0.0

    def test_half_beamwidth_is_minus_3db(self):
        got = element_gain_db(Aoa(13 * np.pi / 72, np.pi / 2))
        assert abs(got + 3.0) < 1e-12
        got = element_gain_db(Aoa(0.0, np.pi / 2 + 13 * np.pi / 72))
        assert abs(got + 3.0) < 1e-12

    def test_edge_cap_minus_30db(self):
        eps = 1e-6
        got = element_gain_db(Aoa(np.pi / 2 - eps, np.pi - eps))
        assert abs(got + 30.0) < 1e-9

    def test_bounds(self):
        """Never above 0 dB, never below -30 dB; the peak sits at broadside."""
        rng = np.random.default_rng(6)
        th = rng.uniform(-np.pi / 2, np.pi / 2, 2000)
        ph = rng.uniform(0, np.pi, 2000)
        db = element_gain_db_angles(th, ph)
        assert np.all(db <= 0.0) and np.all(db >= -30.0)


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 8)
        # the pilot's square, the pilot SNR, must be a normal float
        for pilot in (0.0, 1e155, 1e-155, math.inf, math.nan):
            with pytest.raises(ValueError, match="pilot amplitude"):
                ArrayConfig(8, 8, pilot_amp=pilot)
