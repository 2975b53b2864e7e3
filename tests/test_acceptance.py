"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale gates for the package's headline claims: reproduction of the two
shipped offset presets (by CRLB value), their finite-size robustness, the
bound invariances, identifiability, the tracker mean-field invariants, Fisher
correctness against Monte-Carlo oracles, asymptotic consistency, convergence
of the trackers to their bounds, the operation audit, the fast-channel
ordering, and the channel-model moments.
"""

import time

import numpy as np

from beamtrack.arrays import ArrayConfig
from beamtrack.channels import (DynamicI, DynamicII, QuasiStatic,
                                ScenarioConfig, evolve_chunk, evolve_normals,
                                init_channel_batch, initial_draws)
from beamtrack.checks import (check_fisher_oracles, check_identifiability,
                              check_mean_field)
from beamtrack.estimation import (DiModel, crlb_di_asymptotic, crlb_static,
                                  crlb_static_asymptotic, di_offsets_crlb,
                                  fisher_di, fisher_static,
                                  static_offsets_crlb)
from beamtrack.harness import ExperimentConfig, run_experiment
from beamtrack.offsets import (FADING_OFFSETS, STATIC_OFFSETS, DiAsymptotic,
                               DiFinite, SearchConfig, StaticAsymptotic,
                               StaticFinite, optimize_offsets)
from beamtrack.signal import ChannelParams, build_ebm
from beamtrack.trackers import (DiminishingStep, _jbct_direction_batch,
                                build_fast_cache, count_ops, jbct_direction)

CFG = ArrayConfig(8, 8)


def _report(criterion, ok, detail, elapsed, budget):
    line = (f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    print(line, flush=True)
    return ok


class TestCriterion1StaticOffsetsTable:
    def test_static_asymptotic_search_reproduces_preset_value(self):
        """The searched asymptotic CRLB is within 0.1% of the value at the
        shipped quasi-static preset; runtime < 2 min."""
        t0 = time.monotonic()
        res = optimize_offsets(SearchConfig(StaticAsymptotic()))
        preset = StaticAsymptotic().evaluate(STATIC_OFFSETS.deltas)
        rel = abs(res.crlb_value - preset) / preset
        elapsed = time.monotonic() - t0
        ok = rel < 1e-3 and elapsed < 120
        _report(1, ok, f"search {res.crlb_value:.6f} vs preset "
                       f"{preset:.6f} (rel {rel:.2e})", elapsed, 120)
        assert rel < 1e-3
        assert elapsed < 120


class TestCriterion2FadingOffsetsTable:
    def test_di_asymptotic_search_reproduces_preset_value(self):
        """Same gate for the fading-gain objective at 0 dB; < 3 min."""
        t0 = time.monotonic()
        res = optimize_offsets(SearchConfig(DiAsymptotic(0.0)))
        preset = DiAsymptotic(0.0).evaluate(FADING_OFFSETS.deltas)
        rel = abs(res.crlb_value - preset) / preset
        elapsed = time.monotonic() - t0
        ok = rel < 1e-3 and elapsed < 180
        _report(2, ok, f"search {res.crlb_value:.6f} vs preset "
                       f"{preset:.6f} (rel {rel:.2e})", elapsed, 180)
        assert rel < 1e-3
        assert elapsed < 180


class TestCriterion3FiniteSizeRobustness:
    def test_preset_sets_reach_finite_minimum_at_8x8(self):
        """At 8x8 both shipped presets are within 0.1% of the finite-size
        minimum CRLB; < 5 min including the searches."""
        t0 = time.monotonic()
        res_s = optimize_offsets(SearchConfig(StaticFinite(8, 8)))
        at_s = StaticFinite(8, 8).evaluate(STATIC_OFFSETS.deltas)
        gap_s = (at_s - res_s.crlb_value) / res_s.crlb_value
        res_d = optimize_offsets(SearchConfig(DiFinite(8, 8, 0.0)))
        at_d = DiFinite(8, 8, 0.0).evaluate(FADING_OFFSETS.deltas)
        gap_d = (at_d - res_d.crlb_value) / res_d.crlb_value
        elapsed = time.monotonic() - t0
        ok = -1e-9 <= gap_s < 1e-3 and -1e-9 <= gap_d < 1e-3 and elapsed < 300
        _report(3, ok, f"static gap {gap_s:.2e}, fading gap {gap_d:.2e}",
                elapsed, 300)
        assert -1e-9 <= gap_s < 1e-3
        assert -1e-9 <= gap_d < 1e-3
        assert elapsed < 300


class TestCriterion4BoundInvariances:
    def test_crlb_invariances(self):
        """Static bound identical across 10 gains and 10 directions; the
        direction Fisher identical across 10 directions; < 10 s."""
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        ref = None
        worst = 0.0
        for _ in range(10):
            beta = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            x = rng.uniform(-2, 2, 2)
            val = crlb_static(CFG, ChannelParams.from_parts(beta, x),
                              build_ebm(CFG, x, STATIC_OFFSETS))
            ref = val if ref is None else ref
            worst = max(worst, abs(val - ref) / ref)
        model = DiModel(1.0)
        fref = None
        fworst = 0.0
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            f = fisher_di(CFG, x, model, build_ebm(CFG, x, FADING_OFFSETS))
            fref = f if fref is None else fref
            fworst = max(fworst, float(np.abs(f - fref).max() / np.abs(fref).max()))
        elapsed = time.monotonic() - t0
        ok = worst < 1e-9 and fworst < 1e-9 and elapsed < 10
        _report(4, ok, f"static spread {worst:.2e}, fisher spread {fworst:.2e}",
                elapsed, 10)
        assert worst < 1e-9 and fworst < 1e-9
        assert elapsed < 10


class TestCriterion5Identifiability:
    def test_three_probe_recovery_and_two_probe_rank(self):
        """Noiseless recovery exact to 1e-9 on 100 draws; two-probe real
        Jacobian rank <= 3 with singular-value gap ratio > 1e6; < 30 s."""
        t0 = time.monotonic()
        name, ok, detail = check_identifiability(seed=0, count=100)
        elapsed = time.monotonic() - t0
        _report(5, ok and elapsed < 30, detail, elapsed, 30)
        assert ok
        assert elapsed < 30


class TestCriterion6MeanFieldInvariants:
    def test_mean_field_zero_and_identity_jacobian(self):
        """f(psi) = 0 (< 1e-12) and the mean-field Jacobian is -I4
        (finite-difference entrywise < 1e-5) on 50 random configurations."""
        t0 = time.monotonic()
        name, ok, detail = check_mean_field(seed=0, count=50)
        elapsed = time.monotonic() - t0
        _report(6, ok and elapsed < 30, detail, elapsed, 30)
        assert ok
        assert elapsed < 30


class TestCriterion7FisherOracles:
    def test_fisher_matches_mc_score_covariance(self):
        """Both Fisher matrices within 3% Frobenius of 2e5-draw Monte-Carlo
        score covariances; < 2 min."""
        t0 = time.monotonic()
        name, ok, detail = check_fisher_oracles(seed=0, draws=200_000)
        elapsed = time.monotonic() - t0
        _report(7, ok and elapsed < 120, detail, elapsed, 120)
        assert ok
        assert elapsed < 120


class TestCriterion8AsymptoticConsistency:
    def test_fisher_over_mn_and_crlb_gap(self):
        """||Fisher/MN - limit||_F strictly decreasing over M = N in
        {8, 16, 32, 64} for both models; MN-scaled CRLB within 1% of its
        limit at 64; < 1 min."""
        t0 = time.monotonic()
        from beamtrack.arrays import probe_kernels_limit
        g, k1, k2 = probe_kernels_limit(STATIC_OFFSETS.deltas)
        kmat = np.stack([g, 1j * g, k1, k2], axis=-1)
        static_lim = 2 * np.real(kmat.conj().T @ kmat)
        gd, d1, d2 = probe_kernels_limit(FADING_OFFSETS.deltas)
        s0 = float(np.vdot(gd, gd).real)
        ds = np.stack([d1, d2])
        big = np.stack([np.outer(d, gd.conj()) + np.outer(gd, d.conj())
                        for d in ds])
        tau = np.array([2 * np.real(np.vdot(gd, d)) for d in ds])
        tr = np.array([[np.trace(big[p] @ big[j]).real for j in range(2)]
                       for p in range(2)])
        di_lim = (tr - np.outer(tau, tau)) / s0  # snr_beta = 1 (0 dB)

        static_ok = di_ok = True
        prev_s = prev_d = np.inf
        for m in (8, 16, 32, 64):
            cfg = ArrayConfig(m, m)
            psi = ChannelParams.from_parts(1.0, (0.0, 0.0))
            info_s = fisher_static(cfg, psi,
                                   build_ebm(cfg, (0.0, 0.0), STATIC_OFFSETS))
            dist_s = np.linalg.norm(info_s / (m * m) - static_lim)
            static_ok &= dist_s < prev_s
            prev_s = dist_s
            info_d = fisher_di(cfg, (0.0, 0.0), DiModel(1.0),
                               build_ebm(cfg, (0.0, 0.0), FADING_OFFSETS))
            dist_d = np.linalg.norm(info_d / (m * m) - di_lim)
            di_ok &= dist_d < prev_d
            prev_d = dist_d

        lim_s = crlb_static_asymptotic(STATIC_OFFSETS.deltas)
        gap_s = abs(static_offsets_crlb(STATIC_OFFSETS.deltas, 64, 64) * 64 * 64
                    - lim_s) / lim_s
        lim_d = crlb_di_asymptotic(FADING_OFFSETS.deltas, 1.0)
        gap_d = abs(di_offsets_crlb(FADING_OFFSETS.deltas, 64, 64, 1.0) * 64 * 64
                    - lim_d) / lim_d
        elapsed = time.monotonic() - t0
        ok = static_ok and di_ok and gap_s < 0.01 and gap_d < 0.01 and elapsed < 60
        _report(8, ok, f"decreasing: static {static_ok}, fading {di_ok}; "
                       f"CRLB gaps at 64: {gap_s:.2e}, {gap_d:.2e}", elapsed, 60)
        assert static_ok and di_ok
        assert gap_s < 0.01 and gap_d < 0.01
        assert elapsed < 60


class TestCriterion9ConvergenceToCrlb:
    """Desk-scale versions of the headline convergence claims.

    Both runs model the initial stage with halfwidth 0.25 (the error of a
    2x-oversampled sweep) so that no trial escapes the main lobe; the
    direction tracker uses the k0 = 5 step offset the convergence theory
    itself invokes (the k -> inf law is unchanged for any k0 >= 0).
    """

    def test_joint_tracker_quasi_static(self):
        """k * MSE_h at k = 2000 over 500 trials within [0.85, 1.25] of the
        minimum normalized CRLB; < 10 min."""
        t0 = time.monotonic()
        ec = ExperimentConfig(
            scenario=ScenarioConfig(QuasiStatic()), array=CFG,
            tracker="JBCT_S", offsets=STATIC_OFFSETS,
            schedule=DiminishingStep(1.0),
            num_trials=500, num_eccs=2000, seed=7, snr_db=0.0,
            record_every=2000, init_halfwidth=0.25)
        rec = run_experiment(ec)[-1]
        res = optimize_offsets(SearchConfig(StaticFinite(8, 8),
                                            grid_points_per_axis=9))
        c_min = res.crlb_value
        ratio = rec.ecc * rec.mse_h / c_min
        elapsed = time.monotonic() - t0
        ok = 0.85 <= ratio <= 1.25 and elapsed < 600
        _report("9a", ok, f"k*MSE_h / C_S_min = {ratio:.4f} "
                          f"(C_S_min {c_min:.6g})", elapsed, 600)
        assert 0.85 <= ratio <= 1.25
        assert elapsed < 600

    def test_direction_tracker_fading_gain(self):
        """k * MSE_x at k = 2000 over 500 trials within [0.85, 1.25] of the
        (trial-averaged) direction CRLB at the preset offsets; < 10 min."""
        t0 = time.monotonic()
        ec = ExperimentConfig(
            scenario=ScenarioConfig(DynamicI(1.0)), array=CFG,
            tracker="RBT_DI", offsets=FADING_OFFSETS,
            schedule=DiminishingStep(1.0, 5.0),
            num_trials=500, num_eccs=2000, seed=7, snr_db=0.0,
            record_every=2000, init_halfwidth=0.25)
        rec = run_experiment(ec)[-1]
        c_ref = rec.crlb_ref * rec.ecc  # mean per-trial bound (preset set)
        ratio = rec.ecc * rec.mse_x / c_ref
        elapsed = time.monotonic() - t0
        ok = 0.85 <= ratio <= 1.25 and elapsed < 600
        _report("9b", ok, f"k*MSE_x / C_DI = {ratio:.4f} (C_DI {c_ref:.6g})",
                elapsed, 600)
        assert 0.85 <= ratio <= 1.25
        assert elapsed < 600


class TestCriterion10OperationCounts:
    def test_direction_tracker_count_and_fast_naive_agreement(self):
        """The direction tracker costs exactly 28 online multiplies and the
        batched joint kernel equals the naive path to 1e-10; < 10 s."""
        t0 = time.monotonic()
        rbt = count_ops("rbt", CFG)
        rng = np.random.default_rng(0)
        cache = build_fast_cache(CFG, STATIC_OFFSETS)
        worst = 0.0
        for _ in range(100):
            psi_hat = ChannelParams.from_parts(
                (0.2 + rng.uniform(0, 1.5)) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                rng.uniform(-2, 2, 2))
            ebm = build_ebm(CFG, psi_hat.x, STATIC_OFFSETS)
            y = 2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            fast = _jbct_direction_batch(cache, np.array([psi_hat.beta]),
                                         y[:, None])[:, 0]
            naive = jbct_direction(CFG, psi_hat, ebm, y)
            worst = max(worst, float(np.abs(fast - naive).max()))
        elapsed = time.monotonic() - t0
        ok = rbt == 28 and worst < 1e-10 and elapsed < 10
        _report("10a", ok, f"direction tracker {rbt} ops (== 28); "
                           f"fast vs naive {worst:.2e}", elapsed, 10)
        assert rbt == 28
        assert worst < 1e-10
        assert elapsed < 10

    def test_joint_tracker_count_nominal_value(self):
        """Nominal audit value for the joint tracker: 45 online complex
        operations per cycle.

        This assertion FAILS by design of the honest implementation: the
        nominal decomposition treats the gain block of the inverse Fisher
        as precomputable, but that block rotates with the phase of the gain
        estimate (verified numerically: only its trace is phase-invariant),
        so no correct cached path reproduces it.  The correct block solve
        implemented here costs 39 multiplies/divisions per cycle -- i.e.
        the nominal count holds only as an upper bound.  See the README
        complexity note; the audited counts are pinned at 39/28 in
        tests/test_trackers.py.
        """
        jbct = count_ops("jbct_static", CFG)
        _report("10b", jbct == 45,
                f"joint tracker audited {jbct} ops vs nominal 45 "
                f"(correct update is cheaper; see docstring)", 0.0, 10)
        assert jbct == 45, (
            f"audited count is {jbct}, not 45: the nominal figure rests on "
            "caching a Fisher-inverse block that depends on the gain-estimate "
            "phase; a correct fast path costs 39 (documented defect)")


class TestCriterion11FastChannelOrdering:
    def test_joint_tracker_beats_baselines(self):
        """Gauss-Markov gain + 0.3 deg angle walk, 200 trials x 500 cycles:
        the constant-step joint tracker's time-averaged MSE_h is strictly
        lower than grid switching's and the EKF's; < 5 min."""
        t0 = time.monotonic()
        scenario = ScenarioConfig(DynamicII(rho=0.995,
                                            delta_a=np.deg2rad(0.3)))
        means = {}
        for tracker in ("JBCT_DII", "BeamSwitch", "EKF"):
            ec = ExperimentConfig(
                scenario=scenario, array=CFG, tracker=tracker,
                offsets=STATIC_OFFSETS, num_trials=200, num_eccs=500, seed=11,
                snr_db=0.0, record_every=1, init_halfwidth=0.25)
            recs = run_experiment(ec)
            means[tracker] = float(np.mean([r.mse_h for r in recs]))
        elapsed = time.monotonic() - t0
        ok = (means["JBCT_DII"] < means["BeamSwitch"]
              and means["JBCT_DII"] < means["EKF"] and elapsed < 300)
        _report(11, ok, f"time-averaged MSE_h: joint {means['JBCT_DII']:.4g}, "
                        f"switch {means['BeamSwitch']:.4g}, "
                        f"ekf {means['EKF']:.4g}", elapsed, 300)
        assert means["JBCT_DII"] < means["BeamSwitch"]
        assert means["JBCT_DII"] < means["EKF"]
        assert elapsed < 300


class TestCriterion12ChannelMoments:
    def test_all_configured_moments(self):
        """Rician K ratio, Rayleigh variance, Gauss-Markov stationary
        variance and lag-1 autocorrelation within 3% over 1e5 samples of the
        batched channel the engine runs; 30 s."""
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        n = 100_000

        def channels(sc, rows):
            draws = initial_draws(sc, [rng] * rows, 0.5)
            return init_channel_batch(sc, CFG, draws)

        def chains(sc, rows, cycles):
            """Path gains (rows, cycles) of parallel chains, each started
            from its (stationary) initial draw and stepped by one-cycle
            chunks; the normals of all cycles are drawn at once, the
            numbers of one (rows, e) draw per cycle."""
            ch = channels(sc, rows)
            out = np.empty((rows, cycles), complex)
            normals = rng.standard_normal((cycles, rows,
                                           evolve_normals(sc.kind)))
            for k in range(cycles):
                ch = evolve_chunk(ch, sc, CFG, normals[k][:, None])[2]
                out[:, k] = ch.beta_c
            return out

        sc = ScenarioConfig(QuasiStatic(rician_k_db=15.0))
        draws = initial_draws(sc, [rng] * n, 0.5)
        gains = init_channel_batch(sc, CFG, draws).beta_c
        kappa = 10 ** 1.5
        los = kappa / (kappa + 1)
        # diffuse power about each draw's line-of-sight part (phase in
        # column 2), free of the LOS x diffuse cross term
        diffuse = np.mean(np.abs(gains - np.sqrt(los)
                                 * np.exp(1j * draws[:, 2])) ** 2)
        k_err = abs(los / diffuse - kappa) / kappa

        # 1e5 cycles as 100 chains of 1000
        ray = chains(ScenarioConfig(DynamicI(sigma_beta_c_sq=0.8)), 100, 1000)
        ray_err = abs(np.mean(np.abs(ray) ** 2) - 0.8) / 0.8

        # stationary variance from many short independent chains (one long
        # rho = 0.995 chain has ~6% estimator noise; the split keeps the
        # same 1e5 sample budget at ~1% noise), lag-1 from 1e5 cycles as
        # 100 chains of 1000
        sc = ScenarioConfig(DynamicII(rho=0.995))
        samples = chains(sc, 20_000, 5)
        gm_var_err = abs(np.mean(np.abs(samples) ** 2) - 1.0)
        gm = chains(sc, 100, 1000)
        lag1 = np.real(np.mean(gm[:, 1:] * gm[:, :-1].conj())) \
            / np.mean(np.abs(gm) ** 2)
        lag_err = abs(lag1 - 0.995)

        elapsed = time.monotonic() - t0
        ok = (k_err < 0.03 and ray_err < 0.03 and gm_var_err < 0.03
              and lag_err < 0.005 and elapsed < 30)
        _report(12, ok, f"K ratio err {k_err:.3f}, Rayleigh var err "
                        f"{ray_err:.3f}, GM var err {gm_var_err:.3f}, "
                        f"lag-1 err {lag_err:.4f}", elapsed, 30)
        assert k_err < 0.03
        assert ray_err < 0.03
        assert gm_var_err < 0.03
        assert lag_err < 0.005
        assert elapsed < 30
