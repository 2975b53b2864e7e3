"""Tracking through fading gains and moving arrivals.

First the direction-only tracker under per-cycle Rayleigh gains (the gain
carries no memory, so only the direction is tracked), then the constant-step
joint tracker against the two baselines on a fully dynamic channel.
"""

import numpy as np

from beamtrack import (FADING_OFFSETS, STATIC_OFFSETS, ArrayConfig,
                       DiminishingStep, DynamicI, DynamicII, ExperimentConfig,
                       ScenarioConfig, run_experiment)

cfg = ArrayConfig(8, 8)

print("direction-only tracking, Rayleigh gain at 0 dB gain SNR:")
ec = ExperimentConfig(
    scenario=ScenarioConfig(DynamicI(1.0)), array=cfg, tracker="RBT_DI",
    offsets=FADING_OFFSETS, schedule=DiminishingStep(1.0, 5.0),
    num_trials=100, num_eccs=1000, seed=5, snr_db=0.0,
    record_every=200, init_halfwidth=0.25)
for r in run_experiment(ec):
    print(f"  cycle {r.ecc:5d}: MSE_x = {r.mse_x:.4e}   "
          f"bound/k = {r.crlb_ref:.4e}   ratio = {r.mse_x / r.crlb_ref:.3f}")

print("\nfully dynamic channel (Gauss-Markov gain, 0.3 deg/cycle walk):")
scenario = ScenarioConfig(DynamicII(rho=0.995, delta_a=np.deg2rad(0.3)))
for tracker in ("JBCT_DII", "BeamSwitch", "EKF"):
    ec = ExperimentConfig(
        scenario=scenario, array=cfg, tracker=tracker, offsets=STATIC_OFFSETS,
        num_trials=50, num_eccs=500, seed=11, snr_db=0.0,
        record_every=1, init_halfwidth=0.25)
    recs = run_experiment(ec)
    avg = float(np.mean([r.mse_h for r in recs]))
    tail = float(np.mean([r.mse_h for r in recs[-100:]]))
    print(f"  {tracker:10s}: time-averaged MSE_h = {avg:.4f}   "
          f"last-100-cycle MSE_h = {tail:.4f}")
