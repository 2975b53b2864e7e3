"""Quasi-static tracking to the bound.

Runs the joint gain+direction tracker (stochastic Newton with a 1/k step)
over a small Monte-Carlo batch and shows k * MSE flattening onto the
minimum normalized CRLB.
"""

from beamtrack import (STATIC_OFFSETS, ArrayConfig, DiminishingStep,
                       ExperimentConfig, QuasiStatic, ScenarioConfig, emit_csv,
                       run_experiment)

ec = ExperimentConfig(
    scenario=ScenarioConfig(QuasiStatic()),
    array=ArrayConfig(8, 8),
    tracker="JBCT_S",
    offsets=STATIC_OFFSETS,
    schedule=DiminishingStep(1.0),
    num_trials=100,
    num_eccs=1000,
    seed=3,
    snr_db=0.0,
    record_every=100,
    init_halfwidth=0.25,
)

print(f"tracking {ec.num_trials} random channels for {ec.num_eccs} cycles "
      f"at {ec.snr_db:.0f} dB transmit SNR ...")
records = run_experiment(ec)

print(f"{'cycle':>6} {'probes':>7} {'MSE_h':>12} {'bound/k':>12} "
      f"{'k*MSE_h/bound':>14}")
for r in records:
    ratio = r.mse_h / r.crlb_ref
    print(f"{r.ecc:6d} {r.explorations_total:7d} {r.mse_h:12.4e} "
          f"{r.crlb_ref:12.4e} {ratio:14.3f}")

emit_csv(records, "quasi_static_run.csv")
print("\nwrote quasi_static_run.csv "
      "(columns: ecc,explorations_total,mse_h,mse_x,crlb_ref,trials)")
