"""Tracking bounds and the optimal probing pattern.

Shows the invariances that make one offline offset search serve every gain,
direction, and (large) array size; then reruns the search and compares it
with the shipped presets.
"""

import numpy as np

from beamtrack import (ArrayConfig, ChannelParams, DiAsymptotic, DiModel,
                       FADING_OFFSETS, STATIC_OFFSETS, SearchConfig,
                       StaticAsymptotic, build_ebm, canonicalize, crlb_di,
                       crlb_static, crlb_static_asymptotic, optimize_offsets)
from beamtrack.estimation import static_offsets_crlb

cfg = ArrayConfig(8, 8)

print("the static bound ignores the gain and the direction:")
for beta, x in ((1.0, (0.0, 0.0)), (0.3 * np.exp(1.1j), (0.0, 0.0)),
                (1.0, (1.7, -2.3))):
    c = crlb_static(cfg, ChannelParams.from_parts(beta, x),
                    build_ebm(cfg, x, STATIC_OFFSETS))
    print(f"  beta = {beta!s:24s} x = {x!s:12s}: C = {c:.10f}")

print("\nMN-scaled bound converges to its large-array limit:")
lim = crlb_static_asymptotic(STATIC_OFFSETS.deltas)
for m in (8, 16, 32, 64):
    val = static_offsets_crlb(STATIC_OFFSETS.deltas, m, m) * m * m
    print(f"  M = N = {m:3d}: {val:.6f}   (limit {lim:.6f}, "
          f"gap {abs(val - lim) / lim:.2e})")

print("\nsearching the asymptotic objectives (multi-start Newton):")
for name, objective, preset in (
        ("joint gain+direction", StaticAsymptotic(), STATIC_OFFSETS),
        ("direction-only, 0 dB", DiAsymptotic(0.0), FADING_OFFSETS)):
    res = optimize_offsets(SearchConfig(objective))
    at_preset = objective.evaluate(preset.deltas)
    print(f"  {name}: searched {res.crlb_value:.6f} vs preset "
          f"{at_preset:.6f} ({res.restarts_used} restarts)")
    canon = canonicalize(res.offsets)
    for row in canon.deltas:
        print(f"     ({row[0]:+.4f}, {row[1]:+.4f})")

print("\nthe direction-only bound scales inversely with the gain SNR at "
      "high SNR:")
for snr_db in (0, 10, 20, 30):
    model = DiModel(10 ** (snr_db / 10))
    c = crlb_di(cfg, (0.0, 0.0), model, build_ebm(cfg, (0.0, 0.0),
                                                  FADING_OFFSETS))
    print(f"  gain SNR {snr_db:2d} dB: C_DI = {c:.3e}   "
          f"snr * C_DI = {10 ** (snr_db / 10) * c:.5f}")
