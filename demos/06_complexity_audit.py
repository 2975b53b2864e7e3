"""The per-cycle cost of tracking.

Everything offset-dependent is precomputed once, so the online update is a
handful of scalar operations.  The audit runs the update kernels the
Monte-Carlo engine uses and counts every multiplication and division they
execute; the joint tracker's kernel is also checked against the explicit
Fisher build.
"""

import numpy as np

from beamtrack import ArrayConfig, ChannelParams, STATIC_OFFSETS, build_ebm, count_ops
from beamtrack.trackers import (_jbct_direction_batch, build_fast_cache,
                                jbct_direction)

cfg = ArrayConfig(8, 8)

print("audited online multiplications/divisions per tracking cycle:")
print(f"  joint gain+direction tracker: {count_ops('jbct_static', cfg)}")
print(f"  constant-step variant:        {count_ops('jbct_dii', cfg)}")
print(f"  direction-only tracker:       {count_ops('rbt', cfg)}")
print("\n(a nominal hand count of 45 for the joint tracker treats the gain block")
print(" of the inverse Fisher as precomputable; that block rotates with the")
print(" gain-estimate phase, and the correct cached block solve is cheaper)")

rng = np.random.default_rng(0)
cycles = 200
psis = [ChannelParams.from_parts(
            (0.2 + rng.uniform(0, 1.5)) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.uniform(-2, 2, 2))
        for _ in range(cycles)]
ys = 2 * (rng.standard_normal((cycles, 3)) + 1j * rng.standard_normal((cycles, 3)))
# one batched kernel call for all cycles, one explicit build and solve each
fast = _jbct_direction_batch(build_fast_cache(cfg, STATIC_OFFSETS),
                             np.array([p.beta for p in psis]), ys)
naive = np.array([jbct_direction(cfg, p, build_ebm(cfg, p.x, STATIC_OFFSETS), y)
                  for p, y in zip(psis, ys)])
print(f"\nbatched kernel vs explicit Fisher build over {cycles} random cycles: "
      f"max |difference| = {np.abs(fast - naive).max():.2e}")
