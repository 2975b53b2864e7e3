"""Array geometry in five minutes.

Walks the direction parameterization, the steering vectors, the separable
beam-gain kernel with its shift property, and the per-element pattern.
"""

import numpy as np

from beamtrack import (Aoa, ArrayConfig, PatternConfig, aoa_from_dpv,
                       beam_gain_kernel, dpv_from_aoa, element_gain_db,
                       steering_vector)

cfg = ArrayConfig(m=8, n=8)  # half-wavelength spacing by default
print(f"array: {cfg.m} x {cfg.n} elements, {cfg.size} total")

# angles <-> direction coordinates
aoa = Aoa(theta=np.pi / 8, phi=np.pi / 3)
x = dpv_from_aoa(cfg, aoa)
back = aoa_from_dpv(cfg, x)
print(f"(theta, phi) = ({aoa.theta:.4f}, {aoa.phi:.4f})  ->  "
      f"x = ({x[0]:.4f}, {x[1]:.4f})  ->  back to "
      f"({back.theta:.4f}, {back.phi:.4f})")

# steering vectors have unit-modulus entries: squared norm is always MN
a = steering_vector(cfg, x)
print(f"||a(x)||^2 = {np.vdot(a, a).real:.1f} (= MN)")

# the beam-gain kernel: how much an offset beam still hears the arrival
print("\nbeam-gain kernel cut along the first axis (second axis aligned):")
for d in (0.0, 0.25, 0.5, 0.75, 1.0):
    val = beam_gain_kernel((d, 0.0), cfg.m, cfg.n)
    bar = "#" * int(40 * abs(val) / cfg.size)
    print(f"  offset {d:4.2f}: {val:7.2f} {bar}")

# shift property: the inner product of a probe with the arrival depends only
# on their offset, never on where they both sit
w = steering_vector(cfg, (x[0] + 0.3, x[1] - 0.2)) / np.sqrt(cfg.size)
far = steering_vector(cfg, (x[0] + 2.0, x[1] + 1.0))
w_far = steering_vector(cfg, (x[0] + 2.3, x[1] + 0.8)) / np.sqrt(cfg.size)
print(f"\nshift property: |w(x+d)^H a(x)| = {abs(np.vdot(w, a)):.6f} "
      f"= {abs(np.vdot(w_far, far)):.6f} at a center 2 lobes away")

# the element pattern attenuates off-broadside arrivals
pc = PatternConfig()
print("\nelement pattern (dB):")
for theta_frac, phi in ((0.0, np.pi / 2), (0.5, np.pi / 2), (1.0, np.pi / 2),
                        (1.0, np.pi / 4)):
    aoa = Aoa(theta_frac * pc.theta_3db, phi)
    print(f"  theta = {aoa.theta:5.2f}, phi = {aoa.phi:4.2f}: "
          f"{element_gain_db(pc, aoa):6.2f} dB")
