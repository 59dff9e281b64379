"""Learn transfer tensors from a short window, then extrapolate tenfold.

A spin-boson trajectory at moderate coupling is generated with the
hierarchy solver. Tensors are learned from the first tenth of it; the
tail-norm profile shows how fast the memory content decays, and the
cutoff rule picks the depth K. Propagating from the learned window
alone then reproduces the withheld nine tenths of the trajectory.
"""
import numpy as np

from ttmkit import (BasisTrajectorySet, HeomConfig, SpinBosonParams, TimeGrid,
                    choose_cutoff, extract_maps, gen_heom, maps_to_tensors,
                    markovianity_profile, propagate, truncation_error)

DT = 0.05
LEARN = 100
TOTAL = 600

params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.5, gamma=1.0,
                         beta=0.5)
print(f"spin-boson: lam={params.lam}, gamma={params.gamma}, "
      f"beta={params.beta}")
print(f"reference run: {TOTAL} steps of dt={DT}; "
      f"learning window: first {LEARN} steps")

ref = gen_heom(params, HeomConfig(depth=8, n_matsubara=2),
               TimeGrid(dt=DT, n_steps=TOTAL))

window = BasisTrajectorySet.from_maps(TimeGrid(dt=DT, n_steps=LEARN),
                                      ref.maps[:LEARN + 1])
tensors = maps_to_tensors(extract_maps(window))

norms = markovianity_profile(tensors)
print("\ntail norms ||T_s|| (memory fingerprint):")
for s in (1, 2, 5, 10, 20, 40, 70, 100):
    print(f"  s={s:3d}  t={s * DT:5.2f}  {norms[s - 1]:.3e}")

cutoff = choose_cutoff(norms, tol=1e-5)
print(f"\ncutoff rule (tail below 1e-5): K = {cutoff}, "
      f"first discarded norm {truncation_error(tensors, cutoff):.2e}")

rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
frames = propagate(tensors.truncated(cutoff), cutoff, rho0, TOTAL)

# the reference evolution of the same initial state: rho0 = e11 is the
# basis element |0><0|
exact = ref.element(0, 0)
print("\nextrapolation vs reference (rho_00):")
print("     t      reference   tensors     |error|")
for n in range(0, TOTAL + 1, 75):
    e = abs(frames[n, 0, 0].real - exact[n, 0, 0].real)
    print(f"  {n * DT:6.2f}   {exact[n, 0, 0].real:.6f}   "
          f"{frames[n, 0, 0].real:.6f}   {e:.2e}")
print(f"\nmax |error| over all elements and times: "
      f"{np.abs(frames - exact).max():.3e}")
