"""Reconstruct the discrete memory kernel behind a learned evolution.

Transfer tensors learned from a weak-coupling spin-boson run are split
into a fitted Liouvillian (the time-local part, living in T_1) and the
memory kernel K_s (everything retarded). The fitted Hamiltonian is
compared against the known system Hamiltonian, and a few kernel matrix
elements are tabulated against the delay.
"""
import numpy as np

from ttmkit import (HeomConfig, SpinBosonParams, TimeGrid, extract_kernel,
                    extract_liouvillian, extract_maps, gen_heom,
                    kernel_element_series, kernel_norms, liouvillian_superop,
                    maps_to_tensors, tls_hamiltonian)
from ttmkit.liouville import SIGMA_X

DT = 0.025
STEPS = 160

h = tls_hamiltonian(1.0, 0.0)
params = SpinBosonParams(omega0=1.0, j_coupling=0.0, lam=0.05, gamma=1.0,
                         beta=4.79, coupling_op=SIGMA_X)
trajs = gen_heom(params, HeomConfig(depth=5, n_matsubara=4),
                 TimeGrid(dt=DT, n_steps=STEPS))
tensors = maps_to_tensors(extract_maps(trajs))

# fit the time-local generator from T_1 without assuming the
# Hamiltonian, then compare with the known one
fit = extract_liouvillian(tensors.tensors[0], DT)
print("fitted Hamiltonian (traceless part):")
print(np.array_str(fit.hamiltonian, precision=5, suppress_small=True))
print("known Hamiltonian:")
print(np.array_str(h, precision=5))
print(f"dissipative remainder norm: {fit.residual_norm:.2e}")

kernel = extract_kernel(tensors, liouvillian_superop(fit.hamiltonian))
norms = kernel_norms(kernel)
print("\nkernel norm decay ||K_s||:")
for s in (2, 5, 10, 20, 40, 80, 160):
    print(f"  s={s:3d}  tau={s * DT:5.2f}  {norms[s - 1]:.3e}")

times, pop = kernel_element_series(kernel, (0, 0), (0, 0))
_, coh = kernel_element_series(kernel, (0, 1), (1, 0))
print("\nkernel elements vs delay (real parts):")
print("    tau    K 00->00     K 01->10")
for s in range(2, 41, 4):
    print(f"  {times[s - 1]:5.2f}  {pop[s - 1].real:+.6f}   "
          f"{coh[s - 1].real:+.6f}")
