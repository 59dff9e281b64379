"""Regenerate reference.json, the stored values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

The stored file was produced by the code at commit 9794fd6. It holds:

* ``heom_sweep.theta``: the nine C6 equilibrium angles;
* ``*.steady_state``: the exact stationary state of each hierarchy, the
  null vector of its generator with unit trace (a dense solve), which is
  what ``extrap_err`` measures the extrapolated states against;
* ``cli_pipeline.theta`` and ``final_state``: the pipeline's result from
  the fixed initial state e11, which every seeded run must reproduce.
"""

import json
import os
import sys
import tempfile

import numpy as np

from ttmkit.heom import hierarchy_generator
from ttmkit.models import SpinBosonParams, bath_correlation_modes, matsubara_tail

from spans import NullTracer
from workloads import REFERENCE, CliPipeline, HeomSweep


def encode(m):
    return np.stack([m.real, m.imag], -1).tolist()


def steady_state(lam, gamma, beta, depth, n_mats):
    """Unit-trace null vector of the hierarchy generator, physical block."""
    params = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=lam, gamma=gamma,
                             beta=beta)
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n_mats)
    gen = hierarchy_generator(params.hamiltonian, params.coupling_op, coeffs,
                              rates, matsubara_tail(lam, gamma, beta, n_mats),
                              depth)
    rhs = np.zeros(gen.shape[0], dtype=complex)
    gen[0] = 0.0  # d rho_00/dt is redundant given trace conservation
    gen[0, 0] = gen[0, 3] = rhs[0] = 1.0
    rho = np.linalg.solve(gen, rhs)[:4].reshape(2, 2)
    return 0.5 * (rho + rho.conj().T)


def main():
    sweep = HeomSweep()
    rows = sweep.run({}, NullTracer())
    pipeline = CliPipeline(use_reference=False)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCE)) as work:
        inputs = dict(pipeline.prepare(0, work), initial="e11")
        codes = pipeline.run(inputs, NullTracer())
        if any(codes.values()):
            sys.exit(f"pipeline failed: {codes}")
        _, final, row = pipeline.read_products(inputs["paths"])
    doc = {
        "heom_sweep": {
            "theta": [theta for theta, _ in rows],
            "steady_state": [encode(steady_state(lam, sweep.gamma, beta, d, n))
                             for lam, beta, d, n in sweep.points],
        },
        "cli_pipeline": {
            "theta": float(row["theta"]),
            "final_state": encode(final),
            "steady_state": encode(steady_state(0.2, 1.0, 1.0, pipeline.depth, 2)),
        },
    }
    with open(REFERENCE, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
