"""Library refusals: each documented check raises its documented error type."""

import numpy as np
import pytest

from ttmkit import (
    SpinBosonParams,
    TimeGrid,
    TransferTensorSequence,
    detect_equilibrium,
    gen_dephasing_analytic,
    lindblad_superop,
    propagate,
)
from ttmkit.errors import ConfigurationError, DimensionError
from ttmkit.liouville import SIGMA_X, SIGMA_Z
from ttmkit.models import bath_correlation_modes, lineshape

H = 0.5 * SIGMA_Z
TENSORS = TransferTensorSequence(dim=2, dt=0.1, tensors=np.eye(4)[None])
RHO = np.diag([1.0, 0.0]).astype(complex)


def dephasing_without_an_eigenbasis():
    # H = 0 commutes with sigma_x, but its eigenbasis does not diagonalize it
    params = SpinBosonParams(omega0=0.0, j_coupling=0.0, lam=0.1, gamma=1.0,
                             beta=1.0, coupling_op=SIGMA_X)
    gen_dephasing_analytic(params, TimeGrid(dt=0.1, n_steps=5))


@pytest.mark.parametrize("call,error,match", [
    (lambda: lindblad_superop(H, [SIGMA_X], []), ConfigurationError, "0 rates"),
    (lambda: lindblad_superop(H, [np.eye(3)], [1.0]), DimensionError,
     "jump operator shape"),
    (lambda: lindblad_superop(H, [SIGMA_X], [-1.0]), ConfigurationError,
     "negative rate"),
    (dephasing_without_an_eigenbasis, ConfigurationError, "not diagonal"),
    (lambda: detect_equilibrium(np.tile(RHO, (10, 1, 1)), 1e-6, 1), ValueError,
     "window must be at least 2"),
    (lambda: bath_correlation_modes(0.1, 1.0, 1.0, -1), ConfigurationError,
     "n_matsubara"),
    (lambda: lineshape([0.0, 1.0], 0.1, 1.0, 1.0), ValueError, "positive"),
    (lambda: propagate(TENSORS, 2, RHO, 5), DimensionError, "cutoff 2"),
    (lambda: propagate(TENSORS, 1, np.eye(3), 5), DimensionError, "seed shape"),
    (lambda: propagate(TENSORS, 1, np.tile(RHO, (7, 1, 1)), 5), DimensionError,
     "seed supplies 7"),
], ids=["lindblad-rate-count", "lindblad-operator-shape", "lindblad-negative-rate",
        "dephasing-not-diagonal", "equilibrium-window-1",
        "matsubara-negative", "lineshape-time-0", "propagate-cutoff",
        "propagate-seed-shape", "propagate-seed-length"])
def test_refusal_raises_its_documented_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
