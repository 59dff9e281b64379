"""Dynamical maps assembled from evolved operator bases.

Because every trajectory starts from a matrix unit, the map at time t_k
simply has the vectorized frame k of trajectory (i, j) as its column
i*D + j; extraction is a copy of
:attr:`~ttmkit.trajectories.BasisTrajectorySet.maps`, the one place that
layout is read (generators write it through
:meth:`~ttmkit.trajectories.BasisTrajectorySet.from_maps`).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .liouville import choi_matrix, hermiticity_defect, superop_stack, trace_defect
from .trajectories import check_step

# Bound on the initial-frame and adjoint-symmetry defects (extract_maps).
MAP_TOL = 1e-10


@dataclass(frozen=True)
class DynamicalMapSequence:
    """Maps E_k with E_0 = identity on a uniform grid.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension D.
    dt : float
        Grid step.
    maps : ndarray, shape (n_steps + 1, D^2, D^2)
        ``maps[k]`` sends vec(rho(0)) to vec(rho(t_k)).
    """

    dim: int
    dt: float
    maps: np.ndarray = field(repr=False)

    def __post_init__(self):
        maps = superop_stack(self.maps, self.dim, 3)
        if len(maps) < 1:
            raise DimensionError("need at least the t = 0 map")
        check_step(self.dt)
        if float(np.abs(maps[0] - np.eye(self.dim * self.dim)).max()) > 1e-12:
            raise DimensionError("map at t = 0 must be the identity")
        object.__setattr__(self, "maps", maps)

    @property
    def n_steps(self):
        return self.maps.shape[0] - 1


def extract_maps(trajs):
    """Dynamical maps from a basis trajectory set.

    Parameters
    ----------
    trajs : BasisTrajectorySet
        Must start from the exact operator basis and respect the
        adjoint pairing between (i, j) and (j, i) trajectories, both
        to ``MAP_TOL``.
    """
    initial = trajs.initial_defect()
    if initial > MAP_TOL:
        raise DimensionError(
            f"initial frames deviate from the operator basis by {initial:.3g}"
        )
    sym = trajs.dagger_defect()
    if sym > MAP_TOL:
        raise DimensionError(
            f"adjoint symmetry violated by {sym:.3g}; trajectories do not "
            "come from a linear Hermiticity-preserving evolution"
        )
    maps = trajs.maps.copy()
    maps[0] = np.eye(trajs.dim * trajs.dim)
    return DynamicalMapSequence(dim=trajs.dim, dt=trajs.grid.dt, maps=maps)


@dataclass(frozen=True)
class MapValidationReport:
    """Per-step physicality diagnostics of a map sequence.

    ``choi_min_eig[k]`` below zero (beyond tolerance) flags a map that
    is not completely positive.
    """

    trace_defects: np.ndarray
    hermiticity_defects: np.ndarray
    choi_min_eigs: np.ndarray

    def worst(self):
        return (
            float(self.trace_defects.max()),
            float(self.hermiticity_defects.max()),
            float(self.choi_min_eigs.min()),
        )


def validate_maps(seq):
    """Trace, Hermiticity and complete-positivity diagnostics per step."""
    choi = choi_matrix(seq.maps)
    herm_choi = 0.5 * (choi + choi.conj().swapaxes(-2, -1))
    return MapValidationReport(
        trace_defects=trace_defect(seq.maps),
        hermiticity_defects=hermiticity_defect(seq.maps),
        choi_min_eigs=np.linalg.eigvalsh(herm_choi).min(axis=-1),
    )
