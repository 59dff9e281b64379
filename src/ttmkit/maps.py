"""Dynamical maps read off evolved operator bases, and their diagnostics.

Because every trajectory starts from a matrix unit, the map at time t_k
simply has the vectorized frame k of trajectory (i, j) as its column
i*D + j, so a :class:`~ttmkit.trajectories.BasisTrajectorySet` already
is the map stack: :attr:`~ttmkit.trajectories.BasisTrajectorySet.maps`
reads it and :meth:`~ttmkit.trajectories.BasisTrajectorySet.from_maps`
writes it. :func:`extract_maps` only checks that a set may be read as
maps; :func:`validate_maps` reports how physical they are.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .liouville import choi_matrix, hermiticity_defect, trace_defect

# Bound on the initial-frame and adjoint-symmetry defects (extract_maps,
# and the initial frame in maps_to_tensors).
MAP_TOL = 1e-10


def extract_maps(trajs):
    """Check that a basis trajectory set holds dynamical maps; return it.

    Parameters
    ----------
    trajs : BasisTrajectorySet
        Must start from the exact operator basis and respect the
        adjoint pairing between (i, j) and (j, i) trajectories, both
        to ``MAP_TOL``. Its ``.maps`` are the maps E_k.
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
    return trajs


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
