"""Time grids and basis-trajectory containers.

A basis trajectory set holds the evolution of every matrix unit
|i><j| of the system space on a uniform time grid, so the dynamical
maps are a reshape of it, not a fit: frame k of |i><j| is column
i*D + j of E_k. Only :meth:`BasisTrajectorySet.from_maps` and
:attr:`BasisTrajectorySet.maps` know that layout.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .liouville import hermiticity_defect, superop_stack


def check_step(dt):
    """Refuse a grid step that is not positive and finite (``ValueError``).

    The one step rule of :class:`TimeGrid` and the map, tensor and
    kernel sequences.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt, k = 0 .. n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        check_step(self.dt)
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")

    @property
    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class BasisTrajectorySet:
    """Evolved operator basis on a time grid.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension D.
    grid : TimeGrid
        The sampling grid; trajectories carry ``grid.n_steps + 1`` frames.
    data : ndarray, shape (D*D, n_steps + 1, D, D)
        ``data[i*D + j, k]`` is the matrix unit |i><j| evolved to t_k.
        Frame 0 is the untouched basis element.
    """

    dim: int
    grid: TimeGrid
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        d, n = self.dim, self.grid.n_steps
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (d * d, n + 1, d, d):
            raise DimensionError(
                f"trajectory data shape {data.shape} does not match "
                f"dim={d}, n_steps={n}"
            )
        object.__setattr__(self, "data", data)

    @classmethod
    def from_maps(cls, grid, maps):
        """Basis trajectories of the maps E_k (E_0 the identity)."""
        maps = superop_stack(maps, ndim=3)
        d2 = maps.shape[-1]
        dim = round(np.sqrt(d2))
        data = maps.transpose(2, 0, 1).copy().reshape(d2, -1, dim, dim)
        return cls(dim=dim, grid=grid, data=data)

    @property
    def maps(self):
        """Read-only (n_steps + 1, D^2, D^2) view of the maps E_k."""
        d2 = self.dim * self.dim
        view = self.data.reshape(d2, -1, d2).transpose(1, 2, 0)
        view.flags.writeable = False
        return view

    def element(self, i, j):
        """Trajectory of the basis element |i><j|, shape (n_steps+1, D, D)."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise DimensionError(f"basis indices ({i}, {j}) out of range")
        return self.data[i * self.dim + j]

    def initial_defect(self):
        """Max deviation of frame 0 from the exact operator basis."""
        return float(np.abs(self.maps[0] - np.eye(self.dim * self.dim)).max())

    def dagger_defect(self):
        """Max violation of the (i,j) <-> (j,i) adjoint symmetry.

        Linearity of the dynamics forces the |j><i| trajectory to be the
        elementwise adjoint of the |i><j| one at every time.
        """
        return float(hermiticity_defect(self.maps).max())
