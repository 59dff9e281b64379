"""Stationary-state detection and non-canonical equilibrium measures."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DimensionError, NotSettledError
from .liouville import bloch_axis

# Deviations below this fraction of the largest one are numerical
# jitter, not oscillation (oscillation_metrics).
DEADBAND_REL = 1e-3


@dataclass(frozen=True)
class EquilibriumReport:
    """Where a trajectory settles and how flat it is there.

    Attributes
    ----------
    settled_at : int
        Earliest frame index after which every per-step change stays
        below the tolerance through the end of the data.
    state : ndarray
        Average of the final confirmation window.
    residual : float
        Largest per-step elementwise change inside that window.
    """

    settled_at: int
    state: np.ndarray = field(repr=False)
    residual: float


def detect_equilibrium(traj, tol, window):
    """Locate the stationary tail of a state trajectory.

    Parameters
    ----------
    traj : ndarray, shape (n_frames, D, D)
    tol : float
        Bound on the per-step max elementwise change.
    window : int
        Number of trailing frames (at least 2) that must confirm the
        bound; oscillatory tails keep failing it somewhere inside the
        window, which is what makes the check robust against them.

    Raises
    ------
    ValueError
        If ``tol`` is not positive or ``window`` is below 2.
    NotSettledError
        If no frame satisfies the bound through the end, or fewer than
        ``window`` frames remain to confirm it. The error carries the
        residual of the final window.
    """
    traj = np.asarray(traj, dtype=complex)
    if traj.ndim != 3 or traj.shape[1] != traj.shape[2]:
        raise DimensionError(f"trajectory shape {traj.shape} is not (n, D, D)")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if window < 2:
        raise ValueError("window must be at least 2")
    n_frames = traj.shape[0]
    if n_frames < window:
        raise NotSettledError(
            f"trajectory has {n_frames} frames, fewer than window {window}",
            residual=None,
        )
    diffs = np.abs(np.diff(traj, axis=0)).max(axis=(1, 2))
    above = np.nonzero(diffs >= tol)[0]
    settled_at = 0 if above.size == 0 else int(above[-1]) + 1
    if n_frames - settled_at < window:
        raise NotSettledError(
            f"changes stay above tol = {tol:.3g} until frame {settled_at} "
            f"of {n_frames}; not enough settled frames to confirm",
            residual=float(diffs[-(window - 1):].max()),
        )
    confirm = diffs[settled_at:settled_at + window - 1]
    residual = float(confirm.max()) if confirm.size else 0.0
    state = traj[-window:].mean(axis=0)
    return EquilibriumReport(settled_at=settled_at, state=state, residual=residual)


def canonical_state(h, beta):
    """Boltzmann state exp(-beta h)/Z via eigendecomposition.

    The spectrum is shifted before exponentiation so large beta cannot
    overflow.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hamiltonian must be square, got shape {h.shape}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    energies, modes = np.linalg.eigh(h)
    weights = np.exp(-beta * (energies - energies.min()))
    weights /= weights.sum()
    return (modes * weights) @ modes.conj().T


@dataclass(frozen=True)
class DeviationMeasurement:
    """Angle between an observed equilibrium axis and the canonical one."""

    theta: float
    equilibrium_axis: np.ndarray
    canonical_axis: np.ndarray


def noncanonical_angle(rho_eq, rho_canonical):
    """Bloch-axis angle arccos|n_eq . n_c| in [0, pi/2].

    Both states must be two-level and carry a resolvable axis;
    otherwise :class:`DegenerateStateError` is raised. The absolute
    value makes the measure basis-orientation free, so it vanishes iff
    the two states are diagonal in the same basis.
    """
    axis_eq = bloch_axis(rho_eq)
    axis_c = bloch_axis(rho_canonical)
    if axis_eq is None or axis_c is None:
        raise DegenerateStateError(
            "state has no Bloch axis (traceless part below tolerance)"
        )
    cosine = min(1.0, abs(float(np.dot(axis_eq, axis_c))))
    return DeviationMeasurement(
        theta=float(np.arccos(cosine)),
        equilibrium_axis=axis_eq,
        canonical_axis=axis_c,
    )


@dataclass(frozen=True)
class OscillationMetrics:
    """Crossing count and envelope decay of a relaxing observable.

    ``envelope_decay_rate`` is NaN when the series has too few extrema
    to fit an envelope (monotone or constant data).
    """

    sign_changes: int
    envelope_decay_rate: float
    asymptote: float


def oscillation_metrics(series, dt):
    """Count oscillations of a real series around its asymptote.

    The asymptote is the mean of the final tenth of the data (at least
    four samples). Sign changes are counted after discarding samples
    whose deviation is inside the deadband, ``DEADBAND_REL`` times the
    largest deviation, so numerical jitter on an overdamped tail does
    not register as crossings. The envelope rate comes from a
    least-squares line through log|deviation| at the interior extrema
    of |deviation|, in units of 1/time given ``dt``.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < 4:
        raise DimensionError("series must be 1-d with at least 4 samples")
    tail = max(4, series.size // 10)
    asymptote = float(series[-tail:].mean())
    dev = series - asymptote
    peak = np.abs(dev).max()
    if peak == 0.0:
        return OscillationMetrics(0, float("nan"), asymptote)
    signs = np.sign(dev[np.abs(dev) > DEADBAND_REL * peak])
    sign_changes = int(np.count_nonzero(np.diff(signs))) if signs.size else 0

    mag = np.abs(dev)
    interior = np.nonzero(
        (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
        & (mag[1:-1] > DEADBAND_REL * peak)
    )[0] + 1
    if interior.size < 2:
        rate = float("nan")
    else:
        slope = np.polyfit(interior * dt, np.log(mag[interior]), 1)[0]
        rate = float(-slope)
    return OscillationMetrics(sign_changes, rate, asymptote)
