"""Two-level spin-boson model and Drude-Lorentz bath helpers.

Internal units are dimensionless: hbar = 1 and energies are measured in
units of the intrinsic exchange coupling J, so times are in 1/J. The
conversion helpers at the bottom translate spectroscopic units
(cm^-1, Kelvin, fs) into these at the program boundary.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .errors import ConfigurationError, DimensionError
from .liouville import SIGMA_X, SIGMA_Z, is_hermitian

# 1/(k_B) in K/cm^-1 terms: k_B = 0.6950348 cm^-1 per Kelvin, and
# hbar = 5308.8 cm^-1 fs sets the time conversion.
KB_WAVENUMBER_PER_KELVIN = 0.6950348
HBAR_WAVENUMBER_FS = 5308.8
# Least relative distance of a Matsubara frequency from the Drude pole
# (bath_correlation_modes).
POLE_GUARD = 1e-3


def tls_hamiltonian(omega0, j_coupling):
    """Two-level Hamiltonian (omega0 * sigma_z + j_coupling * sigma_x) / 2.

    omega0 is the level splitting along sigma_z and j_coupling the
    off-diagonal exchange, both in energy units. With omega0 equal to
    j_coupling the Bloch axis of the Hamiltonian sits exactly between
    the z and x axes.
    """
    return 0.5 * (omega0 * SIGMA_Z + j_coupling * SIGMA_X)


@dataclass(frozen=True)
class SpinBosonParams:
    """Spin-boson configuration with a Drude-Lorentz bath.

    Attributes
    ----------
    omega0 : float
        Level splitting (sigma_z weight of 2H).
    j_coupling : float
        Exchange coupling (sigma_x weight of 2H).
    lam : float
        Bath reorganization energy.
    gamma : float
        Drude cutoff frequency (inverse bath correlation time).
    beta : float
        Inverse temperature.
    coupling_op : ndarray
        Hermitian 2x2 system operator the bath couples to; defaults to
        sigma_z (site dephasing). Its Hermitian part is kept.
    """

    omega0: float
    j_coupling: float
    lam: float
    gamma: float
    beta: float
    coupling_op: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("omega0", "j_coupling"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not 0 <= self.lam < np.inf:
            raise ConfigurationError(f"lam must be in [0, inf), got {self.lam}")
        if not 0 < self.gamma < np.inf:
            raise ConfigurationError(f"gamma must be in (0, inf), got {self.gamma}")
        if not 0 < self.beta < np.inf:
            raise ConfigurationError(f"beta must be in (0, inf), got {self.beta}")
        op = self.coupling_op
        if op is None:
            op = SIGMA_Z
        op = np.asarray(op, dtype=complex)
        if op.shape != (2, 2):
            raise DimensionError(
                f"coupling_op must be 2x2 (the two-level Hamiltonian), got "
                f"{op.shape}"
            )
        if not is_hermitian(op):
            raise ConfigurationError("coupling_op must be Hermitian")
        # the Hermitian part, equal to op when op is exactly Hermitian: the
        # hierarchy steps in real arithmetic only for an exactly Hermitian Q
        object.__setattr__(self, "coupling_op", 0.5 * (op + op.conj().T))

    @property
    def dim(self):
        return self.coupling_op.shape[0]

    @property
    def hamiltonian(self):
        return tls_hamiltonian(self.omega0, self.j_coupling)


def bath_correlation_modes(lam, gamma, beta, n_matsubara):
    """Exponential expansion of the bath correlation function.

    C(t>0) = sum_k c_k exp(-nu_k t) with the Drude pole first and
    ``n_matsubara`` Matsubara terms after it.

    Returns
    -------
    coeffs : complex ndarray, shape (n_matsubara + 1,)
    rates : float ndarray, shape (n_matsubara + 1,)
    """
    if n_matsubara < 0:
        raise ConfigurationError("n_matsubara must be nonnegative")
    # c_0 diverges as gamma nears any Matsubara frequency, kept or not;
    # nearer the pole than POLE_GUARD gamma, the ~1/(nu - gamma) parts of
    # c_0 and c_k cancel: 2.3e-10 relative error in lineshape at 1e-4
    # gamma, 5.4e-7 at 1e-6 (beta = 1, 100 frames of dt = 0.05)
    nu = 2.0 * np.pi * max(1.0, np.rint(beta * gamma / (2.0 * np.pi))) / beta
    if abs(nu - gamma) < POLE_GUARD * gamma:
        raise ConfigurationError(
            f"Matsubara frequency {nu:.6g} lies within "
            f"{POLE_GUARD:g} gamma of the Drude pole {gamma:.6g}; "
            "move beta or gamma apart"
        )
    coeffs = [lam * gamma * (1.0 / np.tan(beta * gamma / 2.0) - 1.0j)]
    rates = [gamma]
    for k in range(1, n_matsubara + 1):
        nu = 2.0 * np.pi * k / beta
        coeffs.append(4.0 * lam * gamma * nu / ((nu**2 - gamma**2) * beta))
        rates.append(nu)
    return np.asarray(coeffs, dtype=complex), np.asarray(rates, dtype=float)


def matsubara_tail(lam, gamma, beta, n_matsubara):
    """Integrated weight of the neglected Matsubara modes.

    The full expansion satisfies sum_k c_k / nu_k = lam (2/(beta gamma) - 1j);
    subtracting the retained modes leaves the coefficient of the
    time-local correction applied by the hierarchy terminator. It is
    real: the Drude pole's -1j lam gamma / gamma cancels the -1j lam, and
    the rounding-level imaginary remainder is dropped, since the
    hierarchy keeps its auxiliaries Hermitian only for a real terminator.
    """
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n_matsubara)
    total = lam * (2.0 / (beta * gamma) - 1.0j)
    return (total - np.sum(coeffs / rates)).real


def lineshape(times, lam, gamma, beta):
    """Lineshape g(t) = int_0^t int_0^s C(u) du ds of the Drude-Lorentz bath.

    Sums g(t) = sum_k (c_k / nu_k^2) (exp(-nu_k t) - 1 + nu_k t) over
    the :func:`bath_correlation_modes` expansion the hierarchy uses, with
    no quadrature. Modes are explicit up to the first M with
    nu_M t_min >= 40 (and M + 1 >= 2 b, see below). Beyond M,
    exp(-nu_k t) < e^-40 at every time, so the rest is the exact linear
    tail t * matsubara_tail(M) minus the constant sum_{k>M} c_k / nu_k^2,
    and what this drops is below e^-40 of that constant.
    With a = 2 pi / beta and b = gamma / a that constant is
    (4 lam gamma / (beta a^3)) sum_j b^(2j) zeta(3 + 2j, M + 1), whose
    terms shrink at least fourfold.

    Re g is the Gaussian decoherence exponent and Im g the bath-induced
    phase -lam (gamma t - 1 + exp(-gamma t)) / gamma.

    Parameters
    ----------
    times : array_like of float
        Positive times.

    Returns
    -------
    complex ndarray, the shape of ``times``
    """
    times = np.asarray(times, dtype=float)
    if times.min() <= 0:
        raise ValueError("times must be positive")
    a = 2.0 * np.pi / beta
    b = gamma / a
    n_modes = max(int(np.ceil(40.0 / (a * times.min()))), int(np.ceil(2.0 * b)))
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n_modes)
    weights = coeffs / rates**2
    explicit = [weights @ (np.expm1(-rates * t) + rates * t)
                for t in times.ravel()]
    ratio = (b / (n_modes + 1)) ** 2
    # enough zeta terms for ratio**j to fall below 1e-17
    powers = np.arange(1 + int(np.log(1e-17) / np.log(ratio)))
    constant = 4.0 * lam * gamma / (beta * a**3) * np.sum(
        b ** (2 * powers) * zeta(3.0 + 2 * powers, n_modes + 1))
    tail = times * matsubara_tail(lam, gamma, beta, n_modes) - constant
    return np.reshape(explicit, times.shape) + tail


def beta_from_kelvin(temperature_k, unit_cm):
    """Temperature in Kelvin -> dimensionless inverse temperature."""
    if not 0 < temperature_k < np.inf:
        raise ConfigurationError("temperature must be positive and finite")
    return unit_cm / (KB_WAVENUMBER_PER_KELVIN * temperature_k)


def time_from_fs(value_fs, unit_cm):
    """Time in fs -> dimensionless, given the energy unit in cm^-1."""
    return value_fs * unit_cm / HBAR_WAVENUMBER_FS
