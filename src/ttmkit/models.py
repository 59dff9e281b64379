"""Two-level spin-boson model and Drude-Lorentz bath helpers.

Internal units are dimensionless: hbar = 1 and energies are measured in
units of the intrinsic exchange coupling J, so times are in 1/J. The
conversion helpers at the bottom translate spectroscopic units
(cm^-1, Kelvin, fs) into these at the program boundary.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError
from .liouville import SIGMA_X, SIGMA_Z, is_hermitian

# 1/(k_B) in K/cm^-1 terms: k_B = 0.6950348 cm^-1 per Kelvin, and
# hbar = 5308.8 cm^-1 fs sets the time conversion.
KB_WAVENUMBER_PER_KELVIN = 0.6950348
HBAR_WAVENUMBER_FS = 5308.8


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
        sigma_z (site dephasing).
    """

    omega0: float
    j_coupling: float
    lam: float
    gamma: float
    beta: float
    coupling_op: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigurationError(f"lam must be nonnegative, got {self.lam}")
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {self.gamma}")
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
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
        object.__setattr__(self, "coupling_op", op)

    @property
    def dim(self):
        return self.coupling_op.shape[0]

    @property
    def hamiltonian(self):
        return tls_hamiltonian(self.omega0, self.j_coupling)


def spectral_density(omega, lam, gamma):
    """Drude-Lorentz spectral density J(w) = 2 lam gamma w / (w^2 + gamma^2)."""
    omega = np.asarray(omega, dtype=float)
    return 2.0 * lam * gamma * omega / (omega**2 + gamma**2)


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
    coeffs = [lam * gamma * (1.0 / np.tan(beta * gamma / 2.0) - 1.0j)]
    rates = [gamma]
    for k in range(1, n_matsubara + 1):
        nu = 2.0 * np.pi * k / beta
        if abs(nu - gamma) < 1e-12 * gamma:
            raise ConfigurationError(
                "Matsubara frequency degenerate with the Drude pole; "
                "perturb beta or gamma"
            )
        coeffs.append(4.0 * lam * gamma * nu / ((nu**2 - gamma**2) * beta))
        rates.append(nu)
    return np.asarray(coeffs, dtype=complex), np.asarray(rates, dtype=float)


def matsubara_tail(lam, gamma, beta, n_matsubara):
    """Integrated weight of the neglected Matsubara modes.

    The full expansion satisfies sum_k c_k / nu_k = lam (2/(beta gamma) - 1j);
    subtracting the retained modes leaves the coefficient of the
    time-local correction applied by the hierarchy terminator.
    """
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n_matsubara)
    total = lam * (2.0 / (beta * gamma) - 1.0j)
    return total - np.sum(coeffs / rates)


def bath_correlation(t, lam, gamma, beta):
    """Bath correlation function C(t) for t > 0 by Matsubara summation.

    Intended for oracles and diagnostics; the generator modules use the
    truncated expansion plus terminator instead. The imaginary part is
    closed-form; the real part converges as 1/k^2 once the exponential
    cutoff sets in, which the 1000 Matsubara modes summed here handle
    for the parameter ranges used in this package.
    """
    t = np.asarray(t, dtype=float)
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, 1000)
    decay = np.exp(-np.multiply.outer(rates, t))
    return np.tensordot(coeffs, decay, axes=(0, 0))


def beta_from_kelvin(temperature_k, unit_cm):
    """Temperature in Kelvin -> dimensionless inverse temperature."""
    if temperature_k <= 0:
        raise ConfigurationError("temperature must be positive")
    return unit_cm / (KB_WAVENUMBER_PER_KELVIN * temperature_k)


def time_from_fs(value_fs, unit_cm):
    """Time in fs -> dimensionless, given the energy unit in cm^-1."""
    return value_fs * unit_cm / HBAR_WAVENUMBER_FS
