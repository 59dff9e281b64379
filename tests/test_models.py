"""Spin-boson parameters, bath correlation modes and the lineshape."""

from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

from ttmkit import SpinBosonParams, tls_hamiltonian
from ttmkit.errors import ConfigurationError, DimensionError
from ttmkit.liouville import SIGMA_X, SIGMA_Z
from ttmkit.models import (
    bath_correlation_modes,
    beta_from_kelvin,
    lineshape,
    matsubara_tail,
    time_from_fs,
)


def test_tls_hamiltonian_layout():
    h = tls_hamiltonian(2.0, 0.5)
    np.testing.assert_allclose(h, [[1.0, 0.25], [0.25, -1.0]])
    assert np.abs(h - h.conj().T).max() == 0.0


def test_params_validation():
    with pytest.raises(ConfigurationError):
        SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=-0.1, gamma=1.0,
                        beta=1.0)
    with pytest.raises(ConfigurationError):
        SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                        beta=0.0)
    # every model number must be finite, and the message names it
    valid = dict(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0, beta=1.0)
    for name, bad in product(valid, (np.nan, np.inf, -np.inf)):
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            SpinBosonParams(**{**valid, name: bad})


def test_params_refuse_a_coupling_operator_that_is_not_two_level():
    # the built-in Hamiltonian is 2x2, so a 3x3 operator fails at once
    with pytest.raises(DimensionError):
        SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                        beta=1.0, coupling_op=np.eye(3))


def test_params_hamiltonian_and_coupling_default():
    p = SpinBosonParams(omega0=1.0, j_coupling=1.0, lam=0.1, gamma=1.0,
                        beta=0.5)
    np.testing.assert_allclose(p.hamiltonian, 0.5 * (SIGMA_Z + SIGMA_X))
    np.testing.assert_allclose(p.coupling_op, SIGMA_Z)
    assert p.dim == 2


def test_reorganization_energy_integral():
    # g(t) grows at int_0^inf C(t) dt = lam (2/(beta gamma) - 1j): the
    # imaginary slope is the reorganization energy (1/pi) int J(w)/w dw
    lam, gamma, beta = 0.2, 1.5, 0.8
    g = lineshape([40.0, 50.0], lam, gamma, beta)
    slope = (g[1] - g[0]) / 10.0
    assert abs(slope - lam * (2.0 / (beta * gamma) - 1j)) < 1e-12


def test_mode_expansion_matches_quadrature_correlation():
    """Sum of exponential modes must reproduce the integral form of C(t).

    The thermal occupation factor is split as coth = 1 + (coth - 1). The
    first piece gives the Lorentzian cosine transform, which has a closed
    form in exponential integrals; the remainder decays like exp(-beta w)
    and is integrated directly. The imaginary part is checked against the
    closed form -lam*gamma*exp(-gamma*t).
    """
    lam, gamma, beta = 0.1, 1.0, 1.0

    def excess(w, t):
        coth = np.cosh(beta * w / 2) / np.sinh(beta * w / 2)
        return (coth - 1.0) * w / (w**2 + gamma**2) * np.cos(w * t)

    cutoff = 40.0 / beta
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, 1000)
    for t in (0.3, 1.0, 2.5):
        thermal, _ = quad(excess, 0, cutoff, args=(t,), limit=400)
        vacuum = -0.5 * (np.exp(gamma * t) * expi(-gamma * t)
                         + np.exp(-gamma * t) * expi(gamma * t))
        re = 2 * lam * gamma / np.pi * (thermal + vacuum)
        c = np.sum(coeffs * np.exp(-rates * t))
        assert abs(c.real - re) < 1e-6
        assert abs(c.imag - (-lam * gamma * np.exp(-gamma * t))) < 1e-8


def test_mode_rates_are_drude_plus_matsubara():
    _, rates = bath_correlation_modes(0.1, 0.7, 2.0, 3)
    np.testing.assert_allclose(rates[0], 0.7)
    np.testing.assert_allclose(rates[1:], 2 * np.pi * np.arange(1, 4) / 2.0)


@pytest.mark.parametrize("offset, refused", [(1e-6, True), (1e-2, False)])
def test_matsubara_frequency_near_the_drude_pole(offset, refused):
    # nu_k = 2 pi k at beta = 1; within 1e-3 gamma of nu_1 the two ~1/offset
    # parts of c_0 and c_1 cancel (5.4e-7 relative error in the
    # lineshape at offset 1e-6 against 1.4e-12 at 1e-3). c_0 diverges at
    # every nu_k, so the pole is refused whether mode k is kept or not:
    # with no Matsubara mode at nu_1, and at nu_2 with one mode
    for k, n_matsubara in [(1, 1), (1, 0), (2, 1)]:
        gamma = 2 * np.pi * k * (1 + offset)
        if refused:
            with pytest.raises(ConfigurationError, match="Drude pole"):
                bath_correlation_modes(0.1, gamma, 1.0, n_matsubara)
        else:
            bath_correlation_modes(0.1, gamma, 1.0, n_matsubara)


def test_matsubara_tail_vanishes_with_many_modes():
    lam, gamma, beta = 0.2, 1.0, 0.8
    assert abs(matsubara_tail(lam, gamma, beta, 2000)) < 1e-3
    assert abs(matsubara_tail(lam, gamma, beta, 2)) > abs(
        matsubara_tail(lam, gamma, beta, 50))


def test_tail_closes_the_mode_sum():
    # retained modes plus tail must equal the exact zero-frequency weight
    lam, gamma, beta, n = 0.3, 1.2, 0.6, 4
    coeffs, rates = bath_correlation_modes(lam, gamma, beta, n)
    total = sum(c / r for c, r in zip(coeffs, rates))
    total += matsubara_tail(lam, gamma, beta, n)
    # int_0^inf C(t) dt = lam (2/(beta gamma) - i), independent of the split
    expect = lam * (2.0 / (beta * gamma) - 1j)
    assert abs(total - expect) < 1e-12


def test_unit_conversions():
    # k_B T at 300 K is about 208.5 wavenumbers
    beta = beta_from_kelvin(300.0, 1.0)
    assert abs(1.0 / beta - 208.51) < 0.01
    # hbar / (1 cm^-1) is about 5.3 ps
    assert abs(time_from_fs(5308.8, 1.0) - 1.0) < 1e-12
