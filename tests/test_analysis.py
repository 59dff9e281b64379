"""Equilibrium detection, canonical comparison and oscillation metrics."""

import numpy as np
import pytest

from ttmkit import (
    SIGMA_X,
    SIGMA_Z,
    canonical_state,
    detect_equilibrium,
    noncanonical_angle,
    oscillation_metrics,
    tls_hamiltonian,
)
from ttmkit.errors import (
    DegenerateStateError,
    DimensionError,
    NotSettledError,
)


def test_canonical_state_two_level_weights():
    rho = canonical_state(SIGMA_Z, 1.0)
    z = 1.0 + np.exp(2.0)
    np.testing.assert_allclose(rho, np.diag([1.0 / z, np.exp(2.0) / z]),
                               atol=1e-14)


def test_canonical_state_limits():
    np.testing.assert_allclose(canonical_state(SIGMA_Z, 0.0),
                               np.eye(2) / 2, atol=1e-14)
    # huge beta must not overflow and lands on the ground projector
    cold = canonical_state(tls_hamiltonian(1.0, 0.6), 1e4)
    assert np.isfinite(cold).all()
    evals, vecs = np.linalg.eigh(tls_hamiltonian(1.0, 0.6))
    ground = np.outer(vecs[:, 0], vecs[:, 0].conj())
    np.testing.assert_allclose(cold, ground, atol=1e-12)


def test_canonical_state_commutes_with_hamiltonian():
    h = tls_hamiltonian(0.7, 0.4)
    rho = canonical_state(h, 2.0)
    assert np.abs(h @ rho - rho @ h).max() < 1e-14
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_angle_between_orthogonal_axes():
    rho_z = 0.5 * (np.eye(2) + 0.4 * SIGMA_Z)
    rho_x = 0.5 * (np.eye(2) + 0.2 * SIGMA_X)
    m = noncanonical_angle(rho_z, rho_x)
    assert m.theta == pytest.approx(np.pi / 2)
    diag = 0.5 * (np.eye(2) + 0.3 * (SIGMA_Z + SIGMA_X) / np.sqrt(2))
    assert noncanonical_angle(diag, rho_z).theta == pytest.approx(np.pi / 4)


def test_angle_ignores_axis_orientation_and_length():
    warm = 0.5 * (np.eye(2) + 0.5 * SIGMA_Z)
    inverted = 0.5 * (np.eye(2) - 0.05 * SIGMA_Z)
    assert noncanonical_angle(inverted, warm).theta == pytest.approx(0.0)


def test_angle_is_rotation_invariant():
    rng = np.random.default_rng(3)
    rho_a = 0.5 * (np.eye(2) + 0.4 * SIGMA_Z)
    rho_b = 0.5 * (np.eye(2) + 0.25 * (0.6 * SIGMA_X + 0.8 * SIGMA_Z))
    base = noncanonical_angle(rho_a, rho_b).theta
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(g)[0]
        ra = u @ rho_a @ u.conj().T
        rb = u @ rho_b @ u.conj().T
        assert abs(noncanonical_angle(ra, rb).theta - base) < 1e-10


def test_angle_rejects_degenerate_state():
    with pytest.raises(DegenerateStateError):
        noncanonical_angle(np.eye(2) / 2, 0.5 * (np.eye(2) + 0.4 * SIGMA_Z))


def test_equilibrium_of_constant_trajectory():
    traj = np.tile(np.diag([0.3, 0.7]).astype(complex), (30, 1, 1))
    report = detect_equilibrium(traj, tol=1e-9, window=10)
    assert report.settled_at == 0
    assert report.residual == 0.0
    np.testing.assert_allclose(report.state, np.diag([0.3, 0.7]), atol=1e-14)


def test_equilibrium_of_relaxing_trajectory():
    t = np.arange(0, 40.0, 0.1)
    pop = 0.5 + 0.5 * np.exp(-t)
    traj = np.array([np.diag([p, 1 - p]).astype(complex) for p in pop])
    report = detect_equilibrium(traj, tol=1e-8, window=20)
    # the per-step change 0.0476 exp(-t) crosses 1e-8 near t = 15.4
    assert 150 <= report.settled_at <= 160
    assert report.residual < 1e-8
    np.testing.assert_allclose(report.state, np.eye(2) / 2, atol=1e-7)


def test_oscillatory_tail_is_not_settled():
    t = np.arange(0, 30.0, 0.1)
    traj = np.array([np.diag([0.5 + 0.1 * np.cos(x), 0.5 - 0.1 * np.cos(x)])
                     .astype(complex) for x in t])
    with pytest.raises(NotSettledError) as info:
        detect_equilibrium(traj, tol=1e-9, window=20)
    assert info.value.residual > 1e-3


def test_too_short_trajectory_is_not_settled():
    traj = np.tile(np.eye(2, dtype=complex) / 2, (5, 1, 1))
    with pytest.raises(NotSettledError):
        detect_equilibrium(traj, tol=1e-9, window=20)


def test_oscillation_metrics_on_damped_cosine():
    t = np.arange(0, 60.0001, 0.05)
    m = oscillation_metrics(np.cos(t) * np.exp(-0.1 * t), dt=0.05)
    assert m.sign_changes == 19
    assert m.envelope_decay_rate == pytest.approx(0.1, rel=0.1)
    assert abs(m.asymptote) < 1e-3


def test_oscillation_metrics_on_monotone_decay():
    t = np.arange(0, 20.0, 0.05)
    m = oscillation_metrics(np.exp(-t), dt=0.05)
    assert m.sign_changes == 0
    assert np.isnan(m.envelope_decay_rate)


def test_oscillation_metrics_on_constant_series():
    m = oscillation_metrics(np.full(50, 0.3), dt=0.05)
    assert m.sign_changes == 0
    assert np.isnan(m.envelope_decay_rate)
    assert m.asymptote == pytest.approx(0.3)


def test_oscillation_metrics_rejects_short_series():
    with pytest.raises(DimensionError):
        oscillation_metrics(np.array([1.0, 0.5, 0.25]), dt=0.05)
