"""Dynamical-map extraction and physicality diagnostics."""

import numpy as np
import pytest

from ttmkit import (
    BasisTrajectorySet,
    SIGMA_X,
    SIGMA_Z,
    TimeGrid,
    extract_maps,
    gen_lindblad,
    gen_unitary,
    maps_to_tensors,
    unitary_superop,
    validate_maps,
    vectorize,
)
from ttmkit.errors import DimensionError
from oracles import reference_validate_maps

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _lindblad_trajs(n_steps=40, dt=0.05):
    h = 0.5 * (SIGMA_Z + 0.4 * SIGMA_X)
    return gen_lindblad(h, [SIGMA_MINUS], [0.3], TimeGrid(dt=dt, n_steps=n_steps))


def test_maps_reproduce_trajectories():
    trajs = _lindblad_trajs()
    seq = extract_maps(trajs)
    for col, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        seed = np.zeros((2, 2), dtype=complex)
        seed[i, j] = 1.0
        v = vectorize(seed)
        for k in (0, 7, 40):
            out = (seq.maps[k] @ v).reshape(2, 2)
            assert np.abs(out - trajs.data[col, k]).max() < 1e-12


def test_unitary_maps_are_superoperator_conjugations():
    grid = TimeGrid(dt=0.1, n_steps=10)
    trajs = gen_unitary(SIGMA_X, grid)
    seq = extract_maps(trajs)
    for k in (1, 5, 10):
        t = grid.times[k]
        u = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA_X
        assert np.abs(seq.maps[k] - unitary_superop(u)).max() < 1e-12


def test_markovian_semigroup_composition():
    # a Lindblad evolution composes exactly: E_{m+n} = E_m E_n
    seq = extract_maps(_lindblad_trajs())
    for m, n in [(1, 1), (3, 5), (10, 20)]:
        assert np.abs(seq.maps[m + n] - seq.maps[m] @ seq.maps[n]).max() < 1e-8


def test_extract_rejects_corrupted_initial_frame():
    trajs = _lindblad_trajs(n_steps=5)
    trajs.data[1, 0, 0, 0] += 1e-3
    with pytest.raises(DimensionError):
        extract_maps(trajs)


def test_extract_rejects_adjoint_asymmetry():
    trajs = _lindblad_trajs(n_steps=5)
    trajs.data[1, 3] += 1e-4
    with pytest.raises(DimensionError):
        extract_maps(trajs)


def test_sequence_requires_identity_at_origin():
    # learning refuses maps whose E_0 is not the identity
    maps = np.stack([np.eye(4, dtype=complex) * 1.01, np.eye(4, dtype=complex)])
    seq = BasisTrajectorySet.from_maps(TimeGrid(dt=0.1, n_steps=1), maps)
    with pytest.raises(DimensionError):
        maps_to_tensors(seq)


def test_validation_report_on_physical_maps():
    report = validate_maps(extract_maps(_lindblad_trajs()))
    tr, he, ch = report.worst()
    assert tr < 1e-10
    assert he < 1e-10
    assert ch > -1e-10


def test_validation_flags_nonpositive_map():
    seq = extract_maps(_lindblad_trajs(n_steps=4))
    maps = seq.maps.copy()
    # transpose map is positive but not completely positive
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    maps[3] = swap
    bad = BasisTrajectorySet.from_maps(seq.grid, maps)
    report = validate_maps(bad)
    assert report.choi_min_eigs[3] < -0.5
    assert report.trace_defects[3] < 1e-12


def _random_sequence(dim):
    rng = np.random.default_rng(7 * dim)
    d2 = dim * dim
    maps = np.empty((6, d2, d2), dtype=complex)
    maps[0] = np.eye(d2)
    maps[1:] = np.eye(d2) + 0.3 * (rng.normal(size=(5, d2, d2))
                                   + 1j * rng.normal(size=(5, d2, d2)))
    return BasisTrajectorySet.from_maps(TimeGrid(dt=0.1, n_steps=5), maps)


@pytest.mark.parametrize("make", [
    lambda: _random_sequence(2),
    lambda: _random_sequence(3),
    lambda: extract_maps(_lindblad_trajs()),
], ids=["random-d2", "random-d3", "lindblad"])
def test_validate_maps_matches_per_frame_reference(make):
    seq = make()
    got = validate_maps(seq)
    want = reference_validate_maps(seq)
    for name in ("trace_defects", "hermiticity_defects", "choi_min_eigs"):
        assert getattr(got, name).shape == (seq.maps.shape[0],)
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12
