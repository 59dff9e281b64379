"""Time grids and basis-trajectory containers."""

import numpy as np
import pytest

from ttmkit import BasisTrajectorySet, TimeGrid, gen_unitary
from ttmkit.errors import DimensionError
from ttmkit.liouville import SIGMA_X
from oracles import reference_basis_defects


def test_time_grid_times():
    grid = TimeGrid(dt=0.25, n_steps=4)
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("dt,n", [(0.0, 5), (-0.1, 5), (0.1, 0), (np.inf, 5),
                                  (np.nan, 5)])
def test_time_grid_validation(dt, n):
    with pytest.raises(ValueError):
        TimeGrid(dt=dt, n_steps=n)


def test_basis_set_shape_checks():
    grid = TimeGrid(dt=0.1, n_steps=3)
    with pytest.raises(DimensionError):
        BasisTrajectorySet(dim=2, grid=grid,
                           data=np.zeros((4, 3, 2, 2), dtype=complex))


def test_element_accessor_matches_layout():
    grid = TimeGrid(dt=0.1, n_steps=5)
    trajs = gen_unitary(SIGMA_X, grid)
    np.testing.assert_array_equal(trajs.element(1, 0), trajs.data[2])


def test_initial_frames_are_basis_elements():
    grid = TimeGrid(dt=0.05, n_steps=8)
    trajs = gen_unitary(SIGMA_X, grid)
    assert trajs.initial_defect() == 0.0


def test_dagger_defect_zero_for_unitary_source():
    grid = TimeGrid(dt=0.05, n_steps=8)
    trajs = gen_unitary(SIGMA_X, grid)
    assert trajs.dagger_defect() < 1e-14


def _random_maps(rng, dim, n_steps):
    d2 = dim * dim
    maps = (rng.normal(size=(n_steps + 1, d2, d2))
            + 1j * rng.normal(size=(n_steps + 1, d2, d2)))
    maps[0] = np.eye(d2)
    return maps


@pytest.mark.parametrize("dim", [2, 3])
def test_from_maps_round_trip_is_exact(dim):
    rng = np.random.default_rng(dim)
    grid = TimeGrid(dt=0.1, n_steps=5)
    maps = _random_maps(rng, dim, grid.n_steps)
    trajs = BasisTrajectorySet.from_maps(grid, maps)
    assert np.array_equal(trajs.maps, maps)
    again = BasisTrajectorySet.from_maps(grid, trajs.maps)
    assert np.array_equal(again.data, trajs.data)
    assert not np.shares_memory(again.data, trajs.data)
    # column i*D + j of E_k is frame k of |i><j|
    i, j = dim - 1, 0
    assert np.array_equal(trajs.element(i, j)[3].reshape(-1),
                          maps[3][:, i * dim + j])


def test_maps_view_is_read_only_and_tracks_data():
    trajs = gen_unitary(SIGMA_X, TimeGrid(dt=0.05, n_steps=4))
    view = trajs.maps
    with pytest.raises(ValueError):
        view[1, 0, 0] = 0.0
    trajs.data[2, 1, 0, 1] += 1.0
    assert view[1, 1, 2] == trajs.data[2, 1, 0, 1]


def test_from_maps_rejects_bad_shapes():
    grid = TimeGrid(dt=0.1, n_steps=2)
    with pytest.raises(DimensionError):
        BasisTrajectorySet.from_maps(grid, np.zeros((3, 3, 3)))
    with pytest.raises(DimensionError):
        BasisTrajectorySet.from_maps(grid, np.zeros((3, 4, 5)))
    with pytest.raises(DimensionError):
        BasisTrajectorySet.from_maps(grid, np.zeros((5, 4, 4)))


@pytest.mark.parametrize("dim", [2, 3])
def test_basis_defects_match_frame_layout_reference(dim):
    rng = np.random.default_rng(10 + dim)
    grid = TimeGrid(dt=0.1, n_steps=4)
    trajs = BasisTrajectorySet.from_maps(grid, _random_maps(rng, dim, 4))
    trajs.data[:, 0] += 1e-3 * rng.normal(size=trajs.data[:, 0].shape)
    initial, dagger = reference_basis_defects(trajs)
    assert initial > 0 and dagger > 0
    assert abs(trajs.initial_defect() - initial) <= 1e-12
    assert abs(trajs.dagger_defect() - dagger) <= 1e-12
