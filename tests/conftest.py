"""Fixtures shared by the test modules."""

import pytest

from ttmkit import gen_heom


@pytest.fixture(scope="session")
def heom_run():
    """``gen_heom`` made once per (params, truncation, grid) for the session.

    Returns a function of (params, cfg, grid) whose basis trajectories
    are shared by every test that asks for the same hierarchy, so their
    data is read-only. It is for tests that check the maps; a test of
    ``gen_heom``'s own behaviour (its log, a spy, the guard, a
    monkeypatched rule) makes its own run.
    """
    runs = {}

    def run(params, cfg, grid):
        key = (params.omega0, params.j_coupling, params.lam, params.gamma,
               params.beta, params.coupling_op.tobytes(), cfg, grid)
        if key not in runs:
            trajs = gen_heom(params, cfg, grid)
            trajs.data.flags.writeable = False
            runs[key] = trajs
        return runs[key]

    return run
