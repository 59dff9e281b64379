"""Print the sha256 of the maps of the stepping cases the tests define.

One line per case: the ``gen_heom`` maps of the eleven benchmark
hierarchies over their benchmark frames and of C7a (depth 8, 2
Matsubara modes, dt 0.0025, 1600 frames), then the ``gen_lindblad``
maps of every ``LINDBLAD_CASES`` entry. The cases come from
``tests/test_heom.py`` and ``tests/test_generators.py``, so each is
defined in one place. Then the memory recursion as the benchmark's
``extrapolate`` workload runs it: the tensors peeled from C4's first
100 maps, and one ``propagate`` per cutoff of the first basis
trajectory from its own first K + 1 frames over C4's 1000. Two
checkouts step and recurse the same bits where their outputs match::

    python3 tools/map_digests.py > before.txt   # in one checkout
    python3 tools/map_digests.py > after.txt    # in the other
    diff before.txt after.txt
"""

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from test_generators import LINDBLAD_CASES  # noqa: E402
from test_heom import (BENCHMARK_HIERARCHIES, BENCHMARK_IDS,  # noqa: E402
                       BENCHMARK_WAYS, C7A)
from ttmkit import (BasisTrajectorySet, HeomConfig, TimeGrid,  # noqa: E402
                    extract_maps, gen_heom, gen_lindblad, maps_to_tensors,
                    propagate)
from workloads import Extrapolate  # noqa: E402


def digest(array):
    """sha256 of the bytes of an array, C-ordered."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def recursions(trajs):
    """(name, array) of the peel and the propagations of ``extrapolate`` on C4."""
    learn, n_steps = Extrapolate.learn, trajs.grid.n_steps
    window = BasisTrajectorySet(dim=2, grid=TimeGrid(dt=trajs.grid.dt, n_steps=learn),
                                data=trajs.data[:, :learn + 1].copy())
    full = maps_to_tensors(extract_maps(window))
    yield f"tensors c4 first {learn}", full.tensors
    for k in Extrapolate.cutoffs:
        yield f"propagate c4 K={k}", propagate(full.truncated(k), k,
                                                trajs.data[0, :k + 1], n_steps)


def hierarchies():
    """(name, params, depth, Matsubara modes, dt, frames) of each gen_heom case."""
    for name, point, (n_steps, _) in zip(BENCHMARK_IDS, BENCHMARK_HIERARCHIES,
                                         BENCHMARK_WAYS):
        yield (f"heom {name}", *point, n_steps)
    yield "heom c7a", C7A, 8, 2, 0.0025, 1600


if __name__ == "__main__":
    for name, params, depth, n_matsubara, dt, n_steps in hierarchies():
        trajs = gen_heom(params, HeomConfig(depth=depth, n_matsubara=n_matsubara),
                         TimeGrid(dt=dt, n_steps=n_steps))
        print(name, digest(trajs.maps), flush=True)
        if name == "heom c4":
            c4 = trajs
    for case, make in LINDBLAD_CASES.items():
        h, ops, rates, grid = make()
        print(f"lindblad {case}", digest(gen_lindblad(h, ops, rates, grid).maps),
              flush=True)
    for name, array in recursions(c4):
        print(name, digest(array), flush=True)
