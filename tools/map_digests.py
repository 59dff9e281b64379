"""Print the sha256 of the maps of the stepping cases the tests define.

One line per case: the ``gen_heom`` maps of the eleven benchmark
hierarchies over their benchmark frames and of C7a (depth 8, 2
Matsubara modes, dt 0.0025, 1600 frames), then the ``gen_lindblad``
maps of every ``LINDBLAD_CASES`` entry. The cases come from
``tests/test_heom.py`` and ``tests/test_generators.py``, so each is
defined in one place. Two checkouts step the same bits where their
outputs match::

    python3 tools/map_digests.py > before.txt   # in one checkout
    python3 tools/map_digests.py > after.txt    # in the other
    diff before.txt after.txt
"""

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_generators import LINDBLAD_CASES  # noqa: E402
from test_heom import (BENCHMARK_HIERARCHIES, BENCHMARK_IDS,  # noqa: E402
                       BENCHMARK_WAYS, C7A)
from ttmkit import HeomConfig, TimeGrid, gen_heom, gen_lindblad  # noqa: E402


def digest(trajs):
    """sha256 of the bytes of the maps E_k, C-ordered."""
    return hashlib.sha256(np.ascontiguousarray(trajs.maps).tobytes()).hexdigest()


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
        print(name, digest(trajs), flush=True)
    for case, make in LINDBLAD_CASES.items():
        h, ops, rates, grid = make()
        print(f"lindblad {case}", digest(gen_lindblad(h, ops, rates, grid)), flush=True)
