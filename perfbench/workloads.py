"""The benchmark's workloads: one CLI request shape and a seeded mesh each.

Each workload names the CLI arguments of its request (the mesh path is
added by the runner), builds its mesh from a ``random.Random`` seeded by
the benchmark's ``--seed``, and builds a smaller mesh of the same family for
the growth probe of the traced run.  The program only ever sees the
generated mesh JSON.  Why each workload was chosen is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from meshgen import Block, build_block, graded_lines, uniform_lines


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]                  # CLI arguments; the runner adds --mesh and outputs
    make: Callable[[random.Random], Block]
    probe: Callable[[random.Random], Block]

    @property
    def generators(self) -> bool:
        return self.args[0] == "cohomology"


def _cell_size(rng: random.Random) -> float:
    return rng.uniform(0.5, 2.0)


def _voxel_slab(rng: random.Random) -> Block:
    # a 2x2x1 slab of congruent voxels, its thin axis seeded
    axis, h = rng.randrange(3), _cell_size(rng)
    shape = [2, 2, 2]
    shape[axis] = 1
    return build_block([uniform_lines(n, h) for n in shape],
                       note=f"voxel block {shape}, h={h:.6g}")


def _voxel_cell(rng: random.Random) -> Block:
    h = _cell_size(rng)
    return build_block([uniform_lines(1, h)] * 3, note=f"one voxel, h={h:.6g}")


def _voxel_ring(rng: random.Random) -> Block:
    # a 4x3x1 slab with a hole at one of its two interior columns
    u, h = rng.choice((1, 2)), _cell_size(rng)
    return build_block([uniform_lines(n, h) for n in (4, 3, 1)], tunnels=[(2, (u, 1))],
                       note=f"voxel ring 4x3x1, hole at ({u}, 1), h={h:.6g}")


def _graded_cavity(rng: random.Random) -> Block:
    lines = [graded_lines(n, rng) for n in (3, 3, 3)]
    return build_block(lines, cavities=[(1, 1, 1)], note="graded block 3x3x3, central cavity")


def _graded_probe(rng: random.Random) -> Block:
    return build_block([graded_lines(n, rng) for n in (2, 2, 2)], note="graded block 2x2x2")


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify_k2_voxel", ("verify", "--degree", "2"), _voxel_slab, _voxel_cell),
    Workload(
        "cohomology_k0_generators", ("cohomology", "--degree", "0"),
        _voxel_ring, _voxel_slab),
    Workload(
        "verify_k1_graded", ("verify", "--degree", "1", "--checks", "complex,cohomology,cochain"),
        _graded_cavity, _graded_probe),
)}
