"""Hashes of every CLI output a behaviour-preserving refactor must keep.

Usage (from anywhere; the package is taken from this checkout's ``src``)::

    python3 tools/refactor_gate.py > gate.txt

Runs, with ``--no-timestamp``:

* ``verify`` (all families) on the builtins cube, ring and cavity and on
  ``meshes/graded_cavity.json``, ``meshes/prism_pair.json``,
  ``meshes/sheared_ring.json``, ``meshes/double_ring.json``,
  ``meshes/offset_block.json`` and ``meshes/double_cavity.json`` at
  k = 0..2: report, stdout, stderr and exit code;
* ``cohomology --generators`` on the same twenty-seven cases: report, stdout,
  stderr, exit code and VTK file;
* ``verify`` on ring k = 1 with each ``--inject-fault`` kind: report,
  stdout, stderr and exit code.

and prints one ``sha256  name`` line per output file (255 in all), sorted by
name.  Run it on two commits and ``diff`` the outputs: no difference means
the reports, messages, exit codes and VTK files are byte-identical.  The
graded mesh (a 3x3x3 block on graded grid lines with its central cell
removed, made with ``perfbench/meshgen.py``) has no two congruent elements,
unlike the voxel builtins.  Each of those meshes has one size group of
entities per kind (see ``Mesh.groups``); the prism pair (the unit
cube cut along the plane x = y, ``tests/test_general_meshes.prism_pair``)
has two groups of faces and two of elements, so code that pairs the groups
of two complexes is gated too.  The sheared ring is the builtin ring at
h = 0.7 under x -> Ax + b, A = [[1, 0.31, -0.17], [0.12, 0.93, 0.26],
[-0.21, 0.08, 1.11]], b = (0.37, -1.23, 2.71): no coordinate, normal or
measure is a round number, so a change that reorders the floating-point
sums of the geometry moves its outputs where the voxel meshes would not.
The double ring is a 5x3x1 voxel slab with cells (1, 1, 0) and (3, 1, 0)
removed, so b1 = 2: the only gated mesh with more than one generator in a
degree, so the order in which generators are selected is gated too.
The offset block is a 3x2x1 voxel block with h = 0.7 and 1e3 added to every
coordinate: the only gated mesh far from the origin, so a change to the
geometry shows there what rounding of order |x| eps / h does to it.
The double cavity is a 5x3x3 voxel block with cells (1, 1, 1) and
(3, 1, 1) removed, so b2 = 2: the only gated mesh with more than one H^2
generator, so the order in which those are selected is gated too.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MESH_FILES = Path(__file__).resolve().parent / "meshes"
# builtin name or mesh file -> CLI mesh arguments
MESHES = {"cube": ["--builtin", "cube"], "ring": ["--builtin", "ring"],
          "cavity": ["--builtin", "cavity"],
          "graded": ["--mesh", str(MESH_FILES / "graded_cavity.json")],
          "prism_pair": ["--mesh", str(MESH_FILES / "prism_pair.json")],
          "sheared_ring": ["--mesh", str(MESH_FILES / "sheared_ring.json")],
          "double_ring": ["--mesh", str(MESH_FILES / "double_ring.json")],
          "offset_block": ["--mesh", str(MESH_FILES / "offset_block.json")],
          "double_cavity": ["--mesh", str(MESH_FILES / "double_cavity.json")]}
DEGREES = (0, 1, 2)
FAULTS = ("omega_tf", "omega_fe", "edge_length")


def _runs():
    """(name, CLI arguments, writes a VTK file) for every gated request."""
    for mesh, where in MESHES.items():
        for k in DEGREES:
            yield f"verify-{mesh}-k{k}", ["verify", *where, "--degree", str(k)], False
            yield f"cohomology-{mesh}-k{k}", ["cohomology", *where, "--degree", str(k)], True
    for fault in FAULTS:
        yield (f"fault-{fault}-ring-k1",
               ["verify", "--builtin", "ring", "--degree", "1", "--inject-fault", fault], False)


def write_outputs(src: Path, out: Path) -> None:
    """Run every gated request with the package in ``src``; its report, VTK
    file, stdout, stderr and exit code go to ``out`` as ``<name>.json``,
    ``.vtk``, ``.stdout``, ``.stderr`` and ``.rc``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, args, vtk in _runs():
        argv = [sys.executable, "-m", "ddrcomplex.cli", *args, "--no-timestamp",
                "--out", str(out / f"{name}.json")]
        if vtk:
            argv += ["--generators", str(out / f"{name}.vtk")]
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=out)
        (out / f"{name}.stdout").write_bytes(proc.stdout)
        (out / f"{name}.stderr").write_bytes(proc.stderr)
        (out / f"{name}.rc").write_text(f"{proc.returncode}\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_outputs(SRC, out)
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
