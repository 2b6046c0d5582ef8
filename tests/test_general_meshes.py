"""The battery on non-voxel meshes: general faces, non-convex elements, scales.

Voxel meshes exercise only axis-aligned geometry; these meshes bring
triangular faces, a diagonally oriented shared face, a non-convex (but
star-shaped) element with non-convex top/bottom faces, and non-unit entity
measures.
"""

import numpy as np
import pytest

from ddrcomplex import (
    betti_numbers,
    build_cochain_complex,
    build_voxel_mesh,
    builtin_pattern,
    compute_orientation,
    mesh_from_document,
    run_all,
)


def prism_pair():
    """Unit cube split along the x=y plane into two triangular prisms."""
    doc = {
        "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        "faces": [
            [0, 2, 1], [4, 5, 6], [0, 1, 5, 4], [1, 2, 6, 5], [0, 4, 6, 2],
            [0, 3, 2], [4, 6, 7], [2, 3, 7, 6], [0, 4, 7, 3],
        ],
        "elements": [[0, 1, 2, 3, 4], [4, 5, 6, 7, 8]],
    }
    return mesh_from_document(doc)


def l_prism():
    """A single L-shaped prism: non-convex element, star-shaped w.r.t. centroid."""
    bot = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    verts = [[x, y, 0] for x, y in bot] + [[x, y, 1] for x, y in bot]
    n = len(bot)
    faces = [list(range(n - 1, -1, -1)), list(range(n, 2 * n))]
    for i in range(n):
        j = (i + 1) % n
        faces.append([i, j, n + j, n + i])
    return mesh_from_document({"vertices": verts, "faces": faces,
                               "elements": [list(range(len(faces)))]})


def test_prism_pair_topology():
    mesh = prism_pair()
    assert mesh.counts == (8, 14, 9, 2)
    assert mesh.euler_characteristic == 1
    orient = compute_orientation(mesh)
    b = betti_numbers(build_cochain_complex(mesh, orient))
    assert b == (1, 0, 0, 0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_prism_pair_full_battery(k):
    mesh = prism_pair()
    orient = compute_orientation(mesh)
    report = run_all(mesh, orient, k)
    failed = [(c.name, c.residual, c.error) for c in report.checks if not c.passed]
    assert report.passed, failed
    assert report.cohomology_ddr == [0, 0, 0, 0]


def test_l_prism_geometry():
    mesh = l_prism()
    assert mesh.counts == (12, 18, 8, 1)
    orient = compute_orientation(mesh)
    assert abs(orient.cell_volume[0] - 3.0) < 1e-12
    assert np.abs(orient.cell_center[0] - [5 / 6, 5 / 6, 0.5]).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_l_prism_full_battery(k):
    mesh = l_prism()
    orient = compute_orientation(mesh)
    report = run_all(mesh, orient, k)
    failed = [(c.name, c.residual, c.error) for c in report.checks if not c.passed]
    assert report.passed, failed
    assert report.cohomology_ddr == [0, 0, 0, 0]


def test_scaled_ring_battery():
    mesh = build_voxel_mesh(builtin_pattern("ring"), h=0.5)
    orient = compute_orientation(mesh)
    report = run_all(mesh, orient, 1)
    failed = [(c.name, c.residual, c.error) for c in report.checks if not c.passed]
    assert report.passed, failed
    assert report.cohomology_ddr == [0, 1, 0, 0]
