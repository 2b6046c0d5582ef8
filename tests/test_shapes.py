"""Congruent entities share their local operators: cross-checks and key completeness."""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

import ddrcomplex.operators as operators
from ddrcomplex import (
    DdrComplex,
    build_voxel_mesh,
    compute_orientation,
    corrupt_orientation,
    run_all,
)
from ddrcomplex.cli import main
from ddrcomplex.layouts import closure

from conftest import complex_for, mesh_and_orientation

# (entity kind, builder, the builder's first solve label)
BUILDERS = (
    ("edge", "edge_ops", "edge {}: scalar trace"),
    ("face", "face_grad_ops", "face {}: gradient"),
    ("cell", "cell_grad_ops", "element {}: gradient"),
    ("face", "face_curl_ops", "face {}: curl"),
    ("cell", "cell_curl_ops", "element {}: curl"),
    ("cell", "cell_div_ops", "element {}: divergence"),
)
# projected blocks of the global gradient and curl: (operator, builder, kind, part, degree shift)
PROJECTED = (
    ("gradient", "face_grad_ops", "face", "R", -1), ("gradient", "face_grad_ops", "face", "Rc", 0),
    ("gradient", "cell_grad_ops", "cell", "R", -1), ("gradient", "cell_grad_ops", "cell", "Rc", 0),
    ("curl", "cell_curl_ops", "cell", "G", -1), ("curl", "cell_curl_ops", "cell", "Gc", 0),
)


def _counts(mesh):
    return {"edge": mesh.n_edges, "face": mesh.n_faces, "cell": mesh.n_elements}


def _block(h, offset=0.0):
    """A 3x2x1 voxel block of cell size h, moved by ``offset`` along each axis."""
    mesh = build_voxel_mesh(np.ones((3, 2, 1), dtype=int), h=h)
    mesh = dataclasses.replace(mesh, vertices=mesh.vertices + offset)
    return mesh, compute_orientation(mesh)


def _mesh(name):
    # integer coordinates 1e3 from the origin: element centroids round there
    return _block(1.0, 1e3) if name == "offset_block" else mesh_and_orientation(name)


def _classes(c):
    """Entities of each kind grouped by their representative."""
    out = {}
    for kind, n in _counts(c.mesh).items():
        groups = defaultdict(list)
        for i in range(n):
            groups[c.representative(kind, i)].append(i)
        out[kind] = list(groups.values())
    return out


def _rel(shared, fresh):
    scale = np.abs(fresh).max() if fresh.size else 0.0
    return np.abs(shared - fresh).max() / scale if scale else np.abs(shared).max(initial=0.0)


def _cross_check(mesh, orient, k, shared):
    """Compare every entity's shared blocks with a complex that builds it first.

    Round j makes the j-th member of every class a representative of a new
    complex, so over all rounds every entity is built fresh once.
    """
    classes = _classes(shared)
    worst = 0.0
    for j in range(max(len(g) for groups in classes.values() for g in groups)):
        fresh = DdrComplex(mesh, orient, k)
        chosen = {kind: [g[j] for g in groups if j < len(g)] for kind, groups in classes.items()}
        for kind, ents in chosen.items():
            for i in ents:
                assert fresh.representative(kind, i) == i
        for kind, builder, _ in BUILDERS:
            for i in chosen[kind]:
                a, b = getattr(shared, builder)(i), getattr(fresh, builder)(i)
                assert np.array_equal(a.lmap.globals, b.lmap.globals)
                pairs = [(a.op, b.op), (a.moments.mass, b.moments.mass),
                         (a.moments.rhs, b.moments.rhs)]
                if a.potential is not None:
                    pairs.append((a.potential, b.potential))
                worst = max([worst] + [_rel(x, y) for x, y in pairs])
        for which, builder, kind, part, shift in PROJECTED:
            rows_of = shared.layout("Xcurl" if which == "gradient" else "Xdiv")
            glob = shared.operator(which)
            for i in chosen[kind]:
                ops = getattr(fresh, builder)(i)
                block = fresh.project_onto(part, (kind, i), k + shift, k, ops.op)
                rows = rows_of.indices(kind, i, part)
                got = glob.gather(rows, ops.lmap.globals)
                worst = max(worst, _rel(got, block))
        for kind, ents in chosen.items():
            for i in ents:
                worst = max(worst, _rel(shared.means(kind, i), fresh.means(kind, i)))
    return worst


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["ring", "cavity", "offset_block"])
def test_shared_blocks_match_fresh_builds(name, k):
    mesh, orient = _mesh(name)
    shared = complex_for(name, k) if name != "offset_block" else DdrComplex(mesh, orient, k)
    assert _cross_check(mesh, orient, k, shared) <= 1e-13


@pytest.mark.parametrize("k", [0, 1])
def test_offset_block_misses_and_keeps_its_verdicts(monkeypatch, k):
    # 1e3 from the origin with h = 0.7, coordinates and centres round at about
    # 1e-13 of a diameter, far beyond the sharing tolerance: copies are built again
    near, far = DdrComplex(*_block(0.7), k), DdrComplex(*_block(0.7, 1e3), k)
    for kind in ("edge", "face", "cell"):
        assert len(_classes(far)[kind]) > len(_classes(near)[kind])
    shared = run_all(far.mesh, far.orient, k)
    monkeypatch.setattr(DdrComplex, "representative", lambda self, kind, index: index)
    unshared = run_all(far.mesh, far.orient, k)
    assert [(c.name, c.passed) for c in shared.checks] == \
        [(c.name, c.passed) for c in unshared.checks]
    assert shared.cohomology_ddr == unshared.cohomology_ddr == [0, 0, 0, 0]
    # the consistency sweep evaluates monomials in absolute coordinates, which
    # loses accuracy this far from the origin at k >= 1, with or without sharing
    assert all(c.passed for c in shared.checks
               if k == 0 or not c.name.startswith("consistency."))


def _spy_builds(monkeypatch):
    labels = []
    solve = operators.checked_solve

    def spy(system, rhs, what):
        labels.append(what)
        return solve(system, rhs, what)

    monkeypatch.setattr(operators, "checked_solve", spy)
    return labels


def _build_all(c):
    for kind, builder, _ in BUILDERS:
        for i in range(_counts(c.mesh)[kind]):
            getattr(c, builder)(i)


def _copy_of(c, kind):
    """An entity of ``kind`` that shares the operators of an earlier one."""
    return next(i for i in range(_counts(c.mesh)[kind]) if c.representative(kind, i) != i)


def _moved_vertex(mesh, v, by):
    verts = mesh.vertices.copy()
    verts[v] += by
    return dataclasses.replace(mesh, vertices=verts)


def _perturbations():
    """(name, perturb(mesh, orient, healthy complex) -> (mesh, orient, [(kind, entity)]))"""
    def omega_tf(mesh, orient, c):
        t = _copy_of(c, "cell")
        return mesh, corrupt_orientation(orient, f"omega_tf:{t}:2"), [("cell", t)]

    def omega_fe(mesh, orient, c):
        f = _copy_of(c, "face")
        return mesh, corrupt_orientation(orient, f"omega_fe:{f}:1"), [("face", f)]

    def edge_length(mesh, orient, c):
        e = _copy_of(c, "edge")
        return mesh, corrupt_orientation(orient, f"edge_length:{e}"), [("edge", e)]

    def tau1(mesh, orient, c):
        f = _copy_of(c, "face")
        tau = orient.face_tau1.copy()
        tau[f] = -tau[f]
        return mesh, dataclasses.replace(orient, face_tau1=tau), [("face", f)]

    def vertex(mesh, orient, c):
        t = _copy_of(c, "cell")
        v = closure(mesh, "cell", t)[0][0]
        moved = _moved_vertex(mesh, v, 1e-9 * orient.cell_diameter[t] * np.asarray([1.0, 0, 0]))
        touched = [(kind, i) for kind in ("edge", "face", "cell")
                   for i in range(_counts(mesh)[kind]) if v in closure(mesh, kind, i)[0]]
        return moved, compute_orientation(moved), touched

    return [("omega_tf", omega_tf), ("omega_fe", omega_fe), ("edge_length", edge_length),
            ("tau1", tau1), ("vertex_1e-9h", vertex)]


@pytest.mark.parametrize("name,perturb", _perturbations(), ids=[p[0] for p in _perturbations()])
def test_key_sees_every_input_of_the_builders(monkeypatch, name, perturb):
    mesh = build_voxel_mesh(np.ones((3, 3, 2), dtype=int))
    orient = compute_orientation(mesh)
    healthy = DdrComplex(mesh, orient, 1)
    mesh2, orient2, targets = perturb(mesh, orient, healthy)
    # without the perturbation a target shares an earlier entity's operators
    assert any(healthy.representative(kind, i) != i for kind, i in targets)
    labels = _spy_builds(monkeypatch)
    c = DdrComplex(mesh2, orient2, 1)
    _build_all(c)
    for kind, i in targets:
        assert c.representative(kind, i) == i, (kind, i)
        for bkind, _, label in BUILDERS:
            if bkind == kind:
                assert label.format(i) in labels, (kind, i, label)


def _ring_with_copies():
    c = complex_for("ring", 0)
    return {"omega_tf": f"omega_tf:{_copy_of(c, 'cell')}:0",
            "omega_fe": f"omega_fe:{_copy_of(c, 'face')}:0",
            "edge_length": f"edge_length:{_copy_of(c, 'edge')}"}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("fault", ["omega_tf", "omega_fe", "edge_length"])
def test_fault_on_a_congruent_copy_exit_1(tmp_path, fault, k):
    out = tmp_path / "r.json"
    code = main(["verify", "--builtin", "ring", "--degree", str(k),
                 "--inject-fault", _ring_with_copies()[fault], "--out", str(out),
                 "--no-timestamp"])
    assert code == 1


def _congruence_classes(mesh, orient, kind):
    """Classes of translated copies with the same local numbering, from scratch:
    closure vertices relative to their lowest corner (rounded), the local
    index patterns and the boundary signs."""
    classes = set()
    for i in range(_counts(mesh)[kind]):
        vs, es, fs, _ = closure(mesh, kind, i)
        pts = mesh.vertices[vs]
        rel = tuple(np.round((pts - pts.min(axis=0)) * 1e9).astype(int).ravel())
        where = {v: n for n, v in enumerate(vs)}
        edges = tuple(where[int(v)] for e in es for v in mesh.edges[e])
        eat = {e: n for n, e in enumerate(es)}
        faces = tuple((tuple(where[v] for v in mesh.face_loops[f]),
                       tuple(eat[e] for e in mesh.face_edges[f]), orient.face_edge_sign[f])
                      for f in fs)
        cell = ((tuple(fs.index(f) for f in mesh.element_faces[i]), orient.cell_face_sign[i])
                if kind == "cell" else ())
        classes.add((rel, edges, faces, cell))
    return len(classes)


@pytest.mark.parametrize("hole", [1, 2])
def test_fresh_builds_count_congruence_classes(monkeypatch, hole):
    # the 4x3x1 voxel ring of the cohomology benchmark
    pattern = np.ones((4, 3, 1), dtype=int)
    pattern[hole, 1, 0] = 0
    mesh = build_voxel_mesh(pattern, h=0.7)
    orient = compute_orientation(mesh)
    labels = _spy_builds(monkeypatch)
    _build_all(DdrComplex(mesh, orient, 1))
    for kind, _, label in BUILDERS:
        n = _counts(mesh)[kind]
        builds = sum(label.format(i) in labels for i in range(n))
        classes = _congruence_classes(mesh, orient, kind)
        assert builds == classes < n, (label, builds, classes, n)


def test_copies_share_read_only_arrays():
    c = complex_for("ring", 1)
    e = _copy_of(c, "edge")
    rep = c.representative("edge", e)
    a, b = c.edge_ops(e), c.edge_ops(rep)
    assert a.op is b.op and a.moments.rhs is b.moments.rhs
    assert a.lmap is not b.lmap and a.lmap.globals.tolist() != b.lmap.globals.tolist()
    for arr in (a.op, a.potential, a.moments.mass, a.moments.rhs, c.means("edge", e)):
        assert not arr.flags.writeable
