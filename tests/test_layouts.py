"""The per-kind dof layout against a per-entity reference.

The reference is the component scan and the restriction the layout was once
built from: one component record per (entity, part), in layout order, and
per entity the components of its closure (vertices, edges, faces, the entity,
each ascending), looked up one by one.  The layout's ``indices``, ``dim``
and ``closure_dofs``, and the local positions the builders read from them,
must equal what the reference gives, entity by entity; the mesh's size
groups must be those of the closure counts the groups were once keyed by,
and each group's arrays must be the mesh's per-entity tables.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from ddrcomplex import DofLayout, build_voxel_mesh, load_mesh
from ddrcomplex.layouts import KINDS, PARTS, SPACES, entity_count
from ddrcomplex.operators import OPERATORS, _Group, _positions
from ddrcomplex.spaces import space_dim

from conftest import mesh_and_orientation, voxel_patterns
from test_general_meshes import l_prism

ROOT = Path(__file__).resolve().parent.parent
MESH_FILES = sorted((ROOT / "tools" / "meshes").glob("*.json"))


def closure(mesh, kind, entity):
    """Vertices, edges, faces and cells of one entity's closure, each
    ascending (an edge's vertices are)."""
    if kind == "edge":
        return [int(v) for v in mesh.edges[entity]], [entity], [], []
    faces = [entity] if kind == "face" else sorted(mesh.element_faces[entity])
    return (sorted({v for f in faces for v in mesh.face_loops[f]}),
            sorted({e for f in faces for e in mesh.face_edges[f]}),
            faces, [entity] if kind == "cell" else [])


def reference_groups(mesh, kind):
    """Entities with equal closure counts and equal face-loop lengths, in
    element-face order, grouped in order of their first entity."""
    groups = {}
    for i in range(entity_count(mesh, kind)):
        faces = [i] if kind == "face" else mesh.element_faces[i] if kind == "cell" else []
        key = (tuple(map(len, closure(mesh, kind, i))), [len(mesh.face_loops[f]) for f in faces])
        groups.setdefault(repr(key), []).append(i)
    return list(groups.values())


def reference_components(lay):
    """``{(kind, entity, part): (offset, dim)}`` in layout order, and the total:
    kinds in order of dimension, entities ascending, parts in order."""
    comps, offset = {}, 0
    for kind, parts in PARTS[lay.space].items():
        for ent in range(entity_count(lay.mesh, kind)):
            for part, shift in parts:
                dim = 1 if part == "val" else space_dim(
                    "P" if part == "poly" else part, lay.degree + shift, KINDS.index(kind))
                comps[kind, ent, part] = (offset, dim)
                offset += dim
    return comps, offset


def reference_restriction(lay, comps, kind, entity):
    """The global numbers of one entity's local dofs: its closure's
    components, entity by entity, each in layout order."""
    parts = PARTS[lay.space]
    return np.asarray([n for sub, ents in zip(KINDS, closure(lay.mesh, kind, entity))
                       for ent in ents for part, _ in parts.get(sub, ())
                       for n in range(comps[sub, ent, part][0],
                                      sum(comps[sub, ent, part]))], dtype=int)


def reference_local(globals_, comps, key):
    """Positions of one component's unknowns among an entity's local dofs."""
    offset, dim = comps[key]
    start = int(np.searchsorted(globals_, offset))
    assert not dim or globals_[start] == offset, key
    return np.arange(start, start + dim)


def check_groups(mesh, kind):
    """The mesh's size groups of ``kind`` against the reference grouping, its
    group table, and each group's arrays against the per-entity tables:
    faces in element-face order, and per face in that order its loop, the
    loop rolled by one and its edges; an element's vertices are its loops'."""
    groups = mesh.groups(kind)
    assert [g.ids.tolist() for g in groups] == reference_groups(mesh, kind)
    for g, grp in enumerate(groups):
        assert all(not a.flags.writeable for a in grp)
        assert mesh.group_table(kind)[:, grp.ids].tolist() == [[g] * len(grp.ids),
                                                              list(range(len(grp.ids)))]
        for row, i in enumerate(grp.ids.tolist()):
            faces = [i] if kind == "face" else list(mesh.element_faces[i]) if kind == "cell" else []
            loops = [mesh.face_loops[f] for f in faces]
            assert grp.faces[row].tolist() == faces
            assert grp.owner[row].tolist() == [f for f, loop in zip(faces, loops) for _ in loop]
            assert grp.start[row].tolist() == [v for loop in loops for v in loop]
            assert grp.end[row].tolist() == [v for loop in loops for v in loop[1:] + loop[:1]]
            assert grp.edge[row].tolist() == [e for f in faces for e in mesh.face_edges[f]]
            if kind == "cell":
                assert sorted(set(grp.start[row].tolist())) == list(mesh.element_vertices(i))


def check_layout(mesh, degree):
    """The size groups of ``mesh`` and every layout of it at ``degree``
    against the reference."""
    for kind in KINDS[1:]:
        check_groups(mesh, kind)
    for space in SPACES:
        lay = DofLayout(space, degree, mesh)
        comps, total = reference_components(lay)
        assert lay.total == total
        for (kind, ent, part), (offset, dim) in comps.items():
            assert lay.dim(kind, part) == dim
            assert lay.indices(kind, ent, part).tolist() == list(range(offset, offset + dim))
        for kind in KINDS[1:]:
            for group in mesh.groups(kind):
                dofs = lay.closure_dofs(kind, group)
                ref = [reference_restriction(lay, comps, kind, int(i)) for i in group.ids]
                assert dofs.tolist() == np.stack(ref).tolist(), (space, kind)
                check_positions(lay, comps, kind, group, dofs)


def check_positions(lay, comps, kind, group, dofs):
    """The local positions of a group's own parts and of each part of every
    entity on its closure, as the builders compute them, against the
    reference's search of one entity at a time."""
    grp, ids = _Group(kind, group, lay, dofs, {}), group.ids
    for sub, ents in zip(KINDS, zip(*(closure(lay.mesh, kind, int(i)) for i in ids))):
        for part, _ in PARTS[lay.space].get(sub, ()):
            if sub == kind:
                want = [reference_local(row, comps, (kind, int(i), part))
                        for row, i in zip(dofs, ids)]
                assert grp.own(part).tolist() == want[0].tolist()
                assert all(w.tolist() == want[0].tolist() for w in want)
            for col in np.asarray(ents).T:
                got = _positions(dofs, lay.indices(sub, col, part))
                want = [reference_local(row, comps, (sub, int(e), part))
                        for row, e in zip(dofs, col)]
                assert got.tolist() == np.stack(want).tolist(), (lay.space, kind, sub, part)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_layout_matches_reference_on_builtins(name, k):
    check_layout(mesh_and_orientation(name)[0], k)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("path", MESH_FILES, ids=lambda p: p.stem)
def test_layout_matches_reference_on_mesh_files(path, k):
    check_layout(load_mesh(str(path)), k)


def test_the_prism_pair_has_two_groups_per_kind():
    # so the cross-check above covers layouts over several size groups
    mesh = load_mesh(str(ROOT / "tools" / "meshes" / "prism_pair.json"))
    assert [len(mesh.groups(kind)) for kind in ("face", "cell")] == [2, 2]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_layout_matches_reference_on_l_prism(k):
    check_layout(l_prism(), k)


@given(voxel_patterns())
def test_layout_matches_reference_on_voxel_family(pattern):
    mesh = build_voxel_mesh(pattern)
    for k in (0, 1, 2):
        check_layout(mesh, k)


@pytest.mark.parametrize("name", ["cube", "prism_pair"])
def test_sub_entity_embedding_matches_reference(name):
    # the builders place each boundary sub-entity's local dofs among their
    # entity's with one search per group column; the reference searches the
    # sub-entity's restriction entity by entity
    mesh = (mesh_and_orientation(name)[0] if name == "cube"
            else load_mesh(str(ROOT / "tools" / "meshes" / "prism_pair.json")))
    for op in OPERATORS:
        lay = DofLayout(op.source, 2, mesh)
        comps, _ = reference_components(lay)
        for block in op.blocks[1:]:
            sub = KINDS[KINDS.index(block.kind) - 1]
            for grp in mesh.groups(block.kind):
                dofs = lay.closure_dofs(block.kind, grp)
                for col in np.asarray([closure(mesh, block.kind, int(i))[KINDS.index(sub)]
                                       for i in grp.ids]).T:
                    subs = np.stack([reference_restriction(lay, comps, sub, int(s)) for s in col])
                    want = [np.searchsorted(row, s) for row, s in zip(dofs, subs)]
                    assert _positions(dofs, subs).tolist() == np.stack(want).tolist()
