"""Geometry and local operators built in stacked passes over entities of
equal array sizes.

The orientation and the quadrature rules of a size group, every stack
member, and the extensions, reductions, interpolates and consistency
residuals read from the stacks, are checked against builds of each entity
alone (groups of one), perturbations of one entity must reach
its stacked operators, a failing operator, extension or interpolation solve
names the same entity and solve as a build entity by entity, the stacked
builds are no more than the congruence classes, the number of stacked solves
does not grow with the mesh, and no stack of points holds more than one
element's.  The element Grams come from the face rules, equal to the fan
rule's, and the operator build maps no element rule.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import ddrcomplex.cli as cli
import ddrcomplex.mesh as mesh_module
import ddrcomplex.operators as operators
import ddrcomplex.verification as verification
from ddrcomplex import (
    ConditioningError,
    DdrComplex,
    ExtensionMaps,
    build_voxel_mesh,
    builtin_pattern,
    compute_orientation,
    corrupt_orientation,
    load_mesh,
    reduction_matrix,
    run_all,
    zero_reduction_basis,
)
from ddrcomplex.cli import main
from ddrcomplex.layouts import SPACES, entity_count
from ddrcomplex.monomials import monomial_powers
from ddrcomplex.quadrature import rule_stack
from ddrcomplex.verification import VerifySession, check_consistency

from conftest import complex_for, graded_block, mesh_and_orientation
from test_general_meshes import l_prism, prism_pair
from test_layouts import closure
from test_spaces import entity_basis, entity_rule, gram_matrix

# (entity kind, builder), in build order
BUILDERS = (
    ("edge", "edge_ops"), ("face", "face_grad_ops"), ("cell", "cell_grad_ops"),
    ("face", "face_curl_ops"), ("cell", "cell_curl_ops"), ("cell", "cell_div_ops"),
)
KINDS = ("edge", "face", "cell")
SHEARED_RING = Path(__file__).resolve().parent.parent / "tools" / "meshes" / "sheared_ring.json"


def _block(h, offset=0.0):
    """A 3x2x1 voxel block of cell size h, moved by ``offset`` along each axis."""
    mesh = build_voxel_mesh(np.ones((3, 2, 1), dtype=int), h=h)
    mesh = dataclasses.replace(mesh, vertices=mesh.vertices + offset)
    return mesh, compute_orientation(mesh)


def _mesh(name):
    if name == "offset_block":   # integer coordinates 1e3 from the origin
        return _block(1.0, 1e3)
    if name == "graded":
        return graded_block(3, cavity=True)
    if name in ("prism_pair", "l_prism", "sheared_ring"):
        mesh = {"prism_pair": prism_pair, "l_prism": l_prism,
                "sheared_ring": lambda: load_mesh(str(SHEARED_RING))}[name]()
        return mesh, compute_orientation(mesh)
    return mesh_and_orientation(name)


def _rel(got, want):
    scale = np.abs(want).max() if want.size else 0.0
    return np.abs(got - want).max() / scale if scale else np.abs(got).max(initial=0.0)


def _build_all(c):
    for kind, builder in BUILDERS:
        getattr(c, builder)(0)


def _singletons(mesh, monkeypatch):
    """A copy of ``mesh`` whose every entity is a group of one: its grouping
    is built under a patched ``mesh.size_groups``, the one grouping builder."""
    with monkeypatch.context() as m:
        m.setattr(mesh_module, "size_groups", lambda mesh, kind: [
            np.asarray([i]) for i in range(entity_count(mesh, kind))])
        alone = dataclasses.replace(mesh)
        for kind in KINDS:
            alone.groups(kind)
    return alone


def _same_field(a, b):
    """Bit for bit equality of two OrientationTable fields."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_field(np.asarray(x), np.asarray(y))
                                        for x, y in zip(a, b))
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _alone(mesh, orient, k):
    """A complex of a mesh of singleton groups (:func:`_singletons`), fully built."""
    c = DdrComplex(mesh, orient, k)
    _build_all(c)
    for which in ("gradient", "curl", "divergence"):
        c.operator(which)
    return c


def _extensions_and_reductions(high, low):
    """The extension, reduction and zero-reduction matrices of every space, dense."""
    ext = ExtensionMaps(high, low)
    return [m.toarray() for space in SPACES for m in (
        ext.matrix(space), reduction_matrix(high, space), zero_reduction_basis(high, space))]


def _sweep(high, monkeypatch):
    """The interpolates of the consistency sweep's monomials and its five
    (monomial, entity) residual tables, on the complex ``high``."""
    s = VerifySession(high.mesh, high.orient, high.k)
    s.high = high
    tables = []
    worst = verification._worst
    with monkeypatch.context() as m:
        m.setattr(verification, "_worst", lambda table: tables.append(table) or worst(table))
        check_consistency(s)
    fields = [verification._monomial(a) for a in monomial_powers(3, high.k + 1)]
    return [high.interpolate_grad(fields)] + tables


def _arrays(ops):
    out = [ops.op, ops.mass, ops.rhs]
    return out if ops.potential is None else out + [ops.potential]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["ring", "cavity", "offset_block", "graded", "prism_pair",
                                  "l_prism", "sheared_ring"])
def test_shared_blocks_match_fresh_builds(monkeypatch, name, k):
    # the orientation and every group's quadrature rules bit for bit against
    # those of each entity alone; every member of every stack, the stacked
    # projections and means, and the extensions and reductions read from the
    # stacks, against the build of each entity alone; the interpolates and
    # consistency residuals bit for bit
    mesh, orient = _mesh(name)
    singletons = _singletons(mesh, monkeypatch)
    single = compute_orientation(singletons)
    for field in dataclasses.fields(orient):
        assert _same_field(getattr(orient, field.name), getattr(single, field.name)), field.name
    for kind in KINDS:
        for grp in mesh.groups(kind):
            pts, weights = rule_stack(mesh, orient, kind, grp, 2 * k + 4)
            for g, i in enumerate(grp.ids):
                rule = entity_rule(mesh, orient, kind, i, 2 * k + 4)
                assert np.array_equal(pts[g], rule.points), (kind, i)
                assert np.array_equal(weights[g], rule.weights), (kind, i)
    stacked, stacked_low = (complex_for(name, d) if name in ("ring", "cavity")
                            else DdrComplex(mesh, orient, d) for d in (k, 0))
    alone, alone_low = (_alone(singletons, orient, d) for d in (k, 0))
    worst = 0.0
    for kind, builder in BUILDERS:
        for i in range(entity_count(mesh, kind)):
            a, b = getattr(stacked, builder)(i), getattr(alone, builder)(i)
            assert np.array_equal(a.globals, b.globals)
            assert (a.potential is None) == (b.potential is None)
            worst = max([worst] + [_rel(x, y) for x, y in zip(_arrays(a), _arrays(b))])
    for which in ("gradient", "curl", "divergence"):
        worst = max(worst, _rel(stacked.operator(which).toarray(),
                                alone.operator(which).toarray()))
    for kind in KINDS:
        worst = max(worst, _rel(stacked.means(kind), alone.means(kind)))
    for a, b in zip(_extensions_and_reductions(stacked, stacked_low),
                    _extensions_and_reductions(alone, alone_low)):
        assert a.shape == b.shape
        worst = max(worst, _rel(a, b))
    assert worst <= 1e-13
    got, want = _sweep(stacked, monkeypatch), _sweep(alone, monkeypatch)
    assert len(got) == len(want) == 6
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_groups_split_by_array_sizes():
    # the prism pair's elements list their triangles and quadrilaterals in
    # different orders, so each is a group of its own
    mesh = prism_pair()
    groups = {kind: [g.ids.tolist() for g in mesh.groups(kind)] for kind in KINDS}
    assert groups["edge"] == [list(range(mesh.n_edges))]
    assert groups["face"] == [[0, 1, 5, 6], [2, 3, 4, 7, 8]]
    assert groups["cell"] == [[0], [1]]
    block = build_voxel_mesh(np.ones((3, 2, 1), dtype=int))
    assert [len(g.ids) for g in block.groups("cell")] == [block.n_elements]


def test_one_grouping_per_mesh_and_kind():
    # the orientation, the quadrature rules, the layouts, and the local
    # operators and extensions of both complexes, and the closure products of
    # the battery (vertices included) read one grouping per mesh and kind,
    # built once: the grouping builder runs once per kind, under whatever
    # name it is called
    calls = []
    code = mesh_module.size_groups.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append((frame.f_locals["mesh"], frame.f_locals["kind"]))

    mesh = build_voxel_mesh(builtin_pattern("ring"))
    sys.setprofile(profile)
    try:
        report = run_all(mesh, compute_orientation(mesh), 1)
    finally:
        sys.setprofile(None)
    assert all(c.passed for c in report.checks)
    assert all(m is mesh for m, _ in calls)
    assert sorted(kind for _, kind in calls) == sorted(mesh_module.KINDS)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_offset_block_keeps_its_verdicts(monkeypatch, k):
    # 1e3 from the origin with h = 0.7, coordinates and centres round at about
    # 1e-13 of a diameter: the stacked build keeps the verdicts of builds
    # entity by entity
    mesh, orient = _block(0.7, 1e3)
    stacked = run_all(mesh, orient, k)
    alone = run_all(_singletons(mesh, monkeypatch), orient, k)
    assert [(c.name, c.passed) for c in stacked.checks] == \
        [(c.name, c.passed) for c in alone.checks]
    assert stacked.cohomology_ddr == alone.cohomology_ddr == [0, 0, 0, 0]
    # the consistency sweep evaluates monomials in absolute coordinates, which
    # loses accuracy this far from the origin at k >= 1, however it is built
    assert all(c.passed for c in stacked.checks
               if k == 0 or not c.name.startswith("consistency."))


def _copy_of(mesh, kind):
    """The first entity of ``kind`` whose closure is a translated copy of an
    earlier entity's, with the same local numbering."""
    seen = set()
    for i in range(entity_count(mesh, kind)):
        pts = mesh.vertices[closure(mesh, kind, i)[0]]
        key = tuple(np.round((pts - pts.min(axis=0)) * 1e9).astype(int).ravel())
        if key in seen:
            return i
        seen.add(key)
    raise AssertionError(f"no congruent {kind} copies")


def _moved_vertex(mesh, v, by):
    verts = mesh.vertices.copy()
    verts[v] += by
    return dataclasses.replace(mesh, vertices=verts)


def _perturbations():
    """(name, perturb(mesh, orient) -> (mesh, orient, [(kind, entity)]))"""
    def omega_tf(mesh, orient):
        t = _copy_of(mesh, "cell")
        return mesh, corrupt_orientation(orient, f"omega_tf:{t}:2"), [("cell", t)]

    def omega_fe(mesh, orient):
        f = _copy_of(mesh, "face")
        return mesh, corrupt_orientation(orient, f"omega_fe:{f}:1"), [("face", f)]

    def edge_length(mesh, orient):
        e = _copy_of(mesh, "edge")
        return mesh, corrupt_orientation(orient, f"edge_length:{e}"), [("edge", e)]

    def tau1(mesh, orient):
        f = _copy_of(mesh, "face")
        tau = orient.face_tau1.copy()
        tau[f] = -tau[f]
        return mesh, dataclasses.replace(orient, face_tau1=tau), [("face", f)]

    def vertex(mesh, orient):
        t = _copy_of(mesh, "cell")
        v = closure(mesh, "cell", t)[0][0]
        # along the diagonal: every edge, face and element at v changes to first order
        moved = _moved_vertex(mesh, v, 1e-9 * orient.cell_diameter[t] * np.ones(3) / np.sqrt(3))
        touched = [(kind, i) for kind in KINDS
                   for i in range(entity_count(mesh, kind)) if v in closure(mesh, kind, i)[0]]
        return moved, compute_orientation(moved), touched

    return [("omega_tf", omega_tf), ("omega_fe", omega_fe), ("edge_length", edge_length),
            ("tau1", tau1), ("vertex_1e-9h", vertex)]


@pytest.mark.parametrize("name,perturb", _perturbations(), ids=[p[0] for p in _perturbations()])
def test_stack_sees_every_input_of_the_builders(monkeypatch, name, perturb):
    # a perturbation of one entity in a stack of congruent copies reaches that
    # entity's stacked operators, as it reaches a build of the entity alone
    mesh = build_voxel_mesh(np.ones((3, 3, 2), dtype=int))
    orient = compute_orientation(mesh)
    healthy = DdrComplex(mesh, orient, 1)
    mesh2, orient2, targets = perturb(mesh, orient)
    stacked = DdrComplex(mesh2, orient2, 1)
    alone = _alone(_singletons(mesh2, monkeypatch), orient2, 1)
    for kind, i in targets:
        for bkind, builder in BUILDERS:
            if bkind != kind:
                continue
            got, want, before = (getattr(c, builder)(i) for c in (stacked, alone, healthy))
            for x, y, z in zip(_arrays(got), _arrays(want), _arrays(before)):
                assert _rel(x, y) <= 1e-13, (kind, i, builder)
            assert max(_rel(x, z) for x, z in zip(_arrays(got), _arrays(before))) > 1e-12, \
                (kind, i, builder)


def _ring_with_copies():
    mesh, _ = mesh_and_orientation("ring")
    return {"omega_tf": f"omega_tf:{_copy_of(mesh, 'cell')}:0",
            "omega_fe": f"omega_fe:{_copy_of(mesh, 'face')}:0",
            "edge_length": f"edge_length:{_copy_of(mesh, 'edge')}"}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("fault", ["omega_tf", "omega_fe", "edge_length"])
def test_fault_on_a_congruent_copy_exit_1(tmp_path, fault, k):
    out = tmp_path / "r.json"
    code = main(["verify", "--builtin", "ring", "--degree", str(k),
                 "--inject-fault", _ring_with_copies()[fault], "--out", str(out),
                 "--no-timestamp"])
    assert code == 1


def test_copies_share_read_only_arrays():
    # the members of a stack view its arrays, each with its own dof numbers
    c = complex_for("ring", 1)
    a, b = c.edge_ops(3), c.edge_ops(7)
    for x, y in zip(_arrays(a), _arrays(b)):
        assert x.base is not None and x.base is y.base
    assert a.globals.tolist() != b.globals.tolist()
    for arr in _arrays(a) + [c.means("edge")]:
        assert not arr.flags.writeable


def _shrunk(orient, kind, entities):
    """The table with the diameters of ``entities`` shrunk by 1e-30: their
    scaled coordinates blow up and their first moment system is singular."""
    field = {"edge": "edge_length", "face": "face_diameter", "cell": "cell_diameter"}[kind]
    sizes = getattr(orient, field).copy()
    sizes[list(entities)] *= 1e-30
    return dataclasses.replace(orient, **{field: sizes})


@pytest.mark.parametrize("mesh_name,kind,planted,named", [
    ("ring", "edge", [40, 7], 7),
    ("cavity", "cell", [9], 9),
    ("cavity", "cell", [17, 3], 3),
    ("prism_pair", "face", [5, 3], 3),    # face 5 is in an earlier group than face 3
])
def test_failing_solve_names_its_entity(monkeypatch, mesh_name, kind, planted, named):
    mesh, orient = _mesh(mesh_name)
    bad = _shrunk(orient, kind, planted)
    with pytest.raises(ConditioningError) as stacked:
        _build_all(DdrComplex(mesh, bad, 1))
    # the message of a build entity by entity: the lowest failing entity,
    # its first failing solve
    singletons = _singletons(mesh, monkeypatch)
    with pytest.raises(ConditioningError) as alone:
        _build_all(DdrComplex(singletons, bad, 1))
    label = {"cell": "element"}.get(kind, kind)
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).startswith(f"{label} {named}: ")
    assert str(stacked.value).endswith(" beyond limit")
    assert " condition number " in str(stacked.value)

    # a singular extension system planted on the same entities, in the
    # extension of the space whose operator has a block on ``kind``
    space, local = {"edge": ("Xgrad", "grad"), "face": ("Xcurl", "curl"),
                    "cell": ("Xdiv", "div")}[kind]
    doomed = {f"{label} {i}: {local} extension" for i in planted}
    solve = operators.stacked_solve

    def planting(system, rhs, what):
        hit = [g for g, w in enumerate(what) if w in doomed]
        if hit:
            system = system.copy()
            system[hit] = 0.0
        return solve(system, rhs, what)

    # and a singular interpolation Gram on the same entities
    doomed |= {f"interpolation on {kind} {i}" for i in planted}
    monkeypatch.setattr(operators, "stacked_solve", planting)
    messages = []
    for grouped in (mesh, singletons):
        high = DdrComplex(grouped, orient, 1)
        with pytest.raises(ConditioningError) as failure:
            ExtensionMaps(high, DdrComplex(grouped, orient, 0)).matrix(space)
        with pytest.raises(ConditioningError) as interpolation:
            high.interpolate_grad(lambda p: p[:, 0])
        messages.append((str(failure.value), str(interpolation.value)))
    # the texts an extension and an interpolation solved entity by entity
    # raise for the lowest one
    assert messages == [(f"{label} {named}: {local} extension: "
                         "condition number inf beyond limit",
                         f"interpolation on {kind} {named}: "
                         "condition number inf beyond limit")] * 2


def _congruence_classes(mesh, orient, kind):
    """Classes of translated copies with the same local numbering, from scratch:
    closure vertices relative to their lowest corner (rounded), the local
    index patterns and the boundary signs."""
    classes = set()
    for i in range(entity_count(mesh, kind)):
        vs, es, fs, _ = closure(mesh, kind, i)
        pts = mesh.vertices[vs]
        rel = tuple(np.round((pts - pts.min(axis=0)) * 1e9).astype(int).ravel())
        where = {v: n for n, v in enumerate(vs)}
        edges = tuple(where[int(v)] for e in es for v in mesh.edges[e])
        eat = {e: n for n, e in enumerate(es)}
        faces = tuple((tuple(where[v] for v in mesh.face_loops[f]),
                       tuple(eat[e] for e in mesh.face_edges[f]),
                       tuple(orient.face_edge_sign[f].tolist()))
                      for f in fs)
        cell = ((tuple(fs.index(f) for f in mesh.element_faces[i]),
                 tuple(orient.cell_face_sign[i].tolist()))
                if kind == "cell" else ())
        classes.add((rel, edges, faces, cell))
    return len(classes)


@pytest.mark.parametrize("hole", [1, 2])
def test_fresh_builds_count_congruence_classes(monkeypatch, hole):
    # the 4x3x1 voxel ring of the cohomology benchmark: each builder makes one
    # stacked build per size group, which covers all its entities and is never
    # more than one build per congruence class (congruent entities have equal
    # array sizes)
    pattern = np.ones((4, 3, 1), dtype=int)
    pattern[hole, 1, 0] = 0
    mesh = build_voxel_mesh(pattern, h=0.7)
    orient = compute_orientation(mesh)
    built = []
    group = operators._Group

    def spy(kind, members, *args):
        built.append((kind, len(members.ids)))
        return group(kind, members, *args)

    monkeypatch.setattr(operators, "_Group", spy)
    c = DdrComplex(mesh, orient, 1)
    for kind, builder in BUILDERS:
        before = len(built)
        getattr(c, builder)(0)
        builds = built[before:]
        n = entity_count(mesh, kind)
        classes = _congruence_classes(mesh, orient, kind)
        assert all(k == kind for k, _ in builds), (builder, builds)
        assert sum(size for _, size in builds) == n, (builder, builds, n)
        assert len(builds) == len(mesh.groups(kind)) <= classes < n, \
            (builder, len(builds), classes, n)


def test_solve_count_does_not_grow_with_the_mesh(monkeypatch):
    # one stacked solve per group and moment system: a graded 2x2x2 block and
    # a graded 3x3x3 block with a cavity (8 and 26 elements) make as many
    calls = []
    solve = operators.stacked_solve

    def spy(system, rhs, what):
        calls.append(len(what))
        return solve(system, rhs, what)

    monkeypatch.setattr(operators, "stacked_solve", spy)
    counts = []
    for n, cavity in ((2, False), (3, True)):
        c = DdrComplex(*graded_block(n, cavity), 1)
        per_builder = []
        for _, builder in BUILDERS:
            before = len(calls)
            getattr(c, builder)(0)
            per_builder.append(len(calls) - before)
        counts.append(per_builder)
    assert counts[0] == counts[1] == [2, 2, 1, 2, 2, 2]
    assert max(calls) == 144        # the larger block's edges in one stack


def test_point_stacks_hold_one_element_at_most(monkeypatch):
    # interpolation and the consistency sweep evaluate a size group of edges
    # or faces at once, but elements one at a time: no stack holds the
    # interior points of more than one element
    sizes = []
    points = DdrComplex._points

    def spy(self, kind, ids):
        sizes.append((kind, len(ids)))
        return points(self, kind, ids)

    monkeypatch.setattr(DdrComplex, "_points", spy)
    mesh, orient = mesh_and_orientation("cavity")
    s = VerifySession(mesh, orient, 1)
    s.high.interpolate_grad(lambda p: p[:, 0])
    assert all(c.passed for c in check_consistency(s))
    assert {kind for kind, _ in sizes} == set(KINDS)
    assert all(n == 1 for kind, n in sizes if kind == "cell")
    assert any(n > 1 for kind, n in sizes if kind != "cell")


GATED_MESHES = ("cube", "ring", "cavity", "graded_cavity", "prism_pair", "sheared_ring",
                "double_ring")


def _gated(name):
    """A mesh of ``tools/refactor_gate.py``: a builtin, or one of ``tools/meshes``."""
    if name in ("cube", "ring", "cavity"):
        return mesh_and_orientation(name)
    mesh = load_mesh(str(SHEARED_RING.with_name(f"{name}.json")))
    return mesh, compute_orientation(mesh)


@pytest.mark.parametrize("name", GATED_MESHES)
def test_element_grams_from_face_rules(name):
    # each element's top Gram, summed over its faces' rules, against the
    # Gram over its fan rule; its (0, 0) entry is the element's volume, and
    # a flipped omega_TF does not reach it (the face factor is unsigned)
    mesh, orient = _gated(name)
    for k in range(3):
        c = DdrComplex(mesh, orient, k)
        grams = c._top_gram("cell")
        for t in range(mesh.n_elements):
            basis = entity_basis(mesh, orient, "cell", t, k + 1)
            want = gram_matrix(basis, basis, entity_rule(mesh, orient, "cell", t, c.quad_degree))
            assert _rel(grams[t], want) < 1e-13, (name, k, t)
        assert np.allclose(grams[:, 0, 0], orient.cell_volume, rtol=1e-13, atol=0.0)
        for fault in ("omega_tf", f"omega_tf:{mesh.n_elements - 1}:1"):
            faulty = DdrComplex(mesh, corrupt_orientation(orient, fault), k)
            assert np.array_equal(faulty._top_gram("cell"), grams), (name, k, fault)
        assert "cell" not in c._rules


def test_operator_build_maps_no_element_rule(monkeypatch, tmp_path):
    # a complex/cohomology/cochain battery and a cohomology --generators run
    # map no element rule, and evaluate each edge and face size group's basis
    # at its own rule points once per complex
    own = []
    evaluate = DdrComplex._eval

    def spy(self, kind, ids, pts, degree=None):
        if kind != "cell":
            own.append((self, kind, ids, pts))
        return evaluate(self, kind, ids, pts, degree)

    def own_counts(c):
        """The calls on ``c`` at its own rule points, per kind."""
        counts = dict.fromkeys(("edge", "face"), 0)
        for who, kind, ids, pts in own:
            if who is c and np.array_equal(c._points(kind, ids)[0], pts):
                counts[kind] += 1
        return counts

    monkeypatch.setattr(DdrComplex, "_eval", spy)
    reports = []
    monkeypatch.setattr(cli, "run_all", lambda *a, **kw: reports.append(run_all(*a, **kw))
                        or reports[-1])
    mesh, orient = mesh_and_orientation("graded")
    reports.append(run_all(mesh, orient, 1, ["complex", "cohomology", "cochain"]))
    assert main(["cohomology", "--builtin", "ring", "--degree", "1", "--no-timestamp",
                 "--generators", str(tmp_path / "g.vtk"), "--out", str(tmp_path / "r.json")]) == 0
    for report in reports:
        for c in {report.session.high, report.session.low}:
            assert "cell" not in c._rules
            assert own_counts(c) == {kind: len(c.mesh.groups(kind)) for kind in ("edge", "face")}
