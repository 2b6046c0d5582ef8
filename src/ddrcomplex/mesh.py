"""Oriented polyhedral meshes: construction, validation, file I/O, orientation data.

A mesh stores vertices, derived edges (ascending vertex pairs, sorted
lexicographically), faces as counter-clockwise vertex loops, and elements as
face-index lists.  Orientation/measure data consumed by the discrete
operators (tangents, normals, boundary signs, measures, centroids) is
derived once into an :class:`OrientationTable`, one array per field; the
boundary signs and normals have one row per face or element, its own
entries first and zeros after.

Conventions:

* the edge tangent t_E points from the lower to the higher global vertex index;
* the face normal n_F comes from Newell's formula over the stored loop,
  which is therefore the single source of face orientation;
* n_FE = n_F x t_E, so (t_E, n_FE, n_F) is right-handed;
* omega_FE = sign(n_FE . (midpoint(E) - x_F)): omega_FE n_FE points out of F;
* omega_TF = sign(n_F . (x_F - x_T)): omega_TF n_F points out of T.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GeometryError,
    InputError,
    MeshFormatError,
    MeshReferenceError,
    MeshTopologyError,
)


class Frozen:
    """A slotted record whose fields are set once, by :meth:`_set` in its
    ``__init__``; setting or deleting one afterwards raises AttributeError.
    A cache it keeps is a dict filled in place."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the slots here: state is (None, {slot: value})
        self._set(**state[1])


class Mesh(Frozen):
    """Immutable polyhedral mesh with derived incidence tables.

    ``vertices`` (V, 3) float; ``edges`` (E, 2) int, each row ascending
    (both read-only when :func:`_build_mesh` made them);
    ``face_loops`` the CCW vertex loops; ``element_faces``; ``face_edges``
    derived from the loops.  A copy made with :meth:`_replace` builds its
    own grouping.
    """

    __slots__ = ("vertices", "edges", "face_loops", "element_faces", "face_edges", "_groupings")

    def __init__(self, vertices: np.ndarray, edges: np.ndarray,
                 face_loops: tuple[tuple[int, ...], ...],
                 element_faces: tuple[tuple[int, ...], ...],
                 face_edges: tuple[tuple[int, ...], ...] = ()):
        # _groupings: kind -> (size groups, each entity's group and row (2, n)),
        # built on first use
        self._set(vertices=vertices, edges=edges, face_loops=face_loops,
                  element_faces=element_faces, face_edges=face_edges, _groupings={})

    def _replace(self, **changes) -> Mesh:
        """A copy with some fields replaced, and no grouping yet."""
        fields = {name: getattr(self, name) for name in self.__slots__ if name != "_groupings"}
        return Mesh(**{**fields, **changes})

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.face_loops)

    @property
    def n_elements(self) -> int:
        return len(self.element_faces)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_vertices, self.n_edges, self.n_faces, self.n_elements)

    @property
    def euler_characteristic(self) -> int:
        v, e, f, t = self.counts
        return v - e + f - t

    def element_vertices(self, t: int) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.element_faces[t] for v in self.face_loops[f]}))

    def groups(self, kind: str) -> tuple[SizeGroup, ...]:
        """The size groups of one kind (:func:`size_groups`), built once."""
        if kind not in self._groupings:
            groups = tuple(_size_group(self, kind, ids) for ids in size_groups(self, kind))
            table = np.empty((2, entity_count(self, kind)), dtype=int)
            for g, grp in enumerate(groups):
                table[0, grp.ids], table[1, grp.ids] = g, np.arange(len(grp.ids))
            self._groupings[kind] = groups, *_read_only(table)
        return self._groupings[kind][0]

    def group_table(self, kind: str) -> np.ndarray:
        """Each entity's group in :meth:`groups` and its row there, (2, n)."""
        self.groups(kind)
        return self._groupings[kind][1]


def _build_mesh(vertices: np.ndarray,
                face_loops: list[tuple[int, ...]],
                element_faces: list[tuple[int, ...]]) -> Mesh:
    """Derive edges and incidence, validate, and freeze the mesh."""
    nv = len(vertices)
    for fi, loop in enumerate(face_loops):
        if len(loop) < 3:
            raise MeshFormatError(f"face {fi}: loop has fewer than 3 vertices")
        if any((not isinstance(v, (int, np.integer))) or v < 0 or v >= nv for v in loop):
            raise MeshReferenceError(f"face {fi}: vertex index out of range in {loop}")
        for a, b in zip(loop, loop[1:] + loop[:1]):
            if a == b:
                raise MeshFormatError(f"face {fi}: degenerate loop (repeated consecutive vertex {a})")
        if len(set(loop)) != len(loop):
            raise MeshFormatError(f"face {fi}: loop revisits a vertex, not a simple polygon")

    edge_ids: dict[tuple[int, int], int] = {}
    for loop in face_loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            edge_ids.setdefault((min(a, b), max(a, b)), -1)
    edge_list = sorted(edge_ids)
    edge_ids = {key: i for i, key in enumerate(edge_list)}

    face_edges = [tuple(edge_ids[(min(a, b), max(a, b))]
                        for a, b in zip(loop, loop[1:] + loop[:1]))
                  for loop in face_loops]
    # a cycle of edges bounds one polygon: two faces on it are one face twice
    first_on: dict[frozenset, int] = {}
    for fi, edges in enumerate(face_edges):
        fj = first_on.setdefault(frozenset(edges), fi)
        if fj != fi:
            raise MeshTopologyError(f"face {fi} has the same edges as face {fj}")

    nf = len(face_loops)
    if not element_faces:
        raise MeshTopologyError("mesh has no elements")
    face_elements: list[list[int]] = [[] for _ in range(nf)]
    for ti, faces in enumerate(element_faces):
        if len(faces) < 4:
            raise MeshTopologyError(f"element {ti}: needs at least 4 faces, got {len(faces)}")
        for f in faces:
            if not isinstance(f, (int, np.integer)) or f < 0 or f >= nf:
                raise MeshReferenceError(f"element {ti}: face index {f} out of range (faces: {nf})")
            face_elements[f].append(ti)
    for fi, owners in enumerate(face_elements):
        if len(owners) == 0:
            raise MeshTopologyError(f"face {fi} belongs to no element")
        if len(owners) > 2:
            raise MeshTopologyError(f"face {fi} belongs to {len(owners)} elements (max 2)")
    # each element's boundary is a sphere: distinct faces, every edge on two
    # of them, every face reached from the first across shared edges, and
    # Euler characteristic 2 (which makes a closed connected surface a sphere)
    for ti, faces in enumerate(element_faces):
        if len(set(faces)) < len(faces):
            f = next(f for i, f in enumerate(faces) if f in faces[:i])
            raise MeshTopologyError(f"element {ti}: face {f} is listed twice")
        on_edge: dict[int, list[int]] = {}
        for f in faces:
            for e in face_edges[f]:
                on_edge.setdefault(e, []).append(f)
        for e, holders in on_edge.items():
            if len(holders) != 2:
                a, b = edge_list[e]
                raise MeshTopologyError(f"element {ti}: edge {e} (vertices {a}, {b}) lies on "
                                        f"{len(holders)} of its faces, not 2")
        reached, stack = {faces[0]}, [faces[0]]
        while stack:
            for e in face_edges[stack.pop()]:
                for f in on_edge[e]:
                    if f not in reached:
                        reached.add(f)
                        stack.append(f)
        if len(reached) < len(faces):
            f = next(f for f in faces if f not in reached)
            raise MeshTopologyError(f"element {ti}: boundary is not connected (face {f} "
                                    f"shares no chain of edges with face {faces[0]})")
        chi = len({v for f in faces for v in face_loops[f]}) - len(on_edge) + len(faces)
        if chi != 2:
            raise MeshTopologyError(f"element {ti}: boundary has Euler characteristic {chi}, "
                                    f"not 2 (not a sphere)")

    # vertex-edge graph connectivity (the domain must be connected)
    adj: list[list[int]] = [[] for _ in range(nv)]
    for a, b in edge_list:
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(nv, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not seen.all():
        raise MeshTopologyError("vertex-edge graph is disconnected")

    vertices, edges = _read_only(np.asarray(vertices, dtype=float),
                                 np.asarray(edge_list, dtype=int).reshape(len(edge_list), 2))
    return Mesh(
        vertices=vertices, edges=edges,
        face_loops=tuple(tuple(int(v) for v in loop) for loop in face_loops),
        element_faces=tuple(tuple(int(f) for f in faces) for faces in element_faces),
        face_edges=tuple(face_edges),
    )


# ---------------------------------------------------------------------------
# voxel test meshes

_BUILTIN_PATTERNS = {
    "cube": lambda: np.ones((1, 1, 1), dtype=bool),
    "ring": lambda: _punch(np.ones((3, 3, 1), dtype=bool), (1, 1, 0)),
    "cavity": lambda: _punch(np.ones((3, 3, 3), dtype=bool), (1, 1, 1)),
}


def _punch(pattern: np.ndarray, cell: tuple[int, int, int]) -> np.ndarray:
    pattern[cell] = False
    return pattern


def builtin_pattern(name: str) -> np.ndarray:
    try:
        return _BUILTIN_PATTERNS[name]()
    except KeyError:
        raise InputError(f"unknown builtin mesh {name!r} (choose from {sorted(_BUILTIN_PATTERNS)})")


def build_voxel_mesh(pattern: np.ndarray, h: float = 1.0) -> Mesh:
    """Axis-aligned cube cells of side h over a boolean occupancy grid.

    Shared vertices/edges/faces are deduplicated; the occupied cells must be
    face-connected so that the resulting domain is connected.
    """
    pattern = np.asarray(pattern, dtype=bool)
    if pattern.ndim != 3:
        raise InputError(f"occupancy pattern must be 3D, got shape {pattern.shape}")
    if not is_real(h):
        raise InputError(f"cell size {h!r} is not a number")
    if not np.isfinite(h) or h <= 0:
        raise InputError(f"cell size must be positive and finite, got {h}")
    cells = sorted(map(tuple, np.argwhere(pattern)))
    if not cells:
        raise InputError("empty occupancy pattern")

    occupied = set(cells)
    seen = {cells[0]}
    stack = [cells[0]]
    while stack:
        i, j, k = stack.pop()
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nb = (i + di, j + dj, k + dk)
            if nb in occupied and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(occupied):
        raise InputError("disconnected occupancy")

    corners = sorted({(i + di, j + dj, k + dk)
                      for (i, j, k) in cells
                      for di in (0, 1) for dj in (0, 1) for dk in (0, 1)})
    vid = {c: i for i, c in enumerate(corners)}
    vertices = np.asarray(corners, dtype=float) * h

    # per-cell faces: quad loops wound counter-clockwise around the +axis normal
    def cell_faces(i, j, k):
        return (
            ((i, j, k), (i, j + 1, k), (i, j + 1, k + 1), (i, j, k + 1)),           # x = i
            ((i + 1, j, k), (i + 1, j + 1, k), (i + 1, j + 1, k + 1), (i + 1, j, k + 1)),
            ((i, j, k), (i, j, k + 1), (i + 1, j, k + 1), (i + 1, j, k)),           # y = j
            ((i, j + 1, k), (i, j + 1, k + 1), (i + 1, j + 1, k + 1), (i + 1, j + 1, k)),
            ((i, j, k), (i + 1, j, k), (i + 1, j + 1, k), (i, j + 1, k)),           # z = k
            ((i, j, k + 1), (i + 1, j, k + 1), (i + 1, j + 1, k + 1), (i, j + 1, k + 1)),
        )

    face_loops: list[tuple[int, ...]] = []
    face_index: dict[frozenset, int] = {}
    element_faces: list[tuple[int, ...]] = []
    for cell in cells:
        ids = []
        for quad in cell_faces(*cell):
            loop = tuple(vid[c] for c in quad)
            key = frozenset(loop)
            fi = face_index.get(key)
            if fi is None:
                fi = len(face_loops)
                face_index[key] = fi
                face_loops.append(loop)
            ids.append(fi)
        element_faces.append(tuple(ids))

    return _build_mesh(vertices, face_loops, element_faces)


def parse_pattern_text(text: str) -> np.ndarray:
    """Occupancy grid from text: z-slabs separated by blank lines, rows of #/. (or 1/0)."""
    slabs: list[list[str]] = [[]]
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            if slabs[-1]:
                slabs.append([])
            continue
        slabs[-1].append(line)
    if slabs and not slabs[-1]:
        slabs.pop()
    if not slabs:
        raise InputError("empty occupancy pattern")
    ny = len(slabs[0])
    nx = len(slabs[0][0])
    nz = len(slabs)
    pattern = np.zeros((nx, ny, nz), dtype=bool)
    for k, rows in enumerate(slabs):
        if len(rows) != ny or any(len(r) != nx for r in rows):
            raise InputError("ragged occupancy pattern: all slabs need identical row/column counts")
        for j, row in enumerate(rows):
            for i, ch in enumerate(row):
                if ch in "#1":
                    pattern[i, j, k] = True
                elif ch not in ".0":
                    raise InputError(f"invalid occupancy character {ch!r}")
    return pattern


# ---------------------------------------------------------------------------
# JSON mesh documents

def mesh_to_document(mesh: Mesh) -> dict:
    return {
        "vertices": [[float(x) for x in v] for v in mesh.vertices],
        "faces": [list(loop) for loop in mesh.face_loops],
        "elements": [list(faces) for faces in mesh.element_faces],
    }


def save_mesh(mesh: Mesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mesh_to_document(mesh), fh)
        fh.write("\n")


def mesh_from_document(doc: dict) -> Mesh:
    if not isinstance(doc, dict):
        raise MeshFormatError("mesh document must be a JSON object")
    for key in ("vertices", "faces", "elements"):
        if key not in doc:
            raise MeshFormatError(f"mesh document missing {key!r}")
    rows, seqs = doc["vertices"], (list, tuple, np.ndarray)
    for n, v in enumerate(rows if isinstance(rows, seqs) else ()):
        for x in v if isinstance(v, seqs) else ():
            if not is_real(x):
                raise MeshFormatError(f"vertex {n}: coordinate {x!r} is not a number")
    try:
        vertices = np.asarray(doc["vertices"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(f"bad vertex array: {exc}")
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshFormatError("vertices must be an array of [x, y, z] triples")
    if not np.isfinite(vertices).all():
        raise MeshFormatError("vertex coordinates must be finite")
    return _build_mesh(vertices, _index_lists(doc, "faces", "face"),
                       _index_lists(doc, "elements", "element"))


def _index_lists(doc: dict, key: str, item: str) -> list[tuple[int, ...]]:
    """A document's face loops or element face lists as integer tuples;
    integral floats (``3.0``) are accepted, any other non-integer is not."""
    lists = doc[key]
    if not isinstance(lists, list) or not all(isinstance(x, list) for x in lists):
        raise MeshFormatError(f"{key!r} must be a list of index lists")
    for n, indices in enumerate(lists):
        for x in indices:
            integral = isinstance(x, float) and x.is_integer()
            if isinstance(x, bool) or not (integral or isinstance(x, (int, np.integer))):
                raise MeshFormatError(f"{item} {n}: index {x!r} is not an integer")
    return [tuple(int(x) for x in indices) for indices in lists]


def load_mesh(path: str) -> Mesh:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(f"invalid JSON: {exc}")
    return mesh_from_document(doc)


# ---------------------------------------------------------------------------
# entity groups, orientation and measures

KINDS = ("vertex", "edge", "face", "cell")


def entity_count(mesh: Mesh, kind: str) -> int:
    """Number of entities of one kind (vertex, edge, face or cell)."""
    return mesh.counts[KINDS.index(kind)]


def is_integer(value) -> bool:
    """An ``int`` or numpy integer, not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def is_real(value) -> bool:
    """An ``int``, ``float`` or numpy integer or float, not a bool."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def checked_integer(value, what: str) -> int:
    """``value`` as an ``int`` (a numpy integer too, not a bool), else
    DomainError naming it as ``what``."""
    if not is_integer(value):
        raise DomainError(f"{what} {value!r} is not an integer")
    return int(value)


def checked_entity(mesh: Mesh, kind: str, index) -> int:
    """``index`` as an edge, face or cell of the mesh, else DomainError."""
    if kind not in KINDS[1:]:
        raise DomainError(f"unknown entity kind {kind!r}")
    index = checked_integer(index, f"{kind} index")
    if not 0 <= index < entity_count(mesh, kind):
        raise DomainError(f"no {kind} {index}: the mesh has {entity_count(mesh, kind)}")
    return index


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` ascending without repeats; every row keeps as many."""
    a = np.sort(a, axis=1)
    keep = np.ones(a.shape, dtype=bool)
    keep[:, 1:] = a[:, 1:] != a[:, :-1]
    return a[keep].reshape(len(a), -1)


class SizeGroup(namedtuple("SizeGroup", "ids faces owner start end edge")):
    """A size group as read-only integer arrays: entities ``ids`` (G,), their
    ``faces`` (G, nF) in element-face order (a face is its own column, an edge
    has none) and fan table (G, S), faces in that order, each in loop order:
    each fan triangle's face ``owner``, loop vertices ``start`` and ``end``
    and the ``edge`` between them (``face_edges[f][i]`` joins ``loop[i]`` to
    ``loop[i + 1]``)."""

    def rows(self, at) -> SizeGroup:
        """The members ``at`` (a slice or index array) as a group."""
        return SizeGroup(*(a[at] for a in self))


def _size_group(mesh: Mesh, kind: str, ids) -> SizeGroup:
    """The arrays of a size group ``ids`` (G,) of one kind, from the mesh's tables."""
    faces = (np.asarray([mesh.element_faces[t] for t in ids]) if kind == "cell"
             else ids[:, None] if kind == "face" else np.empty((len(ids), 0), dtype=int))
    fans = []
    for column in faces.T:
        loops = np.asarray([mesh.face_loops[f] for f in column])
        fans.append((np.repeat(column[:, None], loops.shape[1], axis=1), loops,
                     np.roll(loops, -1, axis=1), np.asarray([mesh.face_edges[f] for f in column])))
    fan = [np.concatenate(part, axis=1) for part in zip(*fans)] or [faces] * 4
    return SizeGroup(*_read_only(ids, faces, *fan))


def group_closure(mesh: Mesh, kind: str, group: SizeGroup) -> tuple[np.ndarray, ...]:
    """The closures of a size group of one kind, as four (G, .) arrays:
    their vertices, edges, faces and cells, each row ascending (an edge's
    vertices are); a vertex is its own closure."""
    ids = group.ids[:, None]
    if kind == "vertex":
        return ids, ids[:, :0], ids[:, :0], ids[:, :0]
    if kind == "edge":
        return mesh.edges[group.ids], ids, ids[:, :0], ids[:, :0]
    return (_unique_rows(group.start), _unique_rows(group.edge), np.sort(group.faces, axis=1),
            ids if kind == "cell" else ids[:, :0])


def size_groups(mesh: Mesh, kind: str) -> list[np.ndarray]:
    """The entities of one kind whose local arrays have equal sizes, each
    group in index order, groups in order of their first entity (read once
    per mesh and kind, by :meth:`Mesh.groups`).

    Entities group together when their faces (a face is its own), in
    element-face order, have equal loop lengths and, on elements, their
    vertex counts are equal.  These fix the closure counts (each edge of an
    element lies on two of its faces), so every local dof count and
    quadrature rule size.
    """
    groups: dict[tuple, list[int]] = {}
    for i in range(entity_count(mesh, kind)):
        faces = (i,) if kind == "face" else mesh.element_faces[i] if kind == "cell" else ()
        key = (tuple(len(mesh.face_loops[f]) for f in faces),
               len(mesh.element_vertices(i)) if kind == "cell" else 0)
        groups.setdefault(key, []).append(i)
    return [np.asarray(ids) for ids in groups.values()]


# Centres (n, 3), diameters (n,), frames (n, dim, 3) and measures (n,) of a kind.
EntityGeometry = namedtuple("EntityGeometry", "center diameter frame measure")


class OrientationTable(NamedTuple):
    """Measures, frames, and boundary signs for every mesh entity.

    Immutable after construction; all discrete operators read geometry from
    here only, which is what makes sign/measure fault injection possible in
    the verification suite.
    """

    vertex_position: np.ndarray  # (V, 3)
    edge_tangent: np.ndarray    # (E, 3) unit, ascending-index direction
    edge_length: np.ndarray     # (E,)
    edge_midpoint: np.ndarray   # (E, 3)
    face_normal: np.ndarray     # (F, 3) unit (Newell over the stored loop)
    face_tau1: np.ndarray       # (F, 3) unit, in-plane
    face_tau2: np.ndarray       # (F, 3) unit, = n_F x tau1
    face_area: np.ndarray       # (F,)
    face_center: np.ndarray     # (F, 3) area centroid
    face_diameter: np.ndarray   # (F,)
    face_edge_sign: np.ndarray  # (F, L) omega_FE per face edge in loop order, then 0
    face_edge_normal: np.ndarray  # (F, L, 3) n_FE per face edge in loop order, then 0
    cell_volume: np.ndarray     # (T,)
    cell_center: np.ndarray     # (T, 3) volume centroid
    cell_diameter: np.ndarray   # (T,)
    cell_face_sign: np.ndarray  # (T, N) omega_TF per element face in face order, then 0

    def geometry(self, kind: str) -> EntityGeometry:
        """Centres, diameters, frames (tangent, tau1 and tau2, identity) and
        measures of one entity kind; a vertex is its own centre with an empty
        frame, diameter and measure one (a vertex value is its cochain)."""
        if kind == "vertex":
            ones = np.ones(len(self.vertex_position))
            return EntityGeometry(self.vertex_position, ones, np.zeros((len(ones), 0, 3)), ones)
        if kind == "edge":
            return EntityGeometry(self.edge_midpoint, self.edge_length,
                                  self.edge_tangent[:, None, :], self.edge_length)
        if kind == "face":
            frames = np.stack([self.face_tau1, self.face_tau2], axis=1)
            return EntityGeometry(self.face_center, self.face_diameter, frames, self.face_area)
        if kind == "cell":
            return EntityGeometry(self.cell_center, self.cell_diameter,
                                  np.broadcast_to(np.eye(3), (len(self.cell_center), 3, 3)),
                                  self.cell_volume)
        raise DomainError(f"unknown entity kind {kind!r}")


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the 3-vectors along the last axes of ``a`` and ``b``,
    each rounded as one 1-D ``a @ b``: a batched matmul does so, while
    ``einsum``, ``(a * b).sum(-1)`` and ``norm(axis=-1)`` round otherwise."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _diameters(coords: np.ndarray) -> np.ndarray:
    """Largest distance between two of the points of each set (G, n, 3)."""
    i, j = np.triu_indices(coords.shape[1], 1)
    return np.sqrt(row_dot(coords[:, i] - coords[:, j], coords[:, i] - coords[:, j])).max(axis=1)


# Relative to an entity's diameter: the largest distance of a face vertex
# from the face's plane, and the smallest boundary-sign dot product.
PLANARITY_TOL = 1e-9
SIGN_TOL = 1e-10


def compute_orientation(mesh: Mesh) -> OrientationTable:
    """Derive tangents, normals, signs, measures, and centroids, one size
    group of faces or elements at a time (:meth:`Mesh.groups`).  Dots and
    norms are batched matmuls (:func:`row_dot`) and the element fan sums
    cumulative sums, so every entry rounds as in a pass entity by entity.

    Raises :class:`GeometryError` for non-planar faces, zero measures, or
    ambiguous boundary signs (:data:`PLANARITY_TOL`, :data:`SIGN_TOL`),
    naming the lowest failing face, else element; failed members divide by 1.
    """
    verts = mesh.vertices

    vec = verts[mesh.edges[:, 1]] - verts[mesh.edges[:, 0]]
    edge_length = np.linalg.norm(vec, axis=1)
    if np.any(edge_length <= 0.0):
        raise GeometryError("zero-length edge")
    edge_tangent = vec / edge_length[:, None]
    edge_midpoint = 0.5 * (verts[mesh.edges[:, 0]] + verts[mesh.edges[:, 1]])

    nf, nt = mesh.n_faces, mesh.n_elements
    face_normal, face_tau1, face_tau2, face_center = np.empty((4, nf, 3))
    face_area, face_diameter = np.empty((2, nf))
    loop_len = max(map(len, mesh.face_loops), default=0)
    face_edge_sign = np.zeros((nf, loop_len), dtype=np.int64)
    face_edge_normal = np.zeros((nf, loop_len, 3))
    failures: dict[int, str] = {}
    for grp in mesh.groups("face"):
        ids, edges = grp.ids, grp.edge
        coords, nxt = verts[grp.start], verts[grp.end]                # (G, L, 3)
        rel = coords - coords[:, :1]
        normal_vec = 0.5 * np.cross(rel, np.roll(rel, -1, axis=1)).sum(axis=1)
        area = np.sqrt(row_dot(normal_vec, normal_vec))
        zero = area <= 0.0
        n = normal_vec / np.where(zero, 1.0, area)[:, None]
        diam = _diameters(coords)
        dev = np.abs(row_dot(rel, n[:, None])).max(axis=1)
        bent = ~zero & (dev > PLANARITY_TOL * diam)
        # area centroid via the vertex-mean fan (exact for planar polygons)
        pmean = coords.mean(axis=1)[:, None]
        tri_area = row_dot(0.5 * np.cross(coords - pmean, nxt - pmean), n[:, None])
        center = ((tri_area[..., None] * ((pmean + coords + nxt) / 3.0)).sum(axis=1)
                  / np.where(zero | bent, 1.0, tri_area.sum(axis=1))[:, None])
        t1 = coords[:, 1] - coords[:, 0]
        t1 = t1 - row_dot(t1, n)[:, None] * n
        t1 = t1 / np.where(zero | bent, 1.0, np.sqrt(row_dot(t1, t1)))[:, None]
        normals = np.cross(n[:, None], edge_tangent[edges])           # (G, L, 3)
        dot = row_dot(normals, edge_midpoint[edges] - center[:, None])
        ambiguous = np.abs(dot) <= SIGN_TOL * diam[:, None]
        bad = zero | bent | ambiguous.any(axis=1)
        if bad.any():
            g = np.argmax(bad)
            failures[ids[g]] = (
                f"face {ids[g]}: zero area" if zero[g] else
                f"face {ids[g]}: non-planar (deviation {dev[g]:.3e} > tol)" if bent[g] else
                f"face {ids[g]}, edge {edges[g, np.argmax(ambiguous[g])]}: "
                "ambiguous boundary sign")
        face_normal[ids], face_tau1[ids], face_tau2[ids] = n, t1, np.cross(n, t1)
        face_area[ids], face_center[ids], face_diameter[ids] = area, center, diam
        face_edge_sign[ids, :edges.shape[1]] = np.where(dot > 0, 1, -1)
        face_edge_normal[ids, :edges.shape[1]] = normals
    if failures:
        raise GeometryError(failures[min(failures)])

    cell_volume, cell_diameter = np.empty((2, nt))
    cell_center = np.empty((nt, 3))
    cell_face_sign = np.zeros((nt, max(map(len, mesh.element_faces), default=0)), dtype=np.int64)
    for grp in mesh.groups("cell"):
        ids, faces, owner, start, end = grp.ids, grp.faces, grp.owner, grp.start, grp.end
        coords = verts[_unique_rows(start)]                           # (G, V, 3)
        pmean = coords.mean(axis=1)[:, None]
        # tetra fan (pmean, c_f, a, b), each with |signed volume| as stored
        # loop windings are arbitrary w.r.t. the element (pmean must see the
        # boundary: star-shaped elements), summed in fan order, not pairwise.
        a, b, c = verts[start], verts[end], face_center[owner]        # (G, S, 3)
        vol6 = np.abs(row_dot(np.cross(a - c, b - c), pmean - c)) / 6.0
        volume = np.cumsum(vol6, axis=1)[:, -1]
        zero = volume <= 0.0
        cent = np.cumsum(vol6[..., None] * (pmean + a + b + c) / 4.0, axis=1)[:, -1]
        cent = cent / np.where(zero, 1.0, volume)[:, None]
        diam = _diameters(coords)
        dot = row_dot(face_normal[faces], face_center[faces] - cent[:, None])
        ambiguous = np.abs(dot) <= SIGN_TOL * diam[:, None]
        bad = zero | ambiguous.any(axis=1)
        if bad.any():
            g = np.argmax(bad)
            failures[ids[g]] = (
                f"element {ids[g]}: zero volume" if zero[g] else
                f"element {ids[g]}, face {faces[g, np.argmax(ambiguous[g])]}: "
                "ambiguous boundary sign")
        cell_volume[ids], cell_center[ids], cell_diameter[ids] = volume, cent, diam
        cell_face_sign[ids, :faces.shape[1]] = np.where(dot > 0, 1, -1)
    if failures:
        raise GeometryError(failures[min(failures)])

    return OrientationTable(verts, edge_tangent, edge_length, edge_midpoint, face_normal,
                            face_tau1, face_tau2, face_area, face_center, face_diameter,
                            face_edge_sign, face_edge_normal, cell_volume,
                            cell_center, cell_diameter, cell_face_sign)
