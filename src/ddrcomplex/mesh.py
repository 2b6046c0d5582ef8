"""Oriented polyhedral meshes: construction, validation, file I/O, orientation data.

A mesh stores vertices, derived edges (ascending vertex pairs, sorted
lexicographically), faces as counter-clockwise vertex loops, and elements as
face-index lists.  Orientation/measure data consumed by the discrete
operators (tangents, normals, boundary signs, measures, centroids) is
derived once into an :class:`OrientationTable`.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GeometryError,
    InputError,
    MeshFormatError,
    MeshReferenceError,
    MeshTopologyError,
)


@dataclass(frozen=True)
class Mesh:
    """Immutable polyhedral mesh with derived incidence tables."""

    vertices: np.ndarray                     # (V, 3) float
    edges: np.ndarray                        # (E, 2) int, each row ascending
    face_loops: tuple[tuple[int, ...], ...]  # CCW vertex loops
    element_faces: tuple[tuple[int, ...], ...]
    face_edges: tuple[tuple[int, ...], ...] = field(default=())      # derived

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

    def element_edges(self, t: int) -> tuple[int, ...]:
        return tuple(sorted({e for f in self.element_faces[t] for e in self.face_edges[f]}))


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

    nf = len(face_loops)
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

    return Mesh(
        vertices=np.asarray(vertices, dtype=float),
        edges=np.asarray(edge_list, dtype=int).reshape(len(edge_list), 2),
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
# orientation and measures

@dataclass(frozen=True)
class OrientationTable:
    """Measures, frames, and boundary signs for every mesh entity.

    Immutable after construction; all discrete operators read geometry from
    here only, which is what makes sign/measure fault injection possible in
    the verification suite.
    """

    edge_tangent: np.ndarray    # (E, 3) unit, ascending-index direction
    edge_length: np.ndarray     # (E,)
    edge_midpoint: np.ndarray   # (E, 3)
    face_normal: np.ndarray     # (F, 3) unit (Newell over the stored loop)
    face_tau1: np.ndarray       # (F, 3) unit, in-plane
    face_tau2: np.ndarray       # (F, 3) unit, = n_F x tau1
    face_area: np.ndarray       # (F,)
    face_center: np.ndarray     # (F, 3) area centroid
    face_diameter: np.ndarray   # (F,)
    face_edge_sign: tuple[tuple[int, ...], ...]        # omega_FE per face edge
    face_edge_normal: tuple[np.ndarray, ...]           # n_FE per face edge, (nE, 3)
    cell_volume: np.ndarray     # (T,)
    cell_center: np.ndarray     # (T, 3) volume centroid
    cell_diameter: np.ndarray   # (T,)
    cell_face_sign: tuple[tuple[int, ...], ...]        # omega_TF per element face

    def entity_center(self, kind: str, index: int) -> np.ndarray:
        return {"edge": self.edge_midpoint, "face": self.face_center,
                "cell": self.cell_center}[kind][index]

    def entity_diameter(self, kind: str, index: int) -> float:
        return float({"edge": self.edge_length, "face": self.face_diameter,
                      "cell": self.cell_diameter}[kind][index])

    def entity_measure(self, kind: str, index: int) -> float:
        return float({"edge": self.edge_length, "face": self.face_area,
                      "cell": self.cell_volume}[kind][index])


def _newell_normal(coords: np.ndarray) -> np.ndarray:
    rel = coords - coords[0]
    nxt = np.roll(rel, -1, axis=0)
    return 0.5 * np.cross(rel, nxt).sum(axis=0)


def compute_orientation(mesh: Mesh, planarity_tol: float = 1e-9,
                        sign_tol: float = 1e-10) -> OrientationTable:
    """Derive tangents, normals, signs, measures, and centroids.

    Raises :class:`GeometryError` for non-planar faces, zero measures, or
    boundary-sign dot products below ``sign_tol`` times the diameter.
    """
    verts = mesh.vertices

    vec = verts[mesh.edges[:, 1]] - verts[mesh.edges[:, 0]]
    edge_length = np.linalg.norm(vec, axis=1)
    if np.any(edge_length <= 0.0):
        raise GeometryError("zero-length edge")
    edge_tangent = vec / edge_length[:, None]
    edge_midpoint = 0.5 * (verts[mesh.edges[:, 0]] + verts[mesh.edges[:, 1]])

    nf = mesh.n_faces
    face_normal = np.empty((nf, 3))
    face_tau1 = np.empty((nf, 3))
    face_tau2 = np.empty((nf, 3))
    face_area = np.empty(nf)
    face_center = np.empty((nf, 3))
    face_diameter = np.empty(nf)
    face_edge_sign: list[tuple[int, ...]] = []
    face_edge_normal: list[np.ndarray] = []

    for f, loop in enumerate(mesh.face_loops):
        coords = verts[list(loop)]
        normal_vec = _newell_normal(coords)
        area = np.linalg.norm(normal_vec)
        if area <= 0.0:
            raise GeometryError(f"face {f}: zero area")
        n = normal_vec / area
        diam = max(np.linalg.norm(coords[i] - coords[j])
                   for i in range(len(coords)) for j in range(i + 1, len(coords)))
        dev = np.abs((coords - coords[0]) @ n).max()
        if dev > planarity_tol * diam:
            raise GeometryError(f"face {f}: non-planar (deviation {dev:.3e} > tol)")

        # area centroid via the vertex-mean fan (exact for planar polygons)
        pmean = coords.mean(axis=0)
        tri_area = np.empty(len(loop))
        tri_cent = np.empty((len(loop), 3))
        for i in range(len(loop)):
            a, b = coords[i], coords[(i + 1) % len(loop)]
            tri_area[i] = 0.5 * np.cross(a - pmean, b - pmean) @ n
            tri_cent[i] = (pmean + a + b) / 3.0
        center = (tri_area[:, None] * tri_cent).sum(axis=0) / tri_area.sum()

        t1 = coords[1] - coords[0]
        t1 = t1 - (t1 @ n) * n
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)

        signs, normals = [], []
        for e in mesh.face_edges[f]:
            nfe = np.cross(n, edge_tangent[e])
            dot = nfe @ (edge_midpoint[e] - center)
            if abs(dot) <= sign_tol * diam:
                raise GeometryError(f"face {f}, edge {e}: ambiguous boundary sign")
            signs.append(1 if dot > 0 else -1)
            normals.append(nfe)
        face_normal[f] = n
        face_tau1[f] = t1
        face_tau2[f] = t2
        face_area[f] = area
        face_center[f] = center
        face_diameter[f] = diam
        face_edge_sign.append(tuple(signs))
        face_edge_normal.append(np.asarray(normals))

    nt = mesh.n_elements
    cell_volume = np.empty(nt)
    cell_center = np.empty((nt, 3))
    cell_diameter = np.empty(nt)
    cell_face_sign: list[tuple[int, ...]] = []

    for t, faces in enumerate(mesh.element_faces):
        vids = mesh.element_vertices(t)
        coords = verts[list(vids)]
        pmean = coords.mean(axis=0)
        # tetra fan (pmean, c_f, a, b); stored loop windings are arbitrary
        # w.r.t. the element, so each tetra enters with |signed volume|.
        # Requires pmean to see the boundary (star-shaped elements).
        vol_acc, cent = 0.0, np.zeros(3)
        for f in faces:
            loop = mesh.face_loops[f]
            c = face_center[f]
            for i in range(len(loop)):
                a = verts[loop[i]]
                b = verts[loop[(i + 1) % len(loop)]]
                v6 = abs(np.dot(np.cross(a - c, b - c), pmean - c))
                vol_acc += v6 / 6.0
                cent += (v6 / 6.0) * (pmean + a + b + c) / 4.0
        if vol_acc <= 0.0:
            raise GeometryError(f"element {t}: zero volume")
        cent /= vol_acc
        diam = max(np.linalg.norm(coords[i] - coords[j])
                   for i in range(len(coords)) for j in range(i + 1, len(coords)))
        signs = []
        for f in faces:
            dot = face_normal[f] @ (face_center[f] - cent)
            if abs(dot) <= sign_tol * diam:
                raise GeometryError(f"element {t}, face {f}: ambiguous boundary sign")
            signs.append(1 if dot > 0 else -1)
        cell_volume[t] = vol_acc
        cell_center[t] = cent
        cell_diameter[t] = diam
        cell_face_sign.append(tuple(signs))

    return OrientationTable(
        edge_tangent=edge_tangent,
        edge_length=edge_length,
        edge_midpoint=edge_midpoint,
        face_normal=face_normal,
        face_tau1=face_tau1,
        face_tau2=face_tau2,
        face_area=face_area,
        face_center=face_center,
        face_diameter=face_diameter,
        face_edge_sign=tuple(face_edge_sign),
        face_edge_normal=tuple(face_edge_normal),
        cell_volume=cell_volume,
        cell_center=cell_center,
        cell_diameter=cell_diameter,
        cell_face_sign=tuple(cell_face_sign),
    )
