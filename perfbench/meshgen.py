"""Seeded hexahedral block meshes with known topology, built without ddrcomplex.

A block is an ``nx x ny x nz`` grid of axis-aligned cells over grid-line
coordinates ``xs, ys, zs`` (uniform for voxel blocks, random spacing for
graded ones).  Holes are cut in two ways whose topology is known by
construction:

* a *tunnel* removes every cell of one grid column along an axis.  Its
  cross-section cell is at least one cell away from the block's side walls,
  so the removed column is surrounded by occupied cells and runs through the
  whole block: the block becomes an annulus times an interval (b1 += 1);
* a *cavity* removes one cell whose 26 neighbours are all inside the block
  and occupied: the removed cube is enclosed by a full shell (b2 += 1).

Holes keep a Chebyshev distance of at least 2 cell steps from each other
(never adjacent), so these contributions are independent and the Betti
vector is ``(1, tunnels, cavities, 0)``.  ``build_block`` proves the
conditions above and also checks two consequences from its own
combinatorics: the occupied cells are face-connected (b0 = 1) and the Euler
characteristic ``V - E + F - T`` equals ``1 - b1 + b2``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


class TopologyError(ValueError):
    """The requested holes would not give the topology claimed for them."""


@dataclass(frozen=True)
class Block:
    doc: dict                          # mesh JSON document
    betti: tuple[int, int, int, int]
    note: str

    @property
    def counts(self) -> tuple[int, int, int, int]:
        v = len(self.doc["vertices"])
        f = len(self.doc["faces"])
        t = len(self.doc["elements"])
        return v, count_edges(self.doc), f, t


def uniform_lines(n: int, h: float) -> list[float]:
    return [i * h for i in range(n + 1)]


def graded_lines(n: int, rng: random.Random, lo: float = 0.5, hi: float = 1.5) -> list[float]:
    out = [0.0]
    for _ in range(n):
        out.append(out[-1] + rng.uniform(lo, hi))
    return out


def tunnel_cells(shape, axis: int, cross: tuple[int, int]) -> set:
    """Cells of the grid column along ``axis`` at cross-section ``cross``."""
    b, c = (axis + 1) % 3, (axis + 2) % 3
    cells = set()
    for s in range(shape[axis]):
        cell = [0, 0, 0]
        cell[axis], cell[b], cell[c] = s, cross[0], cross[1]
        cells.add(tuple(cell))
    return cells


def _chebyshev(p, q) -> int:
    return max(abs(a - b) for a, b in zip(p, q))


def _check_holes(shape, tunnels, cavities) -> None:
    for axis, cross in tunnels:
        b, c = (axis + 1) % 3, (axis + 2) % 3
        if not (1 <= cross[0] <= shape[b] - 2 and 1 <= cross[1] <= shape[c] - 2):
            raise TopologyError(f"tunnel {axis}:{cross} touches a side wall of {shape}")
    for cell in cavities:
        if not all(1 <= cell[i] <= shape[i] - 2 for i in range(3)):
            raise TopologyError(f"cavity {cell} is not enclosed in {shape}")
    groups = [tunnel_cells(shape, a, x) for a, x in tunnels] + [{c} for c in cavities]
    for g1, g2 in itertools.combinations(groups, 2):
        if min(_chebyshev(p, q) for p in g1 for q in g2) < 2:
            raise TopologyError("holes are adjacent")
    if any(a != tunnels[0][0] for a, _ in tunnels):
        raise TopologyError("tunnels must be parallel")


def _face_connected(cells: set) -> bool:
    start = next(iter(cells))
    seen, stack = {start}, [start]
    while stack:
        i, j, k = stack.pop()
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nb = (i + d[0], j + d[1], k + d[2])
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def count_edges(doc: dict) -> int:
    edges = set()
    for loop in doc["faces"]:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            edges.add((min(a, b), max(a, b)))
    return len(edges)


def build_block(lines, tunnels=(), cavities=(), note: str = "") -> Block:
    """Mesh document of the block minus the given tunnels and cavities.

    ``lines`` holds the three grid-line coordinate lists; ``tunnels`` is a
    sequence of ``(axis, (u, v))`` cross-sections and ``cavities`` a
    sequence of cell indices.
    """
    shape = tuple(len(ls) - 1 for ls in lines)
    tunnels, cavities = list(tunnels), [tuple(c) for c in cavities]
    _check_holes(shape, tunnels, cavities)
    removed = set(cavities)
    for axis, cross in tunnels:
        removed |= tunnel_cells(shape, axis, cross)
    cells = sorted(c for c in itertools.product(*(range(n) for n in shape))
                   if c not in removed)
    if not _face_connected(set(cells)):
        raise TopologyError("occupied cells are not face-connected")

    corners = sorted({tuple(c[i] + d[i] for i in range(3))
                      for c in cells for d in itertools.product((0, 1), repeat=3)})
    vid = {p: n for n, p in enumerate(corners)}
    vertices = [[lines[0][p[0]], lines[1][p[1]], lines[2][p[2]]] for p in corners]

    faces, face_of, elements = [], {}, []
    for cell in cells:
        ids = []
        for axis in range(3):
            b, c = (axis + 1) % 3, (axis + 2) % 3
            for side in (0, 1):
                base = list(cell)
                base[axis] += side
                quad = []
                for db, dc in ((0, 0), (1, 0), (1, 1), (0, 1)):   # normal = e_b x e_c = +e_axis
                    p = list(base)
                    p[b] += db
                    p[c] += dc
                    quad.append(vid[tuple(p)])
                key = frozenset(quad)
                if key not in face_of:
                    face_of[key] = len(faces)
                    faces.append(quad)
                ids.append(face_of[key])
        elements.append(ids)

    doc = {"vertices": vertices, "faces": faces, "elements": elements}
    betti = (1, len(tunnels), len(cavities), 0)
    block = Block(doc, betti, note)
    v, e, f, t = block.counts
    if v - e + f - t != betti[0] - betti[1] + betti[2] - betti[3]:
        raise TopologyError(f"Euler characteristic {v - e + f - t} does not match {betti}")
    return block


def distinct_shape_ratio(doc: dict) -> float:
    """Translation-distinct elements over elements, from vertex coordinates.

    Two elements share a key when their vertex sets coincide after moving
    each element's lowest corner to the origin.  This bounds how much a
    cache of local operators keyed by shape could reuse.
    """
    verts, faces = doc["vertices"], doc["faces"]
    scale = max(max(abs(x) for x in v) for v in verts) or 1.0
    keys = set()
    for elem in doc["elements"]:
        ids = sorted({v for f in elem for v in faces[f]})
        pts = [verts[i] for i in ids]
        low = [min(p[i] for p in pts) for i in range(3)]
        keys.add(tuple(sorted(tuple(round((p[i] - low[i]) / scale, 9) for i in range(3))
                              for p in pts)))
    return len(keys) / len(doc["elements"])
