"""Global unknown numbering for the four discrete spaces.

Per degree k the component pattern is:

* Xgrad: one value per vertex, P^(k-1) on edges, faces, elements;
* Xcurl: P^k on edges, R^(k-1) and Rc^k on faces and elements;
* Xdiv:  P^k on faces, G^(k-1) and Gc^k on elements;
* Pk:    P^k on elements.

Components are laid out lowest-dimensional entities first, entity index
ascending, so the DDR(0) reductions read off the leading block.  Degenerate
degrees (P^-1, Rc^0, ...) stay in the table as genuine zero-dimensional
components so that k = 0 flows through the same code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mesh import KINDS, closure, entity_count
from .spaces import space_dim

# Each space's components per entity kind, in order of dimension, as
# (part, degree - k): "val" is a vertex value, "poly" the scalar P on the
# entity, R/G and their complements Rc/Gc the vector subspaces of .spaces.
PARTS = {
    "Xgrad": {"vertex": (("val", 0),), "edge": (("poly", -1),), "face": (("poly", -1),),
              "cell": (("poly", -1),)},
    "Xcurl": {"edge": (("poly", 0),), "face": (("R", -1), ("Rc", 0)),
              "cell": (("R", -1), ("Rc", 0))},
    "Xdiv": {"face": (("poly", 0),), "cell": (("G", -1), ("Gc", 0))},
    "Pk": {"cell": (("poly", 0),)},
}
SPACES = tuple(PARTS)
# The entity kind carrying each space's degree-0 unknowns, its first: what
# the reductions keep and what the de Rham map scales by its measure.
CARRIERS = {space: next(iter(parts)) for space, parts in PARTS.items()}


@dataclass(frozen=True)
class Component:
    entity_kind: str   # vertex | edge | face | cell
    entity: int
    part: str          # val | poly | R | Rc | G | Gc
    dim: int
    offset: int


class DofLayout:
    """Component table of one discrete space on one mesh."""

    def __init__(self, space: str, degree: int, mesh):
        if space not in SPACES:
            raise DomainError(f"unknown space {space!r}")
        if degree < 0:
            raise DomainError("degree must be >= 0")
        self.space = space
        self.degree = degree
        self.mesh = mesh
        comps: list[Component] = []
        off = 0
        for kind, parts in PARTS[space].items():
            for ent in range(entity_count(mesh, kind)):
                for part, shift in parts:
                    dim = 1 if part == "val" else space_dim(
                        "P" if part == "poly" else part, degree + shift, KINDS.index(kind))
                    comps.append(Component(kind, ent, part, dim, off))
                    off += dim

        self.components = tuple(comps)
        self.total = off
        self._index = {(c.entity_kind, c.entity, c.part): c for c in comps}
        self._by_entity: dict[tuple[str, int], list[Component]] = {}
        for c in comps:
            self._by_entity.setdefault((c.entity_kind, c.entity), []).append(c)

    def component(self, kind: str, entity: int, part: str) -> Component:
        return self._index[(kind, entity, part)]

    def indices(self, kind: str, entity, part: str) -> np.ndarray:
        """Global numbers of one entity's ``part`` unknowns, or one row of
        them per entity of an array.  The entities of a kind follow one
        another, each with the same components."""
        entity = np.asarray(entity)
        if entity.size and not 0 <= entity.min() <= entity.max() < entity_count(self.mesh, kind):
            raise KeyError((kind, part))
        first = self.component(kind, 0, part)
        stride = sum(c.dim for c in self._by_entity[kind, 0])
        return (first.offset + stride * entity)[..., None] + np.arange(first.dim)

    def entity_components(self, kind: str, entity: int) -> list[Component]:
        return list(self._by_entity.get((kind, entity), ()))

    def restriction(self, kind: str, entity: int) -> "LocalMap":
        """Local dof map gathering the entity's own and boundary components.

        Order: vertices ascending, edges ascending, faces ascending, cell;
        per entity the component order matches the global layout, so the
        local dofs' global numbers ascend.
        """
        comps = [c for ekind, ents in zip(KINDS, closure(self.mesh, kind, entity))
                 for ent in ents for c in self._by_entity.get((ekind, ent), ())]
        dims = [c.dim for c in comps]
        starts = [0, *itertools.accumulate(dims)]
        shifts = np.asarray([c.offset - start for c, start in zip(comps, starts)], dtype=int)
        return LocalMap(self, np.repeat(shifts, dims) + np.arange(starts[-1]))


class LocalMap:
    """Restriction of a global layout to one entity's closure: the global
    numbers of its local dofs, ascending."""

    def __init__(self, layout: DofLayout, globals_: np.ndarray):
        self.layout = layout
        self.globals = globals_
        self.total = int(globals_.size)

    def local_indices(self, kind: str, entity: int, part: str) -> np.ndarray:
        c = self.layout.component(kind, entity, part)
        start = int(np.searchsorted(self.globals, c.offset))
        if c.dim and (start == self.total or self.globals[start] != c.offset):
            raise KeyError((kind, entity, part))
        return np.arange(start, start + c.dim)

    def embed(self, sub: "LocalMap") -> np.ndarray:
        """Positions of a sub-restriction's dofs inside this one."""
        return np.searchsorted(self.globals, sub.globals)

    def gather(self, vector: np.ndarray) -> np.ndarray:
        """Extract the local dofs from a global vector (or matrix rows)."""
        return np.asarray(vector)[self.globals]
