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

import numpy as np

from .errors import DomainError
from .mesh import KINDS, checked_integer, entity_count, group_closure
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
# the reductions keep and what the CW identification scales by its measure.
CARRIERS = {space: next(iter(parts)) for space, parts in PARTS.items()}


def checked_degree(degree) -> int:
    """``degree`` as a polynomial degree, else DomainError: an integer, not
    a bool, and not negative."""
    degree = checked_integer(degree, "degree")
    if degree < 0:
        raise DomainError("degree must be >= 0")
    return degree


class DofLayout:
    """Unknown numbering of one discrete space on one mesh: per entity kind,
    its first unknown, its stride (one entity's unknowns; the entities of a
    kind follow one another) and each part's offset in the stride and size."""

    def __init__(self, space: str, degree: int, mesh):
        if space not in SPACES:
            raise DomainError(f"unknown space {space!r}")
        degree = checked_degree(degree)
        self.space, self.degree, self.mesh = space, degree, mesh
        # kind -> (first unknown, stride, {part: (offset in the stride, size)})
        self._kinds: dict[str, tuple[int, int, dict[str, tuple[int, int]]]] = {}
        first = 0
        for kind, parts in PARTS[space].items():
            table, stride = {}, 0
            for part, shift in parts:
                dim = 1 if part == "val" else space_dim(
                    "P" if part == "poly" else part, degree + shift, KINDS.index(kind))
                table[part] = (stride, dim)
                stride += dim
            self._kinds[kind] = (first, stride, table)
            first += stride * entity_count(mesh, kind)
        self.total = first

    def dim(self, kind: str, part: str) -> int:
        """The number of ``part`` unknowns of one entity of ``kind``."""
        return self._kinds[kind][2][part][1]

    def indices(self, kind: str, entity, part: str) -> np.ndarray:
        """Global numbers of one entity's ``part`` unknowns, or one row of
        them per entity of an array of integers in range."""
        first, stride, table = self._kinds[kind]
        at, dim = table[part]
        entity = np.asarray(entity)
        if entity.dtype.kind not in "iu" or entity.size and not (
                0 <= entity.min() <= entity.max() < entity_count(self.mesh, kind)):
            raise KeyError((kind, part))
        return (first + at + stride * entity)[..., None] + np.arange(dim)

    def closure_dofs(self, kind: str, group) -> np.ndarray:
        """Global numbers (G, m) of the unknowns on the closures of a size
        group of one kind (:meth:`.Mesh.groups`): vertices, edges, faces,
        then the entity, each kind's entities ascending and each entity's
        components in layout order, so every row ascends."""
        closure = dict(zip(KINDS, group_closure(self.mesh, kind, group)))
        return np.concatenate([((first + stride * closure[sub])[..., None] + np.arange(stride))
                               .reshape(len(closure[sub]), -1)
                               for sub, (first, stride, _) in self._kinds.items()], axis=1)
