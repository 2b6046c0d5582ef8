"""Discrete gradient/curl/divergence operators of the arbitrary-order complex.

Every local operator is defined by moment conditions obtained from discrete
integration by parts: the unknown polynomial is tested against a space of
polynomial test functions, boundary terms feed in the traces built on the
lower-dimensional entities.  All defining systems are dense Gram or pairing
systems, one per entity; global operators collect the local blocks into
sparse matrices with deterministic (entity-index ascending) ordering.  Every
local operator is built with its moment system, which the extensions of
:mod:`.lifting` solve with degree-0 data.
:data:`OPERATORS` describes the complex once, operator by operator and entity
kind by entity kind; assembly, extensions and checks all loop over it.

Local operators are built in stacked passes over the mesh's one grouping:
:meth:`.Mesh.groups` gives the entities of a kind in groups of equal array
sizes (closure counts, and face-loop lengths in element-face order, which
also fix the rule sizes) with their faces and fans as integer arrays.  The
first access to any entity's operator builds every group of its kind: a
leading entity axis runs through the global numbers of the local dofs
(:meth:`.DofLayout.closure_dofs`) and the local positions read from them,
the boundary evaluations, the moment right-hand sides, the guarded solves,
and later the projections and the global assembly.  :meth:`DdrComplex.stacks`
returns each group's :class:`Stack`, which global assembly, the extensions of
:mod:`.lifting`, the consistency sweep of :mod:`.verification` and the VTK
potentials of :mod:`.cli` read by field, a group at a time;
:meth:`DdrComplex.edge_ops` ... :meth:`DdrComplex.cell_div_ops` return one
entity's :class:`LocalOps`, views into its group's stack made on demand.  A
solve that fails its condition-number guard names the lowest-index failing
entity and that entity's first failing solve, as a build entity by entity
would.  The builders read each basis at the highest degree they read of it
(k+2 on faces, k+1 on edges and elements; lower degrees are column slices):
an edge or face basis is evaluated once per size group at its own rule
points, and a face or element basis once per complex at its boundary's rule
points, where :meth:`DdrComplex._boundary_moments` pairs it with the
sub-entities' bases; the builders' boundary terms are products of those
moments with the sub-entities' potentials and frame factors, with no array
over points.  Each entity's Gram matrices are slices of one top-degree Gram,
on elements a sum over the face rules from the same evaluation, so the
operator build maps no element rule.  Interpolation and the consistency
sweep evaluate the rules of every kind in stacks of at most ``_STACK_POINTS``
points (:func:`_slices`), and a basis at the degree they read, as do the VTK
potentials.

:class:`DdrComplex` memoizes quadrature rules, Gram matrices, local
operators, and assembled global matrices for one (mesh, orientation, degree).
"""

from __future__ import annotations

from collections import namedtuple
from functools import partialmethod
from typing import NamedTuple

import numpy as np

from . import monomials as mono
from .errors import ConditioningError, DomainError
from .homology import _signed_incidences
from .layouts import KINDS, PARTS, DofLayout, checked_degree, entity_count
from .mesh import Mesh, OrientationTable, SizeGroup, _read_only, checked_entity, row_dot
from .quadrature import QuadratureRule, rule_stack
from .spaces import span_matrix, stacked_solve
from .sparse import CsrMatrix


class LocalOps(NamedTuple):
    """One entity's local operator, the potential built with it, and the
    operator's moment system ``mass @ op = rhs``: read-only views into its
    size group's :class:`Stack`.

    ``globals`` are the global numbers of the local dofs, those on the
    entity's closure, ascending; ``op`` maps the local dofs to the
    operator's target polynomials.  ``potential`` holds the edge or face
    scalar trace (to P^(k+1)), the face tangential trace or the element curl
    or divergence potential (to vP^k); the element gradient has none.
    ``mass`` is the Gram matrix of the operator's target space; ``rhs`` holds
    the tested integration-by-parts terms, one column per local dof.
    """

    globals: np.ndarray
    op: np.ndarray
    potential: np.ndarray | None
    mass: np.ndarray
    rhs: np.ndarray


class Stack(namedtuple("Stack", LocalOps._fields + ("group",))):
    """One builder's size group (a :class:`.mesh.SizeGroup`), with its
    entities ``ids`` (G,), and the arrays of their LocalOps, stacked along
    a leading entity axis."""

    __slots__ = ()
    ids = property(lambda self: self.group.ids)


def _positions(globals_: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where the numbers ``wanted`` (G, n) sit in the ascending rows of
    ``globals_`` (G, m), row by row: one search of the rows laid end to end,
    each shifted above the one before."""
    row = np.arange(len(globals_))[:, None]
    shift = (int(globals_.max()) + 1) * row
    return np.searchsorted((globals_ + shift).ravel(), wanted + shift) - globals_.shape[1] * row


class Block(NamedTuple):
    """One entity kind's share of a global operator.

    The local operator fills the target's components on the entity, read
    from :data:`.layouts.PARTS`: ``poly`` as it is, or the degree-(k-1)
    image and the degree-k complement, each the local operator's
    projection.  The extensions project the degree-0 potential onto the
    source's complement part.
    """

    kind: str
    builder: str


class Operator(NamedTuple):
    name: str
    source: str
    target: str
    local: str            # short name in check names
    blocks: tuple[Block, ...]


# The complex Xgrad -> Xcurl -> Xdiv -> Pk, entity kinds in order of dimension.
OPERATORS = (
    Operator("gradient", "Xgrad", "Xcurl", "grad",
             (Block("edge", "edge_ops"), Block("face", "face_grad_ops"),
              Block("cell", "cell_grad_ops"))),
    Operator("curl", "Xcurl", "Xdiv", "curl",
             (Block("face", "face_curl_ops"), Block("cell", "cell_curl_ops"))),
    Operator("divergence", "Xdiv", "Pk", "div", (Block("cell", "cell_div_ops"),)),
)
# builder -> (entity kind, source space)
_BLOCKS = {b.builder: (b.kind, op.source) for op in OPERATORS for b in op.blocks}


def _operator_index(which: str) -> int:
    """The position in :data:`OPERATORS` of the operator named ``which``."""
    for i, op in enumerate(OPERATORS):
        if op.name == which:
            return i
    raise DomainError(f"unknown operator {which!r}")


def _label(kind: str, index: int) -> str:
    """An entity as solve and error messages name it."""
    return f"{'element' if kind == 'cell' else kind} {index}"


def _add_columns(target: np.ndarray, cols: np.ndarray, block: np.ndarray) -> None:
    """``target[g][:, cols[g]] += block[g]`` for every stack member g (the
    columns of one member are distinct)."""
    target[np.arange(len(target))[:, None], :, cols] += block.swapaxes(1, 2)


class _Group(NamedTuple):
    """A size group of one kind built together, the global numbers of its
    members' local dofs, and the first failure of each failing entity of the
    kind (entity index -> ConditioningError)."""

    kind: str
    group: SizeGroup
    layout: DofLayout
    globals: np.ndarray       # (G, m): DofLayout.closure_dofs
    failed: dict[int, ConditioningError]
    ids = property(lambda self: self.group.ids)

    def solve(self, system: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
        out, errors = stacked_solve(system, rhs,
                                    lambda g: f"{_label(self.kind, self.ids[g])}: {what}")
        for g, err in errors.items():
            self.failed.setdefault(int(self.ids[g]), err)
        return out

    def own(self, part: str) -> np.ndarray:
        """Local positions of the entities' own ``part`` unknowns (the same
        for every member: an entity's own components come last)."""
        return _positions(self.globals[:1], self.layout.indices(self.kind, self.ids[:1], part))[0]


class _Coo:
    """Global assembly from dense blocks (..., r, c) on rows (..., r) and
    ascending columns (..., c), each row written once, scattered in place."""

    def __init__(self):
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, rows: np.ndarray, cols: np.ndarray, block: np.ndarray) -> None:
        if block.size:
            self.blocks.append((rows, cols, block))

    def build(self, shape: tuple[int, int]) -> CsrMatrix:
        m, n = shape
        lens = np.zeros(m, dtype=np.int64)
        for rows, cols, block in self.blocks:
            if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
                raise ValueError(f"block index out of range for shape {(m, n)}")
            if (np.diff(cols, axis=-1) <= 0).any():
                raise ValueError("block columns do not ascend")
            lens[rows] = block.shape[-1]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        if indptr[-1] != sum(block.size for _, _, block in self.blocks):
            raise ValueError("a row is written twice")   # its later block's length stands
        indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
        for rows, cols, block in self.blocks:
            at = indptr[rows][..., None] + np.arange(block.shape[-1])
            indices[at] = cols[..., None, :]
            data[at] = block
        return CsrMatrix((m, n), indptr, indices, data)


# The most quadrature points in one stack that interpolation or the
# consistency sweep evaluates, or else one entity's.
_STACK_POINTS = 1 << 11


def _slices(count: int, each: int, budget: int) -> list[slice]:
    """Consecutive runs of ``count`` stack members of ``each`` entries: at
    most ``budget // each`` members to a run, and at least one."""
    step = max(1, budget // max(each, 1))
    return [slice(at, at + step) for at in range(0, count, step)]


class MonomialField:
    """The monomials of degree <= ``degree`` of y = (x - centre)/scale, as
    one polynomial field of several columns, in the order of
    :func:`.monomials.monomial_powers`: :meth:`DdrComplex.interpolate_grad`
    evaluates them all once per stack of points and gives one interpolate
    per monomial."""

    __slots__ = ("degree", "centre", "scale")

    def __init__(self, degree: int, centre: np.ndarray, scale: float):
        self.degree, self.centre, self.scale = degree, centre, scale

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return mono.eval_monomials(3, self.degree, (points - self.centre) / self.scale)


def _field_values(fn, points: np.ndarray) -> np.ndarray:
    """``fn`` at an ``(n, 3)`` array of points, as ``(n, m)`` finite floats:
    the columns of a :class:`MonomialField`, else ``n`` values as one column."""
    if isinstance(fn, MonomialField):
        return fn(points)
    vals = fn(points)
    try:
        vals = np.asarray(vals, dtype=float)
    except (TypeError, ValueError):
        vals = np.array(np.nan)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"interpolated field gave values that are not finite numbers "
                          f"at {len(points)} points")
    try:
        return np.broadcast_to(vals, (len(points),))[:, None]
    except ValueError:
        raise DomainError(f"interpolated field gave shape {vals.shape} "
                          f"at {len(points)} points; expected ({len(points)},)") from None


def _n(kind: str, degree: int) -> int:
    """Scalar basis size of degree ``degree`` on an entity of ``kind``."""
    return mono.n_monomials(KINDS.index(kind), degree)


class DdrComplex:
    """All discrete spaces and operators of one mesh at one degree."""

    def __init__(self, mesh: Mesh, orientation: OrientationTable, degree: int):
        self.mesh = mesh
        self.orient = orientation
        self.k = checked_degree(degree)
        self._layouts: dict[str, DofLayout] = {}
        # per entity kind: each size group's rules, top-degree Grams, degree-k means
        self._rules: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._top_grams: dict[str, np.ndarray] = {}
        self._means: dict[str, np.ndarray] = {}
        self._moments: dict[str, list[np.ndarray]] = {}   # see _boundary_moments
        # per builder: the stacks of the mesh's size groups (Mesh.groups)
        self._stacks: dict[str, list[Stack]] = {}
        self._globals: dict[str, CsrMatrix] = {}

    # -- cached geometry-level objects ------------------------------------

    def layout(self, space: str) -> DofLayout:
        if space not in self._layouts:
            self._layouts[space] = DofLayout(space, self.k, self.mesh)
        return self._layouts[space]

    def rule(self, kind: str, index: int) -> QuadratureRule:
        """One entity's rule, a read-only view into its size group's rules."""
        index = checked_entity(self.mesh, kind, index)
        group, row = self.mesh.group_table(kind)[:, index]
        points, weights = self._rule_store(kind)[group][:2]
        return QuadratureRule((kind, index), points[row], weights[row], self.rule_degree(kind))

    def rule_degree(self, kind: str) -> int:
        """The degree the rules of ``kind`` integrate exactly: 2k+4 on edges and
        faces, for the face Grams at the top degree k+2; 2k on elements,
        what their readers need: interpolation pairs P^(k-1) with P^(k+1)
        fields, and a positive rule exact to 2k is unisolvent for the
        sweep's P^k residuals."""
        return 2 * self.k + (0 if kind == "cell" else 4)

    def means(self, kind: str) -> np.ndarray:
        """Mean over each entity of one kind of each scalar degree-k basis
        monomial, (n, .), read-only."""
        if kind not in self._means:
            self._means[kind], = _read_only(self._mean_stack(kind, slice(None), self.k))
        return self._means[kind]

    # -- stacked evaluation --------------------------------------------------

    def _top(self, kind: str) -> int:
        """The highest degree the builders read of a basis of ``kind``: k+2 on
        faces (the scalar trace pairs with Rc^(k+2)), k+1 elsewhere."""
        return self.k + (2 if kind == "face" else 1)

    def _eval(self, kind: str, ids: np.ndarray, pts: np.ndarray,
              degree: int | None = None) -> np.ndarray:
        """The scalar bases of entities ``ids`` at their point sets ``pts``
        (G, q, 3), as (G, q, n), of ``degree`` or else of the top degree,
        whose leading column slices are the lower degrees.  Interpolation,
        the consistency sweep and the VTK potentials ask for the degree they
        read: numpy multiplies a strided column slice in its own loop, which
        rounds differently from BLAS and would move their results."""
        geometry = self.orient.geometry(kind)
        y = ((pts - geometry.center[ids][:, None, :]) @ geometry.frame[ids].swapaxes(1, 2)
             / geometry.diameter[ids][:, None, None])
        count, q, dim = y.shape
        degree = self._top(kind) if degree is None else degree
        return mono.eval_monomials(dim, degree, y.reshape(-1, dim)).reshape(count, q, -1)

    def _rule_store(self, kind: str) -> list[tuple[np.ndarray, ...]]:
        """Quadrature points (G, q, 3) and weights (G, q) of each size group
        of a kind, mapped once per group, and on edges and faces the
        top-degree bases at them (G, q, N), evaluated once per group."""
        if kind not in self._rules:
            self._rules[kind] = []
            for grp in self.mesh.groups(kind):
                points, weights = rule_stack(self.mesh, self.orient, kind, grp,
                                             self.rule_degree(kind))
                values = () if kind == "cell" else (self._eval(kind, grp.ids, points),)
                self._rules[kind].append(_read_only(points, weights, *values))
        return self._rules[kind]

    def _own_rule(self, kind: str, ids: np.ndarray, count: int = 3) -> tuple[np.ndarray, ...]:
        """The first ``count`` arrays the rule store keeps of entities ``ids`` of one
        size group: points, weights and, on edges and faces, the bases there."""
        group, rows = self.mesh.group_table(kind)[:, ids]
        return tuple(a[rows] for a in self._rule_store(kind)[group[0]][:count])

    def _points(self, kind: str, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature points (G, q, 3) and weights (G, q) of entities of one size group."""
        return self._own_rule(kind, ids, 2)

    def _top_gram(self, kind: str) -> np.ndarray:
        """The scalar Gram matrix at the top degree of every entity of one
        kind, (n, N, N), a size group at a time: on edges and faces from
        their own rules; on elements from their faces' rules, with the
        element's basis evaluation of :meth:`_boundary_moments`."""
        if kind == "cell":
            self._boundary_moments(kind)
        elif kind not in self._top_grams:
            n = _n(kind, self._top(kind))
            grams = np.empty((entity_count(self.mesh, kind), n, n))
            for grp, (_, weights, phi) in zip(self.mesh.groups(kind), self._rule_store(kind)):
                grams[grp.ids] = phi.swapaxes(1, 2) @ (weights[..., None] * phi)
            self._top_grams[kind], = _read_only(grams)
        return self._top_grams[kind]

    def _boundary_moments(self, kind: str) -> list[np.ndarray]:
        """Each size group's pairings (G, B, N, Ns) of its top-degree basis
        with the degree-(k+1) basis of each boundary column's sub-entities,
        the highest the builders pair, ``int_s phi phi_s``: faces against
        their edges, elements against their faces.  The element basis at a
        face's points also gives that face's share of the element's top Gram,
        ``int_T y^a y^b = sum_F |n_F.(x_F - c_T)| int_F y^a y^b / (3+|a|+|b|)``
        (Euler's identity and the divergence theorem; the unsigned distance
        is the factor the fan rule's |det| weights carry)."""
        if kind not in self._moments:
            o, sub, top = self.orient, KINDS[KINDS.index(kind) - 1], self._top(kind)
            n, ns = _n(kind, top), _n(sub, self.k + 1)
            grams = np.zeros((entity_count(self.mesh, kind), n, n)) if kind == "cell" else None
            self._moments[kind] = []
            for grp in self.mesh.groups(kind):
                subs = grp.faces if kind == "cell" else grp.edge
                out = np.empty((len(grp.ids), subs.shape[1], n, ns))
                for j, col in enumerate(subs.T):
                    pts, weights, phi_s = self._own_rule(sub, col)
                    phi = self._eval(kind, grp.ids, pts)
                    out[:, j] = phi.swapaxes(1, 2) @ (weights[..., None] * phi_s[..., :ns])
                    if grams is not None:
                        dist = np.abs(row_dot(o.face_normal[col],
                                              o.face_center[col] - o.cell_center[grp.ids]))
                        weights = weights * dist[:, None]
                        grams[grp.ids] += phi.swapaxes(1, 2) @ (weights[..., None] * phi)
                self._moments[kind] += _read_only(out)
            if grams is not None:
                degree = np.asarray([sum(a) for a in mono.monomial_powers(3, top)])
                self._top_grams[kind], = _read_only(grams / (3 + degree[:, None] + degree))
        return self._moments[kind]

    def _grams(self, kind: str, ids, deg_a: int, deg_b: int,
               vector: bool = False) -> np.ndarray:
        """Gram matrices (G, ., .) between the degree ``deg_a`` and ``deg_b``
        bases of entities ``ids``: slices of their top-degree Grams, made
        block diagonal over the frame for vector bases."""
        na, nb = _n(kind, deg_a), _n(kind, deg_b)
        g = self._top_gram(kind)[ids, :na, :nb]
        if not vector:
            return g
        dim = KINDS.index(kind)
        out = np.zeros((len(g), dim * na, dim * nb))
        for c in range(dim):
            out[:, c * na:(c + 1) * na, c * nb:(c + 1) * nb] = g
        return out

    def _mean_stack(self, kind: str, ids, degree: int) -> np.ndarray:
        """Entity means (G, n) of the scalar monomials of ``degree``: the
        first row of the Gram over its first entry."""
        top = self._top_gram(kind)[ids]
        return top[:, 0, :_n(kind, degree)] / top[:, 0, :1]

    def _p0(self, kind: str, ids: np.ndarray, degree: int) -> np.ndarray:
        """Coefficients (G, n, n-1) of the zero-mean monomials of ``degree``:
        the P0 columns y^alpha minus its entity mean, for alpha != 0."""
        means = self._mean_stack(kind, ids, degree)
        n = means.shape[1]
        out = np.zeros((len(ids), n, n - 1))
        out[:, 0] = 0.0 - means[:, 1:]      # 0.0 - mean keeps a zero mean +0.0
        out[:, 1:] = np.eye(n - 1)
        return out

    def _boundary(self, grp: _Group) -> tuple[np.ndarray, ...]:
        """Sub-entities (G, B), signs (G, B) and normals (G, B, 3) of a group:
        each face's edges (omega_FE, n_FE) or each element's faces (omega_TF,
        n_F), in mesh order; and the group's boundary moments (G, B, N, Ns)."""
        o, ids = self.orient, grp.ids
        moments = self._boundary_moments(grp.kind)[self.mesh.group_table(grp.kind)[0, ids[0]]]
        if grp.kind == "face":
            subs = grp.group.edge
            return (subs, o.face_edge_sign[ids, :subs.shape[1]].astype(float),
                    o.face_edge_normal[ids, :subs.shape[1]], moments)
        subs = grp.group.faces
        return (subs, o.cell_face_sign[ids, :subs.shape[1]].astype(float), o.face_normal[subs],
                moments)

    def _project(self, kind: str, ids, part: str, degree: int, source_degree: int,
                 columns: np.ndarray, failed: dict | None = None) -> np.ndarray:
        """L2 projection of stacked vector coefficient columns (G, over
        vP^source_degree) onto a tagged subspace of vP^degree, for each of
        the entities ``ids``: solves (C^T M C) alpha = C^T M_x g.  Failures
        are named for their entities and go into ``failed`` (entity index ->
        first error), or else the lowest is raised."""
        c = span_matrix(part, KINDS.index(kind), degree)
        if not c.shape[1]:
            return np.zeros((len(ids), 0, columns.shape[-1]))
        own = self._grams(kind, ids, degree, degree, vector=True)
        cross = self._grams(kind, ids, degree, source_degree, vector=True)
        out, errors = stacked_solve(c.T @ own @ c, c.T @ cross @ columns, lambda g: (
            f"{_label(kind, ids[g])}: projection onto {part}^{degree}"))
        if errors and failed is None:
            raise errors[min(errors)]
        for g, err in errors.items():
            failed.setdefault(int(ids[g]), err)
        return out

    # -- local operators ------------------------------------------------------
    # edge_ops ... cell_div_ops are the blocks of OPERATORS; each returns one
    # entity's LocalOps, views into its group's Stack made on demand.  Face
    # and element gradient are one integration by parts, as are the face curl
    # and the element divergence with their potentials.

    def _view(self, builder: str, index: int) -> LocalOps:
        st, g = self._find(builder, checked_entity(self.mesh, _BLOCKS[builder][0], index))
        return LocalOps._make(None if a is None else a[g] for a in st[:len(LocalOps._fields)])

    edge_ops = partialmethod(_view, "edge_ops")
    face_grad_ops = partialmethod(_view, "face_grad_ops")
    cell_grad_ops = partialmethod(_view, "cell_grad_ops")
    face_curl_ops = partialmethod(_view, "face_curl_ops")
    cell_curl_ops = partialmethod(_view, "cell_curl_ops")
    cell_div_ops = partialmethod(_view, "cell_div_ops")

    def stacks(self, builder: str) -> list[Stack]:
        """One builder's size groups, built on first use, one stacked pass
        per group.  A failing solve raises for the lowest failing entity
        once every group is built."""
        if builder not in self._stacks:
            kind, space = _BLOCKS[builder]
            build = {"edge_ops": self._edge_stack,
                     "face_grad_ops": self._grad_stack, "cell_grad_ops": self._grad_stack,
                     "face_curl_ops": lambda grp: self._curl_div_stack(grp, mono.vrot_matrix, -1),
                     "cell_curl_ops": self._cell_curl_stack,
                     "cell_div_ops": lambda grp: self._curl_div_stack(
                         grp, lambda degree: mono.grad_matrix(3, degree), 1)}[builder]
            layout = self.layout(space)
            stacks, failed = [], {}
            for group, dofs in zip(self.mesh.groups(kind), layout.closures(kind)):
                grp = _Group(kind, group, layout, dofs, failed)
                arrays = build(grp)
                _read_only(*(a for a in arrays if a is not None))
                stacks.append(Stack(grp.globals, *arrays, group))
            if failed:
                raise failed[min(failed)]
            self._stacks[builder] = stacks
        return self._stacks[builder]

    def _sub_data(self, grp: _Group, sub_builder: str, subs: np.ndarray):
        """Where the local dofs of each member's boundary sub-entity ``subs``
        (G,) sit among the member's (G, m), and the sub-entities' potentials
        (G, ., m): the sub-entities of one column of a size group's
        boundary share a size group."""
        st, rows = self._find(sub_builder, subs)
        return _positions(grp.globals, st.globals[rows]), st.potential[rows]

    def _find(self, builder: str, ids) -> tuple[Stack, np.ndarray]:
        """The stack of ``builder`` holding the entities ``ids``, all of one
        size group, and their rows in it."""
        group, rows = self.mesh.group_table(_BLOCKS[builder][0])[:, ids]
        return self.stacks(builder)[np.ravel(group)[0]], rows

    def _edge_stack(self, grp: _Group):
        k, ids = self.k, grp.ids
        count, nloc = len(ids), grp.globals.shape[1]
        ends = self.mesh.edges[ids]                                     # (G, 2)
        phi_ends = self._eval("edge", ids, self.mesh.vertices[ends])    # (G, 2, k+3)
        g_mm = self._grams("edge", ids, k - 1, k - 1)
        g_m1 = self._grams("edge", ids, k - 1, k + 1)
        c_v = _positions(grp.globals, grp.layout.indices("vertex", ends, "val")[..., 0])
        c_qe = grp.own("poly")
        every = np.arange(count)

        system = np.concatenate([phi_ends[:, :, :k + 2], g_m1], axis=1)   # (G, k+2, k+2)
        rhs = np.zeros((count, k + 2, nloc))
        rhs[every, 0, c_v[:, 0]] = 1.0
        rhs[every, 1, c_v[:, 1]] = 1.0
        rhs[:, 2:, c_qe] = g_mm
        trace = grp.solve(system, rhs, "scalar trace")

        g_kk = self._grams("edge", ids, k, k)
        inv_h = (1.0 / self.orient.geometry("edge").diameter[ids])[:, None, None]
        deriv = mono.derivative_matrix(1, k, 0) * inv_h
        b = np.zeros((count, k + 1, nloc))
        b[:, :, c_qe] = -(g_mm @ deriv).swapaxes(1, 2)
        b[every, :, c_v[:, 0]] -= phi_ends[:, 0, :k + 1]
        b[every, :, c_v[:, 1]] += phi_ends[:, 1, :k + 1]
        grad = grp.solve(g_kk, b, "gradient")
        return grad, trace, g_kk, b

    def _grad_stack(self, grp: _Group):
        """Face or element gradient, tested against vP^k: minus the entity's
        own P^(k-1) unknowns against the divergence of the tests, plus the
        boundary's scalar traces against their normal components.  A face
        also gets its scalar trace, which the element gradient uses."""
        k, kind, ids = self.k, grp.kind, grp.ids
        count, dim = len(ids), KINDS.index(kind)
        sub = KINDS[dim - 1]
        inv_h = (1.0 / self.orient.geometry(kind).diameter[ids])[:, None, None]
        nk = _n(kind, k)
        vg_kk = self._grams(kind, ids, k, k, vector=True)
        div_k = mono.div_matrix(dim, k) * inv_h
        g_mm = self._grams(kind, ids, k - 1, k - 1)

        b = np.zeros((count, dim * nk, grp.globals.shape[1]))
        (own, _), = PARTS["Xgrad"][kind]
        c_own = grp.own(own)
        if c_own.size:
            b[:, :, c_own] = -(g_mm @ div_k).swapaxes(1, 2)

        # the boundary terms pair the tests' normal components (frame.n_s
        # times the scalar tests) with the sub-entities' scalar traces:
        # omega_s (frame.n_s)_c (moments @ trace), (G, dim, N, m) per column;
        # a face's scalar trace is tested against Rc^(k+2), square since
        # div_F : Rc^(k+2) -> P^(k+1) is an isomorphism
        subs, signs, normals, moments = self._boundary(grp)
        along = self.orient.geometry(kind).frame[ids, None] @ normals[..., None]  # (G, B, dim, 1)
        c2 = span_matrix("Rc", 2, k + 2)
        rhs = np.zeros((count, c2.shape[1], b.shape[2])) if kind == "face" else None
        for j in range(subs.shape[1]):
            embed, potential = self._sub_data(grp, "edge_ops" if sub == "edge"
                                              else "face_grad_ops", subs[:, j])
            paired = signs[:, j, None, None] * (moments[:, j] @ potential)
            normal = along[:, j, :, :, None] * paired[:, None]
            _add_columns(b, embed, normal[:, :, :nk].reshape(count, dim * nk, -1))
            if rhs is not None:
                _add_columns(rhs, embed, c2.T @ normal.reshape(count, -1, normal.shape[-1]))
        grad = grp.solve(vg_kk, b, "gradient")
        if kind == "cell":
            return grad, None, vg_kk, b

        divf_k2 = mono.div_matrix(2, k + 2) * inv_h
        g_11 = self._grams(kind, ids, k + 1, k + 1)
        system = (divf_k2 @ c2).swapaxes(1, 2) @ g_11
        rhs -= c2.T @ self._grams(kind, ids, k + 2, k, vector=True) @ grad
        trace = grp.solve(system, rhs, "scalar trace")
        return grad, trace, vg_kk, b

    def _complement_solve(self, grp: _Group, part: str, t1: np.ndarray, rhs1: np.ndarray,
                          what: str) -> np.ndarray:
        """Degree-k vector potentials from their moments against the tests
        ``[t1 | t2]``, with ``t2`` the basis of the complement ``part``: the
        ``t1`` moments are ``rhs1``, the ``t2`` moments those of the entity's
        own ``part`` unknowns."""
        kind, ids = grp.kind, grp.ids
        vg_kk = self._grams(kind, ids, self.k, self.k, vector=True)
        t2 = span_matrix(part, KINDS.index(kind), self.k)
        tests = np.concatenate([t1, np.broadcast_to(t2, (len(ids), *t2.shape))], axis=2)
        rhs2 = np.zeros((len(ids), t2.shape[1], rhs1.shape[2]))
        rhs2[:, :, grp.own(part)] = t2.T @ vg_kk @ t2
        return grp.solve(tests.swapaxes(1, 2) @ vg_kk, np.concatenate([rhs1, rhs2], axis=1),
                         what)

    def _curl_div_stack(self, grp: _Group, deriv, sign: int):
        """Face curl or element divergence, and its potential.

        The operator is tested against P^k: ``-sign`` times the entity's own
        degree-(k-1) image part against ``deriv`` of the tests (``vrot`` on a
        face, ``grad`` on an element; ``deriv(degree)`` is its integer matrix
        on P^degree), plus ``sign`` times the boundary's own
        P^k unknowns.  The potential (face tangential trace, element
        divergence potential) is tested against ``deriv`` of P^{0,k+1}:
        ``-sign`` times the operator plus the boundary terms.  With the
        degree-k complement part these tests span vP^k.
        """
        k, kind, ids = self.k, grp.kind, grp.ids
        dim = KINDS.index(kind)
        sub = KINDS[dim - 1]
        space = grp.layout.space
        (image, _), (complement, _) = PARTS[space][kind]
        name = next(op.name for op in OPERATORS if op.source == space)
        inv_h = (1.0 / self.orient.geometry(kind).diameter[ids])[:, None, None]
        nk = _n(kind, k)
        g_kk = self._grams(kind, ids, k, k)
        deriv_k = deriv(k) * inv_h
        img = span_matrix(image, dim, k - 1)
        vg_mm = self._grams(kind, ids, k - 1, k - 1, vector=True)

        b = np.zeros((len(ids), nk, grp.globals.shape[1]))
        c_img = grp.own(image)
        if c_img.size:
            b[:, :, c_img] = -sign * (img.T @ vg_mm @ deriv_k).swapaxes(1, 2)

        subs, signs, _, moments = self._boundary(grp)
        p0 = self._p0(kind, ids, k + 1)
        rhs1 = np.zeros((len(ids), p0.shape[2], b.shape[2]))     # (G, n_{k+1}-1, nloc)
        for j in range(subs.shape[1]):
            c_s = _positions(grp.globals, grp.layout.indices(sub, subs[:, j], "poly"))
            paired = signs[:, j, None, None] * moments[:, j, :, :_n(sub, k)]   # (G, N, nk of s)
            _add_columns(b, c_s, sign * paired[:, :nk])
            _add_columns(rhs1, c_s, p0.swapaxes(1, 2) @ paired[:, :_n(kind, k + 1)])
        op = grp.solve(g_kk, b, name)

        deriv_k1 = deriv(k + 1) * inv_h
        rhs1 -= sign * ((self._grams(kind, ids, k, k + 1) @ p0).swapaxes(1, 2) @ op)
        what = "tangential trace" if kind == "face" else f"{name} potential"
        potential = self._complement_solve(grp, complement, deriv_k1 @ p0, rhs1, what)
        return op, potential, g_kk, b

    def _cell_curl_stack(self, grp: _Group):
        k, ids = self.k, grp.ids
        (image, _), (complement, _) = PARTS["Xcurl"]["cell"]
        count, nk = len(ids), _n("cell", k)
        inv_h = (1.0 / self.orient.geometry("cell").diameter[ids])[:, None, None]
        vg_kk = self._grams("cell", ids, k, k, vector=True)
        curl_k = mono.curl_matrix(k) * inv_h
        r = span_matrix(image, 3, k - 1)
        vg_mm = self._grams("cell", ids, k - 1, k - 1, vector=True)

        b = np.zeros((count, 3 * nk, grp.globals.shape[1]))
        c_r = grp.own(image)
        if c_r.size:
            b[:, :, c_r] = (r.T @ vg_mm @ curl_k).swapaxes(1, 2)

        # the boundary terms pair the tests with n_F x (the tangential trace
        # sum_c gt_c tau_c): per column omega_TF sum_c (n_F x tau_c) (moments
        # @ gt_c), (G, 3, N, m), with tau_c the face's frame; the potential's
        # tests curl(Gc^{k+1}) + Rc^k span vP^k
        subs, signs, normals, moments = self._boundary(grp)
        turns = np.cross(normals[:, :, None], self.orient.geometry("face").frame[subs])
        nf_k = _n("face", k)
        gc1 = span_matrix("Gc", 3, k + 1)
        rhs1 = np.zeros((count, gc1.shape[1], b.shape[2]))
        for j in range(subs.shape[1]):
            embed, potential = self._sub_data(grp, "face_curl_ops", subs[:, j])
            parts = moments[:, j, None, :, :nf_k] @ potential.reshape(count, 2, nf_k, -1)
            turn = signs[:, j, None, None] * turns[:, j].swapaxes(1, 2)       # (G, 3, 2)
            paired = (turn @ parts.reshape(count, 2, -1)).reshape(count, 3, *parts.shape[2:])
            _add_columns(b, embed, paired[:, :, :nk].reshape(count, 3 * nk, -1))
            _add_columns(rhs1, embed, -(gc1.T @ paired.reshape(count, -1, paired.shape[-1])))
        curl = grp.solve(vg_kk, b, "curl")

        curl_k1 = mono.curl_matrix(k + 1) * inv_h
        rhs1 += (gc1.T @ self._grams("cell", ids, k + 1, k, vector=True)) @ curl
        potential = self._complement_solve(grp, complement, curl_k1 @ gc1, rhs1,
                                           "curl potential")
        return curl, potential, vg_kk, b

    # -- global assembly -------------------------------------------------------

    def operator(self, which: str) -> CsrMatrix:
        """The global operator named ``which``, assembled from the local
        blocks of :data:`OPERATORS` in entity order, one group at a time."""
        if which not in self._globals:
            op = OPERATORS[_operator_index(which)]
            tgt = self.layout(op.target)
            coo = _Coo()
            for block in op.blocks:
                parts, failed = PARTS[op.target][block.kind], {}
                for st in self.stacks(block.builder):
                    for part, shift in parts:
                        rows = tgt.indices(block.kind, st.ids, part)
                        coo.add(rows, st.globals, st.op if len(parts) == 1 else self._project(
                            block.kind, st.ids, part, self.k + shift, self.k, st.op, failed))
                if failed:
                    raise failed[min(failed)]
            self._globals[which] = coo.build((tgt.total, self.layout(op.source).total))
        return self._globals[which]

    gradient = property(lambda self: self.operator("gradient"), doc="Xgrad -> Xcurl.")
    curl = property(lambda self: self.operator("curl"), doc="Xcurl -> Xdiv.")
    divergence = property(lambda self: self.operator("divergence"), doc="Xdiv -> Pk.")

    # -- interpolation and tail maps --------------------------------------------

    def interpolate_grad(self, fn) -> np.ndarray:
        """Interpolate a scalar field: vertex values + L2 projections.

        ``fn`` is vectorised: it maps an ``(n, 3)`` array of points to ``n``
        values (a scalar broadcasts).  It is called once on the vertices and
        once on each stack of a size group's quadrature points (at most
        ``_STACK_POINTS`` or one entity's).  A list of fields, or a
        :class:`MonomialField`, gives one interpolate per field or monomial,
        as the rows of an array; the bases are then evaluated, and each
        group's Gram conditioning checked, once for all of them, while each
        field keeps its own moments and solve.  A failing solve names the lowest failing entity
        of the first kind that fails.
        """
        fields = list(fn) if isinstance(fn, (list, tuple)) else [fn]

        def values(points):
            return np.concatenate([_field_values(f, points) for f in fields], axis=1)

        lay, k = self.layout("Xgrad"), self.k
        vertex_dofs = lay.indices("vertex", np.arange(self.mesh.n_vertices), "val")[:, 0]
        at_vertices = values(self.mesh.vertices)
        out = np.zeros((at_vertices.shape[1], lay.total))
        out[:, vertex_dofs] = at_vertices.T
        for kind in KINDS[1:] if k else []:
            failed: dict[int, ConditioningError] = {}
            for grp, (points, weights, *_) in zip(self.mesh.groups(kind), self._rule_store(kind)):
                ids = grp.ids
                rhs = np.empty((len(out), len(ids), _n(kind, k - 1), 1))
                for part in _slices(len(ids), weights.shape[1], _STACK_POINTS):
                    pts, w = points[part], weights[part]
                    phi_t = self._eval(kind, ids[part], pts, k - 1).swapaxes(1, 2)
                    vals = values(pts.reshape(-1, 3))
                    for f, column in enumerate(vals.T):
                        rhs[f, part] = phi_t @ (w * column.reshape(w.shape))[..., None]
                sol, errors = stacked_solve(self._grams(kind, ids, k - 1, k - 1), rhs,
                                            lambda g: f"interpolation on {kind} {ids[g]}")
                failed.update((int(ids[g]), err) for g, err in errors.items())
                out[:, lay.indices(kind, ids, "poly")] = sol[..., 0]
            if failed:
                raise failed[min(failed)]
        return out if isinstance(fn, (list, tuple, MonomialField)) else out[0]

    @property
    def head_column(self) -> np.ndarray:
        """Interpolate of the constant 1 (the complex head applied to 1)."""
        lay = self.layout("Xgrad")
        out = np.zeros(lay.total)
        for kind, ((part, _),) in PARTS["Xgrad"].items():
            # the constant monomial is the first basis member
            if lay.dim(kind, part):
                out[lay.indices(kind, np.arange(entity_count(self.mesh, kind)), part)[:, 0]] = 1.0
        return out


# ---------------------------------------------------------------------------
# degree-0 closed forms

def ddr0_closed_forms(mesh: Mesh, orientation: OrientationTable
                      ) -> tuple[CsrMatrix, CsrMatrix, CsrMatrix]:
    """Degree-0 gradient/curl/divergence from the boundary-value formulas.

    grad: (q_V2 - q_V1)/|E| per edge; curl: -(1/|F|) sum omega_FE |E| v_E;
    div: (1/|T|) sum omega_TF |F| w_F: each CW coboundary's signs scaled by
    the measure of the source entity over that of the target (one on
    vertices).  Must match the generically assembled degree-0 operators
    entrywise.
    """
    measures = [orientation.geometry(kind).measure for kind in KINDS]
    return tuple(CsrMatrix.from_coo((len(target), len(source)), rows, cols,
                                    signs * source[cols] / target[rows])
                 for (rows, cols, signs), source, target
                 in zip(_signed_incidences(mesh, orientation), measures, measures[1:]))
