"""Polygonal meshes of a rectangular domain: construction, generation, queries.

A finished :class:`PolygonalMesh` is immutable in practice (nothing mutates it
after it is built) and safe to share across threads for read-only queries.
"""

from __future__ import annotations

import functools
import itertools
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

log = logging.getLogger(__name__)

BOUNDARY = -1

#: tolerance of the tiling-area check: the cell areas sum to one within it
AREA_RTOL = 1e-12
#: distance within which Voronoi corners merge and snap onto the boundary
SNAP_TOL = 1e-9
#: in-circle values within this fraction of their magnitude count as cocircular
INCIRCLE_RTOL = 1e-12
#: fixed points more than sqrt(2) from the unit square that frame every Lloyd triangulation
GHOSTS = np.array([[-10.0, -10.0], [11.0, -10.0], [11.0, 11.0], [-10.0, 11.0]])
#: the finest parts a Lloyd repair splits a move into before qhull rebuilds
MOVE_STEPS = 64


class MeshError(Exception):
    """Invalid mesh topology or geometry.  ``cell`` is the cell whose corner
    met the fault, where one did, and ``mesh`` the mesh built before a
    global check failed."""

    def __init__(self, message, cell=None, mesh=None):
        super().__init__(message)
        self.cell, self.mesh = cell, mesh


class MeshFormatError(MeshError):
    """Malformed mesh text payload."""


class MeshGenerationError(MeshError):
    """Degenerate generator configuration or failed generation."""


class PolygonalMesh:
    """Vertices, CCW cell loops, and oriented edges with cell adjacency.

    The loops are one CSR pair: cell ``c``'s corners are the vertices
    ``corners[offsets[c]:offsets[c + 1]]``, and ``corner_edges[i]`` is the
    edge that leaves corner ``i``.  ``edges[e] = (tail, head)`` as traversed
    by the left cell; the right cell (``BOUNDARY`` if none) traverses
    head->tail.  The geometry of all cells is computed together on first use.
    """

    def __init__(self, vertices, corners, offsets, corner_edges, edges, edge_cells):
        self.vertices = vertices
        self.corners, self.offsets, self.corner_edges = corners, offsets, corner_edges
        self.edges = edges
        self.edge_cells = edge_cells
        self.boundary_edge = edge_cells[:, 1] == BOUNDARY
        bvert = np.zeros(len(vertices), dtype=bool)
        bvert[self.edges[self.boundary_edge].ravel()] = True
        self.boundary_vertex = bvert
        # per Lloyd step of a generated CVT, and the final cells: generator
        # movement (steps only), qhull calls, flips
        self.lloyd_movement = self.delaunay_calls = self.lloyd_flips = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.offsets) - 1

    @property
    def n_edges(self):
        return len(self.edges)

    @functools.cached_property
    def stacked_geometry(self):
        """The :class:`StackedGeometry` of every cell, computed once."""
        return stacked_geometry(self)

    def total_area(self):
        return float(self.stacked_geometry.area.sum())

    def min_edge_length(self):
        g = self.stacked_geometry
        return float(g.edge_lengths[g.valid].min())


@dataclass(eq=False)
class StackedGeometry:
    """Geometry of many cells at once, padded to their largest valence P.

    Row ``i`` describes cell ``i``.  Corner ``j < valence[i]`` is the
    cell's j-th vertex, and edge ``j`` runs from it to corner
    ``next_corner[i, j]``.  Past a cell's valence, ``vertices`` repeat the
    cell's first vertex and every per-edge array is zero, so padded edges
    drop out of every sum.
    """

    valence: np.ndarray         # (C,) vertices (= edges) of each cell
    valid: np.ndarray           # (C, P) corner j < valence
    next_corner: np.ndarray     # (C, P) the corner each edge runs to
    vertex_ids: np.ndarray      # (C, P) mesh vertex of each corner
    edge_ids: np.ndarray        # (C, P) mesh edge leaving each corner
    left: np.ndarray            # (C, P) the cell is that edge's left cell
    vertices: np.ndarray        # (C, P, 2)
    diameter: np.ndarray        # (C,)
    area: np.ndarray            # (C,)
    centroid: np.ndarray        # (C, 2)
    edge_lengths: np.ndarray    # (C, P)
    normals: np.ndarray         # (C, P, 2) outward unit normals
    tangents: np.ndarray        # (C, P, 2) unit tangents along the loop
    fan_areas: np.ndarray       # (C, P) signed areas of centroid fan triangles

    @property
    def heads(self):
        """(C, P, 2) the vertex each edge runs to."""
        return np.take_along_axis(self.vertices, self.next_corner[..., None], axis=1)


def stacked_geometry(mesh):
    """:class:`StackedGeometry` of every cell, on all corners at once."""
    offsets = mesh.offsets
    valence = np.diff(offsets)
    area, centroid = _centroids(mesh.vertices[mesh.corners], offsets)
    if np.any(area <= 0.0):
        c = int(np.argmax(area <= 0.0))
        raise MeshError(f"cell {c} is not counter-clockwise or has nonpositive area", cell=c)
    j = np.arange(valence.max())
    valid = j < valence[:, None]
    corner = offsets[:-1, None] + np.where(valid, j, 0)
    vertex_ids = mesh.corners[corner]
    edge_ids = np.where(valid, mesh.corner_edges[corner], 0)
    next_corner = np.where(j + 1 < valence[:, None], j + 1, 0)
    head_ids = np.take_along_axis(vertex_ids, next_corner, axis=1)
    left = valid & (mesh.edges[edge_ids, 0] == vertex_ids)

    loop, heads = mesh.vertices[vertex_ids], mesh.vertices[head_ids]
    dx, dy = (loop[:, :, None, i] - loop[:, None, :, i] for i in (0, 1))
    diameter = np.sqrt((dx * dx + dy * dy).max(axis=(1, 2)))
    edge_vec = heads - loop
    lengths = np.sqrt((edge_vec**2).sum(axis=2))
    if np.any(valid & (lengths <= 0.0)):
        c = int(np.argmax((valid & (lengths <= 0.0)).any(axis=1)))
        raise MeshError(f"cell {c} has a zero-length edge", cell=c)
    tangents = edge_vec / np.where(valid, lengths, 1.0)[..., None]
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=2)
    rel, rel_next = loop - centroid[:, None], heads - centroid[:, None]
    fan = 0.5 * (rel[..., 0] * rel_next[..., 1] - rel_next[..., 0] * rel[..., 1])
    return StackedGeometry(
        valence, valid, next_corner, vertex_ids, edge_ids, left,
        loop, diameter, area, centroid, lengths, normals, tangents, fan,
    )


def _first(mask):
    """Index of the first True entry of ``mask``, or its length if none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def build_mesh(vertices, cells, fix_orientation=False):
    """Assemble and validate a mesh from vertices and a sequence of cell
    loops, as :func:`_build_mesh` does from their CSR pair."""
    valence = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    corners = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.intp, count=valence.sum())
    return _build_mesh(vertices, corners, np.concatenate([[0], np.cumsum(valence)]), fix_orientation)


def _build_mesh(vertices, corners, offsets, fix_orientation=False):
    """Assemble and validate a mesh from vertices and the CSR pair of its
    cell loops: cell ``c``'s corners are ``corners[offsets[c]:offsets[c + 1]]``.

    Checks the structural invariants: CCW simple cells with positive area,
    interior edges shared by exactly two cells with opposite orientation, and
    the Euler relation V - E + F = 1 of a simply connected meshed domain.
    Each check runs on all corners at once and a faulty payload reports the
    fault that a walk through the cells, corner by corner, meets first.
    Edges are numbered by first traversal, and each corner's edge is kept
    as ``corner_edges``.
    """
    if len(offsets) < 2:
        raise MeshError("a mesh needs at least one cell")
    vertices = np.asarray(vertices, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    valence = np.diff(offsets)
    n_cells, n_vertices = len(valence), len(vertices)
    flat = np.array(corners, dtype=np.intp)
    owner = np.repeat(np.arange(n_cells), valence)

    by_vertex = np.lexsort((flat, owner))
    v, o = flat[by_vertex], owner[by_vertex]
    repeats = np.zeros(n_cells, dtype=bool)
    repeats[o[1:][(v[1:] == v[:-1]) & (o[1:] == o[:-1])]] = True
    outside = np.zeros(n_cells, dtype=bool)
    outside[owner[(flat < 0) | (flat >= n_vertices)]] = True
    # the signed areas of the cells before the first structural fault
    n_sound = _first((valence < 3) | repeats | outside)
    area = np.zeros(n_cells)
    if n_sound:
        loop = vertices[flat[: offsets[n_sound]]]
        nxt = loop[_next_corner(offsets[: n_sound + 1])]
        area[:n_sound] = 0.5 * np.add.reduceat(loop[:, 0] * nxt[:, 1] - nxt[:, 0] * loop[:, 1], offsets[:n_sound])
    sound = np.arange(n_cells) < n_sound
    faults = [
        (valence < 3, "has fewer than 3 vertices"),
        (repeats, "repeats a vertex"),
        (outside, f"references a vertex outside 0..{n_vertices - 1}"),
        (sound & (area == 0.0), "has zero area"),
        (sound & (area < 0.0) & (not fix_orientation), "is clockwise"),
    ]
    firsts = [_first(mask) for mask, _ in faults]
    bad = min(firsts)
    clockwise = np.flatnonzero(area[:bad] < 0.0)
    for ci in clockwise:
        warnings.warn(f"cell {ci} was clockwise; loop reversed", stacklevel=3)
    if bad < n_cells:
        raise MeshError(f"cell {bad} {faults[firsts.index(bad)][1]}", cell=bad)
    if len(clockwise):
        flip = np.isin(owner, clockwise)
        corner = np.arange(len(flat))
        corner[flip] = (offsets[owner] + offsets[owner + 1] - 1 - corner)[flip]
        flat = flat[corner]

    tail, head = flat, flat[_next_corner(offsets)]
    keys = np.minimum(tail, head) * n_vertices + np.maximum(tail, head)
    _, first_corner, key_id, count = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    # how many corners before each one traversed its edge
    occurrence = np.empty_like(key_id)
    occurrence[np.argsort(key_id, kind="stable")] = np.arange(len(key_id)) - np.repeat(np.cumsum(count) - count, count)
    same_way = (occurrence == 1) & (tail == tail[first_corner[key_id]])
    c = _first(same_way | (occurrence == 2))
    if c < len(flat):
        key = (int(min(tail[c], head[c])), int(max(tail[c], head[c])))
        fault = "shared by more than two cells" if occurrence[c] == 2 else "traversed twice in the same direction"
        raise MeshError(f"edge {key} {fault}", cell=int(owner[c]))

    left = np.sort(first_corner)
    edge_of_key = np.argsort(np.argsort(first_corner))
    corner_edge = edge_of_key[key_id]
    edge_cells = np.column_stack([owner[left], np.full(len(left), BOUNDARY)])
    second = occurrence == 1
    edge_cells[corner_edge[second], 1] = owner[second]
    mesh = PolygonalMesh(vertices, flat, offsets, corner_edge, np.column_stack([tail[left], head[left]]), edge_cells)
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_cells
    if euler != 1:
        raise MeshError(f"Euler relation violated: V - E + F = {euler}, expected 1", mesh=mesh)
    return mesh


def validate_tiling(mesh):
    """Raise :class:`MeshError` unless the cell areas sum to one."""
    total = mesh.total_area()
    if abs(total - 1.0) > AREA_RTOL:
        raise MeshError(f"cell areas sum to {total!r}, expected 1.0")


def generate_uniform_squares(n):
    """n x n uniform square tiling of the unit square."""
    if n < 1:
        raise ValueError("need at least one cell per side")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    v0 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    corners = np.column_stack([v0, v0 + 1, v0 + n + 2, v0 + n + 1]).ravel()
    mesh = _build_mesh(vertices, corners, np.arange(0, 4 * n * n + 1, 4))
    validate_tiling(mesh)
    return mesh


def _next_corner(offsets):
    """Index of each corner's successor within its own polygon of a CSR pair."""
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


def _centroids(xy, offsets):
    """Areas and centroids of every polygon of a CSR pair at once.

    Polygon ``i`` has the CCW corners ``xy[offsets[i]:offsets[i + 1]]``; the
    shoelace sums run over all corners together and ``np.add.reduceat``
    splits them by polygon.
    """
    starts = offsets[:-1]
    nxt = _next_corner(offsets)
    x, y = xy[:, 0], xy[:, 1]
    xn, yn = x[nxt], y[nxt]
    cross = x * yn - xn * y
    area = 0.5 * np.add.reduceat(cross, starts)
    cx = np.add.reduceat((x + xn) * cross, starts) / (6.0 * area)
    cy = np.add.reduceat((y + yn) * cross, starts) / (6.0 * area)
    return area, np.column_stack([cx, cy])


def _circumcentres(ax, ay, bx, by, cx, cy):
    """Circumcentres of the triangles abc, as their two coordinate rows."""
    bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    d = 2.0 * (bx * cy - by * cx)
    return ax + (cy * bb - by * cc) / d, ay + (bx * cc - cx * bb) / d


def _orient(ax, ay, bx, by, cx, cy):
    """Twice the signed area of triangle abc, positive when counter-clockwise."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """Whether d is inside the circumcircle of CCW abc by over INCIRCLE_RTOL, relative."""
    ax, ay, bx, by, cx, cy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    t1, t2, t3, t4, t5, t6 = bx * cy, cx * by, cx * ay, ax * cy, ax * by, bx * ay
    det = a2 * (t1 - t2) + b2 * (t3 - t4) + c2 * (t5 - t6)
    mag = a2 * (abs(t1) + abs(t2)) + b2 * (abs(t3) + abs(t4)) + c2 * (abs(t5) + abs(t6))
    return det > INCIRCLE_RTOL * mag


def _convex(ax, ay, bx, by, cx, cy, dx, dy):
    """Whether the quad a, b, d, c can take the diagonal ad (abd, adc CCW)."""
    return _orient(ax, ay, bx, by, dx, dy) > 0.0 and _orient(ax, ay, dx, dy, cx, cy) > 0.0


def _repoint(neighbors, t, old, new):
    """Make triangle ``t`` (if any) see ``new`` where it saw ``old``."""
    if t >= 0:
        row = neighbors[t]
        row[row == old] = new


class _RepairFailed(Exception):
    """A Lloyd step whose triangulation qhull must rebuild."""


class _LloydTriangulation:
    """The Delaunay triangulation behind the clipped Voronoi cells, kept from
    one Lloyd step to the next.  Its points are the n generators, the
    :data:`GHOSTS` and the images of generators ``src`` across sides ``side``
    (left, right, bottom, top).  ``simplices`` are CCW; ``neighbors[t, k]``
    is the triangle across the edge opposite corner k.
    """

    def __init__(self, n):
        self.n, self.budget, self.simplices = n, max(1, int(2 * np.sqrt(n))), None
        self.qhull_calls, self.flips = [], []

    def cells(self, points):
        """The CSR pair of :func:`_voronoi_cells_unit_square`; ``qhull_calls`` and ``flips`` count the step."""
        self.qhull_calls.append(0)
        self.flips.append(0)
        xy, owner = (self.simplices is not None and self._repair(points)) or self._rebuild(points)
        counts = np.bincount(owner, minlength=self.n)
        if (g := _first(counts < 3)) < self.n:
            raise MeshGenerationError(f"Voronoi cell of generator {g} has {counts[g]} corners, fewer than 3", cell=g)
        angle = np.arctan2(xy[:, 1] - points[:, 1][owner], xy[:, 0] - points[:, 0][owner])
        # corners sort by (owner, angle rank) as one intp key: an int32 key would wrap from ~19 000 cells
        rank = np.empty(len(xy), dtype=np.intp)
        rank[np.argsort(angle)] = np.arange(len(xy))
        order = np.argsort(owner.astype(np.intp, copy=False) * len(xy) + rank)
        return np.vstack([xy[:, 0][order], xy[:, 1][order]]).T, np.concatenate([[0], np.cumsum(counts)])

    def _points(self, points):
        """Generators, ghosts and mirror images, in the triangulation's order."""
        image = points[self.src]
        rows, axis = np.arange(len(image)), self.side // 2
        image[rows, axis] = 2.0 * (self.side % 2) - image[rows, axis]
        return np.vstack([points, GHOSTS, image])

    def _corners(self):
        """Coordinates of the corners of every triangle, as six (T,) rows."""
        (ax, bx, cx), (ay, by, cy) = (self.pts[:, i][self.simplices.T] for i in (0, 1))
        return ax, ay, bx, by, cx, cy

    def _dual(self):
        """Corners (with contiguous columns) and owners of the generator cells,
        or None if one is off the square."""
        flat = self.simplices.ravel()
        # flat entry k of the simplices is a corner of triangle k // 3
        mine = np.flatnonzero(flat < self.n)
        t = mine // 3
        xy = np.vstack([row[t] for row in _circumcentres(*self._corners())])
        return (xy.T, flat[mine]) if np.all((xy >= -SNAP_TOL) & (xy <= 1.0 + SNAP_TOL)) else None

    def _rebuild(self, points):
        """qhull on the generators, the ghosts and the images within ``reach``,
        which doubles from 1.5/sqrt(n) until the cells fit; repairs keep it."""
        self.reach = 1.5 / np.sqrt(self.n)
        while True:
            self.mirrored = np.abs(points[:, [0, 0, 1, 1]] - [0.0, 1.0, 0.0, 1.0]) < self.reach
            self.side, self.src = np.nonzero(self.mirrored.T)
            self.pts = self._points(points)
            tri = Delaunay(self.pts)
            self.qhull_calls[-1] += 1
            # in intp, which repairs keep: numpy gathers by int32 indices about 3x slower
            self.simplices, self.neighbors = tri.simplices.astype(np.intp), tri.neighbors.astype(np.intp)
            if (found := self._dual()) is not None:
                break
            if self.reach >= 1.0:
                raise MeshGenerationError("a Voronoi cell leaves the square with every generator mirrored")
            self.reach *= 2.0
        cw = _orient(*self._corners()) < 0.0
        self.simplices[cw], self.neighbors[cw] = tri.simplices[cw][:, [0, 2, 1]], tri.neighbors[cw][:, [0, 2, 1]]
        return found

    def _repair(self, points):
        """The cells from the last triangulation, or None to fall back to qhull:
        move the points, flip the edge an inverted triangle's corner crossed,
        insert new images, then Lawson flips from the failing in-circle edges."""
        near = np.abs(points[:, [0, 0, 1, 1]] - [0.0, 1.0, 0.0, 1.0]) < self.reach
        side, src = np.nonzero((near & ~self.mirrored).T)
        self.mirrored = self.mirrored | near
        self.src, self.side = np.concatenate([self.src, src]), np.concatenate([self.side, side])
        try:
            if not self._move(self._points(points)):
                return None
            for p in range(len(self.pts) - len(src), len(self.pts)):
                self._insert(p)
            s, nb = self.simplices.ravel(), self.neighbors.ravel()
            # every interior edge once, as 3 t + k: the edge of t opposite its corner k
            e = np.flatnonzero(nb > np.arange(nb.size) // 3)
            k, u = e % 3, 3 * nb[e]
            b, c = s[e - k + (k + 1) % 3], s[e - k + (k + 2) % 3]
            # u holds b, c and the corner d across the edge
            quad = (s[e], b, c, s[u] + s[u + 1] + s[u + 2] - b - c)
            x, y = self.pts[:, 0], self.pts[:, 1]
            fails = _incircle(*(w[v] for v in quad for w in (x, y)))
            if self.flips[-1] + np.count_nonzero(fails) > self.budget:
                return None
            stack = np.column_stack(np.divmod(e[fails], 3)).tolist()
            while stack:
                stack += self._flip(*stack.pop(), _incircle)
        except _RepairFailed:
            return None
        return self._dual()

    def _move(self, end):
        """Move the triangulated points to their rows of ``end`` (new images
        follow them), mending each inverted triangle by one flip; a move whose
        inversions one flip cannot mend is retried from the last mended
        position in halves, down to ``MOVE_STEPS`` parts.  False if stuck."""
        start, done, step = self.pts, 0.0, 1.0
        while done < 1.0:
            self.pts = end.copy()
            if done + step < 1.0:
                self.pts[: len(start)] += (done + step - 1.0) * (end[: len(start)] - start)
            inverted = np.flatnonzero(_orient(*self._corners()) <= 0.0).tolist()
            kept = self.simplices.copy(), self.neighbors.copy()
            if all(any(self._flip(t, k, _convex) for k in range(3)) for t in inverted) and not (
                inverted and np.any(_orient(*self._corners()) <= 0.0)
            ):
                done += step
            elif step * MOVE_STEPS > 1.0:
                self.simplices, self.neighbors = kept
                step /= 2.0
            else:
                return False
        return True

    def _flip(self, t, k, test):
        """Where ``test`` holds for a, b, c (t's corners from k) and d (across bc), give
        the quad a, b, d, c the diagonal ad, within ``budget``; returns edges to recheck."""
        s, nb = self.simplices, self.neighbors
        nt = nb[t].tolist()
        u = nt[k]
        if u < 0:
            return []
        st, nu = s[t].tolist(), nb[u].tolist()
        a, b, c = st[k], st[(k + 1) % 3], st[(k + 2) % 3]
        j = nu.index(t)
        d = s[u, j]
        xy = [w for v in (a, b, c, d) for w in self.pts[v].tolist()]
        if not test(*xy):
            return []
        self.flips[-1] += 1
        if self.flips[-1] > self.budget or not _convex(*xy):
            raise _RepairFailed
        nt_b, nt_c, nu_c, nu_b = nt[(k + 1) % 3], nt[(k + 2) % 3], nu[(j + 1) % 3], nu[(j + 2) % 3]
        s[t], s[u] = (a, b, d), (a, d, c)
        nb[t], nb[u] = (nu_c, u, nt_c), (nu_b, nt_b, t)
        _repoint(nb, nu_c, u, t)
        _repoint(nb, nt_b, t, u)
        return [[t, 0], [t, 2], [u, 0], [u, 1]]

    def _insert(self, p):
        """Split the one triangle that strictly contains point p in three."""
        ax, ay, bx, by, cx, cy = self._corners()
        px, py = self.pts[p]
        holds = (_orient(ax, ay, bx, by, px, py) > 0.0) & (_orient(bx, by, cx, cy, px, py) > 0.0)
        holds = np.flatnonzero(holds & (_orient(cx, cy, ax, ay, px, py) > 0.0))
        if len(holds) != 1:
            raise _RepairFailed
        t, t1, t2 = int(holds[0]), len(self.simplices), len(self.simplices) + 1
        (a, b, c), (na, nb, nc) = self.simplices[t].tolist(), self.neighbors[t].tolist()
        self.simplices = np.vstack([self.simplices, np.array([(b, c, p), (c, a, p)], self.simplices.dtype)])
        self.neighbors = np.vstack([self.neighbors, np.array([(t2, t, na), (t, t1, nb)], self.neighbors.dtype)])
        self.simplices[t], self.neighbors[t] = (a, b, p), (t1, t2, nc)
        _repoint(self.neighbors, na, t, t1)
        _repoint(self.neighbors, nb, t, t2)


def _voronoi_cells_unit_square(points):
    """Clipped Voronoi cells of generators inside (0,1)^2, as one CSR pair.

    Returns ``(xy, offsets)``: the CCW corners of generator ``i``'s cell are
    ``xy[offsets[i]:offsets[i + 1]]``.  A generator is mirrored across a side
    of the square when it lies within ``reach`` of it (PolyMesher's
    reflection), so the bisectors with the mirror images are the domain
    boundary.  The Voronoi diagram is the dual of the Delaunay triangulation:
    a generator's corners are the circumcentres of the triangles it belongs
    to.  A cocircular group (a generator and its mirror beside another such
    pair) gives several triangles with one circumcentre; those repeated
    corners add nothing to the shoelace sums and merge in
    :func:`_cells_to_mesh`.  Leaving out far mirrors can only make a cell
    larger than its true clipped cell, never smaller, and the true cells
    tile the square: so if every computed cell lies inside the square
    (within ``SNAP_TOL``), each one is exact.  Otherwise ``reach`` doubles;
    at ``reach >= 1``, all four sides mirror every generator (or it raises).

    Extra points keep the argument, so a Lloyd step may repair the last
    triangulation (:class:`_LloydTriangulation`).  Any image p' of a
    generator p is harmless, as |x - p'| >= |x - p| for every x in the
    square, so mirrors stay until a rebuild.  The :data:`GHOSTS`, more than
    sqrt(2) from the square, have bisectors that miss it; as the hull they
    bound every cell and hold every image inserted.  An in-circle value
    within ``INCIRCLE_RTOL`` of zero counts as Delaunay: either diagonal
    gives circumcentres within rounding, which ``SNAP_TOL`` merges.
    """
    return _LloydTriangulation(len(points)).cells(points)


def _cells_to_mesh(xy, offsets):
    """Merge shared polygon corners into a global vertex set and build the mesh.

    ``(xy, offsets)`` is the CSR pair of :func:`_voronoi_cells_unit_square`.
    Near-coincident corners (the corners shared by neighbouring cells, and
    the repeated circumcentres of cocircular generator/mirror groups) are
    unified within ``SNAP_TOL`` and take the
    coordinates of the lowest-numbered corner of their group; coordinates
    within the tolerance of the domain boundary snap onto it exactly.
    """
    all_pts = xy.copy()
    all_pts[np.abs(all_pts) < SNAP_TOL] = 0.0
    all_pts[np.abs(all_pts - 1.0) < SNAP_TOL] = 1.0
    pairs = cKDTree(all_pts).query_pairs(SNAP_TOL, output_type="ndarray")
    n_pts = len(all_pts)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_pts, n_pts))
    n_groups, group = connected_components(graph, directed=False)
    lowest = np.full(n_groups, n_pts)
    np.minimum.at(lowest, group, np.arange(n_pts))
    unique_roots, canonical = np.unique(lowest[group], return_inverse=True)
    vertices = all_pts[unique_roots]

    # drop a corner merged into the next one of its own cell
    keep = canonical != canonical[_next_corner(offsets)]
    kept = np.add.reduceat(keep, offsets[:-1])
    if (c := _first(kept < 3)) < len(kept):
        raise MeshGenerationError(f"cell of generator {c} degenerated to {kept[c]} vertices, fewer than 3", cell=c)
    return _build_mesh(vertices, canonical[keep], np.concatenate([[0], np.cumsum(kept)]))


def generate_cvt(n_cells, seed=0, lloyd_iters=100, initial_points=None):
    """Centroidal Voronoi tessellation of the unit square.

    Starts from seeded uniform random generators (or ``initial_points``) and
    applies ``lloyd_iters`` Lloyd iterations, moving each generator to the
    centroid of its clipped cell.  The first step calls qhull; later steps,
    and the final cells, repair the last triangulation and call qhull again
    only when the repair fails.  Deterministic for a fixed seed.
    """
    if n_cells < 2:
        raise ValueError("need at least two generators")
    if lloyd_iters < 0:
        raise ValueError(f"lloyd_iters must be nonnegative, got {lloyd_iters}")
    if initial_points is not None:
        points = np.array(initial_points, dtype=float)
        if points.shape != (n_cells, 2):
            raise MeshGenerationError("initial_points shape does not match n_cells")
        if not np.all((points > 0.0) & (points < 1.0)):
            raise MeshGenerationError("initial generators must lie strictly inside (0,1)^2")
    else:
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.05, 0.95, size=(n_cells, 2))
    dmin, _ = cKDTree(points).query(points, k=2)
    if dmin[:, 1].min() < 1e-10:
        raise MeshGenerationError("duplicate generator seeds")

    movements = []
    tri = _LloydTriangulation(n_cells)
    for it in range(lloyd_iters):
        _, new_points = _centroids(*tri.cells(points))
        movements.append(float(np.max(np.linalg.norm(new_points - points, axis=1))))
        points = new_points
    mesh = _cells_to_mesh(*tri.cells(points))
    if movements:
        log.info(
            "lloyd relaxation: %d iterations, final max generator movement %.3e, %d qhull calls, %d flips",
            len(movements), movements[-1], sum(tri.qhull_calls), sum(tri.flips),
        )
    mesh.lloyd_movement, mesh.delaunay_calls, mesh.lloyd_flips = movements, tri.qhull_calls, tri.flips
    validate_tiling(mesh)
    return mesh


def export_mesh(mesh):
    """Serialize a mesh to the ``vem-mesh 1`` text format."""
    lines = ["vem-mesh 1", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"cells {mesh.n_cells}")
    corners, bounds = mesh.corners.tolist(), mesh.offsets.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        lines.append(" ".join(map(str, [b - a, *corners[a:b]])))
    return "\n".join(lines) + "\n"


def import_mesh(text):
    """Parse the ``vem-mesh 1`` text format.

    Clockwise cells are reoriented with a warning.  Input the method cannot
    handle raises :class:`MeshFormatError`, with the offending line number
    where there is one: a malformed, truncated or negative count, a vertex
    that is not a finite point of the unit square, a structural or
    geometric error, a domain that is not the unit square (two coincident
    vertices, a vertex of no cell, a boundary edge off the square's sides),
    cell areas that do not sum to one, or a cell that is not star-shaped
    with respect to its centroid.  The lines are read and checked once, in
    order; a non-blank line after the declared cells is an error.
    """
    lines = text.splitlines()

    def fail(ln, msg):
        raise MeshFormatError(f"line {ln}: {msg}")

    if not lines or lines[0].strip() != "vem-mesh 1":
        fail(1, "expected header 'vem-mesh 1'")
    pos = 1

    def expect_count(keyword):
        nonlocal pos
        if pos >= len(lines):
            fail(len(lines), f"unexpected end of payload, expected '{keyword} N'")
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != keyword:
            fail(pos + 1, f"expected '{keyword} N'")
        try:
            count = int(parts[1])
        except ValueError:
            fail(pos + 1, f"bad {keyword} count {parts[1]!r}")
        if count < 0:
            fail(pos + 1, f"negative {keyword} count {count}")
        pos += 1
        if count > len(lines) - pos:
            fail(len(lines), f"unexpected end of payload within the {count} {keyword}")
        return count

    n_vertices = expect_count("vertices")
    first_vertex_line = pos + 1
    coords = []
    for i, line in enumerate(lines[pos : pos + n_vertices]):
        parts = line.split()
        if len(parts) != 2:
            fail(first_vertex_line + i, "expected 'x y'")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            fail(first_vertex_line + i, f"bad coordinate in {line!r}")
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            fail(first_vertex_line + i, f"vertex {i} at ({x!r}, {y!r}) is not a finite point of the unit square")
        coords += (x, y)
    vertices = np.array(coords).reshape(-1, 2)
    pos += n_vertices

    n_cells = expect_count("cells")
    first_cell_line = pos + 1
    corners, offsets = [], [0]
    for i, line in enumerate(lines[pos : pos + n_cells]):
        try:
            values = list(map(int, line.split()))
        except ValueError:
            fail(first_cell_line + i, f"bad cell line {line!r}")
        if not values or len(values) != values[0] + 1:
            fail(first_cell_line + i, "cell line must read 'k i1 ... ik'")
        index = values[1:]
        if index and not (min(index) >= 0 and max(index) < n_vertices):
            fail(first_cell_line + i, f"vertex index out of range in cell {i}")
        corners += index
        offsets.append(len(corners))
    for ln in range(pos + n_cells, len(lines)):
        if lines[ln].strip():
            fail(ln + 1, "unexpected content after the cells")

    def check_domain(m):
        # the domain is the unit square: no two vertices coincide (a slit),
        # every vertex is a corner, and every boundary edge lies on one side
        # (exactly, as export_mesh writes coordinates by repr)
        order = np.lexsort((vertices[:, 1], vertices[:, 0]))
        twins = np.flatnonzero(np.all(vertices[order[1:]] == vertices[order[:-1]], axis=1))
        if len(twins):
            k = twins[np.argmin(order[twins + 1])]
            fail(first_vertex_line + order[k + 1], f"vertex {order[k + 1]} coincides with vertex {order[k]}")
        unused = np.ones(n_vertices, dtype=bool)
        unused[m.corners] = False
        if np.any(unused):
            v = int(np.argmax(unused))
            fail(first_vertex_line + v, f"vertex {v} is a corner of no cell")
        ends = vertices[m.edges[m.boundary_edge]]
        off_sides = ~np.any((ends[:, 0] == ends[:, 1]) & ((ends[:, 0] == 0.0) | (ends[:, 0] == 1.0)), axis=1)
        if np.any(off_sides):
            c = int(m.edge_cells[m.boundary_edge, 0][off_sides].min())
            fail(first_cell_line + c, f"cell {c} has a boundary edge off the sides of the unit square")

    try:
        m = _build_mesh(vertices, corners, offsets, fix_orientation=True)
        g = m.stacked_geometry
        check_domain(m)
        validate_tiling(m)
    except MeshFormatError:
        raise
    except MeshError as exc:
        # a cell's fault names its line; a global fault names the first
        # domain fault of the mesh built, where it has one
        if exc.mesh is not None:
            check_domain(exc.mesh)
        if exc.cell is not None:
            fail(first_cell_line + exc.cell, str(exc))
        raise MeshFormatError(str(exc)) from exc
    not_star = np.any(g.valid & (g.fan_areas <= 0.0), axis=1)
    if np.any(not_star):
        c = int(np.argmax(not_star))
        fail(first_cell_line + c, f"cell {c} is not star-shaped with respect to its centroid")
    return m
