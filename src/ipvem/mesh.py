"""Polygonal meshes of a rectangular domain: construction, generation, queries.

A finished :class:`PolygonalMesh` is immutable in practice (nothing mutates it
after ``build_mesh``) and safe to share across threads for read-only queries.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Voronoi, cKDTree

log = logging.getLogger(__name__)

BOUNDARY = -1

#: relative tolerance for the tiling-area check of generated meshes
AREA_RTOL = 1e-12


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh text payload."""


class MeshGenerationError(MeshError):
    """Degenerate generator configuration or failed generation."""


@dataclass(eq=False)
class CellGeometry:
    """Geometric data of one polygonal cell.

    Normals point outward; tangents follow the counter-clockwise loop, so
    n.t = 0 with both unit length, and the centroid fan triangles all have
    positive signed area for star-shaped cells.
    """

    cell_id: int
    vertices: np.ndarray        # (m, 2) loop in CCW order
    diameter: float
    area: float
    centroid: np.ndarray
    edge_lengths: np.ndarray    # (m,)
    normals: np.ndarray         # (m, 2) outward unit normals
    tangents: np.ndarray        # (m, 2) unit tangents along the loop
    fan_areas: np.ndarray       # (m,) signed areas of centroid fan triangles

    @property
    def n_edges(self):
        return len(self.vertices)

    @property
    def perimeter(self):
        return float(self.edge_lengths.sum())

    @property
    def star_shaped(self):
        return bool(np.all(self.fan_areas > 0.0))

    @property
    def edge_midpoints(self):
        return 0.5 * (self.vertices + np.roll(self.vertices, -1, axis=0))


@dataclass(frozen=True)
class VirtualTriangle:
    """Edge endpoints joined to the centroid of one incident cell."""

    edge_id: int
    cell_id: int
    vertices: np.ndarray
    area: float


@dataclass
class MeshQualityReport:
    min_diameter: float
    max_diameter: float
    min_edge_ratio: float          # min over cells of (shortest edge)/h_K
    min_fan_aspect: float          # min over fan triangles of 2|T|/longest_side^2
    max_edges_per_cell: int
    star_shaped: np.ndarray        # per-cell flag

    @property
    def all_star_shaped(self):
        return bool(np.all(self.star_shaped))


def _signed_area(loop):
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _polygon_centroid(loop, area):
    x, y = loop[:, 0], loop[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    cx = float(np.dot(x + xn, cross)) / (6.0 * area)
    cy = float(np.dot(y + yn, cross)) / (6.0 * area)
    return np.array([cx, cy])


class PolygonalMesh:
    """Vertices, CCW cell loops, and oriented edges with cell adjacency.

    ``edges[e] = (tail, head)`` as traversed by the left cell; the right cell
    (``BOUNDARY`` if none) traverses head->tail.  Geometry is cached per cell.
    """

    def __init__(self, vertices, cells, edges, edge_cells, cell_edges):
        self.vertices = vertices
        self.cells = cells
        self.edges = edges
        self.edge_cells = edge_cells
        self.cell_edges = cell_edges
        self._geometry = [None] * len(cells)
        self.boundary_edge = edge_cells[:, 1] == BOUNDARY
        bvert = np.zeros(len(vertices), dtype=bool)
        bvert[self.edges[self.boundary_edge].ravel()] = True
        self.boundary_vertex = bvert
        self.lloyd_movement = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    def geometry(self, cell_id):
        geom = self._geometry[cell_id]
        if geom is None:
            geom = cell_geometry(self, cell_id)
            self._geometry[cell_id] = geom
        return geom

    def total_area(self):
        return sum(self.geometry(c).area for c in range(self.n_cells))

    def max_diameter(self):
        return max(self.geometry(c).diameter for c in range(self.n_cells))


def cell_geometry(mesh, cell_id):
    """Diameter, area, centroid and per-edge frames of one cell."""
    loop = mesh.vertices[mesh.cells[cell_id]]
    area = _signed_area(loop)
    if area <= 0.0:
        raise MeshError(f"cell {cell_id} is not counter-clockwise or has nonpositive area")
    centroid = _polygon_centroid(loop, area)
    diffs = loop[:, None, :] - loop[None, :, :]
    diameter = float(np.sqrt((diffs**2).sum(axis=2).max()))
    edge_vec = np.roll(loop, -1, axis=0) - loop
    lengths = np.linalg.norm(edge_vec, axis=1)
    if np.any(lengths <= 0.0):
        raise MeshError(f"cell {cell_id} has a zero-length edge")
    tangents = edge_vec / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    rel = loop - centroid
    rel_next = np.roll(rel, -1, axis=0)
    fan = 0.5 * (rel[:, 0] * rel_next[:, 1] - rel_next[:, 0] * rel[:, 1])
    return CellGeometry(
        cell_id=cell_id,
        vertices=loop,
        diameter=diameter,
        area=area,
        centroid=centroid,
        edge_lengths=lengths,
        normals=normals,
        tangents=tangents,
        fan_areas=fan,
    )


def virtual_triangles(mesh, edge_id):
    """One triangle per incident cell: edge endpoints plus the cell centroid."""
    tail, head = mesh.edges[edge_id]
    a, b = mesh.vertices[tail], mesh.vertices[head]
    tris = []
    for cid in mesh.edge_cells[edge_id]:
        if cid == BOUNDARY:
            continue
        apex = mesh.geometry(cid).centroid
        area = 0.5 * abs((b - a)[0] * (apex - a)[1] - (b - a)[1] * (apex - a)[0])
        if area <= 0.0:
            raise MeshError(f"degenerate virtual triangle on edge {edge_id}, cell {cid}")
        tris.append(VirtualTriangle(edge_id, int(cid), np.array([a, b, apex]), float(area)))
    return tris


def mesh_quality(mesh):
    """Quality census; flags star-shapedness violations instead of failing."""
    diams, edge_ratio, fan_aspect, star = [], [], [], []
    max_edges = 0
    for c in range(mesh.n_cells):
        g = mesh.geometry(c)
        diams.append(g.diameter)
        edge_ratio.append(g.edge_lengths.min() / g.diameter)
        star.append(g.star_shaped)
        max_edges = max(max_edges, g.n_edges)
        loop = g.vertices
        nxt = np.roll(loop, -1, axis=0)
        for i in range(g.n_edges):
            tri = np.array([g.centroid, loop[i], nxt[i]])
            sides = np.linalg.norm(np.roll(tri, -1, axis=0) - tri, axis=1)
            fan_aspect.append(2.0 * abs(g.fan_areas[i]) / sides.max() ** 2)
    return MeshQualityReport(
        min_diameter=min(diams),
        max_diameter=max(diams),
        min_edge_ratio=min(edge_ratio),
        min_fan_aspect=min(fan_aspect),
        max_edges_per_cell=max_edges,
        star_shaped=np.array(star),
    )


def build_mesh(vertices, cells, fix_orientation=False):
    """Assemble and validate a mesh from vertices and cell loops.

    Checks the structural invariants: CCW simple cells with positive area,
    interior edges shared by exactly two cells with opposite orientation, and
    the Euler relation V - E + F = 1 of a simply connected meshed domain.
    """
    if not cells:
        raise MeshError("a mesh needs at least one cell")
    vertices = np.asarray(vertices, dtype=float)
    loops = []
    for ci, cell in enumerate(cells):
        idx = np.asarray(cell, dtype=int)
        if len(idx) < 3:
            raise MeshError(f"cell {ci} has fewer than 3 vertices")
        if len(np.unique(idx)) != len(idx):
            raise MeshError(f"cell {ci} repeats a vertex")
        if idx.min() < 0 or idx.max() >= len(vertices):
            raise MeshError(f"cell {ci} references a vertex outside 0..{len(vertices) - 1}")
        area = _signed_area(vertices[idx])
        if area == 0.0:
            raise MeshError(f"cell {ci} has zero area")
        if area < 0.0:
            if not fix_orientation:
                raise MeshError(f"cell {ci} is clockwise")
            warnings.warn(f"cell {ci} was clockwise; loop reversed", stacklevel=2)
            idx = idx[::-1]
        loops.append(idx)

    edge_key = {}
    edges, edge_cells = [], []
    cell_edges = [[] for _ in loops]
    for ci, idx in enumerate(loops):
        m = len(idx)
        for j in range(m):
            tail, head = int(idx[j]), int(idx[(j + 1) % m])
            key = (min(tail, head), max(tail, head))
            if key not in edge_key:
                edge_key[key] = len(edges)
                edges.append((tail, head))
                edge_cells.append([ci, BOUNDARY])
                cell_edges[ci].append((edge_key[key], +1))
            else:
                e = edge_key[key]
                if edge_cells[e][1] != BOUNDARY:
                    raise MeshError(f"edge {key} shared by more than two cells")
                if (head, tail) != edges[e]:
                    raise MeshError(f"edge {key} traversed twice in the same direction")
                edge_cells[e][1] = ci
                cell_edges[ci].append((e, -1))

    mesh = PolygonalMesh(
        vertices=vertices,
        cells=loops,
        edges=np.array(edges, dtype=int),
        edge_cells=np.array(edge_cells, dtype=int),
        cell_edges=cell_edges,
    )
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_cells
    if euler != 1:
        raise MeshError(f"Euler relation violated: V - E + F = {euler}, expected 1")
    return mesh


def validate_tiling(mesh, expected_area, rtol=AREA_RTOL):
    total = mesh.total_area()
    if abs(total - expected_area) > rtol * expected_area:
        raise MeshError(f"cell areas sum to {total!r}, expected {expected_area!r}")


def generate_uniform_squares(n):
    """n x n uniform square tiling of the unit square."""
    if n < 1:
        raise ValueError("need at least one cell per side")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    cells = []
    for j in range(n):
        for i in range(n):
            v0 = j * (n + 1) + i
            cells.append([v0, v0 + 1, v0 + n + 2, v0 + n + 1])
    mesh = build_mesh(vertices, cells)
    validate_tiling(mesh, 1.0)
    return mesh


def _voronoi_cells_unit_square(points):
    """Clipped Voronoi cells of generators inside (0,1)^2.

    Generators are mirrored across the four domain edges, so the bisectors
    with the mirror images are exactly the domain boundary and every original
    cell comes out clipped to the square.
    """
    n = len(points)
    mirrored = np.vstack(
        [
            points,
            np.column_stack([-points[:, 0], points[:, 1]]),
            np.column_stack([2.0 - points[:, 0], points[:, 1]]),
            np.column_stack([points[:, 0], -points[:, 1]]),
            np.column_stack([points[:, 0], 2.0 - points[:, 1]]),
        ]
    )
    vor = Voronoi(mirrored)
    cells = []
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:
            raise MeshGenerationError(f"unbounded Voronoi cell for generator {i}")
        poly = vor.vertices[region]
        ang = np.arctan2(poly[:, 1] - points[i, 1], poly[:, 0] - points[i, 0])
        cells.append(poly[np.argsort(ang)])
    return cells


def _cells_to_mesh(polys, snap_tol=1e-9):
    """Merge shared polygon corners into a global vertex set and build the mesh.

    Near-coincident corners (degenerate Voronoi vertices from cocircular
    generator/mirror groups) are unified within ``snap_tol``; coordinates
    within the tolerance of the domain boundary snap onto it exactly.
    """
    all_pts = np.vstack(polys)
    for val in (0.0, 1.0):
        for d in (0, 1):
            close = np.abs(all_pts[:, d] - val) < snap_tol
            all_pts[close, d] = val
    tree = cKDTree(all_pts)
    parent = np.arange(len(all_pts))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in tree.query_pairs(snap_tol):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(len(all_pts))])
    unique_roots, canonical = np.unique(roots, return_inverse=True)
    vertices = all_pts[unique_roots]

    cells = []
    offset = 0
    for poly in polys:
        ids = canonical[offset : offset + len(poly)]
        offset += len(poly)
        keep = [int(ids[k]) for k in range(len(ids)) if ids[k] != ids[(k + 1) % len(ids)]]
        if len(keep) < 3:
            raise MeshGenerationError("cell degenerated to fewer than 3 vertices")
        cells.append(keep)
    return build_mesh(vertices, cells)


def generate_cvt(n_cells, seed=0, lloyd_iters=100, initial_points=None):
    """Centroidal Voronoi tessellation of the unit square.

    Starts from seeded uniform random generators (or ``initial_points``) and
    applies ``lloyd_iters`` Lloyd iterations, moving each generator to the
    centroid of its clipped cell.  Deterministic for a fixed seed.
    """
    if n_cells < 2:
        raise ValueError("need at least two generators")
    if lloyd_iters < 0:
        raise ValueError(f"lloyd_iters must be nonnegative, got {lloyd_iters}")
    if initial_points is not None:
        points = np.array(initial_points, dtype=float)
        if points.shape != (n_cells, 2):
            raise MeshGenerationError("initial_points shape does not match n_cells")
        if np.any(points <= 0.0) or np.any(points >= 1.0):
            raise MeshGenerationError("initial generators must lie strictly inside (0,1)^2")
    else:
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.05, 0.95, size=(n_cells, 2))
    dmin, _ = cKDTree(points).query(points, k=2)
    if dmin[:, 1].min() < 1e-10:
        raise MeshGenerationError("duplicate generator seeds")

    movements = []
    for it in range(lloyd_iters):
        polys = _voronoi_cells_unit_square(points)
        new_points = np.empty_like(points)
        for i, poly in enumerate(polys):
            area = _signed_area(poly)
            new_points[i] = _polygon_centroid(poly, area)
        move = float(np.max(np.linalg.norm(new_points - points, axis=1)))
        movements.append(move)
        points = new_points
    if movements:
        log.info(
            "lloyd relaxation: %d iterations, final max generator movement %.3e",
            len(movements),
            movements[-1],
        )

    mesh = _cells_to_mesh(_voronoi_cells_unit_square(points))
    mesh.lloyd_movement = movements
    validate_tiling(mesh, 1.0)
    return mesh


def export_mesh(mesh):
    """Serialize a mesh to the ``vem-mesh 1`` text format."""
    lines = ["vem-mesh 1", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"cells {mesh.n_cells}")
    for cell in mesh.cells:
        lines.append(" ".join([str(len(cell))] + [str(int(i)) for i in cell]))
    return "\n".join(lines) + "\n"


def import_mesh(text):
    """Parse the ``vem-mesh 1`` text format.

    Clockwise cells are reoriented with a warning.  Input the method cannot
    handle raises :class:`MeshFormatError`, with the offending line number
    where there is one: a malformed, truncated or negative count, a vertex
    that is not a finite point of the unit square, a structural error, cell
    areas that do not sum to one, or a cell that is not star-shaped with
    respect to its centroid.
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
    vertices = np.empty((n_vertices, 2))
    for i in range(n_vertices):
        parts = lines[pos].split()
        if len(parts) != 2:
            fail(pos + 1, "expected 'x y'")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            fail(pos + 1, f"bad coordinate in {lines[pos]!r}")
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            fail(pos + 1, f"vertex {i} at ({x!r}, {y!r}) is not a finite point of the unit square")
        vertices[i] = x, y
        pos += 1

    n_cells = expect_count("cells")
    first_cell_line = pos + 1
    cells = []
    for i in range(n_cells):
        parts = lines[pos].split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            fail(pos + 1, f"bad cell line {lines[pos]!r}")
        if not values or len(values) != values[0] + 1:
            fail(pos + 1, "cell line must read 'k i1 ... ik'")
        idx = values[1:]
        if any(j < 0 or j >= n_vertices for j in idx):
            fail(pos + 1, f"vertex index out of range in cell {i}")
        cells.append(idx)
        pos += 1

    try:
        m = build_mesh(vertices, cells, fix_orientation=True)
        validate_tiling(m, 1.0)
    except MeshError as exc:
        raise MeshFormatError(str(exc)) from exc
    for c in range(m.n_cells):
        if not m.geometry(c).star_shaped:
            fail(first_cell_line + c, f"cell {c} is not star-shaped with respect to its centroid")
    return m
