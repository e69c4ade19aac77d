import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from ipvem import forms, mesh, projectors, system
from ipvem.basis import SIMPSON, monomial_exponents, monomials, triangle_quadrature

CVT_SEED = 7
CVT_LLOYD = 100


@pytest.fixture(scope="session")
def cvt32():
    return mesh.generate_cvt(32, seed=CVT_SEED, lloyd_iters=CVT_LLOYD)


@pytest.fixture(scope="session")
def cvt64():
    return mesh.generate_cvt(64, seed=CVT_SEED, lloyd_iters=CVT_LLOYD)


@pytest.fixture(scope="session")
def cvt_sequence(cvt32, cvt64):
    """The acceptance mesh family, built once per session."""
    seq = {32: cvt32, 64: cvt64}
    for n in (128, 256, 512):
        seq[n] = mesh.generate_cvt(n, seed=CVT_SEED, lloyd_iters=CVT_LLOYD)
    return seq


@pytest.fixture(scope="session")
def unit_square():
    """The elements of the one-cell unit square: row 0, with no padding."""
    return projectors.build_elements(mesh.generate_uniform_squares(1))


@pytest.fixture(scope="session")
def cvt32_elements(cvt32):
    return projectors.build_elements(cvt32)


def random_star_polygon(rng, n_min=3, n_max=9):
    """Random polygon star-shaped with respect to its own centroid."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        # nondegenerate edges, and the origin strictly inside the polygon
        if gaps.min() < 0.15 or gaps.max() > 2.5:
            continue
        radii = rng.uniform(0.5, 1.0, n)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        pts += rng.uniform(-0.3, 0.3, 2)
        if np.all(stack_of(pts).fan_areas > 0.0):
            return pts


def stack_of(points):
    """StackedGeometry of a standalone polygon (single-cell mesh): row 0."""
    m = mesh.build_mesh(np.asarray(points, dtype=float), [list(range(len(points)))])
    return m.stacked_geometry


def corners(g, c):
    """The corners of row ``c`` of a StackedGeometry in CCW order, (m, 2)."""
    return g.vertices[c, : g.valence[c]]


def dof_points(g, c):
    """The corners, then the edge midpoints, of row ``c``, (2m, 2)."""
    verts = corners(g, c)
    return np.vstack([verts, 0.5 * (verts + np.roll(verts, -1, axis=0))])


def basis_at(g, c, points, degree=2):
    """The scaled monomials of row ``c`` at ``points``, (npts, dim)."""
    scaled = (np.asarray(points, dtype=float) - g.centroid[c]) / g.diameter[c]
    return monomials(scaled[..., 0], scaled[..., 1], degree)


def derivatives(h, degree=2):
    """Test-local (Dx, Dy): ``Dx @ p`` holds the coefficients of the
    x-derivative of the polynomial ``p`` over the scaled monomials of a cell
    of diameter ``h``."""
    exps = monomial_exponents(degree)
    Dx, Dy = np.zeros((2, len(exps), len(exps)))
    for j, (p, q) in enumerate(exps):
        if p:
            Dx[exps.index((p - 1, q)), j] = p / h
        if q:
            Dy[exps.index((p, q - 1)), j] = q / h
    return Dx, Dy


def polygon_rule(g, c, order):
    """Test-local centroid-fan rule on row ``c``: each fan triangle carries
    the reference-triangle rule scaled by its signed area."""
    ref_pts, ref_w = triangle_quadrature(order)
    apex, verts = g.centroid[c], corners(g, c)
    pts, wts = [], []
    for v1, v2 in zip(verts, np.roll(verts, -1, axis=0)):
        jac = np.column_stack([v1 - apex, v2 - apex])
        pts.append(apex + ref_pts @ jac.T)
        wts.append(ref_w * np.linalg.det(jac))
    return np.vstack(pts), np.concatenate(wts)


class PolyCoeffs:
    """Coefficients over the scaled monomials of a cell (a test oracle)."""

    def __init__(self, center, diameter, values, degree=2):
        self.center, self.diameter, self.degree = np.asarray(center, dtype=float), diameter, degree
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(monomial_exponents(degree)),):
            raise ValueError(f"coefficient length {self.values.shape} does not match degree {degree}")

    def __call__(self, points):
        return monomials(*((np.atleast_2d(points) - self.center) / self.diameter).T, self.degree) @ self.values


def dofs_of_polynomial(g, c, coeffs):
    """Evaluate the DoF functionals of row ``c`` on a known polynomial (a
    test oracle): values at the vertices and edge midpoints, then the cell
    mean by the cell's own fan rule."""
    poly = coeffs.values if isinstance(coeffs, PolyCoeffs) else np.asarray(coeffs, dtype=float)
    pts, w = polygon_rule(g, c, 4)
    mean = float(w @ (basis_at(g, c, pts) @ poly)) / g.area[c]
    return np.append(basis_at(g, c, dof_points(g, c)) @ poly, mean)


def operator_parts(d):
    """Test-local full-size operator parts of a discretization, the boundary
    DoFs included, each entry summed in the order the assembly sums it on the
    free DoFs: the cell blocks (the a-form plus the own-side edge terms) and
    the cross edge terms on all columns, scattered through one sorted key set
    with one bincount per part: ``hess`` is the a-form plus the edge terms and
    ``grad`` the b-form."""
    cell_forms = forms.build_local_forms(d.elements)
    traces = forms.build_edge_stencils(d.mesh, d.elements)
    mask, dofs, n = d.elements.dof_mask, d.elements.dofs.astype(np.int64), d.dof_map.n_dofs
    pair = mask[:, :, None] & mask[:, None, :]
    own, edges = system._edge_terms(traces, mask, dofs, n)
    edges = edges.tocoo()
    keys = (dofs[:, :, None] * n + dofs[:, None, :])[pair]
    slots, index = np.unique(np.concatenate([keys, edges.row.astype(np.int64) * n + edges.col]), return_inverse=True)
    indptr = np.searchsorted(slots, np.arange(n + 1) * n)
    a = (cell_forms.a + own)[pair]
    hess = np.bincount(index, weights=np.concatenate([a, edges.data]), minlength=len(slots))
    grad = np.bincount(index[: len(keys)], weights=cell_forms.b[pair], minlength=len(slots))

    def matrix(data):
        return sp.csr_matrix((data, slots % n, indptr), shape=(n, n))

    return types.SimpleNamespace(hess=matrix(hess), grad=matrix(grad))


def reference_operators(traces):
    """Test-local reference (J, A) of ``traces``: the jump operator (3 E, n)
    and the average operator (E, n) on the n global DoFs, as sparse matrices
    built from each side (a local edge of one element) of the edges.

    Jump means left trace minus right trace and the average is the
    arithmetic mean, both with the left cell's outward normal; on boundary
    edges both reduce to the single trace.  The right cell's own normal is
    the opposite one, so its trace enters with a plus sign, and it walks the
    edge head to tail, so its points are reversed.  The polynomial c has the
    second normal derivative 2 (nx^2 c3 + nx ny c4 + ny^2 c5) / h^2.
    """
    elements = traces.elements
    g = elements.geometry
    shape = (len(traces.lam), elements.dofs.max() + 1)
    interior = np.zeros(shape[0], dtype=bool)
    interior[g.edge_ids[g.valid & ~g.left]] = True
    c, j = np.nonzero(g.valid)
    # one entry per side and own DoF column
    side, col = np.nonzero(elements.dof_mask[c])
    cs, js = c[side], j[side]
    rs, cols = g.edge_ids[cs, js], elements.dofs[cs, col]
    point = np.where(g.left[cs, js][:, None], [0, 1, 2], [2, 1, 0])
    jump_values = elements.edge_normal_trace[cs, js, :, col].ravel()
    jump = sp.csr_matrix(
        (jump_values, ((3 * rs[:, None] + point).ravel(), np.repeat(cols, 3))), shape=(3 * shape[0], shape[1])
    )
    P = elements.h1_coeff[cs, :, col]
    nx, ny = g.normals[cs, js, 0], g.normals[cs, js, 1]
    second = 2.0 * (nx * nx * P[:, 3] + nx * ny * P[:, 4] + ny * ny * P[:, 5]) / g.diameter[cs] ** 2
    second = np.where(interior[rs], 0.5, 1.0) * second
    return jump, sp.csr_matrix((second, (rs, cols)), shape=shape)


def reference_coupling(jump, average, lam, h):
    """Test-local reference of the edge terms of the jump and average
    operators ``jump`` (rows 3e + k) and ``average`` (row e) with the
    penalties ``lam`` and lengths ``h``, by sparse products, in one exactly
    symmetric matrix: the penalty form K^T K with
    K = diag(sqrt(lam_e SIMPSON[k])) J, plus the consistency pair j2 + j2^T
    with j2 = -A^T diag(h_e) S J, where S sums each edge's three rows with
    the Simpson weights."""
    simpson = sp.kron(sp.identity(len(lam)), SIMPSON[None, :], format="csr")
    k = sp.diags(np.sqrt(np.repeat(lam, 3) * np.tile(SIMPSON, len(lam)))) @ jump
    j2 = -(average.T @ (sp.diags(h) @ (simpson @ jump)))
    return k.T @ k + (j2 + j2.T)


def loops(m, per_corner=None):
    """The cells' pieces of a per-corner array of the mesh, one array per
    cell in corner order: the vertex loops, or ``per_corner`` (such as
    ``m.corner_edges``) if given."""
    return np.split(m.corners if per_corner is None else per_corner, m.offsets[1:-1])


def local_edge(m, c, e):
    """The corner of cell ``c`` whose edge is ``e``: the edge's row in the
    cell's stacked geometry."""
    return int(np.flatnonzero(loops(m, m.corner_edges)[c] == e)[0])


def cell_dofs(m, c):
    """Global indices of one cell's DoFs from the mesh: its vertices, its
    edge nodes and its moment, each in the cell's own order."""
    edges = loops(m, m.corner_edges)[c]
    return np.concatenate([loops(m)[c], m.n_vertices + edges, [m.n_vertices + m.n_edges + c]])


def edge_coupling(traces, e, lam=None):
    """Dense (j1, j1 + j2 + j2^T) of edge ``e`` alone on the global DoFs,
    from its rows of the reference operators (:func:`reference_operators`);
    ``lam`` overrides its penalty.  The penalty form j1 = J^T diag(weights) J
    is formed here, the whole block by :func:`reference_coupling`."""
    lam = traces.lam[[e]] if lam is None else np.array([lam], dtype=float)
    jump, average = reference_operators(traces)
    jump, average = jump[3 * e : 3 * e + 3], average[[e]]
    dense, weights = jump.toarray(), np.repeat(lam, 3) * SIMPSON
    return dense.T @ (weights[:, None] * dense), reference_coupling(jump, average, lam, traces.h[[e]]).toarray()


def is_positive_definite(system):
    """Positive definiteness of a reduced system by a dense symmetric
    factorization: ``(flag, smallest pivot or eigenvalue)``."""
    dense = system.matrix.toarray()
    try:
        return True, float(np.min(np.diag(np.linalg.cholesky(dense))) ** 2)
    except np.linalg.LinAlgError:
        return False, float(np.linalg.eigvalsh(dense)[0])


def _segments_cross(p, q, r, s):
    """Closed segments pq and rs intersect."""

    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    if orient(p, q, r) != orient(p, q, s) and orient(r, s, p) != orient(r, s, q):
        return True
    return False


def random_non_star_polygon(rng, n_min=5, n_max=10):
    """Random simple polygon that is not star-shaped with respect to its
    centroid: a star polygon whose vertices are pushed around at random,
    rejected when it self-intersects, is clockwise or nearly degenerate, or
    is still star-shaped."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(0.2, 1.0, n)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        pts += rng.uniform(-0.6, 0.6, (n, 2))
        edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
        if any(
            _segments_cross(*edges[i], *edges[k])
            for i in range(n)
            for k in range(i + 2, n)
            if not (i == 0 and k == n - 1)
        ):
            continue
        area = 0.5 * float(pts[:, 0] @ np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) @ pts[:, 1])
        if area <= 0.0:
            continue
        lengths = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        diameter = np.max(np.linalg.norm(pts[:, None] - pts[None], axis=2))
        # no sliver: every vertex keeps clear of every edge not its own
        clearance = min(
            _point_segment_distance(pts[v], *edges[i])
            for v in range(n)
            for i in range(n)
            if v != i and v != (i + 1) % n
        )
        if lengths.min() < 0.05 * diameter or clearance < 0.05 * diameter:
            continue
        if not np.all(stack_of(pts).fan_areas > 0.0):
            return pts


def _point_segment_distance(p, a, b):
    t = np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * (b - a))))


@st.composite
def non_star_polygons(draw):
    """Hypothesis strategy: simple polygons not star-shaped with respect to
    their centroid (see :func:`random_non_star_polygon`)."""
    return random_non_star_polygon(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
