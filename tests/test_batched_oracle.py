"""The whole-mesh kernels against a per-cell oracle.

The oracle below builds every element, local form, edge coupling block, load
and operator part one cell or one edge at a time: a Gauss-Legendre loop over
the edges for the monomial integrals, one 6 x 6 solve per cell and
projector, one dense block per edge scattered into the global matrices,
and one fan rule per cell for the loads.  Both sides read the same mesh
geometry, so they agree to roundoff (relative to each matrix's largest
entry).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ipvem import cli, forms, mesh, system, verify
from ipvem.basis import QUAD_ORDER, SIMPSON, gauss_legendre_01, monomial_exponents
from ipvem.mesh import BOUNDARY

from conftest import basis_at, cell_dofs, derivatives, dof_points, edge_coupling, local_edge, loops, polygon_rule

TOL = 1e-13


def integral_table(g, c, degree):
    """Scaled-monomial integrals of row ``c`` by the divergence theorem, edge
    by edge."""
    t, wt = gauss_legendre_01(degree // 2 + 2)
    total = np.zeros(len(monomial_exponents(degree)))
    m = g.valence[c]
    for i, (a, b) in enumerate(zip(g.vertices[c, :m], g.heads[c, :m])):
        dist = float((a - g.centroid[c]) @ g.normals[c, i])
        total += dist * g.edge_lengths[c, i] * (wt @ basis_at(g, c, a[None, :] + t[:, None] * (b - a)[None, :], degree))
    return total / (np.array([p + q for p, q in monomial_exponents(degree)]) + 2)


def oracle_element(m, cid):
    """Projectors and Gram matrices of one cell, from its own 6 x 6 systems."""
    g = m.stacked_geometry
    nv = g.valence[cid]
    area, normals, lengths = g.area[cid], g.normals[cid, :nv], g.edge_lengths[cid, :nv]
    perimeter = lengths.sum()
    n = 2 * nv + 1
    j = np.arange(nv)
    nodes = np.column_stack([j, nv + j, (j + 1) % nv])
    integrals = integral_table(g, cid, 4)
    index = {e: i for i, e in enumerate(monomial_exponents(4))}
    exps = monomial_exponents(2)
    mass = np.array([[integrals[index[(a + c, b + d)]] for c, d in exps] for a, b in exps])
    Dx, Dy = derivatives(g.diameter[cid])
    grad_gram = Dx.T @ mass @ Dx + Dy.T @ mass @ Dy
    Dxx, Dxy, Dyy = Dx @ Dx, Dx @ Dy, Dy @ Dy
    hess_gram = Dxx.T @ mass @ Dxx + 2.0 * Dxy.T @ mass @ Dxy + Dyy.T @ mass @ Dyy
    hessian = np.array([[Dxx[0], Dxy[0]], [Dxy[0], Dyy[0]]])

    D = np.empty((n, 6))
    D[: 2 * nv] = basis_at(g, cid, dof_points(g, cid))
    D[2 * nv] = integrals[:6] / area
    values = D[nodes]
    edge_dn = normals[:, 0, None, None] * (values @ Dx) + normals[:, 1, None, None] * (values @ Dy)
    weights = lengths[:, None] * SIMPSON

    B = np.zeros((n, 6))
    np.add.at(B, nodes, weights[:, :, None] * edge_dn)
    B[2 * nv] = -(hessian[0, 0] + hessian[1, 1]) * area
    B = B.T
    G = grad_gram.copy()
    G[0] = D[:nv].mean(axis=0)
    B[0] = np.where(np.arange(n) < nv, 1.0 / nv, 0.0)
    h1 = np.linalg.solve(G, B)

    trace = edge_dn @ h1
    flux = np.einsum("ek,ekn->en", weights, trace)
    ends = np.zeros((nv, n))
    ends[j, nodes[:, 2]] += 1.0
    ends[j, nodes[:, 0]] -= 1.0
    edge_grad = normals[:, :, None] * flux[:, None, :] + g.tangents[cid, :nv, :, None] * ends[:, None, :]
    rhs = np.einsum("abk,ea,ebn->kn", hessian, normals, edge_grad)
    hat = np.bincount(nodes.ravel(), weights=weights.ravel(), minlength=n) / perimeter
    H = hess_gram.copy()
    H[:3] = np.vstack([hat @ D, hat @ D @ Dx, hat @ D @ Dy])
    rhs[:3] = np.vstack([hat, edge_grad.sum(axis=0) / perimeter])
    h2 = np.linalg.solve(H, rhs)

    C = mass @ h1
    C[0] = np.where(np.arange(n) == 2 * nv, area, 0.0)
    l2 = np.linalg.solve(mass, C)
    return dict(
        g=g, c=cid, n=n, dof_matrix=D, mass=mass, grad_gram=grad_gram, hess_gram=hess_gram,
        h1=h1, h2=h2, l2=l2, trace=trace,
    )


def oracle_forms(el):
    P, stab = el["h2"], np.eye(el["n"]) - el["dof_matrix"] @ el["h2"]
    a = P.T @ el["hess_gram"] @ P + stab.T @ stab / el["g"].diameter[el["c"]] ** 2
    b = P.T @ el["grad_gram"] @ P + stab.T @ stab
    return a, b


def oracle_stencil(m, e, els, lam):
    """(cells, block, j1 block) of one edge over its cells' stacked DoFs."""
    left, right = (int(c) for c in m.edge_cells[e])
    j, g = local_edge(m, left, e), m.stacked_geometry
    h_e = g.edge_lengths[left, j]
    nx, ny = g.normals[left, j]

    def second(el):
        P = el["h1"]
        return 2.0 * (nx * nx * P[3] + nx * ny * P[4] + ny * ny * P[5]) / g.diameter[el["c"]] ** 2

    jump, avg, cells = els[left]["trace"][j], second(els[left]), (left,)
    if right != BOUNDARY:
        # the right cell walks the edge head to tail with the opposite normal
        jump = np.hstack([jump, els[right]["trace"][local_edge(m, right, e)][::-1]])
        avg = 0.5 * np.concatenate([avg, second(els[right])])
        cells = (left, right)
    j1 = lam * jump.T @ (SIMPSON[:, None] * jump)
    j2 = -np.outer(avg, h_e * SIMPSON @ jump)
    return cells, j1 + j2 + j2.T, j1


def oracle_penalty(m, e, n_k, a=2.0):
    h_e = float(np.linalg.norm(np.diff(m.vertices[m.edges[e]], axis=0)))
    tail, head = m.vertices[m.edges[e]]
    areas = []
    for cid in m.edge_cells[e]:
        if cid != BOUNDARY:
            apex = m.stacked_geometry.centroid[cid]
            areas.append(0.5 * abs((head - tail)[0] * (apex - tail)[1] - (head - tail)[1] * (apex - tail)[0]))
    scale = a * n_k * 2 * h_e**2
    return scale / 4.0 * (1.0 / areas[0] + 1.0 / areas[-1])


def oracle_load(el, f):
    """(f, l2 projection of each DoF basis function) on one cell's fan."""
    pts, w = polygon_rule(el["g"], el["c"], QUAD_ORDER)
    return el["l2"].T @ ((w * f(pts[:, 0], pts[:, 1])) @ basis_at(el["g"], el["c"], pts))


def scatter(index_sets, blocks, n):
    rows = np.concatenate([np.repeat(idx, len(idx)) for idx in index_sets])
    cols = np.concatenate([np.tile(idx, len(idx)) for idx in index_sets])
    vals = np.concatenate([b.ravel() for b in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def rel(got, expected):
    got = got.toarray() if sp.issparse(got) else np.asarray(got)
    expected = expected.toarray() if sp.issparse(expected) else np.asarray(expected)
    assert got.shape == expected.shape
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


@pytest.fixture(scope="module", params=["cvt64", "uniform4"])
def case(request):
    m = request.getfixturevalue("cvt64") if request.param == "cvt64" else mesh.generate_uniform_squares(4)
    msol = verify.example_solution(1)
    els = [oracle_element(m, c) for c in range(m.n_cells)]
    n_k = max(len(c) for c in loops(m))
    lams = [oracle_penalty(m, e, n_k) for e in range(m.n_edges)]
    stencils = [oracle_stencil(m, e, els, lams[e]) for e in range(m.n_edges)]
    dof_map = system.number_dofs(m)
    cell_idx = [cell_dofs(m, c) for c in range(m.n_cells)]
    edge_idx = [np.concatenate([cell_idx[c] for c in cells]) for cells, _, _ in stencils]
    ab = [oracle_forms(el) for el in els]
    n = dof_map.n_dofs
    a_only = scatter(cell_idx, [a for a, _ in ab], n)
    parts = dict(
        hess=a_only + scatter(edge_idx, [blk for _, blk, _ in stencils], n),
        grad=scatter(cell_idx, [b for _, b in ab], n),
        a_only=a_only,
        j1=scatter(edge_idx, [j1 for _, _, j1 in stencils], n),
    )
    rhs = []
    for density in (verify.biharmonic, verify.neg_laplacian):
        r = np.zeros(n)
        for c, el in enumerate(els):
            np.add.at(r, cell_idx[c], oracle_load(el, lambda x, y: density(msol.at(x, y))))
        rhs.append(r)
    oracle = dict(els=els, lams=lams, stencils=stencils, edge_idx=edge_idx, ab=ab, parts=parts, rhs=rhs)
    return m, cli.discretize(m, msol), oracle


class TestBatchedKernelsMatchPerCellOracle:
    def test_elements(self, case):
        m, d, oracle = case
        E, worst = d.elements, 0.0
        for c, ref in enumerate(oracle["els"]):
            n, nv = E.n_dofs[c], E.geometry.valence[c]
            for got, name in [
                (E.dof_matrix[c, :n], "dof_matrix"), (E.h1_coeff[c, :, :n], "h1"), (E.h2_coeff[c, :, :n], "h2"),
                (E.l2_coeff[c, :, :n], "l2"), (E.mass[c], "mass"), (E.grad_gram[c], "grad_gram"),
                (E.hess_gram[c], "hess_gram"), (E.edge_normal_trace[c, :nv, :, :n], "trace"),
            ]:
                worst = max(worst, rel(got, ref[name]))
        assert worst <= TOL

    def test_local_forms(self, case):
        m, d, oracle = case
        lf = forms.build_local_forms(d.elements)
        worst = 0.0
        for c, (a, b) in enumerate(oracle["ab"]):
            n = d.elements.n_dofs[c]
            worst = max(worst, rel(lf.a[c, :n, :n], a), rel(lf.b[c, :n, :n], b))
        assert worst <= TOL

    def test_edge_stencils(self, case):
        m, d, oracle = case
        traces = forms.build_edge_stencils(m, d.elements)
        assert rel(traces.lam, np.array(oracle["lams"])) <= TOL
        worst, n = 0.0, d.dof_map.n_dofs
        for e, (_, block, j1) in enumerate(oracle["stencils"]):
            got_j1, got_block = edge_coupling(traces, e)
            idx = [oracle["edge_idx"][e]]
            worst = max(worst, rel(got_block, scatter(idx, [block], n)), rel(got_j1, scatter(idx, [j1], n)))
        assert worst <= TOL

    def test_loads(self, case):
        m, d, oracle = case
        assert max(rel(d.rhs4, oracle["rhs"][0]), rel(d.rhs2, oracle["rhs"][1])) <= TOL

    def test_operator_parts(self, case):
        m, d, oracle = case
        free, parts = np.flatnonzero(d.dof_map.free), oracle["parts"]

        def symmetric_free(part):
            block = part.toarray()[np.ix_(free, free)]
            return 0.5 * (block + block.T)

        worst = max(rel(getattr(d.free_parts, name), symmetric_free(parts[name])) for name in ("hess", "grad"))
        assert worst <= TOL

    def test_energy_forms(self, case):
        # the cell-by-cell and edge-by-edge energies against the quadratic
        # forms of the oracle's full-size matrices, boundary DoFs included
        m, d, oracle = case
        data, parts = d.error_data, oracle["parts"]
        x = np.random.default_rng(5).standard_normal(d.dof_map.n_dofs)
        local = x[d.elements.dofs]
        for got, matrix in (
            (verify._cell_energy(data.cell_forms.a, local), parts["a_only"]),
            (verify._cell_energy(data.cell_forms.b, local), parts["grad"]),
            (verify._penalty_energy(data, x), parts["j1"]),
        ):
            assert got == pytest.approx(x @ (matrix @ x), rel=TOL, abs=0.0)
