"""The Lloyd step's whole-array kernels against a per-triangle oracle.

The oracle below evaluates the circumcentre, orientation and in-circle
formulas of ``mesh`` one triangle (or one quad) at a time in Python floats,
reading each corner from the triangulation by its own index.  The kernels run
the same operations, in the same order, on coordinate rows gathered for all
triangles at once, so the two must agree bit for bit: a Lloyd repair finds
its failing edges with the array in-circle test and rechecks each flip with
the scalar one, and the generated meshes are pinned byte for byte
(``test_reference_meshes.py``).
"""

import numpy as np
import pytest

from ipvem import mesh


def orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def circumcentre(ax, ay, bx, by, cx, cy):
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    uu, vv = ux * ux + uy * uy, vx * vx + vy * vy
    d = 2.0 * (ux * vy - uy * vx)
    return ax + (vy * uu - uy * vv) / d, ay + (ux * vv - vx * uu) / d


def incircle_det(ax, ay, bx, by, cx, cy, dx, dy):
    """The in-circle determinant of d against abc and its magnitude bound."""
    ax, ay, bx, by, cx, cy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    t1, t2, t3, t4, t5, t6 = bx * cy, cx * by, cx * ay, ax * cy, ax * by, bx * ay
    det = a2 * (t1 - t2) + b2 * (t3 - t4) + c2 * (t5 - t6)
    mag = a2 * (abs(t1) + abs(t2)) + b2 * (abs(t3) + abs(t4)) + c2 * (abs(t5) + abs(t6))
    return det, mag


def incircle(*coords, rtol=mesh.INCIRCLE_RTOL):
    det, mag = incircle_det(*coords)
    return det > rtol * mag


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def interior_edges(simplices, neighbors):
    """Every interior edge once, in the repair's order, as the quad (a, b, c, d):
    t's corner a opposite the edge bc, and the corner d of the triangle across."""
    quads = []
    for t, (s, nb) in enumerate(zip(simplices, neighbors)):
        for k in range(3):
            if nb[k] > t:
                b, c = s[(k + 1) % 3], s[(k + 2) % 3]
                (d,) = set(simplices[nb[k]]) - {b, c}
                quads.append((s[k], b, c, d))
    return quads


def settled_triangulation(seed, n, steps):
    points = np.random.default_rng(seed).uniform(0.05, 0.95, size=(n, 2))
    tri = mesh._LloydTriangulation(n)
    for _ in range(steps):
        _, points = mesh._centroids(*tri.cells(points))
    return tri, points


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernels_on_random_triangles(seed):
    coords = np.random.default_rng(seed).uniform(-1.0, 2.0, size=(8, 500))
    rows = list(coords[:6])
    scalar = [list(map(float, c)) for c in coords.T]
    assert bits(mesh._orient(*rows)) == bits([orient(*c[:6]) for c in scalar])
    cx, cy = mesh._circumcentres(*rows)
    want = [circumcentre(*c[:6]) for c in scalar]
    assert bits(cx) == bits([w[0] for w in want]) and bits(cy) == bits([w[1] for w in want])
    ccw = np.where(mesh._orient(*rows) > 0.0, 1, 0)
    # the in-circle test needs abc counter-clockwise: swap b and c where it is not
    bx, by = np.where(ccw, coords[2], coords[4]), np.where(ccw, coords[3], coords[5])
    cx2, cy2 = np.where(ccw, coords[4], coords[2]), np.where(ccw, coords[5], coords[3])
    quad = [coords[0], coords[1], bx, by, cx2, cy2, coords[6], coords[7]]
    got = mesh._incircle(*quad)
    assert got.tolist() == [incircle(*map(float, q)) for q in zip(*quad)]
    assert 0 < np.count_nonzero(got) < len(got)


@pytest.mark.parametrize("seed, n, steps", [(3, 40, 3), (7, 120, 12), (21, 64, 30)])
def test_triangulation_kernels_match_per_triangle_oracle(seed, n, steps, monkeypatch):
    tri, points = settled_triangulation(seed, n, steps)
    # record the array in-circle calls of one more step with the triangulation they ran on
    calls, real_incircle = [], mesh._incircle

    def recording_incircle(*coords):
        if isinstance(coords[0], np.ndarray):
            calls.append((coords, tri.pts.tolist(), tri.simplices.tolist(), tri.neighbors.tolist()))
        return real_incircle(*coords)

    monkeypatch.setattr(mesh, "_incircle", recording_incircle)
    tri.cells(points)
    assert calls, "the step was not repaired"

    pts, simplices = tri.pts.tolist(), tri.simplices.tolist()
    corner_rows = tri._corners()
    per_triangle = [[w for v in s for w in pts[v]] for s in simplices]
    for i, row in enumerate(corner_rows):
        assert bits(row) == bits([c[i] for c in per_triangle])
    assert bits(mesh._orient(*corner_rows)) == bits([orient(*c) for c in per_triangle])
    assert min(orient(*c) for c in per_triangle) > 0.0
    centres = [circumcentre(*c) for c in per_triangle]
    cx, cy = mesh._circumcentres(*corner_rows)
    assert bits(cx) == bits([c[0] for c in centres]) and bits(cy) == bits([c[1] for c in centres])
    # the dual: each generator's corner is the circumcentre of one of its triangles
    xy, owner = tri._dual()
    mine = [(t, v) for t, s in enumerate(simplices) for v in s if v < n]
    assert owner.tolist() == [v for _, v in mine]
    assert bits(xy[:, 0]) == bits([centres[t][0] for t, _ in mine])
    assert bits(xy[:, 1]) == bits([centres[t][1] for t, _ in mine])

    for coords, pts, simplices, neighbors in calls:
        quads = interior_edges(simplices, neighbors)
        want = [[w for v in q for w in pts[v]] for q in quads]
        for i, row in enumerate(coords):
            assert bits(row) == bits([w[i] for w in want])
        assert real_incircle(*coords).tolist() == [incircle(*w) for w in want]


def test_cocircular_mirror_groups_are_decided_by_the_tolerance(monkeypatch):
    # generators p, q near the left side and their images p', q' across it are
    # the corners of an isosceles trapezoid: cocircular, so the in-circle
    # determinant is rounding alone and INCIRCLE_RTOL decides the test
    m = 300
    rng = np.random.default_rng(11)
    points = np.vstack([rng.uniform(0.01, 0.3, size=(m, 2)), rng.uniform(0.01, 0.3, size=(m, 2))])
    tri = mesh._LloydTriangulation(2 * m)
    tri.src, tri.side = np.arange(2 * m), np.zeros(2 * m, dtype=np.intp)
    pts = tri._points(points)
    images = 2 * m + len(mesh.GHOSTS)
    p, q = np.arange(m), m + np.arange(m)
    assert np.array_equal(pts[images + p], pts[p] * [-1.0, 1.0])
    # a = p and b, c = q, q' counter-clockwise; d = p'
    x, y = pts[:, 0], pts[:, 1]
    ccw = mesh._orient(x[p], y[p], x[q], y[q], x[images + q], y[images + q]) > 0.0
    quad = (p, np.where(ccw, q, images + q), np.where(ccw, images + q, q), images + p)
    coords = [w[v] for v in quad for w in (x, y)]
    scalar = [list(map(float, c)) for c in zip(*coords)]
    dets = np.array([incircle_det(*c)[0] for c in scalar])
    assert np.count_nonzero(dets > 0.0) >= 10 and np.count_nonzero(dets < 0.0) >= 10
    got = mesh._incircle(*coords)
    assert not got.any() and got.tolist() == [incircle(*c) for c in scalar]
    # without the tolerance the sign of the rounding decides each group
    monkeypatch.setattr(mesh, "INCIRCLE_RTOL", 0.0)
    exact_sign = mesh._incircle(*coords)
    assert exact_sign.tolist() == [incircle(*c, rtol=0.0) for c in scalar] == (dets > 0.0).tolist()
