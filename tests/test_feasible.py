from dataclasses import replace

import numpy as np
import pytest

from poisonlab import Dataset, LossSpec, TrainConfig, synth_gaussians
from poisonlab.feasible import (
    ClassConstraints,
    FeasibleSet,
    HalfSpace,
    InfeasibleSetError,
    ball_only_feasible,
    build_feasible_set,
    collapse_two_points,
    collapse_with_duals,
    margin_floor,
    poisoned_gradient_sum,
    verify_collapse,
)
from poisonlab.models import dloss_dmargin, train_with_duals


def ball_set(center, radius, d):
    return ball_only_feasible({1: center, -1: -np.asarray(center)},
                              {1: radius, -1: radius}, d)


def test_contains_ball_strict():
    F = ball_set(np.zeros(2), 1.0, 2)
    assert F.contains(np.array([0.5, 0.0]), 1)
    assert not F.contains(np.array([1.0, 0.0]), 1)  # boundary excluded


def test_contains_slab_boundary():
    cc = ClassConstraints(slab=(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0))
    F = FeasibleSet({1: cc, -1: cc}, 2)
    # projection score |(2,0).(-0.5,3)| = 1 sits on the boundary: excluded
    assert not F.contains(np.array([0.5, 3.0]), 1)
    assert F.contains(np.array([1.0, 3.0]), 1)


def test_project_identity_inside():
    F = ball_set(np.zeros(2), 2.0, 2)
    x = np.array([0.3, -0.4])
    np.testing.assert_array_equal(F.project(x, 1), x)


def test_project_ball_closed_form(rng):
    c = np.array([1.0, -2.0, 0.5])
    F = ball_set(c, 1.5, 3)
    for _ in range(10):
        x = c + rng.standard_normal(3) * 4.0
        got = F.project(x, 1)
        if np.linalg.norm(x - c) <= 1.5:
            expect = x
        else:
            expect = c + 1.5 * (x - c) / np.linalg.norm(x - c)
        np.testing.assert_allclose(got, expect, atol=1e-7)


def test_project_matches_grid_oracle(rng):
    cc = ClassConstraints(ball=(np.array([1.0, 1.0, 0.5]), 1.5),
                          slab=(np.array([2.0, 0.0, 1.0]),
                                np.array([1.0, 1.0, 0.5]), 1.0),
                          nonneg=True)
    F = FeasibleSet({1: cc, -1: cc}, 3)
    g = np.linspace(0.0, 2.6, 66)
    G = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    member = ((np.linalg.norm(G - cc.ball[0], axis=1) < 1.5)
              & (np.abs((G - cc.ball[0]) @ cc.slab[0]) < 1.0))
    pts = G[member]
    for _ in range(8):
        x0 = cc.ball[0] + rng.standard_normal(3) * 2.0
        xp = F.project(x0, 1)
        d_grid = np.min(np.linalg.norm(pts - x0, axis=1))
        assert np.linalg.norm(xp - x0) <= d_grid + 1e-3


def test_project_idempotent(rng):
    cc = ClassConstraints(ball=(np.zeros(3), 1.0),
                          slab=(np.array([1.0, 1.0, 0.0]), np.zeros(3), 0.5))
    F = FeasibleSet({1: cc, -1: cc}, 3)
    for _ in range(10):
        x = rng.standard_normal(3) * 3.0
        p1 = F.project(x, 1)
        p2 = F.project(p1, 1)
        assert np.linalg.norm(p1 - p2) <= 1e-8


def test_projection_optimality_certificate(rng):
    cc = ClassConstraints(ball=(np.zeros(3), 1.2),
                          slab=(np.array([1.0, 0.0, 1.0]), np.zeros(3), 0.6))
    F = FeasibleSet({1: cc, -1: cc}, 3)
    x0 = np.array([2.0, 1.0, -2.0])
    xp = F.project(x0, 1)
    for _ in range(100):
        z = rng.standard_normal(3)
        z = F.project(z, 1)
        assert np.dot(x0 - xp, z - xp) <= 1e-6


@pytest.mark.parametrize("radius", [None, 1.6], ids=["no-ball", "ball"])
def test_project_lp_set_satisfies_projection_inequality(radius):
    # non-negativity, the LP bound on the expected rounded distance, a slab
    # and a half-space, with and without a ball: the projection x_p of x0
    # satisfies (x0 - x_p).(z - x_p) <= 0 for every feasible z
    from poisonlab.rounding import LpConstraint
    gen = np.random.default_rng(0)
    d = 6
    mu = gen.uniform(0.5, 3.0, d)
    axis = gen.standard_normal(d)
    a = gen.standard_normal(d)
    cc = ClassConstraints(ball=None if radius is None else (mu, radius),
                          slab=(axis, mu, 0.8 * np.linalg.norm(axis)),
                          halfspaces=(HalfSpace(a, float(a @ mu) + 0.5),),
                          nonneg=True, lp=LpConstraint(mu, 2.0, np.full(d, 8)))
    F = FeasibleSet({1: cc, -1: cc}, d)
    Z = mu + 0.7 * gen.standard_normal((4000, d))
    Z = Z[[F.contains(z, 1) for z in Z]]
    assert len(Z) >= 200
    ball_active = 0
    for _ in range(8):
        x0 = mu + 2.0 * gen.standard_normal(d)
        xp = F.project(x0, 1)
        assert F.contains(xp, 1)
        assert np.max((Z - xp) @ (x0 - xp)) <= 1e-6
        ball_active += radius is not None and np.linalg.norm(xp - mu) > 0.99 * radius
    assert radius is None or ball_active >= 2


def test_infeasible_intersection_detected():
    cc = ClassConstraints(ball=(np.zeros(2), 1.0),
                          halfspaces=(HalfSpace(np.array([1.0, 0.0]), -5.0),))
    F = FeasibleSet({1: cc, -1: cc}, 2)
    with pytest.raises(InfeasibleSetError, match="empty"):
        F.project(np.zeros(2), 1)


def test_empty_bound_set_reported_empty():
    # the ball lies in x1 < 0, so it meets no non-negative point: the first
    # phase of the bound descent certifies that the set is empty
    cc = ClassConstraints(ball=(np.array([-2.0, 0.5]), 1.0), nonneg=True)
    F = FeasibleSet({1: cc, -1: cc}, 2)
    for solve in (lambda: F.project(np.ones(2), 1),
                  lambda: F.min_margin_point(np.ones(2), 1.0)):
        with pytest.raises(InfeasibleSetError, match="empty"):
            solve()


def test_uncertified_solve_raises_apart_from_empty(monkeypatch):
    # non-empty sets whose solvers are given no rounds, or an LP duality gap
    # no point can meet, report that they could not certify, not "empty"
    from poisonlab import feasible
    from poisonlab.rounding import LpConstraint
    monkeypatch.setattr(feasible, "_DESCENT_ROUNDS", 0)
    monkeypatch.setattr(feasible, "_GAP_TOL", -1.0)
    box = ClassConstraints(ball=(np.full(2, 0.5), 1.0), box=(0.0, 1.0))
    lp = ClassConstraints(nonneg=True, lp=LpConstraint(np.ones(2), 1.0,
                                                       np.full(2, 4)))
    F = FeasibleSet({1: box, -1: lp}, 2)
    for solve in (lambda: F.project(np.full(2, 3.0), 1),
                  lambda: F.min_margin_point(np.ones(2), 1.0),
                  lambda: F.project(np.full(2, 3.0), -1)):
        with pytest.raises(InfeasibleSetError, match="could not certify"):
            solve()


@pytest.mark.parametrize("grow", [True, False], ids=["pdas", "descent"])
def test_project_box_with_many_bounds_binding(monkeypatch, grow):
    # the ball holds the whole unit box, so the projection is np.clip.  From
    # the face table's point outside the bounds, the bound stage pins every
    # violated bound at once, so it solves on one face and on two, where
    # pinning one bound per step took 102 and 82; from the centre, inside
    # the set, it descends and pins the bounds one by one
    from poisonlab import feasible
    faces = []
    real = feasible._on_face
    monkeypatch.setattr(feasible, "_on_face",
                        lambda *a: faces.append(1) or real(*a))
    d = 100
    cc = ClassConstraints(ball=(np.full(d, 0.5), 10.0), box=(0.0, 1.0))
    F = FeasibleSet({1: cc, -1: cc}, d)
    if grow:
        project = lambda q: F.project(q, 1)
    else:
        t = feasible._class_faces(cc, d)
        args = (t.c, t.rr, t.A, t.b, *cc.bounds(d))
        project = lambda q: feasible._descend(*args, q, True, cc.ball[0],
                                              1e-10)
    np.testing.assert_array_equal(project(-np.ones(d)), np.zeros(d))
    if grow:
        assert len(faces) == 1
    q = 0.5 + 2.0 * np.random.default_rng(3).standard_normal(d)
    assert np.sum((q < 0.0) | (q > 1.0)) > 50
    faces.clear()
    np.testing.assert_allclose(project(q), np.clip(q, 0.0, 1.0), atol=1e-12)
    if grow:
        assert len(faces) <= 2


def test_min_margin_ball_closed_form(rng):
    c = np.array([0.5, -1.0])
    F = ball_set(c, 2.0, 2)
    for _ in range(10):
        theta = rng.standard_normal(2)
        x = F.min_margin_point(theta, 1.0)
        expect = c - 2.0 * theta / np.linalg.norm(theta)
        assert np.dot(theta, x) == pytest.approx(np.dot(theta, expect), abs=1e-6)


def test_min_margin_zero_theta_returns_center():
    c = np.array([0.7, 0.7])
    F = ball_set(c, 1.0, 2)
    np.testing.assert_allclose(F.min_margin_point(np.zeros(2), 1.0), c, atol=1e-9)


_C2 = np.array([1.0, 0.0])
_SLAB2 = (np.array([1.0, 0.5]), _C2, 0.8)
_GRID_SETS = {
    "ball-slab": ClassConstraints(ball=(_C2, 2.0), slab=_SLAB2),
    "ball-slab-1hs": ClassConstraints(
        ball=(_C2, 2.0), slab=_SLAB2,
        halfspaces=(HalfSpace(np.array([0.3, 1.0]), 1.4),)),
    "ball-slab-2hs": ClassConstraints(
        ball=(_C2, 2.0), slab=_SLAB2,
        halfspaces=(HalfSpace(np.array([0.3, 1.0]), 1.4),
                    HalfSpace(np.array([-0.2, -1.0]), 1.0))),
    # box and non-negativity bounds, pinned around the active-set solver
    "box-ball": ClassConstraints(ball=(np.array([0.8, 0.3]), 0.7),
                                 box=(0.0, 1.0)),
    "nonneg-ball-slab": ClassConstraints(ball=(_C2, 2.0), slab=_SLAB2,
                                         nonneg=True),
    # the bound stage must release a pinned bound on the first set; on the
    # second, pinning both violated bounds at once leaves the ball and rows
    # no point
    "nonneg-release": ClassConstraints(
        ball=(np.array([0.142, 0.243]), 1.075),
        slab=(np.array([0.153, -0.416]), np.array([0.142, 0.243]), 0.221),
        halfspaces=(HalfSpace(np.array([1.162, 0.692]), 0.596),), nonneg=True),
    "nonneg-pin-one": ClassConstraints(
        ball=(np.array([0.711, 0.097]), 1.227),
        slab=(np.array([-0.464, 0.772]), np.array([0.711, 0.097]), 0.45),
        halfspaces=(HalfSpace(np.array([0.379, -2.614]), -0.149),),
        nonneg=True),
}


def _grid_members(cc, G):
    m = np.ones(len(G), dtype=bool)
    if cc.ball is not None:
        m &= np.linalg.norm(G - cc.ball[0], axis=1) < cc.ball[1]
    if cc.slab is not None:
        a, c, hw = cc.slab
        m &= np.abs((G - c) @ a) < hw
    for hs in cc.halfspaces:
        m &= G @ hs.a <= hs.b
    if cc.box is not None:
        m &= np.all((G >= cc.box[0]) & (G <= cc.box[1]), axis=1)
    if cc.nonneg:
        m &= np.all(G >= 0.0, axis=1)
    return m


def test_min_margin_matches_grid():
    g = np.linspace(-2.2, 4.2, 1601)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    # twelve directions round the circle, so every corner of each set is
    # reached, plus both directions along the slab axis, where the optimum is
    # a whole slab face
    ang = 0.1 + np.arange(12) * np.pi / 6
    thetas = list(np.column_stack([np.cos(ang), np.sin(ang)]))
    thetas += [_SLAB2[0], -_SLAB2[0]]
    for name, cc in _GRID_SETS.items():
        F = FeasibleSet({1: cc, -1: cc}, 2)
        pts = G[_grid_members(cc, G)]
        for theta in thetas:
            x = F.min_margin_point(theta, 1.0)
            assert F.contains(x, 1), name
            assert np.dot(theta, x) <= np.min(pts @ theta) + 1e-3, name


def _set3(c, r, axis, hw, hss, bound):
    c = np.array(c)
    return ClassConstraints(ball=(c, r), slab=(np.array(axis), c, hw),
                            halfspaces=tuple(HalfSpace(np.array(a), b)
                                             for a, b in hss),
                            **({"box": (0.0, 1.0)} if bound == "box"
                               else {"nonneg": True}))


# d = 3 sets on which re-pinning the violated bounds cycled or pinned a face
# that misses the ball and rows, so the solve raised on a non-empty set
_PIN_TRAPS = [
    ("box-project", True, (1.916, -4.205, -0.028), _set3(
        (0.91, 0.24, 0.641), 1.042, (1.258, 2.381, 0.504), 1.457,
        [((-0.701, -0.173, 0.138), -0.77)], "box")),
    ("box-margin", False, (0.529, -2.344, 0.221), _set3(
        (0.278, 0.452, 0.257), 1.162, (0.626, 0.459, 1.355), 1.68,
        [((1.301, 0.575, 1.115), 0.537)], "box")),
    ("nonneg-project", True, (-4.834, 0.303, 0.487), _set3(
        (0.199, 0.93, 0.2), 0.974, (-1.866, -1.075, 1.631), 2.228,
        [((-0.347, -0.302, 1.037), -0.593), ((-0.168, -1.299, 1.266), -1.71)],
        "nonneg")),
    ("nonneg-margin", False, (2.235, -0.753, 0.955), _set3(
        (0.677, 0.039, 0.801), 1.019, (0.854, -1.547, -0.51), 0.386,
        [((0.547, -0.465, -1.271), -0.947)], "nonneg")),
]


@pytest.mark.parametrize("project,q,cc", [t[1:] for t in _PIN_TRAPS],
                         ids=[t[0] for t in _PIN_TRAPS])
def test_bounds_certify_where_pinning_cycles(project, q, cc):
    q = np.array(q)
    F = FeasibleSet({1: cc, -1: cc}, 3)
    x = F.project(q, 1) if project else F.min_margin_point(q, 1.0)
    assert F.contains(x, 1)
    c, r = cc.ball
    lo, hi = cc.bounds(3)
    g = [np.linspace(max(lo[i], c[i] - r), min(hi[i], c[i] + r), 81)
         for i in range(3)]
    G = np.stack(np.meshgrid(*g, indexing="ij"), -1).reshape(-1, 3)
    Z = G[_grid_members(cc, G)]
    assert len(Z) >= 100
    # optimal against every feasible grid point: the projection inequality,
    # or no grid point with a smaller margin
    if project:
        assert np.max((Z - x) @ (q - x)) <= 1e-6
    else:
        assert q @ x <= np.min(Z @ q) + 1e-6


def test_descent_alone_matches_grid():
    # from a point inside the set the bound stage descends with no growth,
    # and must release pins on this set to reach the optimum
    from poisonlab.feasible import _class_faces, _descend
    cc = _GRID_SETS["nonneg-release"]
    faces = _class_faces(cc, 2)
    args = (faces.c, faces.rr, faces.A, faces.b, *cc.bounds(2))
    x0 = cc.ball[0]
    assert cc.contains(x0)
    g = np.linspace(-2.2, 4.2, 401)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    Z = G[_grid_members(cc, G)]
    ang = 0.1 + np.arange(12) * np.pi / 6
    for theta in np.column_stack([np.cos(ang), np.sin(ang)]):
        x = _descend(*args, theta, False, x0, 1e-10)
        assert cc.contains(x)
        assert theta @ x <= np.min(Z @ theta) + 1e-6
        q = cc.ball[0] + 3.0 * theta
        x = _descend(*args, q, True, x0, 1e-10)
        assert cc.contains(x)
        assert np.max((Z - x) @ (q - x)) <= 1e-6


def test_first_phase_serves_where_growth_finds_no_point(monkeypatch):
    # on this set, pinning both bounds the face table's point leaves gives a
    # face that misses the ball and rows: growth returns None, the first
    # phase finds a point of the set, and the descent from it is optimal
    from poisonlab import feasible
    cc = _GRID_SETS["nonneg-pin-one"]
    F = FeasibleSet({1: cc, -1: cc}, 2)
    calls = []
    real = feasible._descend

    def recorded(c, *a, **kw):
        x = real(c, *a, **kw)
        calls.append((len(c), x))
        return x

    monkeypatch.setattr(feasible, "_descend", recorded)
    g = np.linspace(-2.2, 4.2, 1601)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    Z = G[_grid_members(cc, G)]
    served = {True: 0, False: 0}
    ang = 0.1 + np.arange(12) * np.pi / 6
    for theta in np.column_stack([np.cos(ang), np.sin(ang)]):
        for project in (True, False):
            calls.clear()
            if project:
                q = cc.ball[0] + 3.0 * theta
                x = F.project(q, 1)
                assert np.max((Z - x) @ (q - x)) <= 1e-6
            else:
                x = F.min_margin_point(theta, 1.0)
                assert theta @ x <= np.min(Z @ theta) + 1e-6
            assert F.contains(x, 1)
            if calls and calls[0][1] is None:
                # growth, then the first phase in (x, t), then the descent
                assert [n for n, _ in calls] == [2, 3, 2]
                served[project] += 1
    assert min(served.values()) >= 4, served


@pytest.mark.parametrize("cc,theta,expect", [
    # theta along the slab axis: the optimum is the slab face, the ball is
    # inactive, and the point returned is the face's point nearest the centre
    (ClassConstraints(ball=(_C2, 2.0), slab=_SLAB2), _SLAB2[0],
     _C2 - 0.8 * _SLAB2[0] / 1.25),
    # the vertex where a slab face meets a half-space, inside the ball
    (ClassConstraints(ball=(np.zeros(2), 2.0),
                      slab=(np.array([1.0, 0.0]), np.zeros(2), 1.0),
                      halfspaces=(HalfSpace(np.array([0.0, -1.0]), 0.5),)),
     np.array([1.0, 1.0]), np.array([-1.0, -0.5])),
    # the edge where two half-spaces meet, on the ball's sphere
    (ClassConstraints(ball=(np.zeros(3), 2.0),
                      halfspaces=(HalfSpace(np.array([-1.0, 0.0, 0.0]), 1.0),
                                  HalfSpace(np.array([0.0, -1.0, 0.0]), 1.0))),
     np.ones(3), np.array([-1.0, -1.0, -np.sqrt(2.0)])),
], ids=["slab-face", "vertex", "edge"])
def test_min_margin_on_faces_and_edges(cc, theta, expect):
    from poisonlab.feasible import _SHRINK, _FaceTable
    F = FeasibleSet({1: cc, -1: cc}, len(theta))
    x = F.min_margin_point(theta, 1.0)
    assert F.contains(x, 1)
    np.testing.assert_allclose(x, expect, atol=1e-7)
    # the face table certifies it: non-negative multipliers that make
    # theta + mu (x - c) + A^T nu vanish
    c, r = cc.ball
    A, b = cc.rows(len(theta))
    x2, mu, nu = _FaceTable(c, r * (1.0 - _SHRINK), A, b).solve(theta, False)
    np.testing.assert_array_equal(x2, x)
    assert mu >= 0.0 and (nu >= 0.0).all()
    np.testing.assert_allclose(theta + mu * (x - c) + A.T @ nu, 0.0, atol=1e-9)
    assert np.dot(theta, x) == pytest.approx(np.dot(theta, expect), abs=1e-7)


def active_set_oracle(c, rr, A, b, q, project):
    """The per-subset loop the face table replaced, kept as its reference:
    each active set S of the rows, by size, solved on its own."""
    import itertools
    import math
    k = len(b)
    z = q - c if project else q
    zn = math.sqrt(float(z @ z))
    cn = math.sqrt(float(c @ c))
    slack = b - A @ c
    row_n = np.sqrt(np.einsum("ij,ij->i", A, A))
    nu_tol = 1e-10 * zn
    AAt = A @ A.T
    Az = A @ z
    for size in range(min(k, len(c)) + 1):
        for S in itertools.combinations(range(k), size):
            S = list(S)
            G = AAt[S][:, S]
            if np.linalg.det(G) <= 1e-12 * np.prod(np.diag(G)):
                continue
            w, v = np.linalg.solve(G, np.column_stack([slack[S], Az[S]])).T
            u0 = A[S].T @ w
            pz = z - A[S].T @ v
            s2 = rr * rr - float(u0 @ u0)
            pn = math.sqrt(float(pz @ pz))
            if project:
                if s2 < 0.0 or (s2 == 0.0 and pn > 0.0):
                    continue
                t = 1.0 if pn * pn <= s2 else math.sqrt(s2) / pn
                mu, nu = 1.0 / t - 1.0, v - w / t
                u = u0 + t * pz
            elif pn > 1e-12 * zn:
                if s2 <= 0.0:
                    continue
                s = math.sqrt(s2)
                mu = pn / s
                u = u0 - (s / pn) * pz
                nu = -(v + mu * w)
            else:
                if s2 < 0.0:
                    continue
                mu, u = 0.0, u0
                nu = -v
            if (nu * row_n[S] < -nu_tol).any():
                continue
            un = math.sqrt(float(u @ u))
            row_tol = 1e-11 * (row_n * (cn + un) + np.abs(slack))
            if (A @ u - slack > row_tol).any():
                continue
            nu_all = np.zeros(k)
            nu_all[S] = nu
            x = (q + ((t - 1.0) * z + A[S].T @ (w - t * v)) if project
                 else c + u)
            return x, mu, nu_all
    return None


def _oracle_instance(gen, d):
    """A ball cut by k <= 5 rows: both faces of a slab (dependent rows),
    a row through the centre, and random rows, some of which may leave no
    point; on every fourth instance a last row does."""
    c = gen.standard_normal(d)
    r = gen.uniform(0.5, 2.0)
    rows, rhs = [], []
    if gen.random() < 0.7:
        ax = gen.standard_normal(d)
        t, hw = float(ax @ c) + gen.uniform(-0.5, 0.5), gen.uniform(0.1, 1.5)
        rows += [ax, -ax]
        rhs += [t + hw, hw - t]
    if gen.random() < 0.5:
        a = gen.standard_normal(d)
        rows.append(a)
        rhs.append(float(a @ c))
    while len(rows) < gen.integers(1, 6):
        a = gen.standard_normal(d)
        rows.append(a)
        rhs.append(float(a @ c) + gen.uniform(-1.2, 1.5) * r
                   * np.linalg.norm(a))
    if gen.random() < 0.25:
        a = gen.standard_normal(d)
        rows[-1], rhs[-1] = a, float(a @ c) - 1.5 * r * np.linalg.norm(a)
    return c, r, np.array(rows), np.array(rhs)


def check_certified(got, want, c, rr, A, b, q, project):
    """x agrees with the oracle's, and the multipliers certify it."""
    x, mu, nu = got
    np.testing.assert_allclose(
        x, want[0], rtol=0.0,
        atol=1e-9 * (1.0 + np.linalg.norm(want[0])))
    # the certificate: multipliers >= -tol on rows met by x, zero
    # off the active set, that make the Lagrangian stationary
    z = q - c if project else q
    zn = np.linalg.norm(z)
    row_n = np.linalg.norm(A, axis=1)
    assert mu >= 0.0
    assert (nu * row_n >= -1e-10 * zn).all()
    scale = 1.0 + np.linalg.norm(c) + np.linalg.norm(x)
    assert (A @ x - b <= 1e-9 * row_n * scale).all()
    active = nu != 0.0
    np.testing.assert_allclose((A @ x - b)[active], 0.0,
                               atol=1e-9 * scale)
    assert np.linalg.norm(x - c) <= rr * (1.0 + 1e-9)
    grad = (x - q) if project else q
    np.testing.assert_allclose(grad + mu * (x - c) + A.T @ nu, 0.0,
                               atol=1e-8 * (1.0 + zn) * (1.0 + mu))


def test_face_table_matches_active_set_oracle():
    # tolerance fixed before the table was written: the table factors each
    # active set by QR where the oracle solves the normal equations, and
    # stacks its sums, so x may differ by rounding, bounded here by
    # 1e-9 (1 + |x|)
    from poisonlab.feasible import _FaceTable
    gen = np.random.default_rng(7)
    solved = {True: 0, False: 0}
    empty = 0
    for trial in range(250):
        d = int(gen.choice([2, 3, 5, 8]))
        c, rr, A, b = _oracle_instance(gen, d)
        table = _FaceTable(c, rr, A, b)  # serves every query
        for _ in range(6):
            project = bool(gen.random() < 0.5)
            if project:
                q = c + gen.uniform(0.2, 3.0) * gen.standard_normal(d)
            elif gen.random() < 0.3:  # along a row: a whole face is optimal
                q = -gen.uniform(0.5, 2.0) * A[gen.integers(len(b))]
            else:
                q = gen.standard_normal(d)
            want = active_set_oracle(c, rr, A, b, q, project)
            got = table.solve(q, project)
            assert (got is None) == (want is None), (trial, project)
            if got is not None:
                check_certified(got, want, c, rr, A, b, q, project)
            if want is None:
                empty += 1
            else:
                solved[project] += 1
    assert min(solved.values()) > 200 and empty > 50, (solved, empty)


def test_face_table_certifies_near_parallel_faces():
    # margin solves captured from criterion 10's decoy-capped sets, stored
    # exactly so that no training rounding moves them: a slab face and the
    # decoy cap at cosine -0.98 are active at the optimum.  Solving the
    # normal equations squares those rows' conditioning, and the oracle
    # does, so each point is checked against its own certificate, which
    # proves it the global minimizer
    import json
    from pathlib import Path
    from poisonlab.feasible import _FaceTable
    doc = json.loads((Path(__file__).parent / "near_parallel_faces.json").read_text())
    for inst in doc["instances"]:
        c, A, b, q = (np.array(inst[k]) for k in ("c", "A", "b", "q"))
        got = _FaceTable(c, inst["rr"], A, b).solve(q, False)
        assert got is not None
        assert np.count_nonzero(got[2]) == 2 and got[1] > 0.0
        check_certified(got, got, c, inst["rr"], A, b, q, False)


def test_face_table_built_once_per_class(monkeypatch):
    # criterion 10's set: however many min-max iterations run, each class
    # builds its face table once, on its first solve
    from poisonlab import feasible
    from poisonlab.minmax import run_minmax_basic
    built = []
    real = feasible._class_faces

    def counted(cc, d):
        built.append(cc)
        return real(cc, d)

    monkeypatch.setattr(feasible, "_class_faces", counted)
    tr, _ = synth_gaussians(42, 2000, 20, 4.2)
    F = build_feasible_set(tr, 0.05)
    for n_burn in (5, 40):
        built.clear()
        run_minmax_basic(tr, 0.03, build_feasible_set(tr, 0.05), lam=0.1,
                         n_burn=n_burn)
        assert len(built) <= 2
    built.clear()
    run_minmax_basic(tr, 0.03, F, lam=0.1, n_burn=5)
    run_minmax_basic(tr, 0.03, F, lam=0.1, n_burn=5)
    assert len(built) == 2 and built[0] is not built[1]


def test_with_halfspace_builds_its_own_table():
    # the cut set answers with its new row active, not from the old table
    F = ball_set(np.zeros(3), 2.0, 3)
    theta = np.array([1.0, 0.0, 0.0])
    x = F.min_margin_point(theta, 1)
    np.testing.assert_allclose(x, [-2.0, 0.0, 0.0], atol=1e-6)
    G = F.with_halfspace(1, HalfSpace(np.array([-1.0, 0.0, 0.0]), 1.0))
    x2 = G.min_margin_point(theta, 1)
    assert G.contains(x2, 1)
    assert x2[0] == pytest.approx(-1.0, abs=1e-6)  # the new row is active
    assert G._tables[1] is not F._tables[1]
    np.testing.assert_array_equal(F.min_margin_point(theta, 1), x)


def test_max_loss_point_empty_decoy_set_raises(decoy_pair):
    from poisonlab.minmax import max_loss_point
    tr, _, good, empty = decoy_pair
    F = build_feasible_set(tr, 0.05).with_decoy_caps(
        empty.theta_decoy, LossSpec.hinge(), {1: 0.25, -1: 0.25})
    with pytest.raises(InfeasibleSetError):
        max_loss_point(good.theta_decoy.theta, F, LossSpec.hinge())


def test_min_margin_value_below_random_feasible(rng):
    cc = ClassConstraints(ball=(np.zeros(4), 1.5),
                          slab=(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(4), 0.7))
    F = FeasibleSet({1: cc, -1: cc}, 4)
    theta = rng.standard_normal(4)
    m_star = float(np.dot(theta, F.min_margin_point(theta, 1.0)))
    for _ in range(1000):
        z = F.project(rng.standard_normal(4) * 1.5, 1)
        assert m_star <= np.dot(theta, z) + 1e-6


def test_min_margin_unbounded_without_ball_or_box():
    cc = ClassConstraints(halfspaces=(HalfSpace(np.array([1.0, 0.0]), 1.0),))
    F = FeasibleSet({1: cc, -1: cc}, 2)
    with pytest.raises(InfeasibleSetError):
        F.min_margin_point(np.array([1.0, 0.0]), 1.0)


def test_margin_floor_inverts_losses():
    for loss in (LossSpec.hinge(), LossSpec.logistic(), LossSpec.smoothed_hinge(0.05)):
        for cap in (0.1, 0.5, 2.0):
            m = margin_floor(loss, cap)
            from poisonlab.models import loss_of_margin
            assert loss_of_margin(loss, np.array([m]))[0] == pytest.approx(cap, rel=1e-9)


def test_build_feasible_set_quantile_radii():
    tr, _ = synth_gaussians(4, 300, 5, 3.0)
    F = build_feasible_set(tr, 0.05)
    from poisonlab.defenses import DefenseKind, fit_detector, fit_thresholds
    beta = fit_detector(DefenseKind.l2(), tr)
    tau = fit_thresholds(DefenseKind.l2(), beta, tr, 0.05)
    for lab in (1, -1):
        c, r = F.for_label(lab).ball
        np.testing.assert_allclose(c, beta.centroids[lab], atol=1e-12)
        assert r == pytest.approx(tau.tau[lab])


# -- collapse ------------------------------------------------------------------

def test_collapse_hinge_two_points_midpoint():
    theta = np.zeros(2)
    Dp = Dataset.from_points([[1.0, 0.0], [0.0, 1.0]], [1, 1])
    from poisonlab.models import ModelParams
    col = collapse_two_points(Dp, ModelParams(theta), LossSpec.hinge())
    assert col.points.n == 1
    np.testing.assert_allclose(col.points.X[0], [0.5, 0.5])
    assert col.points.w[0] == pytest.approx(2.0)


def test_collapse_single_point_identity():
    from poisonlab.models import ModelParams
    Dp = Dataset.from_points([[0.2, 0.1]], [1], [1.3])
    col = collapse_two_points(Dp, ModelParams(np.zeros(2)), LossSpec.logistic())
    np.testing.assert_array_equal(col.points.X, Dp.X)
    np.testing.assert_array_equal(col.points.w, Dp.w)


def test_collapse_drops_zero_gradient_class():
    from poisonlab.models import ModelParams
    theta = ModelParams(np.array([10.0, 0.0]))
    Dp = Dataset.from_points([[1.0, 0.0]], [1])  # margin 10 > 1: no gradient
    col = collapse_two_points(Dp, theta, LossSpec.hinge())
    assert col.points.n == 0


def test_collapse_logistic_gradient_sum_preserved(rng):
    from poisonlab.models import ModelParams
    theta = ModelParams(rng.standard_normal(4))
    Dp = Dataset.from_points(rng.standard_normal((6, 4)),
                             rng.choice([-1.0, 1.0], 6), rng.random(6) + 0.2)
    loss = LossSpec.logistic()
    col = collapse_two_points(Dp, theta, loss)
    g0 = poisoned_gradient_sum(Dp, theta, loss)
    g1 = poisoned_gradient_sum(col.points, theta, loss)
    assert np.linalg.norm(g0 - g1) <= 1e-10
    assert col.points.n <= 2
    assert all(0.0 <= a <= 1.0 for a in col.fold_alphas)
    assert col.total_weight <= Dp.total_weight + 1e-12


def test_verify_collapse_identity_true():
    tr, _ = synth_gaussians(12, 80, 3, 3.0)
    Dp = Dataset.from_points([[1.0, 0.5, 0.0], [-1.0, 0.0, 0.5]], [1, -1])
    from poisonlab.feasible import CollapsedAttack
    assert verify_collapse(tr, Dp, CollapsedAttack(Dp), LossSpec.hinge(), 0.1)


def test_verify_collapse_perturbed_weights_false():
    tr, _ = synth_gaussians(12, 80, 3, 3.0)
    rng = np.random.default_rng(0)
    Dp = Dataset.from_points(rng.standard_normal((6, 3)) + [1.5, 0, 0],
                             [1, 1, 1, -1, -1, -1])
    theta, col = collapse_with_duals(tr, Dp, LossSpec.hinge(), 0.1)
    assert verify_collapse(tr, Dp, col, LossSpec.hinge(), 0.1)
    bad = replace(col.points, w=col.points.w * 1.6)
    from poisonlab.feasible import CollapsedAttack
    assert not verify_collapse(tr, Dp, CollapsedAttack(bad), LossSpec.hinge(), 0.1)


def test_verify_collapse_mean_mode_rescales_lambda():
    tr, _ = synth_gaussians(14, 80, 3, 3.0)
    rng = np.random.default_rng(1)
    Dp = Dataset.from_points(rng.standard_normal((5, 3)) + [1.5, 0, 0],
                             [1, 1, -1, -1, 1])
    lam_mean = 0.1
    lam_sum = lam_mean * (tr.total_weight + Dp.total_weight)
    theta, col = collapse_with_duals(tr, Dp, LossSpec.hinge(), lam_sum,
                                     objective="sum")
    assert verify_collapse(tr, Dp, col, LossSpec.hinge(), lam_mean,
                           objective="mean")


def test_collapse_respects_feasibility_check():
    tr, _ = synth_gaussians(12, 80, 3, 3.0)
    # flipped-label points sit at negative margin and stay hinge-active
    Dp = Dataset.from_points([[-0.6, 0.1, 0.0], [-0.8, -0.1, 0.2]], [1, 1])
    theta, col = collapse_with_duals(tr, Dp, LossSpec.hinge(), 0.1)
    assert col.points.n == 1
    F_big = ball_set(np.array([-0.7, 0.0, 0.0]), 10.0, 3)
    F_tiny = ball_set(np.array([50.0, 0.0, 0.0]), 0.01, 3)
    assert verify_collapse(tr, Dp, col, LossSpec.hinge(), 0.1, F=F_big)
    assert not verify_collapse(tr, Dp, col, LossSpec.hinge(), 0.1, F=F_tiny)
