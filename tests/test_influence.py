from inspect import signature

import numpy as np
import pytest

from poisonlab import Dataset, InfluenceConfig, LossSpec, ModelParams, TrainConfig, models
from poisonlab import run_influence, synth_gaussians, train, union
from poisonlab.influence import test_gradient as mean_test_gradient
from poisonlab.feasible import ball_only_feasible, build_feasible_set
from poisonlab.influence import ETA_GRID, influence_gradient, init_label_flip
from poisonlab.models import avg_loss

from oracles import grad_point


def test_test_gradient_single_point(rng):
    th = ModelParams(rng.standard_normal(3))
    x = rng.standard_normal(3)
    D = Dataset.from_points([x], [1])
    g = mean_test_gradient(th, D, LossSpec.logistic())
    np.testing.assert_allclose(g, grad_point(LossSpec.logistic(), th, x, 1.0))


def test_test_gradient_canceling_pair():
    th = ModelParams(np.array([1.0, 0.0]))
    D = Dataset.from_points([[0.0, 1.0], [0.0, -1.0]], [1, 1])
    g = mean_test_gradient(th, D, LossSpec.logistic())
    # same margin 0, opposite x2: gradients cancel in x2 and are 0 in x1
    assert abs(g[1]) < 1e-15 and abs(g[0]) < 1e-15


def test_test_gradient_matches_fd(rng):
    tr, _ = synth_gaussians(3, 30, 4, 2.0)
    th = ModelParams(rng.standard_normal(4))
    loss = LossSpec.smoothed_hinge(0.05)
    g = mean_test_gradient(th, tr, loss)
    h = 1e-6
    fd = np.empty(4)
    for i in range(4):
        e = np.zeros(4); e[i] = h
        fd[i] = (avg_loss(ModelParams(th.theta + e), tr, loss)
                 - avg_loss(ModelParams(th.theta - e), tr, loss)) / (2 * h)
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_influence_gradient_zero_mean_test_gradient():
    tr, _ = synth_gaussians(3, 30, 4, 2.0)
    th = train(tr, LossSpec.smoothed_hinge(0.05), TrainConfig(lam=0.1))
    (out,), _ = influence_gradient(th, tr, tr.subset([0]), np.zeros(4),
                                   TrainConfig(lam=0.1),
                                   LossSpec.smoothed_hinge(0.05))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_influence_gradient_vanishes_far_past_margin(rng):
    tr, _ = synth_gaussians(3, 30, 4, 2.0)
    loss = LossSpec.smoothed_hinge(0.01)
    th = train(tr, loss, TrainConfig(lam=0.1))
    g_test = rng.standard_normal(4)
    x_far = 100.0 * th.theta / np.linalg.norm(th.theta)
    (out,), _ = influence_gradient(th, tr, Dataset.from_points(x_far, [1.0]),
                                   g_test, TrainConfig(lam=0.1), loss)
    assert np.linalg.norm(out) < 1e-12


def test_influence_gradient_matches_retraining_fd(monkeypatch):
    # small-scale version of the acceptance oracle; perturb a margin-active
    # point so the derivative carries signal
    monkeypatch.setattr(TrainConfig, "tol", 1e-12)
    loss = LossSpec.smoothed_hinge(0.02)
    lam = 0.2
    tr, te = synth_gaussians(7, 30, 3, 2.0)
    cfg = TrainConfig(lam=lam)
    th_probe = train(tr, loss, cfg)
    margins = tr.y * (tr.X @ th_probe.theta)
    i = int(np.argmin(np.abs(margins - 1.0)))
    x0 = tr.X[i].copy()

    def test_loss_at(x):
        X = tr.X.copy(); X[i] = x
        D = Dataset(X, tr.y, tr.w)
        return avg_loss(train(D, loss, cfg), te, loss), D

    _, D0 = test_loss_at(x0)
    theta = train(D0, loss, cfg)
    g_test = mean_test_gradient(theta, te, loss)
    (g,), _ = influence_gradient(theta, D0, D0.subset([i]), g_test, cfg, loss)
    h = 1e-5
    for k in range(3):
        e = np.zeros(3); e[k] = h
        fp, _ = test_loss_at(x0 + e)
        fm, _ = test_loss_at(x0 - e)
        fd = (fp - fm) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=2e-3, abs=1e-8)


@pytest.mark.parametrize("objective", ["mean", "sum"])
def test_ascent_gradient_matches_retraining_fd(objective, monkeypatch):
    # the gradient the ascent steps along, for one poison point of weight 6,
    # against central differences of the retrained test loss
    monkeypatch.setattr(TrainConfig, "tol", 1e-12)
    loss = LossSpec.logistic()
    cfg = TrainConfig(lam=0.1, objective=objective)
    tr, te = synth_gaussians(5, 200, 4, 2.0)
    x0, y0 = tr.X[0].copy(), -tr.y[0]

    def poison(x):
        return Dataset.from_points(x[None, :], [y0], [6.0])

    def test_loss_at(x):
        return avg_loss(train(union(tr, poison(x)), loss, cfg), te, loss)

    D = union(tr, poison(x0))
    theta = train(D, loss, cfg)
    g_test = mean_test_gradient(theta, te, loss)
    (g,), _ = influence_gradient(theta, D, poison(x0), g_test, cfg, loss)
    h = 1e-5
    fd = np.array([(test_loss_at(x0 + e) - test_loss_at(x0 - e)) / (2 * h)
                   for e in h * np.eye(4)])
    assert np.linalg.norm(g - fd) <= 1e-3 * np.linalg.norm(fd)


def test_init_label_flip_budget_and_feasibility():
    tr, _ = synth_gaussians(5, 100, 3, 1.0)
    F = ball_only_feasible({1: np.zeros(3), -1: np.zeros(3)},
                           {1: 50.0, -1: 50.0}, 3)
    dp = init_label_flip(tr, 0.05, F, seed=2)
    assert dp.total_weight == pytest.approx(0.05 * tr.total_weight)
    for i in range(dp.n):
        assert F.contains(dp.X[i], dp.y[i])
        # labels are flips of clean labels for those exact points
        match = np.flatnonzero((tr.X == dp.X[i]).all(axis=1))
        assert len(match) and np.all(tr.y[match[0]] == -dp.y[i])


def test_init_label_flip_deterministic():
    tr, _ = synth_gaussians(5, 100, 3, 1.0)
    F = ball_only_feasible({1: np.zeros(3), -1: np.zeros(3)},
                           {1: 50.0, -1: 50.0}, 3)
    a = init_label_flip(tr, 0.04, F, seed=9)
    b = init_label_flip(tr, 0.04, F, seed=9)
    np.testing.assert_array_equal(a.X, b.X)


def test_init_label_flip_infeasible_errors():
    tr, _ = synth_gaussians(5, 50, 3, 8.0)
    F = ball_only_feasible({1: np.full(3, 1e6), -1: np.full(3, -1e6)},
                           {1: 0.1, -1: 0.1}, 3)
    with pytest.raises(RuntimeError):
        init_label_flip(tr, 0.05, F, seed=0)


def test_run_influence_zero_steps_returns_projected_init():
    tr, te = synth_gaussians(8, 120, 3, 2.0)
    F = build_feasible_set(tr, 0.05)
    cfg = InfluenceConfig(steps=0, concentrated=True, seed=1)
    res = run_influence(tr, te, 0.03, F, cfg)
    assert res.dp.n == 2
    for i in range(res.dp.n):
        assert F.contains(res.dp.X[i], res.dp.y[i])


def test_run_influence_concentrated_two_points_weight_split():
    tr, te = synth_gaussians(8, 150, 3, 2.0, class_balance=0.4)
    F = build_feasible_set(tr, 0.05)
    cfg = InfluenceConfig(steps=3, eta=0.5, concentrated=True, seed=1)
    res = run_influence(tr, te, 0.03, F, cfg)
    assert res.dp.n == 2
    P, N = tr.class_weight(1), tr.class_weight(-1)
    n = tr.total_weight
    w = {int(res.dp.y[i]): res.dp.w[i] for i in range(2)}
    assert w[1] == pytest.approx(0.03 * n * N / (P + N))
    assert w[-1] == pytest.approx(0.03 * n * P / (P + N))
    assert w[1] + w[-1] == pytest.approx(0.03 * n)


def test_run_influence_per_point_mode():
    # one poison point per label flip (CLI --basic): the budget's weight,
    # every point in F, and the same poison on a rerun
    tr, te = synth_gaussians(8, 150, 3, 2.0)
    F = build_feasible_set(tr, 0.05)
    cfg = InfluenceConfig(steps=3, eta=0.5, concentrated=False, seed=2)
    res = run_influence(tr, te, 0.03, F, cfg)
    again = run_influence(tr, te, 0.03, F, cfg)
    assert res.dp.n > 2
    assert res.dp.total_weight == pytest.approx(0.03 * tr.total_weight,
                                                rel=1e-12)
    for i in range(res.dp.n):
        assert F.contains(res.dp.X[i], res.dp.y[i])
    for a, b in ((res.dp.X, again.dp.X), (res.dp.y, again.dp.y),
                 (res.dp.w, again.dp.w)):
        np.testing.assert_array_equal(a, b)


def test_run_influence_trains_from_zero_once(monkeypatch):
    # theta0 starts each eta's ascent, and every step trains from the last
    # step's theta: of 1 + 5 * 4 smooth trains only theta0's starts at zero
    tr, te = synth_gaussians(8, 150, 3, 2.0)
    F = build_feasible_set(tr, 0.05)
    cfg = InfluenceConfig(steps=3, concentrated=True, seed=1)
    starts = []
    smooth = models._train_smooth

    def recorded(X, y, w, loss, *args, **kwargs):
        if loss == LossSpec.smoothed_hinge(cfg.delta):
            x0 = signature(smooth).bind(X, y, w, loss, *args, **kwargs).arguments.get("x0")
            starts.append(x0 is None or not np.any(x0))
        return smooth(X, y, w, loss, *args, **kwargs)

    monkeypatch.setattr(models, "_train_smooth", recorded)
    run_influence(tr, te, 0.03, F, cfg)
    assert len(starts) == 1 + len(ETA_GRID) * (cfg.steps + 1)
    assert sum(starts) == 1


def test_run_influence_iterates_stay_feasible():
    tr, te = synth_gaussians(18, 150, 3, 2.0)
    F = build_feasible_set(tr, 0.05)
    cfg = InfluenceConfig(steps=5, eta=2.0, concentrated=True, seed=3)
    res = run_influence(tr, te, 0.03, F, cfg)
    for i in range(res.dp.n):
        assert F.contains(res.dp.X[i], res.dp.y[i])


def test_run_influence_ascends_surrogate_loss():
    tr, te = synth_gaussians(28, 200, 4, 2.5)
    F = build_feasible_set(tr, 0.05)
    cfg = InfluenceConfig(steps=12, concentrated=True, seed=0)
    res = run_influence(tr, te, 0.04, F, cfg)
    losses = [r["test_loss"] for r in res.trace]
    assert max(losses) >= losses[0] - 1e-9


def test_one_small_step_never_loses_more_than_eta_squared(monkeypatch):
    # ascent sanity at random iterates: a tiny step along the influence
    # gradient changes the surrogate test loss by eta*||g||^2 + O(eta^2)
    loss = LossSpec.smoothed_hinge(0.05)
    lam = 0.2
    tr, te = synth_gaussians(55, 40, 3, 2.0)
    monkeypatch.setattr(TrainConfig, "tol", 1e-12)
    cfg = TrainConfig(lam=lam)
    rng = np.random.default_rng(0)
    eta = 1e-4
    checked = 0
    for trial in range(10):
        i = int(rng.integers(tr.n))
        x0 = tr.X[i].copy()
        theta = train(tr, loss, cfg)
        g_test = mean_test_gradient(theta, te, loss)
        (g,), _ = influence_gradient(theta, tr, tr.subset([i]), g_test, cfg,
                                     loss)
        if np.linalg.norm(g) < 1e-9:
            continue
        checked += 1
        X2 = tr.X.copy()
        X2[i] = x0 + eta * g / np.linalg.norm(g)
        L0 = avg_loss(theta, te, loss)
        L1 = avg_loss(train(Dataset(X2, tr.y, tr.w), loss, cfg), te, loss)
        assert L1 >= L0 - 10.0 * eta ** 2
    assert checked >= 3
