import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from poisonlab import Dataset, LossSpec, ModelParams, TrainConfig, models
from poisonlab import avg_loss, inverse_hvp_cg, synth_gaussians, train, train_sgd_single_pass, union
from poisonlab.models import test_error_01 as zero_one_error
from poisonlab.models import (
    TrainingError,
    UnsupportedLossError,
    d2loss_dmargin2,
    dloss_dmargin,
    loss_of_margin,
    margins,
    model_to_json,
    train_with_duals,
)


def test_hinge_loss_values():
    assert loss_of_margin(LossSpec.hinge(), 0.5) == 0.5
    assert loss_of_margin(LossSpec.hinge(), 2.0) == 0.0


def test_smoothed_hinge_at_margin_one():
    # delta*ln 2 at margin exactly 1, converging to the hinge value as delta->0
    v = loss_of_margin(LossSpec.smoothed_hinge(0.1), 1.0)
    assert v == pytest.approx(0.1 * math.log(2.0), abs=1e-12)
    for delta in (1e-2, 1e-4):
        sm = loss_of_margin(LossSpec.smoothed_hinge(delta), 0.3)
        assert sm == pytest.approx(0.7, abs=3 * delta)


def test_hinge_subgradient_cases():
    # -1 below margin 1, 0 above, and margin exactly 1 resolves to -1
    np.testing.assert_array_equal(
        dloss_dmargin(LossSpec.hinge(), np.array([0.0, 3.0, 1.0])), [-1.0, 0.0, -1.0])


def test_logistic_gradient_at_zero():
    assert dloss_dmargin(LossSpec.logistic(), 0.0) == -0.5


@pytest.mark.parametrize("loss", [LossSpec.smoothed_hinge(0.25), LossSpec.logistic()])
def test_smooth_terms_match_extended_precision(loss):
    # softplus(z), sigma(z) and sigma(z) sigma(-z) in long double at the same
    # z = (1 - m) / delta (or -m), exact here: delta is a power of two and
    # the margins are multiples of 1/32.  No term overflows or cancels, out
    # to the ends of [-1100, 1100]: within 1e-13 relative while exp(-|z|) is
    # a normal double, and beyond |z| = 708.4, where it is subnormal or 0,
    # within the smallest normal double times each term's factor delta, 1 or
    # 1 / delta
    z = np.linspace(-1100.0, 1100.0, 17601)
    scale = loss.delta if loss.kind == "smoothed_hinge" else 1.0
    m = 1.0 - scale * z if loss.kind == "smoothed_hinge" else -z
    zl = z.astype(np.longdouble)
    e = np.exp(-np.abs(zl))
    want = (scale * (np.maximum(zl, 0) + np.log1p(e)),
            -np.where(zl >= 0, 1, e) / (1 + e),
            e / (1 + e) ** 2 / scale)
    got = (loss_of_margin(loss, m), dloss_dmargin(loss, m), d2loss_dmargin2(loss, m))
    tiny = np.finfo(float).tiny
    normal = np.abs(z) < -np.log(tiny)
    floors = (scale * tiny, tiny, tiny / scale)
    for name, g, ref, floor in zip(("ell", "ell'", "ell''"), got, want, floors):
        assert (ref != 0).all() and np.isfinite(g).all(), name
        err = np.abs(g - ref)
        assert np.all(err[normal] <= 1e-13 * np.abs(ref[normal])), name
        assert np.all(err[~normal] <= floor), name


@pytest.mark.parametrize("loss", [LossSpec.smoothed_hinge(0.05), LossSpec.logistic()])
def test_grad_matches_finite_differences(rng, loss):
    # central differences of loss_of_margin as the oracle of dloss_dmargin
    m = 2.0 * rng.standard_normal(20)
    h = 1e-6
    fd = (loss_of_margin(loss, m + h) - loss_of_margin(loss, m - h)) / (2 * h)
    np.testing.assert_allclose(dloss_dmargin(loss, m), fd, rtol=1e-6, atol=1e-8)


def test_train_single_point_stationary():
    # oracle: 1-D grid search over theta1 of the sum objective
    D = Dataset.from_points([[1.0, 0.0]], [1.0])
    cfg = TrainConfig(lam=1.0, objective="sum")
    theta = train(D, LossSpec.hinge(), cfg).theta
    grid = np.linspace(0.0, 2.0, 20001)
    vals = 0.5 * grid ** 2 + np.maximum(0.0, 1.0 - grid)
    best = grid[np.argmin(vals)]
    assert theta[0] == pytest.approx(best, abs=1e-4)
    assert abs(theta[1]) < 1e-10


def test_train_symmetric_data_halved():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 3))
    Dfull = Dataset.from_points(np.vstack([X, -X]),
                                np.concatenate([np.ones(20), -np.ones(20)]))
    Dhalf = Dataset.from_points(X, np.ones(20), 2.0 * np.ones(20))
    cfg = TrainConfig(lam=0.3, objective="sum")
    t1 = train(Dfull, LossSpec.hinge(), cfg).theta
    t2 = train(Dhalf, LossSpec.hinge(), cfg).theta
    np.testing.assert_allclose(t1, t2, atol=1e-7)


def test_train_large_lambda_shrinks_theta():
    tr, _ = synth_gaussians(5, 100, 4, 3.0)
    lam = 1e6
    theta = train(tr, LossSpec.hinge(), TrainConfig(lam=lam)).theta
    # first-order bound: lam*theta = mean of active -y*x terms
    bound = np.linalg.norm(tr.X, axis=1).max() / lam
    assert np.linalg.norm(theta) <= bound * 1.01


def objective_value(theta, D, loss, lam):
    """The mean-form training objective lambda/2 ||theta||^2 + (1/W) sum_i
    w_i ell_i, the reference value of what ``train`` minimizes."""
    total = float(np.dot(D.w, loss_of_margin(loss, D.y * (D.X @ theta))))
    return 0.5 * lam * float(np.dot(theta, theta)) + total / D.total_weight


@pytest.mark.parametrize("loss", [LossSpec.hinge(), LossSpec.logistic()])
def test_train_is_local_minimum(rng, loss):
    tr, _ = synth_gaussians(2, 80, 5, 3.0)
    cfg = TrainConfig(lam=0.2)
    theta = train(tr, loss, cfg).theta
    f0 = objective_value(theta, tr, loss, 0.2)
    for _ in range(100):
        z = rng.standard_normal(5)
        z *= 1e-2 / np.linalg.norm(z)
        assert objective_value(theta + z, tr, loss, 0.2) >= f0 - 1e-12


def test_mean_equals_sum_with_scaled_lambda():
    tr, _ = synth_gaussians(8, 60, 3, 3.0)
    t_mean = train(tr, LossSpec.hinge(), TrainConfig(lam=0.1, objective="mean")).theta
    t_sum = train(tr, LossSpec.hinge(),
                  TrainConfig(lam=0.1 * tr.total_weight, objective="sum")).theta
    np.testing.assert_allclose(t_mean, t_sum, atol=1e-8)


def hinge_kkt_violators(D, theta, gamma):
    """Points whose dual scale gamma breaks the hinge KKT conditions at theta
    by more than 1e-9 * (1 + |m|): 0 < gamma < 1 off margin 1, gamma = 1
    above it, or gamma = 0 with positive weight below it."""
    m = D.y * (D.X @ theta.theta)
    tol = 1e-9 * (1.0 + np.abs(m))
    frac = (gamma > 0.0) & (gamma < 1.0)
    return np.flatnonzero((frac & (np.abs(m - 1.0) > tol))
                          | ((gamma == 1.0) & (m > 1.0 + tol))
                          | ((gamma == 0.0) & (D.w > 0.0) & (m < 1.0 - tol)))


def assert_hinge_certified(D, cfg, theta, gamma):
    """train()'s witness-norm certificate, from the returned duals, and the
    hinge KKT conditions they meet."""
    norm = D.total_weight if cfg.objective == "mean" else 1.0
    th = theta.theta
    witness = cfg.lam * th - D.X.T @ (gamma * D.w * D.y) / norm
    assert np.linalg.norm(witness) <= cfg.tol * (1.0 + np.linalg.norm(th))
    assert hinge_kkt_violators(D, theta, gamma).size == 0


def test_hinge_duals_meet_kkt_conditions():
    # criterion 1's instances: small sum-objective problems whose smoothed
    # margins put points on the wrong side of margin 1
    from test_acceptance import random_instance
    cfg = TrainConfig(lam=0.1, objective="sum")
    for t in range(50):
        D = union(*random_instance(1000 + t, "hinge"))
        theta, gamma = train_with_duals(D, LossSpec.hinge(), cfg)
        assert hinge_kkt_violators(D, theta, gamma).size == 0, t


def test_hinge_witness_rejects_a_nearby_theta():
    # the exact optimum passes the witness target; the same theta scaled by
    # 1 + 1e-7 moves every on-margin point out of the band, so their
    # fractional duals no longer balance lambda theta
    from test_acceptance import random_instance
    cfg = TrainConfig(lam=0.1, objective="sum")
    for t in range(5):
        D = union(*random_instance(1000 + t, "hinge"))
        theta, gamma = train_with_duals(D, LossSpec.hinge(), cfg)
        th, alpha = theta.theta, gamma * D.w
        assert ((gamma > 0.0) & (gamma < 1.0)).any(), t  # points on the margin
        for scale, passes in ((1.0, True), (1.0 + 1e-7, False)):
            r = np.linalg.norm(models._hinge_witness(
                scale * th, alpha, D.X, D.y, D.w, cfg.lam))
            target = cfg.tol * (1.0 + np.linalg.norm(scale * th))
            assert (r <= target) == passes, (t, scale, r, target)


def test_hinge_round_limit_raises_with_last_iterate(monkeypatch):
    # the smoothed start pins all 210 points of this instance, ten of which
    # end on margin 1 with a fractional dual; a closer given no rounds
    # cannot certify it
    from test_acceptance import random_instance
    D = union(*random_instance(1001, "hinge"))
    _, gamma = train_with_duals(D, LossSpec.hinge(),
                                TrainConfig(lam=0.1, objective="sum"))
    assert ((gamma > 0.0) & (gamma < 1.0)).sum() == 10
    monkeypatch.setattr(models, "_CLOSER_ROUNDS", 0)
    with pytest.raises(TrainingError, match="witness norm") as err:
        train(D, LossSpec.hinge(), TrainConfig(lam=0.1, objective="sum"))
    assert err.value.theta.shape == (D.d,)
    assert np.all(np.isfinite(err.value.theta))
    assert np.isfinite(err.value.residual) and err.value.residual > 0.0


def test_hinge_closes_on_sanitized_minmax_sets():
    # criterion 10's instance and the min-max poison of its decoy with test
    # error 0.0265 at tau_loss=0.25, sanitized by each centroid/graph defense:
    # the battery's training sets, on which a coordinate-descent closer once
    # ran for minutes (459 s on the svd set); all eight trainings together
    # take a few seconds now
    from poisonlab import gen_decoys, run_minmax, union
    from poisonlab.defenses import DefenseKind, fit_detector, fit_thresholds, sanitize
    from poisonlab.feasible import build_feasible_set
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    loss = LossSpec.hinge()
    decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1, 2, 3, 5, 8, 12),
                        q_grid=(0.05, 0.2, 0.35, 0.5))
    decoy, = [d for d in decoys if round(d.test_error * te.n) == 53]
    dp = run_minmax(tr, te, 0.03, build_feasible_set(tr, 0.05), [decoy], 0.25,
                    lam=0.1, loss=loss, p=0.05, config=TrainConfig(lam=0.1)).dp
    D = union(tr, dp)
    started = time.perf_counter()
    for kind in (DefenseKind.l2(), DefenseKind.slab(), DefenseKind.svd(),
                 DefenseKind.knn()):
        beta = fit_detector(kind, D)
        S = sanitize(D, kind, beta, fit_thresholds(kind, beta, D, 0.05))
        thetas = {}
        for cfg in (TrainConfig(lam=0.1),
                    TrainConfig(lam=0.1 * S.total_weight, objective="sum")):
            theta, gamma = train_with_duals(S, loss, cfg)
            assert_hinge_certified(S, cfg, theta, gamma)
            thetas[cfg.objective] = theta.theta
        np.testing.assert_allclose(
            thetas["mean"], thetas["sum"],
            atol=1e-6 * (1.0 + np.linalg.norm(thetas["sum"])))
    assert time.perf_counter() - started < 60.0


@pytest.mark.parametrize("objective", ["mean", "sum"])
def test_hinge_warm_start_matches_cold_train(objective):
    # the closer alone, from a near start (the model before two heavy poison
    # points were added) and from far ones (zero; the clean model on a set
    # with 40% of its labels flipped), lands on the cold continuation's
    # optimum and passes the same certificate
    cfg = TrainConfig(lam=0.1, objective=objective)
    loss = LossSpec.hinge()
    for seed in range(3):
        tr, te = synth_gaussians(seed, 300, 5, 2.0)
        clean = train(tr, loss, cfg)
        poisoned = union(tr, Dataset(2.0 * te.X[:2], -te.y[:2],
                                     np.array([4.0, 5.0])))
        flips = np.random.default_rng(seed).random(tr.n) < 0.4
        flipped = Dataset(tr.X, np.where(flips, -tr.y, tr.y), tr.w)
        for D, start in ((poisoned, clean), (tr, ModelParams(np.zeros(tr.d))),
                         (flipped, clean)):
            cold = train(D, loss, cfg).theta
            theta, gamma = train_with_duals(D, loss, cfg, start=start)
            assert (np.linalg.norm(theta.theta - cold)
                    <= 1e-12 * (1.0 + np.linalg.norm(cold))), seed
            assert_hinge_certified(D, cfg, theta, gamma)
    with pytest.raises(ValueError, match="dimension"):
        train(tr, loss, cfg, start=ModelParams(np.zeros(tr.d + 1)))


def decoy_flip_set(q):
    """Criterion 10's instance plus gen_decoys' r = 8 flip set at quantile
    q, with its sum-form lambda and the clean model."""
    from poisonlab.kkt import flipped
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    loss, cfg = LossSpec.hinge(), TrainConfig(lam=0.1)
    clean = train(tr, loss, cfg).theta
    flips = flipped(te)
    losses = loss_of_margin(loss, flips.y * (flips.X @ clean))
    keep = losses >= np.quantile(losses, q)
    D = union(tr, Dataset(flips.X[keep], flips.y[keep], 8.0 * flips.w[keep]))
    return D, cfg.lam * D.total_weight, clean


def three_level_start(D, lam):
    """The continuation the ridge seed replaced: delta = 0.3, 0.03 and 0.003
    from zero, each on every row to a relative gradient of 1e-6."""
    theta = np.zeros(D.d)
    for delta in (0.3, 0.03, 0.003):
        theta = models._train_smooth(D.X, D.y, D.w, LossSpec.smoothed_hinge(delta),
                                     lam, 1e-6, 1.0, x0=theta, strict=False)
    return ModelParams(theta)


@pytest.mark.parametrize("case", ["flips-0.05", "flips-0.5", "sum-small-lambda", "counts"])
def test_ridge_seed_lands_on_the_three_level_continuation(case, request):
    # a cold train starts from one Newton step at delta = 1 from zero in
    # place of the delta = 0.3 level; the closer, run from the old
    # three-level continuation, lands on the same optimum
    cfg = TrainConfig(lam=0.1)
    if case.startswith("flips"):
        D, _, _ = decoy_flip_set(float(case.split("-")[1]))
    elif case == "sum-small-lambda":
        # criterion 1's instance: lambda = 0.1 on the sum over 210 points
        from test_acceptance import random_instance
        D = union(*random_instance(1000, "hinge"))
        cfg = TrainConfig(lam=0.1, objective="sum")
    else:
        D, _ = request.getfixturevalue("counts")
    lam = cfg.lam * (D.total_weight if cfg.objective == "mean" else 1.0)
    theta, gamma = train_with_duals(D, LossSpec.hinge(), cfg)
    assert_hinge_certified(D, cfg, theta, gamma)
    old = train(D, LossSpec.hinge(), cfg, start=three_level_start(D, lam)).theta
    assert (np.linalg.norm(theta.theta - old)
            <= 1e-12 * np.linalg.norm(old)), case


@pytest.mark.parametrize("q", [0.05, 0.5])
def test_smoothing_levels_converge_from_the_clean_model(q):
    # criterion 10's instance plus gen_decoys' r = 8 flip set at quantile q,
    # from the clean model: a step rule that took any step lowering the
    # gradient norm, even where f rose, ran Newton to its iteration cap here
    D, lam, clean = decoy_flip_set(q)
    theta = clean
    for delta in models._SMOOTHING_LEVELS:
        smooth = LossSpec.smoothed_hinge(delta)
        # strict: raises unless the gradient target is met within the cap
        models._train_smooth(D.X, D.y, D.w, smooth, lam, 1e-10, 1.0, x0=clean)
        theta = models._train_smooth(D.X, D.y, D.w, smooth, lam, 1e-10, 1.0,
                                     x0=theta)
    theta, _ = models._hinge_closer(theta, D.X * D.y[:, None], D.w, lam)
    cold = train(D, LossSpec.hinge(), TrainConfig(lam=0.1)).theta
    assert np.linalg.norm(theta - cold) <= 1e-12 * (1.0 + np.linalg.norm(cold))


def full_hessian_newton(D, loss, lam, theta):
    """Newton on the sum-form smooth objective with every row in the
    Hessian, halving each step until the gradient norm falls; returns where
    no step lowers it."""
    def grad(th):
        m = D.y * (D.X @ th)
        return (lam * th + D.X.T @ (D.w * models.dloss_dmargin(loss, m) * D.y),
                D.w * d2loss_dmargin2(loss, m))

    g, curv = grad(theta)
    for _ in range(200):
        step = np.linalg.solve(lam * np.eye(D.d) + (D.X.T * curv) @ D.X, g)
        t = 1.0
        while t > 1e-6:
            g_new, curv_new = grad(theta - t * step)
            if np.linalg.norm(g_new) < np.linalg.norm(g):
                break
            t *= 0.5
        else:
            return theta
        theta, g, curv = theta - t * step, g_new, curv_new
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("q", [0.05, 0.5])
def test_curved_row_newton_matches_full_hessian_newton(q):
    # at delta = 0.003 only 8-15% of these rows carry curvature above
    # rounding level against the largest; Newton solves built from those
    # rows land where Newton on the full Hessian lands, at every level from
    # the ridge seed
    D, lam, _ = decoy_flip_set(q)
    theta = models._ridge_seed(D.X, D.y, D.w, lam)
    for delta in models._SMOOTHING_LEVELS:
        smooth = LossSpec.smoothed_hinge(delta)
        expect = full_hessian_newton(D, smooth, lam, theta)
        theta = models._train_smooth(D.X, D.y, D.w, smooth, lam, 1e-10, 1.0,
                                     x0=theta)
        assert (np.linalg.norm(theta - expect)
                <= 1e-12 * np.linalg.norm(expect)), delta


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_closer_rounds_over_gen_decoys_benchmark_grid(monkeypatch):
    # each closer round takes one face step: the 25 trains of the
    # benchmark's decoy grid took 718 rounds when the closer started on a
    # 3 delta band, and take 348 on the delta band.  Every round took an SVD
    # of the free rows before the Gram solve; now 24 do, on faces with more
    # free rows than coordinates
    from poisonlab import gen_decoys
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    rounds = count_calls(monkeypatch, models, "_face_step")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    gen_decoys(tr, te, LossSpec.hinge(), 0.1, r_grid=(1, 2, 3, 5, 8, 12),
               q_grid=(0.05, 0.2, 0.35, 0.5))
    assert len(rounds) <= 1.1 * 348
    assert len(svds) <= 1.1 * 24


def test_seed_level_hessians_over_gen_decoys_benchmark_grid(monkeypatch):
    # the Newton Hessians of the seed levels (the ridge seed and both
    # smoothing levels) over the benchmark's 25 decoy trains: built from
    # the rows curved above eps of the largest, they took 0.537 of the rows
    # they were given; above _SEED_CURVATURE_CUT, 0.364, in the same 343
    # solves.  The closer certifies the answer, so theta is the eps cut's
    from poisonlab import gen_decoys
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    rows = []
    solve = models._solve_hessian

    def counted(X, curv, *args, cut=np.finfo(float).eps, **kwargs):
        rows.append((len(curv), np.sum(curv > cut * np.max(curv, initial=0.0))))
        return solve(X, curv, *args, cut=cut, **kwargs)

    def decoy_thetas():
        return [d.theta_decoy.theta for d in gen_decoys(
            tr, te, LossSpec.hinge(), 0.1, r_grid=(1, 2, 3, 5, 8, 12),
            q_grid=(0.05, 0.2, 0.35, 0.5), prune=False)]

    monkeypatch.setattr(models, "_solve_hessian", counted)
    cut = decoy_thetas()
    given, kept = np.sum(rows, axis=0)
    assert kept <= 0.40 * given
    assert len(rows) <= 1.01 * 343
    monkeypatch.setattr(models, "_SEED_CURVATURE_CUT", np.finfo(float).eps)
    for got, want in zip(cut, decoy_thetas(), strict=True):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_smoothing_rows_over_gen_decoys_benchmark_grid(monkeypatch):
    # the rows each smoothed-loss evaluation sees over the benchmark's 25
    # decoy trains: 2 092 400 when the last level ran on every row; on the
    # rows within _NEAR_BAND of margin 1, 1 387 628; from the ridge seed in
    # place of the delta = 0.3 level, 889 261
    from poisonlab import gen_decoys
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    rows = []
    terms = models._smooth_terms

    def counted(loss, m):
        rows.append(len(m))
        return terms(loss, m)

    monkeypatch.setattr(models, "_smooth_terms", counted)
    gen_decoys(tr, te, LossSpec.hinge(), 0.1, r_grid=(1, 2, 3, 5, 8, 12),
               q_grid=(0.05, 0.2, 0.35, 0.5))
    assert sum(rows) <= 1.1 * 889_261


@pytest.mark.parametrize("q", [0.05, 0.5])
def test_last_level_band_moves_rounds_not_the_answer(q, monkeypatch):
    # with the band at 1e-3 the last level treats rows near margin 1 as
    # linear or absent, and some of them end on the other side of 1: the
    # closer releases them, certifies, and lands on the optimum that the
    # continuation on every row reaches
    D, _, _ = decoy_flip_set(q)
    cfg = TrainConfig(lam=0.1)
    monkeypatch.setattr(models, "_NEAR_BAND", np.inf)
    full = train(D, LossSpec.hinge(), cfg).theta
    seeds = {}
    smooth = models._train_smooth

    def recorded(X, y, w, loss, *args, **kwargs):
        seeds[loss.delta] = theta = smooth(X, y, w, loss, *args, **kwargs)
        return theta

    monkeypatch.setattr(models, "_train_smooth", recorded)
    monkeypatch.setattr(models, "_NEAR_BAND", 1e-3)
    theta, gamma = train_with_duals(D, LossSpec.hinge(), cfg)
    assert_hinge_certified(D, cfg, theta, gamma)
    assert np.linalg.norm(theta.theta - full) <= 1e-12 * np.linalg.norm(full)
    seed_m = D.y * (D.X @ seeds[models._SMOOTHING_LEVELS[-2]])
    m = D.y * (D.X @ theta.theta)
    moved = (((seed_m < 1.0 - 1e-3) & (m > 1.0 + 1e-6))
             | ((seed_m > 1.0 + 1e-3) & (m < 1.0 - 1e-6)))
    assert moved.any()


def test_gram_face_step_matches_svd_least_squares(monkeypatch):
    # on full-rank faces of b = 1..d free rows, d = 20, the Gram solve is
    # accepted on its residual, and its Newton step is the one the SVD's
    # least squares gives (run by making the Gram solve fail)
    gen = np.random.default_rng(0)
    faces = [(gen.standard_normal((b, 20)), gen.standard_normal(b))
             for b in range(1, 21)]
    svds = count_calls(monkeypatch, np.linalg, "svd")
    gram = [models._face_step(Zf, r, 0.1, 2000) for Zf, r in faces]
    assert not svds and all(newton for _, newton in gram)

    def singular(G, r):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    for b, ((Zf, r), (step, _)) in enumerate(zip(faces, gram), start=1):
        expect, newton = models._face_step(Zf, r, 0.1, 2000)
        assert newton and len(svds) == b
        assert np.linalg.norm(step - expect) <= 1e-12 * np.linalg.norm(expect), b


def test_singular_and_wide_faces_take_the_svd(monkeypatch):
    # exactly duplicated free rows make the Gram matrix singular, and more
    # free rows than coordinates make it rank-deficient: such faces take
    # the SVD's minimum-norm step, which moves duplicates alike, and the
    # trains that meet them certify
    svds = count_calls(monkeypatch, np.linalg, "svd")
    Zf = np.random.default_rng(0).standard_normal((4, 5))[[0, 1, 2, 3, 3]]
    r = np.array([0.5, -0.2, 0.1, 0.3, 0.3])
    step, newton = models._face_step(Zf, r, 0.1, 2000)
    assert len(svds) == 1 and newton
    assert step[3] == pytest.approx(step[4], rel=1e-12)
    # rows 1e-14 apart with gaps that differ: the Gram solve's residual is
    # far over its bound, and the SVD, at rank 4, gives the residual step
    Zf[4] += 1e-14 * np.random.default_rng(1).standard_normal(5)
    r[4] = 0.4
    step, newton = models._face_step(Zf, r, 0.1, 2000)
    assert len(svds) == 2 and not newton
    np.testing.assert_allclose(step, [0.0, 0.0, 0.0, -0.05, 0.05], atol=1e-12)

    def singular(Zf):
        return len(Zf) > Zf.shape[1] or len(np.unique(Zf, axis=0)) < len(Zf)

    cfg = TrainConfig(lam=0.1)
    tr, _ = synth_gaussians(0, 300, 5, 2.0)
    wide, _ = synth_gaussians(0, 2000, 2, 1.0)
    for D, shape in ((union(tr, tr), "duplicated"), (wide, "wide")):
        svds.clear()
        theta, gamma = train_with_duals(D, LossSpec.hinge(), cfg)
        assert_hinge_certified(D, cfg, theta, gamma)
        faces = [Zf for Zf, in svds]
        assert faces and all(singular(Zf) for Zf in faces), shape
        if shape == "duplicated":
            assert any(len(Zf) <= D.d for Zf in faces)
        else:
            assert any(len(Zf) > D.d for Zf in faces)


def test_clustered_poison_on_the_margin_certifies(monkeypatch):
    # the shape of the minmax workload's decoy3 battery: D_c plus 60 points
    # labelled +1 in 4 clusters of 12, 19, 24 and 5, each within 0.01 of
    # its first point, here around a point of clean margin 0.3.  The poison
    # ends on both sides of margin 1; most faces its rows enter hold more
    # free rows than coordinates and take the SVD, and the train lands on
    # the optimum of the continuation on every row
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    cfg = TrainConfig(lam=0.1)
    clean = train(tr, LossSpec.hinge(), cfg).theta
    gen = np.random.default_rng(0)

    def ball(k, radius):
        u = gen.standard_normal((k, 20))
        return radius * gen.random((k, 1)) * u / np.linalg.norm(u, axis=1, keepdims=True)

    x = te.X[np.flatnonzero(te.y < 0)[0]]
    centre = x + (0.3 - clean @ x) * clean / (clean @ clean)
    firsts = centre + ball(4, 0.005)
    X = np.vstack([np.vstack([f, f + ball(k - 1, 0.01)])
                   for f, k in zip(firsts, (12, 19, 24, 5))])
    D = union(tr, Dataset.from_points(X, np.ones(60)))
    monkeypatch.setattr(models, "_NEAR_BAND", np.inf)
    full = train(D, LossSpec.hinge(), cfg).theta
    monkeypatch.undo()
    rounds = count_calls(monkeypatch, models, "_face_step")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    theta, gamma = train_with_duals(D, LossSpec.hinge(), cfg)
    assert_hinge_certified(D, cfg, theta, gamma)
    assert np.linalg.norm(theta.theta - full) <= 1e-12 * np.linalg.norm(full)
    assert (gamma[tr.n:] == 1.0).any() and (gamma[tr.n:] == 0.0).any()
    assert 0 < len(svds) < len(rounds)


@pytest.mark.parametrize("objective", ["mean", "sum"])
def test_cg_newton_matches_dense_newton(objective, monkeypatch):
    # above _DENSE_NEWTON_MAX_D each Newton step is solved by CG on the
    # curved rows' operator; with the limit at 0 that branch runs at d = 20
    tr, _ = synth_gaussians(3, 300, 20, 3.0)
    cfg = TrainConfig(lam=0.1, objective=objective)
    losses = [LossSpec.hinge(), LossSpec.smoothed_hinge(0.05), LossSpec.logistic()]
    dense = [train(tr, loss, cfg).theta for loss in losses]
    solves = []
    real_cg = scipy.sparse.linalg.cg

    def counted(*args, **kwargs):
        solves.append(1)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "cg", counted)
    monkeypatch.setattr(models, "_DENSE_NEWTON_MAX_D", 0)
    for loss, want in zip(losses, dense):
        got = train(tr, loss, cfg).theta
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), loss
    assert solves


@pytest.mark.parametrize("q, strict_products", [(0.05, 271), (0.5, 244)])
def test_seed_level_cg_stops_at_the_forcing_term(q, strict_products, monkeypatch):
    # above _DENSE_NEWTON_MAX_D a seed level's CG stops at the forcing term
    # sqrt(|g| / |g0|): with the limit at 0, a cold train makes at most 0.6x
    # the operator products that solves to 1e-12 made (strict_products), and
    # the closer still lands on the dense train's optimum
    D, _, _ = decoy_flip_set(q)
    cfg = TrainConfig(lam=0.1)
    dense = train(D, LossSpec.hinge(), cfg).theta
    products = []
    real_op = scipy.sparse.linalg.LinearOperator

    def counted(shape, matvec):
        def product(u):
            products.append(1)
            return matvec(u)
        return real_op(shape, matvec=product)

    monkeypatch.setattr(scipy.sparse.linalg, "LinearOperator", counted)
    monkeypatch.setattr(models, "_DENSE_NEWTON_MAX_D", 0)
    got = train(D, LossSpec.hinge(), cfg).theta
    assert 0 < len(products) <= 0.6 * strict_products, len(products)
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("loss", [LossSpec.smoothed_hinge(0.05), LossSpec.logistic()])
def test_smooth_training_out_of_reach_raises_with_last_iterate(loss, monkeypatch):
    # a zero tolerance no gradient meets: Newton stops at its step cap or
    # where no step qualifies, and the strict check raises with that iterate
    monkeypatch.setattr(TrainConfig, "tol", 0.0)
    tr, _ = synth_gaussians(5, 120, 4, 2.0)
    with pytest.raises(TrainingError, match="gradient norm") as err:
        train(tr, loss, TrainConfig(lam=0.1))
    assert err.value.theta.shape == (tr.d,) and np.isfinite(err.value.theta).all()
    assert err.value.residual > 0.0


def smooth_gradient_norm(D, loss, lam, theta):
    """Norm of the mean-form objective's gradient, which train() certifies
    at most tol * (1 + ||theta||) for smooth losses."""
    coeff = D.w * dloss_dmargin(loss, D.y * (D.X @ theta)) * D.y
    return float(np.linalg.norm(lam * theta + D.X.T @ coeff / D.total_weight))


@pytest.mark.parametrize("loss", [LossSpec.smoothed_hinge(0.05), LossSpec.logistic()])
def test_smooth_training_honours_start(loss, monkeypatch):
    # Newton runs from the start: from a far one it meets the cold train's
    # certificate, and from the cold optimum it takes no step
    tr, _ = synth_gaussians(5, 120, 4, 2.0)
    cfg = TrainConfig(lam=0.1)
    cold = train(tr, loss, cfg).theta
    far = train(tr, loss, cfg, start=ModelParams(np.full(tr.d, 3.0))).theta
    for theta in (cold, far):
        assert (smooth_gradient_norm(tr, loss, cfg.lam, theta)
                <= cfg.tol * (1.0 + np.linalg.norm(theta)))
    solves = []
    real_solve = np.linalg.solve

    def counted(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    again = train(tr, loss, cfg, start=ModelParams(cold)).theta
    assert solves == []
    np.testing.assert_array_equal(again, cold)


def test_import_and_smooth_training_load_no_scipy_solvers():
    # scipy loads only where a path calls it (CG above _DENSE_NEWTON_MAX_D,
    # LP projections): not on import, nor to train or invert a Hessian at d = 20
    code = """
import sys
import numpy as np
import poisonlab
from poisonlab import LossSpec, TrainConfig, inverse_hvp_cg, synth_gaussians, train
tr, _ = synth_gaussians(0, 200, 20, 2.0)
for loss in (LossSpec.hinge(), LossSpec.smoothed_hinge(0.01), LossSpec.logistic()):
    theta = train(tr, loss, TrainConfig())
inverse_hvp_cg(theta, tr, 0.1, np.ones(tr.d), LossSpec.logistic())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(models.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_sgd_pure_decay_matches_recurrence():
    # all margins stay > 1: gradient is lambda*theta only
    D = Dataset.from_points([[1e-6], [1e-6]], [1, -1])
    cfg = TrainConfig(lam=1.0, eta0=0.1, seed=3)
    theta = train_sgd_single_pass(D, LossSpec.hinge(), cfg).theta
    # theta starts at 0 and every per-point gradient fires (margin 0 < 1);
    # replay the recurrence as the oracle
    rng = np.random.Generator(np.random.Philox(3))
    order = rng.permutation(2)
    th = np.zeros(1)
    for t, i in enumerate(order, start=1):
        eta = 0.1 / (1.0 * t)
        m = D.y[i] * np.dot(D.X[i], th)
        coeff = (-1.0 if m <= 1.0 else 0.0) * D.y[i]
        th = (1.0 - eta) * th - eta * coeff * D.X[i]
    np.testing.assert_allclose(theta, th, atol=1e-15)


def test_sgd_deterministic_given_seed():
    tr, _ = synth_gaussians(4, 200, 3, 3.0)
    cfg = TrainConfig(lam=0.1, eta0=0.1, seed=11)
    a = train_sgd_single_pass(tr, LossSpec.hinge(), cfg).theta
    b = train_sgd_single_pass(tr, LossSpec.hinge(), cfg).theta
    np.testing.assert_array_equal(a, b)


def test_sgd_sum_objective_is_mean_objective_at_lambda_over_weight():
    tr, _ = synth_gaussians(4, 200, 3, 3.0)
    tr = replace(tr, w=np.linspace(0.5, 2.0, tr.n))
    lam = 0.3
    s = train_sgd_single_pass(tr, LossSpec.hinge(),
                              TrainConfig(lam=lam, objective="sum", seed=11))
    m = train_sgd_single_pass(tr, LossSpec.hinge(),
                              TrainConfig(lam=lam / tr.total_weight, seed=11))
    np.testing.assert_array_equal(s.theta, m.theta)


def test_sgd_close_to_batch_on_big_synth():
    tr, te = synth_gaussians(21, 5000, 10, 3.0)
    cfg = TrainConfig(lam=0.05, eta0=0.1, seed=0)
    e_sgd = zero_one_error(train_sgd_single_pass(tr, LossSpec.hinge(), cfg), te)
    e_batch = zero_one_error(train(tr, LossSpec.hinge(), cfg), te)
    assert abs(e_sgd - e_batch) <= 0.03


def test_error_01_cases():
    th = ModelParams(np.array([1.0, 0.0]))
    D = Dataset.from_points([[1.0, 0.0], [1.0, 0.0]], [1, -1])
    assert zero_one_error(th, D) == 0.5
    D_ok = Dataset.from_points([[1.0, 0.0], [-1.0, 0.0]], [1, -1])
    assert zero_one_error(th, D_ok) == 0.0
    D_w = Dataset.from_points([[1.0, 0.0], [1.0, 0.0]], [-1, 1], [3.0, 1.0])
    assert zero_one_error(th, D_w) == 0.75


def test_error_sign_zero_counts_for_both_labels():
    th = ModelParams(np.array([1.0, 0.0]))
    D = Dataset.from_points([[0.0, 1.0], [0.0, 1.0]], [1, -1])
    assert zero_one_error(th, D) == 1.0


def test_avg_loss_cases():
    th = ModelParams(np.array([1.0, 0.0]))
    one = Dataset.from_points([[0.5, 0.0]], [1])
    assert avg_loss(th, one, LossSpec.hinge()) == loss_of_margin(LossSpec.hinge(), 0.5)
    far = Dataset.from_points([[5.0, 0.0], [-4.0, 0.0]], [1, -1])
    assert avg_loss(th, far, LossSpec.hinge()) == 0.0
    D = Dataset.from_points([[0.5, 0.0], [0.2, 0.0]], [1, 1], [1.0, 2.0])
    D2 = replace(D, w=D.w * 7.0)
    assert avg_loss(th, D, LossSpec.hinge()) == pytest.approx(
        avg_loss(th, D2, LossSpec.hinge()))
    with pytest.raises(ValueError):
        avg_loss(th, Dataset.empty(2), LossSpec.hinge())


def test_hvp_rejects_hinge():
    # the hinge has no Hessian, so its inverse HVP is refused
    tr, _ = synth_gaussians(1, 10, 2, 2.0)
    with pytest.raises(UnsupportedLossError):
        inverse_hvp_cg(ModelParams(np.ones(2)), tr, 0.1, np.ones(2), LossSpec.hinge())


def test_inverse_hvp_identity_case(rng):
    tr = Dataset.from_points([[10.0, 0.0], [-10.0, 0.0]], [1, -1])
    th = ModelParams(np.array([1.0, 0.0]))
    v = rng.standard_normal(2)
    u = inverse_hvp_cg(th, tr, 0.5, v, LossSpec.smoothed_hinge(0.01))
    np.testing.assert_allclose(u, v / 0.5, atol=1e-9)


def test_inverse_hvp_zero():
    tr, _ = synth_gaussians(1, 10, 3, 2.0)
    th = ModelParams(np.ones(3))
    np.testing.assert_array_equal(
        inverse_hvp_cg(th, tr, 0.1, np.zeros(3), LossSpec.logistic()), np.zeros(3))


def test_inverse_hvp_matches_dense_solve(rng):
    tr, _ = synth_gaussians(17, 40, 5, 2.0)
    th = ModelParams(rng.standard_normal(5))
    loss = LossSpec.logistic()
    lam = 0.15
    curv = tr.w * d2loss_dmargin2(loss, tr.y * (tr.X @ th.theta)) / tr.total_weight
    H = lam * np.eye(5) + (tr.X.T * curv) @ tr.X
    v = rng.standard_normal(5)
    u = inverse_hvp_cg(th, tr, lam, v, loss, tol=1e-12)
    np.testing.assert_allclose(u, np.linalg.solve(H, v), atol=1e-8)


def test_dense_inverse_hvp_matches_cg(rng, monkeypatch):
    # at d <= _DENSE_NEWTON_MAX_D the inverse HVP is one dense solve and
    # calls no CG; with the limit at 0 CG runs at d = 20.  Both meet the
    # residual bound and agree within it
    tr, _ = synth_gaussians(3, 300, 20, 3.0)
    lam, tol = 0.1, 1e-8
    solves = []
    real_cg = scipy.sparse.linalg.cg

    def counted(*args, **kwargs):
        solves.append(1)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "cg", counted)
    for loss in (LossSpec.smoothed_hinge(0.05), LossSpec.logistic()):
        th = train(tr, loss, TrainConfig(lam=lam))
        curv = tr.w * d2loss_dmargin2(loss, margins(th, tr)) / tr.total_weight
        H = lam * np.eye(tr.d) + (tr.X.T * curv) @ tr.X
        v = rng.standard_normal(tr.d)
        solves.clear()
        dense = inverse_hvp_cg(th, tr, lam, v, loss, tol=tol)
        assert solves == []
        with monkeypatch.context() as patch:
            patch.setattr(models, "_DENSE_NEWTON_MAX_D", 0)
            by_cg = inverse_hvp_cg(th, tr, lam, v, loss, tol=tol)
        assert solves
        for u in (dense, by_cg):
            assert np.linalg.norm(H @ u - v) <= tol * np.linalg.norm(v), loss
        assert np.linalg.norm(by_cg - dense) <= tol * np.linalg.norm(dense), loss


def test_hinge_duals_lie_in_unit_interval():
    tr, _ = synth_gaussians(3, 100, 4, 3.0)
    _, gamma = train_with_duals(tr, LossSpec.hinge(), TrainConfig(lam=0.1))
    assert np.all(gamma >= 0.0) and np.all(gamma <= 1.0)


@pytest.mark.parametrize("loss", [LossSpec.hinge(), LossSpec.logistic()],
                         ids=["hinge", "logistic"])
def test_zero_weight_rows_train_as_if_absent(loss):
    # every fourth point weighs 0: training sees only the others, so theta
    # is the subset's bit for bit, and the absent rows take no gradient
    tr, _ = synth_gaussians(3, 200, 4, 2.0)
    w = np.where(np.arange(tr.n) % 4 == 0, 0.0, tr.w)
    D, kept = replace(tr, w=w), w > 0
    for objective in ("mean", "sum"):
        cfg = TrainConfig(lam=0.1, objective=objective)
        theta, gamma = train_with_duals(D, loss, cfg)
        sub_theta, sub_gamma = train_with_duals(D.subset(kept), loss, cfg)
        assert theta.theta.tobytes() == sub_theta.theta.tobytes(), objective
        assert np.all(gamma[~kept] == 0.0)
        np.testing.assert_array_equal(gamma[kept], sub_gamma)


def test_model_json_round_trip():
    th = ModelParams(np.array([0.25, -1.5]))
    doc = json.loads(model_to_json(th, LossSpec.smoothed_hinge(0.02), 0.4))
    np.testing.assert_array_equal(th.theta, doc["theta"])
    assert doc["d"] == 2 and doc["lambda"] == 0.4
    assert doc["loss"] == {"kind": "smoothed_hinge", "delta": 0.02}
