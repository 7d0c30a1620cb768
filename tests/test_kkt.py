import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poisonlab import Dataset, DecoyParams, LossSpec, ModelParams, TrainConfig
from poisonlab import clean_gradient, gen_decoys, kkt_solve, run_kkt, synth_gaussians, train, union
from poisonlab.feasible import ball_only_feasible, build_feasible_set
from poisonlab import kkt
from poisonlab.kkt import _quantile, decoy_loss_caps, pareto_prune
from poisonlab.models import avg_loss, test_error_01 as zero_one_error

from oracles import grad_point


def test_gen_decoys_empty_flip_degenerates_to_clean_model():
    tr, te = synth_gaussians(2, 120, 3, 8.0)  # separable: flipped losses all big
    loss = LossSpec.hinge()
    theta_c = train(tr, loss, TrainConfig(lam=0.1))
    # q=1.0 quantile sits at the max: >= gamma keeps at least one point, so
    # force emptiness with an off-grid gamma by passing a quantile above every
    # loss via a tiny test set trick: use r small and check the r=0 candidate
    decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1,), q_grid=(0.5,),
                        prune=False)
    assert len(decoys) >= 1
    # construct an explicitly empty flip set: losses below gamma
    from poisonlab.kkt import flipped
    from poisonlab.models import loss_of_margin, margins
    fl = flipped(te)
    losses = loss_of_margin(loss, margins(theta_c, fl))
    assert (losses >= np.quantile(losses, 0.5)).any()


def test_gen_decoys_bound_holds():
    tr, te = synth_gaussians(4, 150, 4, 3.0)
    loss = LossSpec.hinge()
    lam = 0.1
    theta_c = train(tr, loss, TrainConfig(lam=lam))
    decoys = gen_decoys(tr, te, loss, lam, r_grid=(1, 3, 8), q_grid=(0.1, 0.4),
                        prune=False)
    base = avg_loss(theta_c, tr, loss)
    for d in decoys:
        if d.r == 0:
            continue
        bound = base + (d.flip_weight / tr.total_weight) * d.clean_model_loss_on_flip
        assert d.train_loss_on_clean <= bound + 1e-8


def test_pareto_prune_drops_dominated():
    mk = lambda e, l: DecoyParams(ModelParams(np.zeros(2)), 0.0, 1, l, e)
    cands = [mk(0.2, 1.0), mk(0.1, 2.0), mk(0.3, 0.5)]
    kept = pareto_prune(cands)
    # (err .1, loss 2) is dominated by (err .3, loss .5)
    assert all(not (k.test_error == 0.1 and k.train_loss_on_clean == 2.0)
               for k in kept)
    # survivors form a frontier: no element dominates another
    for a in kept:
        for b in kept:
            if a is b:
                continue
            assert not (b.test_error >= a.test_error
                        and b.train_loss_on_clean <= a.train_loss_on_clean
                        and (b.test_error > a.test_error
                             or b.train_loss_on_clean < a.train_loss_on_clean))


def test_clean_gradient_matches_pointwise(rng):
    tr, _ = synth_gaussians(6, 40, 3, 2.0)
    th = ModelParams(rng.standard_normal(3))
    g = clean_gradient(th, tr, LossSpec.logistic())
    expect = sum(tr.w[i] * grad_point(LossSpec.logistic(), th, tr.X[i], tr.y[i])
                 for i in range(tr.n)) / tr.total_weight
    np.testing.assert_allclose(g, expect, atol=1e-12)


def test_clean_gradient_does_not_depend_on_rounding_at_margin_one():
    # a decoy trained to the witness band leaves margins within rounding of
    # 1; the row's subgradient must not depend on which side it lands
    th = ModelParams(np.array([1.0, 0.0]))
    grads = [clean_gradient(th, Dataset(np.array([[0.5, 1.0], [m, 2.0]]),
                                        np.array([1.0, 1.0]), np.ones(2)),
                            LossSpec.hinge())
             for m in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0))]
    np.testing.assert_array_equal(grads[0], grads[1])
    np.testing.assert_array_equal(grads[0], [-0.25, -0.5])


def solve_on(F, gDc, th, ep, em, lam_eff):
    """kkt_solve of the one split (ep, em) on F: (x_plus, x_minus,
    objective)."""
    xp, xm, obj, failed = kkt_solve(gDc, th, [ep], [em], F, lam_eff)
    assert not failed
    return xp[0], xm[0], obj[0]


def test_kkt_solve_exact_cancellation():
    F = ball_only_feasible({1: np.zeros(2), -1: np.zeros(2)},
                           {1: 100.0, -1: 100.0}, 2)
    th = ModelParams(np.array([0.0, 0.1]))
    gDc = np.array([1.0, 0.0])
    xp, xm, obj = solve_on(F, gDc, th, 1.0, 0.0, 0.0)
    assert obj <= 1e-10
    np.testing.assert_allclose(xp, [1.0, 0.0], atol=1e-5)


def test_kkt_solve_zero_budgets_deterministic_centers():
    c = np.array([2.0, 1.0])
    F = ball_only_feasible({1: c, -1: -c}, {1: 1.0, -1: 1.0}, 2)
    th = ModelParams(np.array([0.1, 0.0]))
    gDc = np.array([0.3, -0.2])
    lam_eff = 0.05
    xp, xm, obj = solve_on(F, gDc, th, 0.0, 0.0, lam_eff)
    r = gDc + lam_eff * th.theta
    assert obj == pytest.approx(float(np.dot(r, r)))
    xp2, xm2, _ = solve_on(F, gDc, th, 0.0, 0.0, lam_eff)
    np.testing.assert_array_equal(xp, xp2)


def test_kkt_solve_support_vector_constraints_hold():
    tr, _ = synth_gaussians(10, 100, 3, 3.0)
    F = build_feasible_set(tr, 0.05)
    th = train(tr, LossSpec.hinge(), TrainConfig(lam=0.1))
    gDc = clean_gradient(th, tr, LossSpec.hinge())
    xp, xm, obj = solve_on(F, gDc, th, 0.02, 0.01, 0.1 * 1.03)
    assert 1.0 - float(th.theta @ xp) >= -1e-8
    assert 1.0 + float(th.theta @ xm) >= -1e-8


def test_kkt_solve_matches_grid_oracle():
    # d=2: at the optimum each point's ball and support-vector cap bind, at
    # the vertices c+ + (0, 1) and c- - (0, 1), which lie on the grid
    c_p, c_m = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    F = ball_only_feasible({1: c_p, -1: c_m}, {1: 1.0, -1: 1.0}, 2)
    th = ModelParams(np.array([0.5, 0.5]))
    gDc = np.array([0.9, 1.4])
    ep, em, lam_eff = 0.6, 0.4, 0.2
    xp, xm, obj = solve_on(F, gDc, th, ep, em, lam_eff)
    for x, c, y in ((xp, c_p, 1.0), (xm, c_m, -1.0)):
        assert np.linalg.norm(x - c) == pytest.approx(1.0, abs=1e-6)
        assert y * (th.theta @ x) == pytest.approx(1.0, abs=1e-6)
    g = np.linspace(-1.0, 1.0, 41)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    G = G[np.linalg.norm(G, axis=1) <= 1.0]
    P, M = c_p + G, c_m + G
    P, M = P[P @ th.theta <= 1.0], M[-(M @ th.theta) <= 1.0]
    # |a_i + b_j|^2 over every feasible pair
    a = gDc - ep * P + lam_eff * th.theta
    b = em * M
    best = np.min((a * a).sum(1)[:, None] + (b * b).sum(1) + 2.0 * a @ b.T)
    assert best > 0.1  # an optimum of zero would leave every constraint idle
    assert obj == pytest.approx(best, abs=1e-6)


def test_kkt_stationarity_retraining_reproduces_decoy(rng):
    # constructed solvable instance: generous feasible set, sum objective
    tr, _ = synth_gaussians(31, 120, 5, 3.5)
    loss = LossSpec.hinge()
    lam_sum = 0.15
    cfg = TrainConfig(lam=lam_sum, objective="sum")
    th_c = train(tr, loss, cfg)
    th_d = ModelParams(th_c.theta + 0.2 * rng.standard_normal(5))
    gDc = clean_gradient(th_d, tr, loss)
    F = ball_only_feasible({1: np.zeros(5), -1: np.zeros(5)},
                           {1: 300.0, -1: 300.0}, 5)
    n = tr.total_weight
    ep, em = 0.03, 0.02
    # run_kkt's residual lambda: the mean-form one over n (1 + eps), times 1 + eps
    xp, xm, obj = solve_on(F, gDc, th_d, ep, em, cfg.mean_lam(n * 1.05) * 1.05)
    assert obj <= 1e-10
    Dp = Dataset.from_points(np.array([xp, xm]), [1.0, -1.0],
                             [ep * n, em * n])
    th_hat = train(union(tr, Dp), loss, cfg)
    assert (np.linalg.norm(th_hat.theta - th_d.theta)
            <= 1e-4 * (1.0 + np.linalg.norm(th_d.theta)))


@pytest.fixture(scope="module")
def benchmark_grid():
    """Criterion 10's instance, its decoys on the benchmark's grid, and each
    decoy's feasible set: (tr, te, loss, cfg, decoys, F_builder)."""
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    loss, cfg = LossSpec.hinge(), TrainConfig(lam=0.1)
    decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1, 2, 3, 5, 8, 12),
                        q_grid=(0.05, 0.2, 0.35, 0.5))

    def F_builder(d):
        caps = decoy_loss_caps(tr, d.theta_decoy, loss, 0.05)
        return build_feasible_set(tr, 0.05, decoy=(d.theta_decoy, loss, caps))

    return tr, te, loss, cfg, decoys, F_builder


def test_run_kkt_projections_over_benchmark_grid(monkeypatch, benchmark_grid):
    # one run_kkt on the benchmark's decoy grid: kkt_solve projected 754
    # points when it confirmed a stall over five settled steps, and 466
    # stopping after two; with each decoy's anchors projected once for its
    # seven splits, 370.  One face-table pass per point took 370 passes; a
    # decoy's splits projected as one batch per class and step take 94.
    # The winning split is the same
    from poisonlab import feasible
    tr, te, loss, cfg, decoys, F_builder = benchmark_grid
    points, passes = [], []
    project, solve = feasible.FeasibleSet.project, feasible._FaceTable.solve

    def counted(self, x, *args, **kwargs):
        points.append(len(np.atleast_2d(x)))
        return project(self, x, *args, **kwargs)

    def passed(self, *args, **kwargs):
        passes.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(feasible.FeasibleSet, "project", counted)
    monkeypatch.setattr(feasible._FaceTable, "solve", passed)
    res = run_kkt(tr, te, 0.03, decoys, F_builder, T=6, p=0.05, loss=loss,
                  config=cfg)
    assert sum(points) <= 1.1 * 370
    assert len(passes) <= 1.1 * 94
    assert res.min_over_defense == 0.0235
    assert (res.decoy_provenance["decoy_index"],
            res.decoy_provenance["eps_plus"]) == (3, 0.015)


def test_batched_splits_match_single_split_solves(benchmark_grid):
    # each decoy's seven splits solved in one kkt_solve give the points and
    # objectives of seven solves of one split each
    tr, _, loss, cfg, decoys, F_builder = benchmark_grid
    eps_plus = np.arange(7) * 0.03 / 6
    eps_minus = 0.03 - eps_plus
    lam_eff = cfg.mean_lam(tr.total_weight * 1.03) * 1.03
    for d in decoys:
        th, F = d.theta_decoy, F_builder(d)
        args = (clean_gradient(th, tr, loss), th)
        X_p, X_m, obj, failed = kkt_solve(*args, eps_plus, eps_minus, F,
                                          lam_eff)
        assert not failed
        for t in range(7):
            xp, xm, o, f = kkt_solve(*args, eps_plus[t:t + 1], eps_minus[t:t + 1],
                                     F, lam_eff)
            assert not f
            for got, want in ((X_p[t], xp[0]), (X_m[t], xm[0])):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert abs(obj[t] - o[0]) <= 1e-12 * abs(o[0])


def test_run_kkt_skips_a_split_whose_projection_fails(monkeypatch, decoy_pair):
    # the first batch projection of class +1 reports its first point, split
    # 1's, uncertified: that split is skipped and recorded, and the others
    # are scored as without the failure
    from poisonlab import feasible
    from poisonlab.feasible import InfeasibleSetError
    tr, te, good, _ = decoy_pair
    kw = dict(T=3, loss=LossSpec.hinge(), config=TrainConfig(lam=0.1))
    alone = run_kkt(tr, te, 0.03, [good], _capped_F_builder(tr), **kw)
    project = feasible.FeasibleSet.project
    injected = []

    def failing(self, x, y, failed=None):
        out = project(self, x, y, failed)
        if np.ndim(x) == 2 and y == 1 and not injected:
            injected.append(1)
            failed[0] = InfeasibleSetError("could not certify (injected)")
            out[0] = np.nan
        return out

    monkeypatch.setattr(feasible.FeasibleSet, "project", failing)
    res = run_kkt(tr, te, 0.03, [good], _capped_F_builder(tr), **kw)
    assert injected
    skipped = res.decoy_provenance["skipped"]
    assert [(s["decoy_index"], s["eps_plus"]) for s in skipped] == [(0, 0.01)]
    assert "injected" in skipped[0]["reason"]
    scores = [s for _, s in alone.trajectory]
    assert [s for _, s in res.trajectory] == scores[:1] + scores[2:]


def test_decoy_loss_caps_are_class_quantiles():
    tr, _ = synth_gaussians(3, 200, 3, 2.0)
    loss = LossSpec.hinge()
    th = train(tr, loss, TrainConfig(lam=0.1))
    caps = decoy_loss_caps(tr, th, loss, 0.05)
    from poisonlab.models import loss_of_margin, margins
    ls = loss_of_margin(loss, margins(th, tr))
    for lab in (1, -1):
        assert caps[lab] == np.quantile(ls[tr.y == lab], 0.95)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 2000])
def test_quantile_equals_numpy_quantile(n):
    gen = np.random.default_rng(n)
    for a in (gen.standard_normal(n), gen.integers(0, 3, n).astype(float),
              gen.exponential(size=n) * 10.0 ** gen.uniform(-8, 8, n)):
        for q in (0.0, 0.05, 0.2, 0.35, 0.5, 0.95, 1.0, gen.random()):
            assert _quantile(a, q) == np.quantile(a, q), (n, q)
    with pytest.raises(ValueError, match="range"):
        _quantile(a, 1.5)


def test_serial_run_loads_neither_numpy_ma_nor_the_thread_pool():
    # np.quantile imports numpy.ma (np.unique checks for masked arrays), and
    # a thread pool concurrent.futures and logging: about 1.7 MB of every
    # run's peak memory, which a run with one defense thread never needs
    code = """
import sys
from poisonlab import DefenseKind, LossSpec, TrainConfig, gen_decoys, synth_gaussians
from poisonlab.kkt import decoy_loss_caps
from poisonlab.results import evaluate_against_defenses
tr, te = synth_gaussians(0, 200, 5, 2.0)
loss = LossSpec.hinge()
decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1, 2), q_grid=(0.2, 0.5))
decoy_loss_caps(tr, decoys[0].theta_decoy, loss, 0.05)
evaluate_against_defenses(tr, te, te, [DefenseKind.l2(), DefenseKind.knn()], 0.05,
                          loss, TrainConfig())
print(sorted(m for m in ("numpy.ma", "concurrent.futures") if m in sys.modules))
"""
    src = str(Path(kkt.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "POISONLAB_WORKERS"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_run_kkt_clean_decoy_is_noop():
    tr, te = synth_gaussians(15, 200, 3, 3.0)
    loss = LossSpec.hinge()
    cfg = TrainConfig(lam=0.1)
    th_c = train(tr, loss, cfg)
    base = zero_one_error(th_c, te)
    decoy = DecoyParams(th_c, 0.0, 0, avg_loss(th_c, tr, loss), base)

    def F_builder(d):
        return build_feasible_set(tr, 0.05)

    res = run_kkt(tr, te, 0.03, [decoy], F_builder, T=3, loss=loss, config=cfg)
    assert res.dp.n <= 2
    assert abs(res.min_over_defense - base) <= 0.02


def test_run_kkt_output_at_most_two_distinct_points():
    tr, te = synth_gaussians(16, 150, 3, 2.5)
    loss = LossSpec.hinge()
    cfg = TrainConfig(lam=0.1)
    decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1, 3), q_grid=(0.2, 0.4))

    def F_builder(d):
        caps = decoy_loss_caps(tr, d.theta_decoy, loss, 0.05)
        return build_feasible_set(tr, 0.05, decoy=(d.theta_decoy, loss, caps))

    res = run_kkt(tr, te, 0.03, decoys, F_builder, T=3, loss=loss, config=cfg)
    assert res.dp.n <= 2
    assert len(np.unique(res.dp.X, axis=0)) <= 2
    assert res.decoy_provenance["eps_plus"] + res.decoy_provenance["eps_minus"] == pytest.approx(0.03)


def _capped_F_builder(tr):
    """Feasible sets with a fixed decoy-loss cap of 0.25 per class."""
    return lambda d: build_feasible_set(
        tr, 0.05, decoy=(d.theta_decoy, LossSpec.hinge(), {1: 0.25, -1: 0.25}))


def test_run_kkt_skips_infeasible_subproblems_and_records_them(decoy_pair):
    tr, te, good, empty = decoy_pair
    F_builder = _capped_F_builder(tr)
    kw = dict(T=3, loss=LossSpec.hinge(), config=TrainConfig(lam=0.1))
    alone = run_kkt(tr, te, 0.03, [good], F_builder, **kw)
    res = run_kkt(tr, te, 0.03, [empty, good], F_builder, **kw)
    np.testing.assert_array_equal(res.dp.X, alone.dp.X)
    assert alone.decoy_provenance["skipped"] == []
    prov = res.decoy_provenance
    assert prov["decoy_index"] == 1
    skipped = prov["skipped"]
    assert [s["decoy_index"] for s in skipped] == [0] * 4
    assert [s["eps_plus"] for s in skipped] == pytest.approx([0.0, 0.01, 0.02, 0.03])
    assert all(s["reason"] for s in skipped)


def test_kkt_solve_on_an_empty_class_set_raises(decoy_pair):
    from poisonlab.feasible import InfeasibleSetError
    tr, _, _, empty = decoy_pair
    th = empty.theta_decoy
    with pytest.raises(InfeasibleSetError, match="empty"):
        kkt_solve(clean_gradient(th, tr, LossSpec.hinge()), th, [0.01], [0.02],
                  _capped_F_builder(tr)(empty), 0.1)


def test_run_kkt_all_subproblems_infeasible_raises(decoy_pair):
    from poisonlab.feasible import InfeasibleSetError
    tr, te, _, empty = decoy_pair
    with pytest.raises(InfeasibleSetError, match="8 skipped"):
        run_kkt(tr, te, 0.03, [empty, empty], _capped_F_builder(tr), T=3,
                loss=LossSpec.hinge(), config=TrainConfig(lam=0.1))


@pytest.mark.parametrize("defended, workers", [(False, 1), (True, 1), (True, 2)],
                         ids=["undefended", "defended", "defended-2-workers"])
def test_run_kkt_warm_split_grid_equals_cold_recomputation(monkeypatch, defended,
                                                           workers):
    # each split's retrains start from the previous split's models (with two
    # workers, each defense's thread carries its own); the same grid with
    # every hinge train cold gives the same poison, provenance, trajectory
    # scores and battery
    from poisonlab import DefenseKind, models
    monkeypatch.setenv("POISONLAB_WORKERS", str(workers))
    tr, te = synth_gaussians(16, 150, 3, 2.5)
    loss = LossSpec.hinge()
    cfg = TrainConfig(lam=0.1)
    decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1, 3), q_grid=(0.2, 0.4))
    kinds = ([DefenseKind.l2(), DefenseKind.loss_defense(0.1), DefenseKind.knn()]
             if defended else [])

    def F_builder(d):
        caps = decoy_loss_caps(tr, d.theta_decoy, loss, 0.05)
        return build_feasible_set(tr, 0.05, decoy=(d.theta_decoy, loss, caps))

    real = models._train_hinge_sum
    starts = []
    drop_starts = False

    def recorded(X, y, w, lam, tol, start=None):
        starts.append(start is not None)
        return real(X, y, w, lam, tol, None if drop_starts else start)

    monkeypatch.setattr(models, "_train_hinge_sum", recorded)
    runs = {}
    for drop_starts in (False, True):
        starts.clear()
        runs[drop_starts] = run_kkt(tr, te, 0.03, decoys, F_builder, T=3,
                                    defenses_for_eval=kinds, loss=loss,
                                    config=cfg)
        # every split after a decoy's first passes the previous split's
        # models (defended: each defense's, and the loss detector's); the
        # cold run drops them
        assert sum(starts) == len(decoys) * 3 * (len(kinds) + 1 if defended else 1)
    warm, cold = runs[False], runs[True]
    for field in ("X", "y", "w"):
        np.testing.assert_array_equal(getattr(warm.dp, field), getattr(cold.dp, field))
    assert warm.decoy_provenance == cold.decoy_provenance
    assert [s for _, s in warm.trajectory] == [s for _, s in cold.trajectory]
    assert warm.per_defense == cold.per_defense
    assert warm.min_over_defense == cold.min_over_defense
    # the loss detector's thresholds agree to the training certificate
    taus = ("tau_plus", "tau_minus")
    for a, b in zip(warm.defense_reports, cold.defense_reports, strict=True):
        assert {k: v for k, v in a.items() if k not in taus} == \
            {k: v for k, v in b.items() if k not in taus}
        assert [a[k] for k in taus] == pytest.approx([b[k] for k in taus],
                                                      rel=1e-12)
