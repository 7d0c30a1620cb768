import numpy as np
import pytest

from poisonlab import Dataset, DecoyParams, LossSpec, ModelParams, TrainConfig
from poisonlab import clean_gradient, gen_decoys, kkt_solve, projected_anchors, run_kkt, support_vector_set, synth_gaussians, train, union
from poisonlab.feasible import ball_only_feasible, build_feasible_set
from poisonlab.kkt import decoy_loss_caps, pareto_prune
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
    """kkt_solve on F's support-vector set, from its projected anchors."""
    F_sv = support_vector_set(F, th)
    return kkt_solve(gDc, th, ep, em, F_sv, lam_eff,
                     projected_anchors(F_sv, th.d))


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


@pytest.mark.parametrize("ep,em", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)])
def test_kkt_solve_returns_no_view_of_its_anchors(ep, em):
    # run_kkt hands one anchor pair to every split of a decoy, so a point
    # the solve returns, changed in place, must not move a later start
    c = np.array([2.0, 1.0])
    F = ball_only_feasible({1: c, -1: -c}, {1: 1.0, -1: 1.0}, 2)
    th = ModelParams(np.array([0.1, 0.0]))
    F_sv = support_vector_set(F, th)
    anchors = projected_anchors(F_sv, th.d)
    kept = tuple(a.copy() for a in anchors)
    xp, xm, _ = kkt_solve(np.array([0.3, -0.2]), th, ep, em, F_sv, 0.05, anchors)
    assert not np.shares_memory(xp, anchors[0])
    assert not np.shares_memory(xm, anchors[1])
    xp += 1.0
    xm += 1.0
    for a, k in zip(anchors, kept):
        np.testing.assert_array_equal(a, k)


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


def test_run_kkt_projections_over_benchmark_grid(monkeypatch):
    # one run_kkt on the benchmark's decoy grid: kkt_solve made 754
    # projections when it confirmed a stall over five settled steps, and
    # 466 stopping after two; with each decoy's anchors projected once for
    # its seven splits, 370; the winning split is the same
    from poisonlab import feasible
    tr, te = synth_gaussians(42, 2000, 20, 4.2)
    loss, cfg = LossSpec.hinge(), TrainConfig(lam=0.1)
    decoys = gen_decoys(tr, te, loss, 0.1, r_grid=(1, 2, 3, 5, 8, 12),
                        q_grid=(0.05, 0.2, 0.35, 0.5))

    def F_builder(d):
        caps = decoy_loss_caps(tr, d.theta_decoy, loss, 0.05)
        return build_feasible_set(tr, 0.05, decoy=(d.theta_decoy, loss, caps))

    calls = []
    project = feasible.FeasibleSet.project

    def counted(self, *args, **kwargs):
        calls.append(1)
        return project(self, *args, **kwargs)

    monkeypatch.setattr(feasible.FeasibleSet, "project", counted)
    res = run_kkt(tr, te, 0.03, decoys, F_builder, T=6, p=0.05, loss=loss,
                  config=cfg)
    assert len(calls) <= 1.1 * 370
    assert res.min_over_defense == 0.0235
    assert (res.decoy_provenance["decoy_index"],
            res.decoy_provenance["eps_plus"]) == (3, 0.015)


def test_decoy_loss_caps_are_class_quantiles():
    tr, _ = synth_gaussians(3, 200, 3, 2.0)
    loss = LossSpec.hinge()
    th = train(tr, loss, TrainConfig(lam=0.1))
    caps = decoy_loss_caps(tr, th, loss, 0.05)
    from poisonlab.models import loss_of_margin, margins
    ls = loss_of_margin(loss, margins(th, tr))
    for lab in (1, -1):
        assert caps[lab] == pytest.approx(float(np.quantile(ls[tr.y == lab], 0.95)))


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
