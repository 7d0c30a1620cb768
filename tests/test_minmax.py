import numpy as np
import pytest

from poisonlab import Dataset, DecoyParams, LossSpec, ModelParams, TrainConfig
from poisonlab import max_loss_point, run_minmax, run_minmax_basic, synth_gaussians, train, union
from poisonlab.feasible import ball_only_feasible, build_feasible_set
from poisonlab.kkt import decoy_loss_caps
from poisonlab.models import avg_loss, loss_of_margin


def symmetric_ball_set(radius=1.0, d=2):
    return ball_only_feasible({1: np.zeros(d), -1: np.zeros(d)},
                              {1: radius, -1: radius}, d)


def test_max_loss_point_tie_prefers_positive_label():
    F = symmetric_ball_set(1.0)
    theta = np.array([1.0, 0.0])
    x, y, val, m = max_loss_point(theta, F, LossSpec.hinge())
    # both labels reach margin -1 (loss 2); tie resolves to +1 at (-1, 0)
    assert y == 1.0
    np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-6)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_max_loss_point_zero_theta():
    F = symmetric_ball_set(1.0)
    x, y, val, m = max_loss_point(np.zeros(2), F, LossSpec.hinge())
    assert val == pytest.approx(1.0)
    np.testing.assert_allclose(x, np.zeros(2), atol=1e-9)


def test_max_loss_point_decoy_cap_matches_grid(rng):
    from poisonlab.feasible import ClassConstraints, FeasibleSet, HalfSpace
    ball_c = np.array([0.5, 0.0])
    hs = HalfSpace(np.array([0.0, -1.0]), 0.3)  # x2 >= -0.3
    cc = ClassConstraints(ball=(ball_c, 1.5), halfspaces=(hs,))
    F = FeasibleSet({1: cc, -1: cc}, 2)
    theta = np.array([0.7, 1.1])
    loss = LossSpec.hinge()
    x, y, val, m = max_loss_point(theta, F, loss)
    g = np.linspace(-1.2, 2.2, 1201)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    member = ((np.linalg.norm(G - ball_c, axis=1) < 1.5) & (G[:, 1] > -0.3))
    pts = G[member]
    best = max(float(loss_of_margin(loss, np.array([yy * (pts @ theta).min()]))[0])
               for yy in (1.0, -1.0))
    # grid maximizer of loss = minimizer of margin per label
    best = 0.0
    for yy in (1.0, -1.0):
        margins = yy * (pts @ theta)
        best = max(best, float(loss_of_margin(loss, margins.min())))
    assert val >= best - 1e-3


def test_minmax_basic_zero_epsilon_empty_attack():
    tr, te = synth_gaussians(3, 100, 3, 3.0)
    F = build_feasible_set(tr, 0.05)
    res = run_minmax_basic(tr, 0.0, F, lam=0.1, D_test=te)
    assert res.dp.n == 0


def test_minmax_basic_deterministic():
    tr, te = synth_gaussians(3, 120, 3, 3.0)
    F = build_feasible_set(tr, 0.05)
    a = run_minmax_basic(tr, 0.05, F, lam=0.1, n_burn=5)
    b = run_minmax_basic(tr, 0.05, F, lam=0.1, n_burn=5)
    np.testing.assert_array_equal(a.dp.X, b.dp.X)
    np.testing.assert_array_equal(a.dp.y, b.dp.y)


def test_minmax_basic_iteration_count_and_budget():
    tr, _ = synth_gaussians(3, 140, 3, 3.0)
    F = build_feasible_set(tr, 0.05)
    eps = 0.05
    res = run_minmax_basic(tr, eps, F, lam=0.1, n_burn=7)
    n_poison = int(round(eps * tr.total_weight))
    assert len(res.trace) == 7 + n_poison
    assert res.dp.total_weight == pytest.approx(eps * tr.total_weight)


def test_minmax_basic_loss_bound_holds_at_iterates():
    tr, _ = synth_gaussians(9, 120, 3, 2.5)
    F = build_feasible_set(tr, 0.05)
    eps = 0.05
    res = run_minmax_basic(tr, eps, F, lam=0.1, n_burn=10)
    # replay: the bound L(theta; Dc) <= (1+eps) L(theta; Dc u Dp) with the
    # final attack set follows from loss non-negativity; check numerically
    from poisonlab.data import union
    D_all = union(tr, res.dp)
    loss = LossSpec.hinge()
    theta = np.zeros(3)
    eta = 0.05 / 0.1
    from poisonlab.models import dloss_dmargin
    t_idx = 0
    for row in res.trace:
        t_idx += 1
        lhs = avg_loss(ModelParams(theta), tr, loss) if np.any(theta) else 1.0
        rhs = (1.0 + eps) * avg_loss(ModelParams(theta), D_all, loss) if np.any(theta) else (1.0 + eps)
        assert lhs <= rhs + 1e-9
        # advance theta the same way the loop does (consistency replay not
        # needed beyond bound checking; reuse recorded maximizer)
        coeff = tr.w * dloss_dmargin(loss, tr.y * (tr.X @ theta)) * tr.y
        grad_clean = tr.X.T @ coeff / tr.total_weight
        theta = theta - (eta / np.sqrt(t_idx)) * (0.1 * theta + grad_clean)


def test_minmax_points_all_feasible():
    tr, _ = synth_gaussians(10, 120, 3, 2.5)
    F = build_feasible_set(tr, 0.05)
    res = run_minmax_basic(tr, 0.05, F, lam=0.1, n_burn=5)
    for i in range(res.dp.n):
        assert F.contains(res.dp.X[i], res.dp.y[i])


def test_minmax_decoy_tau_infinite_matches_basic():
    tr, te = synth_gaussians(11, 120, 3, 2.5)
    F = build_feasible_set(tr, 0.05)
    loss = LossSpec.hinge()
    cfg = TrainConfig(lam=0.1)
    th = train(tr, loss, cfg)
    decoy = DecoyParams(th, 0.0, 0, 0.0, 0.1)
    res_basic = run_minmax_basic(tr, 0.05, F, lam=0.1, n_burn=5, loss=loss,
                                 D_test=te, defenses_for_eval=(), config=cfg)
    res_inf = run_minmax(tr, te, 0.05, F, [decoy], tau_loss=np.inf, lam=0.1,
                         n_burn=5, loss=loss, config=cfg)
    np.testing.assert_array_equal(res_basic.dp.X, res_inf.dp.X)


def test_minmax_decoy_cap_satisfied():
    tr, te = synth_gaussians(12, 150, 3, 2.5)
    F = build_feasible_set(tr, 0.05)
    loss = LossSpec.hinge()
    cfg = TrainConfig(lam=0.1)
    th = train(tr, loss, cfg)
    decoy = DecoyParams(th, 0.0, 0, 0.0, 0.1)
    tau = 0.25
    res = run_minmax(tr, te, 0.05, F, [decoy], tau_loss=tau, lam=0.1, n_burn=5,
                     loss=loss, config=cfg)
    for i in range(res.dp.n):
        m = res.dp.y[i] * float(th.theta @ res.dp.X[i])
        assert float(loss_of_margin(loss, m)) <= tau + 1e-8


def test_minmax_skips_infeasible_decoy_and_records_it(decoy_pair):
    tr, te, good, empty = decoy_pair
    F = build_feasible_set(tr, 0.05)
    kw = dict(tau_loss=0.25, lam=0.1, n_burn=5, loss=LossSpec.hinge(),
              config=TrainConfig(lam=0.1))
    alone = run_minmax(tr, te, 0.05, F, [good], **kw)
    res = run_minmax(tr, te, 0.05, F, [empty, good], **kw)
    np.testing.assert_array_equal(res.dp.X, alone.dp.X)
    prov = res.decoy_provenance
    assert prov["decoy_index"] == 1
    assert [s["decoy_index"] for s in prov["skipped"]] == [0]
    assert prov["skipped"][0]["reason"]
    assert prov["caps"] == {1: 0.25, -1: 0.25}


def test_minmax_all_decoys_infeasible_raises_before_training(monkeypatch,
                                                             decoy_pair):
    from poisonlab import minmax
    from poisonlab.feasible import InfeasibleSetError
    tr, te, _, empty = decoy_pair
    F = build_feasible_set(tr, 0.05)

    def no_training(*args, **kwargs):
        raise AssertionError("an infeasible sweep must not train")

    monkeypatch.setattr(minmax, "evaluated_result", no_training)
    with pytest.raises(InfeasibleSetError, match=r"is empty.*\(2 of 2\)"):
        run_minmax(tr, te, 0.05, F, [empty, empty], tau_loss=0.25, lam=0.1,
                   n_burn=5, loss=LossSpec.hinge(), config=TrainConfig(lam=0.1))


def test_minmax_all_decoys_skipped_reports_each_reason(rng):
    from poisonlab import InputDomain
    from poisonlab.feasible import InfeasibleSetError
    # Poisson counts with class-specific rates: a non-empty LP set, on which
    # margin minimization is not supported yet; no set is shown empty
    y = np.repeat([1.0, -1.0], 60)
    rates = np.where(y[:, None] > 0, [4.0, 1.0, 2.0], [1.0, 4.0, 2.0])
    tr = Dataset.from_points(rng.poisson(rates).astype(float), y,
                             domain=InputDomain.NONNEG_INT)
    F = build_feasible_set(tr, 0.05)
    assert F.for_label(1).lp is not None
    th = train(tr, LossSpec.hinge(), TrainConfig(lam=0.1))
    decoy = DecoyParams(th, 0.0, 0, 0.0, 0.1)
    with pytest.raises(InfeasibleSetError) as err:
        run_minmax(tr, tr, 0.05, F, [decoy, decoy], lam=0.1, n_burn=5,
                   loss=LossSpec.hinge(), config=TrainConfig(lam=0.1))
    msg = str(err.value)
    assert "LP sets is not supported yet (2 of 2)" in msg
    assert "empty" not in msg


def test_minmax_default_cap_is_kkt_quantile_cap(decoy_pair):
    tr, te, good, _ = decoy_pair
    F = build_feasible_set(tr, 0.05)
    loss = LossSpec.hinge()
    res = run_minmax(tr, te, 0.05, F, [good], lam=0.1, n_burn=5, loss=loss,
                     p=0.05, config=TrainConfig(lam=0.1))
    caps = decoy_loss_caps(tr, good.theta_decoy, loss, 0.05)
    assert res.decoy_provenance["caps"] == caps
    assert res.decoy_provenance["tau_loss"] is None
    th = good.theta_decoy.theta
    assert res.dp.n > 0
    for x, y in zip(res.dp.X, res.dp.y):
        assert float(loss_of_margin(loss, y * float(th @ x))) <= caps[int(y)] + 1e-8


def test_minmax_default_cap_binds_where_basic_exceeds_it(decoy_pair):
    # the clean model as decoy: unconstrained min-max picks points whose
    # clean-model loss is above the (1-p)-quantile cap, so the default path
    # is a different, constrained attack
    tr, te, good, _ = decoy_pair
    F = build_feasible_set(tr, 0.05)
    loss = LossSpec.hinge()
    kw = dict(lam=0.1, n_burn=5, loss=loss, config=TrainConfig(lam=0.1))
    basic = run_minmax_basic(tr, 0.05, F, **kw)
    res = run_minmax(tr, te, 0.05, F, [good], p=0.05, **kw)
    caps = res.decoy_provenance["caps"]
    th = good.theta_decoy.theta
    basic_losses = loss_of_margin(loss, basic.dp.y * (basic.dp.X @ th))
    assert any(l > caps[int(y)] for l, y in zip(basic_losses, basic.dp.y))
    assert sum(res.decoy_provenance["at_cap"].values()) > 0
    assert not np.array_equal(res.dp.X, basic.dp.X)


@pytest.mark.parametrize("objective", ["mean", "sum"])
def test_minmax_certified_bound_covers_poison_in_F(objective, rng):
    from poisonlab.minmax import certified_loss_bound
    tr, _ = synth_gaussians(13, 150, 3, 2.5)
    F = build_feasible_set(tr, 0.05)
    loss = LossSpec.hinge()
    # small lambda and large eps: the poison term carries the bound
    cfg = TrainConfig(lam=0.01, objective=objective)
    eps = 0.2
    res = run_minmax_basic(tr, eps, F, lam=0.01, n_burn=20, loss=loss,
                           config=cfg)
    bound = certified_loss_bound(res.trace)
    # the attack's own poison, and random ones of the same weight in F
    attacks = [res.dp]
    for _ in range(3):
        ys = rng.choice([-1.0, 1.0], 5)
        X = np.array([F.project(rng.standard_normal(3) * 3.0, y) for y in ys])
        attacks.append(Dataset(X, ys, np.full(5, eps * tr.total_weight / 5),
                               tr.domain))
    for dp in attacks:
        th = train(union(tr, dp), loss, cfg)
        assert avg_loss(th, tr, loss) <= bound + 1e-6


def test_distribution_shift_warning():
    import warnings
    from poisonlab.minmax import warn_if_distribution_shift
    tr, te = synth_gaussians(3, 200, 4, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert warn_if_distribution_shift(tr, te) is False
    shifted = Dataset(te.X + 5.0, te.y, te.w)
    with pytest.warns(UserWarning, match="distribution"):
        assert warn_if_distribution_shift(tr, shifted) is True
