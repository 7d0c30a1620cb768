import numpy as np
import pytest

from poisonlab import Dataset, LossSpec, TrainConfig, run_alfa, synth_gaussians, train
from poisonlab.feasible import InfeasibleSetError, ball_only_feasible, build_feasible_set
from poisonlab.models import test_error_01 as zero_one_error


def wide_open(d):
    return ball_only_feasible({1: np.zeros(d), -1: np.zeros(d)},
                              {1: 1e3, -1: 1e3}, d)


def test_alfa_zero_epsilon_is_clean_baseline():
    tr, te = synth_gaussians(3, 150, 3, 2.0)
    loss = LossSpec.hinge()
    cfg = TrainConfig(lam=0.1)
    from poisonlab.defenses import DefenseKind
    res = run_alfa(tr, te, 0.0, wide_open(3), loss, 0.1,
                   defenses_for_eval=[DefenseKind.l2()], config=cfg)
    from poisonlab.defenses import defend_and_train
    _, err_fn, _ = defend_and_train(tr, Dataset.empty(3), DefenseKind.l2(),
                                    0.05, loss, cfg)
    assert res.per_defense["l2"] == err_fn(te)
    assert res.dp.n == 0


def test_alfa_single_feasible_candidate_takes_full_weight():
    tr, _ = synth_gaussians(5, 100, 2, 2.0)
    te = Dataset.from_points([[0.2, 0.1]], [1])
    res = run_alfa(tr, te, 0.05, wide_open(2), refine=False)
    assert res.dp.n == 1
    assert res.dp.y[0] == -1.0  # the flip of the lone test label
    assert res.dp.total_weight == pytest.approx(0.05 * tr.total_weight)


def test_alfa_selected_points_feasible_flips_with_exact_budget():
    tr, te = synth_gaussians(6, 200, 3, 1.5)
    F = build_feasible_set(tr, 0.1)
    res = run_alfa(tr, te, 0.03, F)
    assert res.dp.total_weight == pytest.approx(0.03 * tr.total_weight)
    for i in range(res.dp.n):
        assert F.contains(res.dp.X[i], res.dp.y[i])
        match = np.flatnonzero((te.X == res.dp.X[i]).all(axis=1))
        assert len(match) and te.y[match[0]] == -res.dp.y[i]


def test_alfa_empty_pool_errors():
    tr, te = synth_gaussians(7, 100, 3, 8.0)
    F = ball_only_feasible({1: np.full(3, 50.0), -1: np.full(3, -50.0)},
                           {1: 0.1, -1: 0.1}, 3)
    with pytest.raises(InfeasibleSetError, match="no flipped test point"):
        run_alfa(tr, te, 0.03, F)
