import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab import Dataset, InputDomain, LpConstraint, expected_sq_distance, f_piecewise, repeat_round, round_point
from poisonlab.feasible import ClassConstraints, FeasibleSet
from poisonlab.rounding import default_K, round_poison

from oracles import f_max_of_lines


def brute_expected_square(x):
    lo, hi = np.floor(x), np.ceil(x)
    p = x - lo
    return (1.0 - p) * lo ** 2 + p * hi ** 2


def g_value_loop(C, x):
    """The LP constraint function as the largest of lines 0..K_i, one
    coordinate at a time."""
    t = np.empty_like(x)
    for i in range(len(x)):
        k = np.arange(C.K[i] + 1)
        t[i] = np.max((2 * k + 1) * x[i] - k * (k + 1))
    return float(t.sum() - 2.0 * np.dot(x, C.mu) + np.dot(C.mu, C.mu))


def lp_project(C, x0):
    """Projection onto {x >= 0, g(x) <= tau^2} the way the attacks take it:
    FeasibleSet.project on a set with only the LP atom."""
    cc = ClassConstraints(nonneg=True, lp=C)
    return FeasibleSet({1: cc, -1: cc}, len(C.mu)).project(x0, 1)


def test_round_integer_input_unchanged():
    x = np.array([0.0, 3.0, 17.0])
    for seed in range(20):
        np.testing.assert_array_equal(round_point(x, seed), x)


def test_round_fixed_integer_coordinate():
    for seed in range(50):
        out = round_point(np.array([1.5, 2.0]), seed)
        assert out[1] == 2.0
        assert out[0] in (1.0, 2.0)


def test_round_monte_carlo_mean():
    vals = np.array([round_point(np.array([0.3]), s)[0] for s in range(100000)])
    assert abs(vals.mean() - 0.3) <= 0.005


def test_round_rejects_negative():
    with pytest.raises(ValueError):
        round_point(np.array([-0.1]), 0)


def test_f_examples():
    assert f_piecewise(2.0) == 4.0
    assert f_piecewise(0.0) == 0.0
    # enumerate outcomes: 0.5*1 + 0.5*4
    assert f_piecewise(1.5) == pytest.approx(0.5 * 1.0 + 0.5 * 4.0)


def test_f_matches_brute_force_grid():
    xs = np.linspace(0.0, 20.0, 10001)
    assert np.max(np.abs(f_piecewise(xs) - brute_expected_square(xs))) <= 1e-12


def test_f_max_of_lines_agrees():
    xs = np.linspace(0.0, 20.0, 10001)
    assert np.max(np.abs(f_piecewise(xs) - f_max_of_lines(xs, 21))) <= 1e-12


def test_expected_sq_distance_integer_exact(rng):
    x = np.array([1.0, 4.0, 0.0])
    mu = rng.standard_normal(3)
    assert expected_sq_distance(x, mu) == pytest.approx(float(np.dot(x - mu, x - mu)))


def test_expected_sq_distance_scalar_example():
    assert expected_sq_distance(np.array([1.5]), np.zeros(1)) == pytest.approx(2.5)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        expected_sq_distance(np.ones(2), np.ones(3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
       st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6))
def test_jensen_gap_nonnegative(xs, mus):
    n = min(len(xs), len(mus))
    x = np.array(xs[:n])
    mu = np.array(mus[:n])
    assert expected_sq_distance(x, mu) >= float(np.dot(x - mu, x - mu)) - 1e-9


def test_round_unbiasedness_binomial_bound():
    x = 0.73
    N = 20000
    vals = np.array([round_point(np.array([x]), s)[0] for s in range(N)])
    frac = x - np.floor(x)
    bound = 4.0 * np.sqrt(frac * (1.0 - frac)) / np.sqrt(N)
    assert abs(vals.mean() - x) <= bound


def test_lp_membership_matches_direct_check():
    mu = np.array([1.0, 2.0])
    C = LpConstraint(mu, 2.0, np.array([6, 6]))
    g = np.linspace(0.0, 5.0, 101)
    for a in g[::10]:
        for b in g[::10]:
            x = np.array([a, b])
            assert C.contains(x) == (expected_sq_distance(x, mu) <= 4.0)


def test_lp_epigraph_tight_at_active_piece():
    # at any x the k = floor(x) line attains f exactly: with mu = 0 the
    # constraint function is f, the max of lines 0..K
    C = LpConstraint(np.zeros(1), 10.0, np.array([8]))
    for x in (0.25, 1.0, 3.7, 6.999):
        assert C.g_value(np.array([x])) == pytest.approx(float(f_piecewise(x)))
        assert f_max_of_lines(x, 8) == pytest.approx(float(f_piecewise(x)))


def test_lp_g_value_matches_loop(rng):
    # closed form against the per-coordinate max of lines: random points in
    # and beyond [0, K], integer points, and points below 0
    K = np.array([0, 1, 3, 6, 6, 10])
    C = LpConstraint(rng.random(6) * 3.0, 2.0, K)
    pts = [rng.random(6) * 12.0 for _ in range(200)]
    pts += [rng.integers(0, 12, 6).astype(float) for _ in range(100)]
    pts += [rng.standard_normal(6) for _ in range(50)]
    for x in pts:
        assert C.g_value(x) == g_value_loop(C, x)


def test_lp_huge_tau_inactive(rng):
    mu = rng.random(3) * 2.0
    C = LpConstraint(mu, 1e6, np.array([5, 5, 5]))
    for _ in range(20):
        x = rng.random(3) * 4.0
        assert C.contains(x)
        np.testing.assert_allclose(lp_project(C, x), x, atol=1e-12)


def test_lp_projection_feasible_and_optimal_vs_grid(rng):
    mu = np.array([1.0, 2.0])
    C = LpConstraint(mu, 2.0, np.array([6, 6]))
    g = np.linspace(0.0, 5.0, 401)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    member = f_piecewise(G).sum(axis=1) - 2.0 * G @ mu + mu @ mu <= 4.0
    pts = G[member]
    for _ in range(10):
        x0 = rng.standard_normal(2) * 3.0 + mu
        xp = lp_project(C, x0)
        assert C.g_value(xp) <= 4.0 + 1e-7
        assert np.linalg.norm(xp - x0) <= np.min(np.linalg.norm(pts - x0, axis=1)) + 2e-2


def test_lp_feasible_x_keeps_monte_carlo_expectation(rng):
    mu = np.array([0.5, 1.0])
    tau = 1.8
    C = LpConstraint(mu, tau, np.array([6, 6]))
    x = lp_project(C, np.array([1.9, 2.4]))
    draws = np.array([round_point(x, s) for s in range(4000)])
    emp = np.mean(np.sum((draws - mu) ** 2, axis=1))
    assert emp <= tau ** 2 + 4.0 / np.sqrt(4000) * np.std(np.sum((draws - mu) ** 2, axis=1))


def test_repeat_round_r1_plain():
    Dp = Dataset.from_points([[0.5, 1.5]], [1], [4.0])
    out = repeat_round(Dp, 1, 0)
    assert out.n == 4
    assert out.total_weight == pytest.approx(4.0)
    assert np.all(out.X == np.floor(out.X))


def test_repeat_round_r3_distinct_bound():
    Dp = Dataset.from_points([[0.5, 1.5], [2.5, 0.1]], [1, -1], [9.0, 9.0])
    out = repeat_round(Dp, 3, 1)
    assert out.total_weight == pytest.approx(18.0)
    assert out.n <= 6  # at most eps*n/3 distinct draws
    assert np.allclose(out.w, 3.0)


def test_repeat_round_mean_preserved_over_seeds():
    Dp = Dataset.from_points([[0.25, 1.75]], [1], [6.0])
    means = []
    for seed in range(500):
        out = repeat_round(Dp, 2, seed)
        means.append(np.average(out.X, axis=0, weights=out.w))
    np.testing.assert_allclose(np.mean(means, axis=0), [0.25, 1.75], atol=0.03)


def test_default_K_covers_dataset_max():
    D = Dataset.from_points([[0.2, 7.9], [3.0, 1.0]], [1, -1])
    np.testing.assert_array_equal(default_K(D), [4, 9])


def test_round_poison_per_domain():
    Dp = Dataset.from_points([[0.5, 1.5], [2.5, 0.1]], [1, -1], [9.0, 4.5])
    same = round_poison(Dp, InputDomain.REALS, 0)
    for a, b in ((same.X, Dp.X), (same.y, Dp.y), (same.w, Dp.w)):
        np.testing.assert_array_equal(a, b)
    counts = round_poison(Dp, InputDomain.NONNEG_INT, 0)
    assert counts.domain is InputDomain.NONNEG_INT
    assert counts.n == 5 and counts.total_weight == pytest.approx(13.5)
    assert round_poison(Dataset.empty(2), InputDomain.NONNEG_INT, 0).n == 0
