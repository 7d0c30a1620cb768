import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import poisonlab

from poisonlab import Dataset, DefenseKind, LossSpec, TrainConfig, synth_gaussians, union
from poisonlab import defenses
from poisonlab.defenses import KNN, DefenseError, DetectorParams, fit_detector, fit_thresholds, sanitize, score_dataset, defend_and_train
from poisonlab.models import avg_loss, test_error_01 as zero_one_error, train
from poisonlab.results import evaluate_against_defenses


def two_class(Xp, Xm, wp=None, wm=None):
    X = np.vstack([Xp, Xm])
    y = np.concatenate([np.ones(len(Xp)), -np.ones(len(Xm))])
    w = None
    if wp is not None or wm is not None:
        w = np.concatenate([wp if wp is not None else np.ones(len(Xp)),
                            wm if wm is not None else np.ones(len(Xm))])
    return Dataset.from_points(X, y, w)


def test_centroid_fit():
    D = two_class([[0.0, 0.0], [2.0, 0.0]], [[-1.0, 1.0]])
    beta = fit_detector(DefenseKind.l2(), D)
    np.testing.assert_array_equal(beta.centroids[1], [1.0, 0.0])
    np.testing.assert_array_equal(beta.centroids[-1], [-1.0, 1.0])


def test_centroid_fit_weighted():
    D = two_class([[0.0], [3.0]], [[0.0]], wp=np.array([1.0, 2.0]))
    beta = fit_detector(DefenseKind.l2(), D)
    assert beta.centroids[1][0] == pytest.approx(2.0)


def test_centroid_missing_class_errors():
    D = Dataset.from_points([[0.0], [1.0]], [1, 1])
    with pytest.raises(DefenseError):
        fit_detector(DefenseKind.slab(), D)


def test_svd_rank_one_data():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    D = two_class([1.0 * v, 2.0 * v], [-1.0 * v, -3.0 * v])
    beta = fit_detector(DefenseKind.svd(0.05), D)
    assert beta.basis.shape == (2, 1)
    assert abs(abs(np.dot(beta.basis[:, 0], v)) - 1.0) < 1e-12


def test_svd_basis_orthonormal():
    tr, _ = synth_gaussians(2, 60, 6, 2.0)
    beta = fit_detector(DefenseKind.svd(0.05), tr)
    G = beta.basis.T @ beta.basis
    np.testing.assert_allclose(G, np.eye(beta.basis.shape[1]), atol=1e-10)


def test_loss_detector_separable_near_zero_loss():
    tr, _ = synth_gaussians(3, 200, 3, 8.0)
    kind = DefenseKind.loss_defense(0.01)
    beta = fit_detector(kind, tr)
    assert avg_loss(beta.model, tr, kind.loss) < 0.05


def test_loss_detector_trains_under_the_defenders_objective():
    # the detector is the defender's model on the unsanitized data: under
    # "sum" it fits the sum form at lambda, not the mean form, and the
    # harness hands the config's objective on
    from poisonlab.harness import ExperimentConfig
    tr, _ = synth_gaussians(3, 200, 3, 2.0)
    loss = LossSpec.hinge()
    thetas = {}
    for objective in ("mean", "sum"):
        kind = DefenseKind.loss_defense(0.1, loss, objective)
        thetas[objective] = fit_detector(kind, tr).model.theta
        np.testing.assert_array_equal(
            thetas[objective],
            train(tr, loss, TrainConfig(lam=0.1, objective=objective)).theta)
    assert np.linalg.norm(thetas["sum"] - thetas["mean"]) > 0.1
    assert DefenseKind.loss_defense(0.1).objective == "mean"
    for objective in ("mean", "sum"):
        kinds = ExperimentConfig(objective=objective).defense_kinds()
        assert [k.objective for k in kinds if k.kind == "loss"] == [objective]


def test_score_l2():
    D = two_class([[1.0, 0.0]], [[-1.0, 0.0]])
    beta = fit_detector(DefenseKind.l2(), D)
    one = Dataset.from_points([3.0, 0.0], [1.0])
    assert score_dataset(DefenseKind.l2(), beta, one)[0] == 2.0


def test_score_slab_direct_dot():
    D = two_class([[1.0, 0.0]], [[-1.0, 0.0]])
    beta = fit_detector(DefenseKind.slab(), D)
    # |(mu+ - mu-).(x - mu_+)| = |(2,0).(-0.5,3)| = 1
    one = Dataset.from_points([0.5, 3.0], [1.0])
    assert score_dataset(DefenseKind.slab(), beta, one)[0] == pytest.approx(1.0)


def test_score_svd_orthogonal_residual():
    from poisonlab.defenses import DetectorParams
    beta = DetectorParams("svd", basis=np.array([[1.0], [0.0]]))
    one = Dataset.from_points([3.0, 4.0], [1.0])
    assert score_dataset(DefenseKind.svd(), beta, one)[0] == pytest.approx(4.0)


def test_knn_scores_with_self_exclusion():
    # class +1 at 0, 1, 3 on a line; k=1 distances to nearest *other* point
    D = Dataset.from_points([[0.0], [1.0], [3.0], [10.0]], [1, 1, 1, -1])
    kind = DefenseKind.knn(1)
    beta = fit_detector(kind, D)
    s = score_dataset(kind, beta, D, training=True)
    np.testing.assert_allclose(s, [1.0, 1.0, 2.0, 7.0])


def test_knn_duplicates_shield_each_other():
    D = Dataset.from_points([[0.0], [0.0], [5.0], [9.0]], [1, 1, -1, -1])
    kind = DefenseKind.knn(1)
    beta = fit_detector(kind, D)
    s = score_dataset(kind, beta, D, training=True)
    assert s[0] == 0.0 and s[1] == 0.0


def test_knn_weight_counts_as_multiplicity():
    # reference weight 3 at distance 1 covers k=3
    D = Dataset.from_points([[0.0], [1.0]], [1, -1], [1.0, 3.0])
    kind = DefenseKind.knn(3)
    beta = fit_detector(kind, D)
    one = Dataset.from_points([0.0], [1.0])
    assert score_dataset(kind, beta, one)[0] == pytest.approx(1.0)


def knn_oracle(D, ref, k, exclude_self):
    """Per-row k-NN rule: sort the distances to the reference, accumulate
    weight nearest first (without the row's own weight when it is its own
    reference), and take the first distance at which the sum reaches k, or
    the farthest when it never does."""
    out = np.empty(D.n)
    for i in range(D.n):
        dists = np.sqrt(np.sum((ref.X - D.X[i]) ** 2, axis=1))
        w = ref.w.copy()
        if exclude_self:
            w[i] = 0.0
        order = np.argsort(dists, kind="stable")
        idx = np.searchsorted(np.cumsum(w[order]), k, side="left")
        out[i] = dists[order[min(idx, len(order) - 1)]]
    return out


def knn_oracle_sets(rng):
    """Reference sets (grid, gauss, small) that stress the k-NN rounds, each
    with a set of other points to score against it."""
    weights = [1.0, 30.0, 0.1, 1.0 / 3.0, 0.0]
    p = [0.5, 0.05, 0.2, 0.15, 0.1]
    # half-integer grid coordinates keep every distance exact; the grid puts
    # many duplicates and distance ties across block boundaries, which fall
    # every few rows at the smallest of _KNN_BUDGETS
    n = 600
    grid = Dataset.from_points(rng.integers(-3, 4, size=(n, 3)) * 0.5,
                               np.where(rng.random(n) < 0.5, 1.0, -1.0),
                               rng.choice(weights, size=n, p=p))
    grid_other = Dataset.from_points(rng.integers(-4, 5, size=(300, 3)) * 0.5,
                                     np.ones(300))
    # real-valued points far from the origin: |x|^2 ~ 5e4 against squared
    # distances ~ 40, so a Gram-expansion distance is off in its last bits.
    # - 100 copies of one point, more than the 2k + 6 candidates even at
    #   k = 40, tie at the candidate cut and need the second round;
    # - 52 copies of another weigh 40 in all, but in index order (21 of 1/3,
    #   30 of 0.1, then 30) their sum rounds to just below 40, as few orders
    #   do: at k = 40 only the (distance, index) order gives the oracle's sum;
    # - 100 points on a sphere of radius 1 (to 1e-11) around a third point
    #   are closer together than the expansion's rounding, so the first
    #   round's candidates need not hold the true nearest
    n = 700
    X = rng.standard_normal((n, 20)) + 50.0
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    w = rng.choice(weights, size=n, p=p)
    X[:100] = X[0]
    X[100:152] = X[100]
    w[100:152] = [1.0 / 3.0] * 21 + [0.1] * 30 + [30.0]
    u = rng.standard_normal((100, 20))
    X[152:252] = X[252] + u / np.linalg.norm(u, axis=1)[:, None] * (
        1.0 + 1e-11 * rng.random((100, 1)))
    gauss = Dataset.from_points(X, y, w)
    Xo = rng.standard_normal((300, 20)) + 50.0
    Xo[:5] = X[0]
    gauss_other = Dataset.from_points(Xo, np.ones(300))
    # 30 reference points of weight at most 1: at most 2k + 6 at k = 40,
    # and short of 40 weight
    small = Dataset.from_points(X[300:330], y[300:330], np.minimum(w[300:330], 1.0))
    return {"grid": (grid, grid_other), "gauss": (gauss, gauss_other),
            "small": (small, gauss_other)}


# k-NN block budgets: a few rows per block (2 to 8 in the rounds over the
# grid and gauss sets; 245 or 612 clean rows against 8 poison points), the
# default, and one block for every row
_KNN_BUDGETS = pytest.mark.parametrize(
    "budget", [8 * 7 * 700, defenses._KNN_BLOCK_BYTES, 1 << 40],
    ids=["few-rows", "default", "one-block"])


@_KNN_BUDGETS
def test_knn_blocked_scores_match_per_row_oracle(rng, monkeypatch, budget):
    monkeypatch.setattr(defenses, "_KNN_BLOCK_BYTES", budget)
    rounds = set()
    real_cross = defenses._knn_crossing

    def counted(X, cand, ref, k, own):
        width = cand.shape[1]
        rounds.add("all" if width == ref.n else "first" if width == 2 * k + 6
                   else "wider")
        return real_cross(X, cand, ref, k, own)

    monkeypatch.setattr(defenses, "_knn_crossing", counted)
    for D, other in knn_oracle_sets(rng).values():
        for k in (1, 5, 40):
            kind = DefenseKind.knn(k)
            beta = fit_detector(kind, D)
            np.testing.assert_array_equal(score_dataset(kind, beta, D, training=True),
                                          knn_oracle(D, D, k, True))
            np.testing.assert_array_equal(score_dataset(kind, beta, D),
                                          knn_oracle(D, D, k, False))
            # a reference other than the scored set: nothing to exclude
            np.testing.assert_array_equal(score_dataset(kind, beta, other, training=True),
                                          knn_oracle(other, D, k, False))
    # the first round, the bounded second round and the whole-reference
    # scan all ran
    assert rounds == {"first", "wider", "all"}


def test_knn_tie_group_takes_one_bounded_second_round(monkeypatch):
    """Count rows with a 150-point all-zero tie group: every row whose k-th
    neighbour lies in the group misses the first round.  One exact pass over
    the points within its first-round crossing scores it, so the distances
    computed stay near one such pass per row: 86 838 here, against 178 624
    when each such row doubled its candidates until it settled."""
    gen = np.random.default_rng(0)
    X = gen.poisson(0.05, (600, 40)).astype(float)
    X[:150] = 0.0
    D = Dataset.from_points(X, np.where(gen.random(600) < 0.5, 1.0, -1.0))
    distances = []
    real_cross = defenses._knn_crossing

    def counted(X, cand, ref, k, own):
        distances.append(cand.size)
        return real_cross(X, cand, ref, k, own)

    monkeypatch.setattr(defenses, "_knn_crossing", counted)
    kind = DefenseKind.knn(5)
    scores = score_dataset(kind, fit_detector(kind, D), D, training=True)
    np.testing.assert_array_equal(scores, knn_oracle(D, D, 5, True))
    assert sum(distances) <= 1.1 * 86838


@_KNN_BUDGETS
def test_knn_table_merge_matches_per_row_oracle_on_the_union(rng, monkeypatch,
                                                             budget):
    """D_c u D_p scored from D_c's table and the poison: bit for bit the
    per-row rule on the union, and so are defend's tau and kept set."""
    monkeypatch.setattr(defenses, "_KNN_BLOCK_BYTES", budget)
    moved = {}
    for name, (C, _) in knn_oracle_sets(rng).items():
        pick = rng.choice(C.n, 8, replace=False)
        if name == "gauss":
            pick[:3] = [0, 50, 99]  # inside its 100-copy tie group
        flip = -C.y[pick]
        u = rng.standard_normal((8, C.d))
        poisons = {
            "none": Dataset.empty(C.d),
            "copies": Dataset.from_points(C.X[pick], flip, np.tile([30.0, 0.0], 4)),
            "near": Dataset.from_points(
                C.X[pick] + 1e-11 * u / np.linalg.norm(u, axis=1)[:, None], flip),
        }
        if name == "small":
            # beyond every clean point: the farthest point of a row short of
            # k weight
            far = C.X.max(axis=0) + 100.0 * np.arange(1, 3)[:, None]
            poisons["far"] = Dataset.from_points(far, [1, -1], [0.5, 0.5])
        for k in (1, 5, 40):
            kind = DefenseKind.knn(k)
            clean = score_dataset(kind, fit_detector(kind, C), C, training=True)
            for shape, P in poisons.items():
                D = union(C, P)
                beta = DetectorParams(KNN, reference=D, clean=C)
                merged = score_dataset(kind, beta, D, training=True)
                np.testing.assert_array_equal(merged, knn_oracle(D, D, k, True))
                moved[name] = (moved.get(name, 0)
                               + np.count_nonzero(merged[:C.n] != clean))
                if shape == "far" and k == 40:
                    assert (merged[:C.n] > clean).all()
                _, D_san, tau = defenses.defend(C, P, kind, 0.05)
                beta = fit_detector(kind, D)
                rounds_tau = fit_thresholds(kind, beta, D, 0.05)
                assert tau.tau == rounds_tau.tau
                kept = sanitize(D, kind, beta, rounds_tau)
                for a in ("X", "y", "w"):
                    np.testing.assert_array_equal(getattr(D_san, a), getattr(kept, a))
    # the poison moved clean rows' scores in every set
    assert all(moved.values()), moved
    # a clean set that is not a prefix of the reference is refused
    for clean_set in (replace(C, w=C.w + 1.0), union(D, P)):
        with pytest.raises(DefenseError, match="prefix"):
            score_dataset(kind, DetectorParams(KNN, reference=D, clean=clean_set), D,
                          training=True)


def traced_peak(f):
    """The peak of the memory that f() allocates, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_knn_table_working_memory_does_not_grow_with_n():
    """One table build at n = 6000 holds two block arrays at a time (the Gram
    expansion and its argpartition) besides the table: 2.6 MB traced, where
    256-row blocks of 6000 columns took 25.5 MB."""
    gen = np.random.default_rng(0)
    n = 6000
    D = Dataset.from_points(gen.standard_normal((n, 5)),
                            np.where(gen.random(n) < 0.5, 1.0, -1.0))
    kind = DefenseKind.knn()
    peak = traced_peak(lambda: score_dataset(kind, fit_detector(kind, D), D,
                                             training=True))
    table = defenses._knn_table(D, kind.k)
    table_bytes = table.score.nbytes + table.short.nbytes + table.nbrs.nbytes
    assert peak <= 4 * defenses._KNN_BLOCK_BYTES + table_bytes, peak


def test_knn_squared_reference_stays_within_the_blocks():
    """At n = 3000, d = 400 the reference's squared norms are summed in
    blocks too: one table build traced 3.4 MB, and one merged score with
    60 far poison points 3.3 MB, where squaring every row at once took
    9.6 and 10.0 MB."""
    gen = np.random.default_rng(0)
    n, d = 3000, 400
    C = Dataset.from_points(gen.standard_normal((n, d)),
                            np.where(gen.random(n) < 0.5, 1.0, -1.0))
    kind = DefenseKind.knn()
    peak = traced_peak(lambda: score_dataset(kind, fit_detector(kind, C), C,
                                             training=True))
    table = defenses._knn_table(C, kind.k)
    table_bytes = table.score.nbytes + table.short.nbytes + table.nbrs.nbytes
    assert peak <= 4 * defenses._KNN_BLOCK_BYTES + table_bytes, peak
    D = union(C, Dataset.from_points(gen.standard_normal((60, d)) + 3.0, np.ones(60)))
    peak = traced_peak(lambda: score_dataset(
        kind, DetectorParams(KNN, reference=D, clean=C), D, training=True))
    assert peak <= 4 * defenses._KNN_BLOCK_BYTES, peak


def test_knn_merge_blocks_count_the_rows_coordinates():
    """At d = 500 with 60 poison points, a clean-against-poison block is
    sized by its rows' 500 coordinates, not by the 60 poison columns alone:
    262 rows.  The exact crossing of a block's rows near the poison then
    sets the peak, 12.5 MB traced, where one block of all 1000 clean rows
    took 36.6 MB."""
    gen = np.random.default_rng(0)
    C = Dataset.from_points(gen.standard_normal((1000, 500)),
                            np.where(gen.random(1000) < 0.5, 1.0, -1.0))
    P = Dataset.from_points(C.X[:60] + 0.01, -C.y[:60])
    kind = DefenseKind.knn()
    defenses._knn_table(C, kind.k)
    D = union(C, P)
    peak = traced_peak(lambda: score_dataset(
        kind, DetectorParams(KNN, reference=D, clean=C), D, training=True))
    assert peak <= 20 * defenses._KNN_BLOCK_BYTES, peak


@pytest.mark.parametrize("workers", ["1", "2"])
def test_knn_table_built_once_per_clean_set_and_freed_with_it(monkeypatch, workers):
    monkeypatch.setenv("POISONLAB_WORKERS", workers)
    built = []
    real_table = defenses._KnnTable

    def counted(*a):
        table = real_table(*a)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(defenses, "_KnnTable", counted)
    tr, te = synth_gaussians(5, 200, 4, 2.0)
    kinds = [DefenseKind.knn(3), DefenseKind.knn(5)]

    def battery(D_c, r):
        poison = Dataset.from_points(tr.X[r:r + 2] + 0.5, -tr.y[r:r + 2], [3.0, 3.0])
        evaluate_against_defenses(D_c, poison, te, kinds, 0.05, LossSpec.hinge(),
                                  TrainConfig(lam=0.1))

    for r in range(3):
        battery(tr, r)
    assert len(built) == 2  # one per k
    twin = Dataset(tr.X.copy(), tr.y.copy(), tr.w.copy())
    battery(twin, 0)
    assert len(built) == 4  # equal bytes, another object: its own tables
    alive = weakref.ref(tr)
    del tr
    gc.collect()
    assert alive() is None
    assert [t() is None for t in built] == [True, True, False, False]


# Criterion 10's instance with two of its battery poison shapes: the two
# test points nearest their class centroids, flipped, projected into F and
# given weight 30 each (the KKT shape), and the 18 test flips that lie in F,
# of fractional weight (the ALFA shape).  Prints the raw k-NN training scores
# of D = D_c u D_p by the rounds on D, then as defend computes them, from
# D_c's table and the poison.
_KNN_SHAPES_SCRIPT = """
import sys
import numpy as np
from poisonlab import Dataset, DefenseKind, build_feasible_set, synth_gaussians, union
from poisonlab.defenses import KNN, DetectorParams, class_centroids, score_dataset
tr, te = synth_gaussians(42, 2000, 20, 4.2)
F = build_feasible_set(tr, 0.05)
budget = 0.03 * tr.total_weight
cents = class_centroids(te)
near = [int(np.flatnonzero(te.y == -y)[np.argmin(np.linalg.norm(
    te.X[te.y == -y] - cents[-y], axis=1))]) for y in (1, -1)]
heavy = Dataset(np.array([F.project(te.X[i], -te.y[i]) for i in near]),
                -te.y[near], np.full(2, budget / 2))
flips = [i for i in range(te.n) if F.contains(te.X[i], -te.y[i])]
frac = Dataset(te.X[flips], -te.y[flips], np.full(len(flips), budget / len(flips)))
kind = DefenseKind.knn()
for clean in (None, tr):
    for dp in (heavy, frac):
        D = union(tr, dp)
        scores = score_dataset(kind, DetectorParams(KNN, reference=D, clean=clean),
                               D, training=True)
        sys.stdout.buffer.write(scores.tobytes())
"""


def test_knn_scores_do_not_depend_on_blas_threads():
    src = str(Path(poisonlab.__file__).resolve().parents[1])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out[threads] = subprocess.run([sys.executable, "-c", _KNN_SHAPES_SCRIPT],
                                      env=env, capture_output=True, check=True,
                                      timeout=300).stdout
    one, two = (np.frombuffer(out[t]) for t in ("1", "2"))
    assert len(one) == 2 * (2 * 2000 + 2 + 18)
    assert out["1"] == out["2"], f"{np.count_nonzero(one != two)} scores differ"
    rounds, table = one[:len(one) // 2], one[len(one) // 2:]
    assert rounds.tobytes() == table.tobytes(), \
        f"{np.count_nonzero(rounds != table)} table scores differ"


@pytest.mark.parametrize("kind", [DefenseKind.l2(), DefenseKind.slab(),
                                  DefenseKind.loss_defense(0.1), DefenseKind.svd(),
                                  DefenseKind.knn(3)], ids=lambda k: k.kind)
def test_score_is_score_dataset_on_one_point(kind):
    tr, _ = synth_gaussians(7, 300, 4, 2.0)
    beta = fit_detector(kind, tr)
    batch = score_dataset(kind, beta, tr)
    for i in range(0, tr.n, 37):
        one = Dataset.from_points(tr.X[i], [tr.y[i]])
        assert score_dataset(kind, beta, one)[0] == pytest.approx(batch[i], rel=1e-12)


def test_defend_and_train_scores_once_per_fit(monkeypatch):
    tr, _ = synth_gaussians(4, 80, 3, 2.0)
    poison = Dataset.from_points(np.full((2, 3), 3.0), [1, -1], [2.0, 2.0])
    calls = {"fit": 0, "score": 0}
    real_fit, real_score = defenses.fit_detector, defenses.score_dataset

    def fit(*a, **kw):
        calls["fit"] += 1
        return real_fit(*a, **kw)

    def scores(*a, **kw):
        calls["score"] += 1
        return real_score(*a, **kw)

    monkeypatch.setattr(defenses, "fit_detector", fit)
    monkeypatch.setattr(defenses, "score_dataset", scores)
    for kind in [DefenseKind.l2(), DefenseKind.slab(), DefenseKind.loss_defense(0.1),
                 DefenseKind.svd(), DefenseKind.knn()]:
        defend_and_train(tr, poison, kind, 0.05, LossSpec.hinge(), TrainConfig(lam=0.1))
    assert calls == {"fit": 5, "score": 5}


def test_threshold_invariant_to_weight_scale():
    # six class +1 points at scores 1..6 and p = 0.5: the top three carry
    # exactly half the class weight, so all three go at every weight scale,
    # though 0.1 + 0.1 + 0.1 rounds above 0.5 * 0.6
    from poisonlab.defenses import DetectorParams
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [0.0]])
    beta = DetectorParams("l2", centroids={1: np.zeros(1), -1: np.zeros(1)})
    kind = DefenseKind.l2()
    kept = []
    for scale in (1.0, 0.1):
        D = Dataset.from_points(X, [1] * 6 + [-1], scale * np.ones(7))
        kept.append(sorted(sanitize(D, kind, beta, fit_thresholds(kind, beta, D, 0.5)).X[:, 0]))
    assert kept[0] == kept[1] == [0.0, 1.0, 2.0, 3.0]


def test_threshold_order_statistics_oracle():
    # literal scores 1..100 for class +1: fixed centroid at the origin and
    # points at distance k; p=0.05 removes exactly the five scores 96..100
    from poisonlab.defenses import DetectorParams
    X = np.vstack([np.arange(1.0, 101.0), np.zeros(100)]).T
    D = Dataset.from_points(np.vstack([X, [[0.0, 0.0]]]), [1] * 100 + [-1])
    kind = DefenseKind.l2()
    beta = DetectorParams("l2", centroids={1: np.zeros(2), -1: np.zeros(2)})
    tau = fit_thresholds(kind, beta, D, 0.05)
    assert tau.tau[1] == 96.0
    s = score_dataset(kind, beta, D, training=True)[:-1]
    assert (s >= tau.tau[1]).sum() == 5
    kept = sanitize(D, kind, beta, tau)
    assert sorted(kept.X[kept.y == 1.0][:, 0]) == list(np.arange(1.0, 96.0))


def test_threshold_p_small_removes_nothing():
    tr, _ = synth_gaussians(1, 50, 2, 2.0)
    kind = DefenseKind.l2()
    beta = fit_detector(kind, tr)
    tau = fit_thresholds(kind, beta, tr, 1e-6)
    assert sanitize(tr, kind, beta, tau).n == tr.n


def test_threshold_all_equal_scores_keeps_all():
    D = Dataset.from_points([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                             [2.0, 0.0]], [1, 1, 1, 1, -1])
    # class +1 scores from its centroid are equal for the first four points
    kind = DefenseKind.l2()
    beta = fit_detector(kind, D)
    tau = fit_thresholds(kind, beta, D, 0.4)
    kept = sanitize(D, kind, beta, tau)
    assert (kept.y == 1.0).sum() == 4


def test_sanitize_strict_boundary():
    from poisonlab.defenses import DetectorParams, Thresholds
    beta = DetectorParams("l2", centroids={1: np.zeros(1), -1: np.array([5.0])})
    D = Dataset.from_points([[1.0], [2.0], [5.0]], [1, 1, -1])
    tau = Thresholds({1: 2.0, -1: 1.0})
    kept = sanitize(D, DefenseKind.l2(), beta, tau)
    # the point at score exactly 2.0 is removed (strict <)
    assert kept.n == 2 and 2.0 not in kept.X[:, 0][kept.y == 1.0]


def test_sanitize_mixed_membership_oracle(rng):
    tr, _ = synth_gaussians(13, 10, 3, 2.0)
    kind = DefenseKind.l2()
    beta = fit_detector(kind, tr)
    tau = fit_thresholds(kind, beta, tr, 0.2)
    kept = sanitize(tr, kind, beta, tau)
    s = score_dataset(kind, beta, tr, training=True)
    expect = np.array([s[i] < tau.tau[int(tr.y[i])] for i in range(tr.n)])
    assert kept.n == expect.sum()


def test_scores_order_invariant(rng):
    tr, _ = synth_gaussians(5, 30, 3, 2.0)
    perm = rng.permutation(tr.n)
    D2 = Dataset(tr.X[perm], tr.y[perm], tr.w[perm])
    for kind in [DefenseKind.l2(), DefenseKind.slab(), DefenseKind.svd(),
                 DefenseKind.knn(3)]:
        beta = fit_detector(kind, tr)
        beta2 = fit_detector(kind, D2)
        s1 = score_dataset(kind, beta, tr, training=True)
        s2 = score_dataset(kind, beta2, D2, training=True)
        np.testing.assert_allclose(s1[perm], s2, atol=1e-10)


def test_l2_slab_translation_covariant(rng):
    tr, _ = synth_gaussians(5, 30, 3, 2.0)
    shift = rng.standard_normal(3)
    D2 = Dataset(tr.X + shift, tr.y, tr.w)
    for kind in [DefenseKind.l2(), DefenseKind.slab()]:
        s1 = score_dataset(kind, fit_detector(kind, tr), tr, training=True)
        s2 = score_dataset(kind, fit_detector(kind, D2), D2, training=True)
        np.testing.assert_allclose(s1, s2, atol=1e-9)


@pytest.mark.parametrize("p", [0.01, 0.05, 0.1])
def test_removal_counts_near_p(p):
    tr, _ = synth_gaussians(33, 400, 4, 3.0)  # distinct scores a.s.
    kind = DefenseKind.l2()
    beta = fit_detector(kind, tr)
    tau = fit_thresholds(kind, beta, tr, p)
    kept = sanitize(tr, kind, beta, tau)
    for lab in (1.0, -1.0):
        m_y = (tr.y == lab).sum()
        removed = m_y - (kept.y == lab).sum()
        assert np.floor(p * m_y) - 1 <= removed <= np.ceil(p * m_y) + 1


def test_svd_rank_k_rows_have_tiny_residual(rng):
    B = rng.standard_normal((3, 6))
    coef = rng.standard_normal((40, 3))
    X = coef @ B
    D = Dataset.from_points(X, np.where(rng.random(40) < 0.5, 1.0, -1.0))
    kind = DefenseKind.svd(0.01)
    beta = fit_detector(kind, D)
    s = score_dataset(kind, beta, D)
    assert s.max() <= 1e-8 * max(1.0, np.linalg.norm(X))


def test_defend_and_train_no_poison_matches_manual_pipeline():
    tr, te = synth_gaussians(9, 120, 3, 3.0)
    kind = DefenseKind.l2()
    cfg = TrainConfig(lam=0.2)
    theta, err_fn, report = defend_and_train(tr, Dataset.empty(3), kind, 0.05,
                                             LossSpec.hinge(), cfg)
    beta = fit_detector(kind, tr)
    tau = fit_thresholds(kind, beta, tr, 0.05)
    manual = train(sanitize(tr, kind, beta, tau), LossSpec.hinge(), cfg)
    np.testing.assert_allclose(theta.theta, manual.theta, atol=1e-9)
    assert err_fn(te) == zero_one_error(manual, te)


def test_defend_and_train_filters_far_poison():
    tr, te = synth_gaussians(10, 300, 3, 4.0)
    cfg = TrainConfig(lam=0.1)
    far = Dataset.from_points(1e4 * np.ones((9, 3)), [1] * 9)
    kind = DefenseKind.l2()
    theta_p, err_p, _ = defend_and_train(tr, far, kind, 0.05, LossSpec.hinge(), cfg)
    theta_c, err_c, _ = defend_and_train(tr, Dataset.empty(3), kind, 0.05,
                                         LossSpec.hinge(), cfg)
    assert abs(err_p(te) - err_c(te)) <= 0.01


def test_hand_computed_scores_all_defenses():
    # 6-point fixture with arithmetic done by hand
    Xp = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    Xm = np.array([[-2.0, 0.0], [-1.0, 0.0], [-3.0, 0.0]])
    D = two_class(Xp, Xm)
    # centroids: mu+ = (1, 1/3), mu- = (-2, 0)
    l2beta = fit_detector(DefenseKind.l2(), D)
    np.testing.assert_allclose(l2beta.centroids[1], [1.0, 1.0 / 3.0])
    np.testing.assert_allclose(l2beta.centroids[-1], [-2.0, 0.0])
    # L2 score of (0,0,+1): ||(-1,-1/3)|| = sqrt(10)/3
    one = Dataset.from_points(Xp[0], [1.0])
    assert score_dataset(DefenseKind.l2(), l2beta, one)[0] == pytest.approx(np.sqrt(10.0) / 3.0)
    # slab axis = (3, 1/3); score of (2,0,+1): |(3,1/3).(1,-1/3)| = |3 - 1/9|
    slabbeta = fit_detector(DefenseKind.slab(), D)
    one = Dataset.from_points(Xp[1], [1.0])
    assert score_dataset(DefenseKind.slab(), slabbeta, one)[0] == pytest.approx(3.0 - 1.0 / 9.0)
    # knn k=1 of (-1,0,-1): nearest other reference is (-2,0) at distance 1
    knnbeta = fit_detector(DefenseKind.knn(1), D)
    s = score_dataset(DefenseKind.knn(1), knnbeta, D, training=True)
    assert s[4] == pytest.approx(1.0)
