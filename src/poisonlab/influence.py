"""Projected-gradient-ascent poisoning via influence functions.

The attacker repeatedly retrains, computes the derivative of the test loss
with respect to each poisoned point through the implicit dependence of the
learned parameters on the training data, steps along it, and projects back
into the feasible set.  The attack-side surrogate is the smoothed hinge (the
plain hinge has an almost-everywhere-zero Hessian); evaluation always uses
the defender's own loss.

In concentrated mode only two distinct points are optimized, one per class,
carrying the whole poison budget split inversely to the class balance.
The ascent runs on relaxed (real-valued) data; the poison is put into the
clean data's domain once, at the end, by ``round_poison``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, union
from .feasible import FeasibleSet
from .models import (
    LossSpec,
    ModelParams,
    TrainConfig,
    avg_loss,
    d2loss_dmargin2,
    dloss_dmargin,
    inverse_hvp_cg,
    margins,
    test_error_01,
    train,
)
from .results import AttackResult, evaluated_result
from .rounding import rng_from_seed, round_poison


# step sizes tried when none is given, in units of 1 / ||test gradient||
ETA_GRID = (1e-2, 1e-1, 1.0, 1e1, 1e2)


@dataclass(frozen=True)
class InfluenceConfig:
    eta: float | None = None          # fixed step size; None = grid search
    steps: int = 40
    delta: float = 0.01               # attack-side smoothing
    concentrated: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def test_gradient(theta: ModelParams, D_test: Dataset, loss: LossSpec) -> np.ndarray:
    """Weighted mean of per-point loss gradients over the test set."""
    if D_test.total_weight <= 0:
        raise ValueError("empty test set")
    coeff = D_test.w * dloss_dmargin(loss, margins(theta, D_test)) * D_test.y
    return D_test.X.T @ coeff / D_test.total_weight


def influence_gradient(theta: ModelParams, D: Dataset, Dp: Dataset,
                       g_test: np.ndarray, cfg: TrainConfig, loss: LossSpec,
                       v0: np.ndarray | None = None):
    """d(test loss)/dx of each point of the poison Dp inside training on
    D = D_c + Dp under cfg's objective: -(w_i/W) g_test^T H^-1 (d^2 ell /
    d theta d x), with H the Hessian of the mean-loss form at
    cfg.mean_lam(W), solved by ``inverse_hvp_cg`` to cfg.tol.  For a smooth
    margin loss the mixed partial is curv * x theta^T + y * coeff * I, with
    coeff and curv the first and second margin derivatives.  Returns (rows,
    v = H^-1 g_test), rows an n_p x d array; v0 warm-starts the solve where
    it is CG (d > 800)."""
    v = inverse_hvp_cg(theta, D, cfg.mean_lam(D.total_weight), g_test, loss,
                       tol=cfg.tol, x0=v0)
    th = theta.theta
    m = Dp.y * (Dp.X @ th)
    coeff = dloss_dmargin(loss, m)
    curv = d2loss_dmargin2(loss, m)
    rows = ((curv * (Dp.X @ v))[:, None] * th
            + (Dp.y * coeff)[:, None] * v)
    return (-1.0 / D.total_weight * Dp.w)[:, None] * rows, v


def init_label_flip(D_c: Dataset, epsilon: float, F: FeasibleSet,
                    seed: int) -> Dataset:
    """Poison initialization: clean points sampled with replacement, labels
    flipped, kept only when the flip already lies in F; total weight is
    exactly epsilon * |D_c|.  The result is real-valued."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    target = max(1, int(round(epsilon * D_c.total_weight)))
    rng = rng_from_seed(seed)
    xs, ys = [], []
    draws = 0
    cap = 200 * target + 200
    while len(xs) < target and draws < cap:
        i = int(rng.integers(D_c.n))
        draws += 1
        x, y_flip = D_c.X[i], -D_c.y[i]
        if F.contains(x, y_flip):
            xs.append(x)
            ys.append(y_flip)
    if not xs:
        raise RuntimeError("no feasible label flips found")
    w = np.full(len(xs), epsilon * D_c.total_weight / len(xs))
    return Dataset(np.array(xs), np.array(ys), w)


def _concentrated_init(D_c: Dataset, epsilon: float, F: FeasibleSet, seed: int):
    P = D_c.class_weight(1)
    N = D_c.class_weight(-1)
    n = D_c.total_weight
    weights = {1: epsilon * n * N / (P + N), -1: epsilon * n * P / (P + N)}
    rng = rng_from_seed(seed)
    pts = {}
    for lab in (1, -1):
        donors = np.flatnonzero(D_c.y == -lab)
        order = rng.permutation(donors)
        chosen = None
        for i in order:
            if F.contains(D_c.X[i], lab):
                chosen = D_c.X[i].copy()
                break
        if chosen is None:
            chosen = F.project(D_c.X[order[0]], lab)
        pts[lab] = chosen
    X = np.array([pts[1], pts[-1]])
    return Dataset(X, np.array([1.0, -1.0]), np.array([weights[1], weights[-1]]))


def _project_rows(F: FeasibleSet, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of X projected into F's set of its label, one batch per
    class."""
    out = np.empty_like(X)
    for lab in (1, -1):
        mask = y == lab
        if mask.any():
            out[mask] = F.project(X[mask], lab)
    return out


def _ascend(D_c, D_test, D_p0, theta, F, eta, steps, cfg, attack_loss, defender_loss):
    """Run the gradient-ascent loop on the defender's objective cfg; each
    step trains from the previous step's theta, the first from theta, the
    model of D_c + D_p0.  Returns (best Dp, trace rows)."""
    Dp = D_p0
    best = (None, -np.inf)
    trace = []
    v = None  # warm start for the inverse HVP across iterations (CG, d > 800)
    for it in range(steps + 1):
        D = union(D_c, Dp)
        theta = train(D, attack_loss, cfg, start=theta)
        surrogate = avg_loss(theta, D_test, defender_loss)
        err = test_error_01(theta, D_test)
        if surrogate > best[1]:
            best = (Dp, surrogate)
        if it == steps:
            trace.append({"iter": it, "test_loss": surrogate, "test_error": err,
                          "point_moved_norm": 0.0})
            break
        g_test = test_gradient(theta, D_test, attack_loss)
        grads, v = influence_gradient(theta, D, Dp, g_test, cfg, attack_loss, v)
        newX = _project_rows(F, Dp.X + eta * grads, Dp.y)
        moved = float(np.linalg.norm(newX - Dp.X, axis=1).sum())
        Dp = Dataset(newX, Dp.y, Dp.w, Dp.domain)
        trace.append({"iter": it, "test_loss": surrogate, "test_error": err,
                      "point_moved_norm": moved})
    return best[0] if best[0] is not None else Dp, trace


def run_influence(D_c: Dataset, D_test: Dataset, epsilon: float, F: FeasibleSet,
                  config: InfluenceConfig, defenses_for_eval=(), p: float = 0.05,
                  defender_loss: LossSpec | None = None,
                  defender_config: TrainConfig | None = None) -> AttackResult:
    started = time.perf_counter()
    defender_loss = defender_loss or LossSpec.hinge()
    defender_config = defender_config or TrainConfig()
    attack_loss = LossSpec.smoothed_hinge(config.delta)
    D_r = Dataset(D_c.X, D_c.y, D_c.w)  # relaxed copy, to train with poison

    if config.concentrated:
        D_p0 = _concentrated_init(D_c, epsilon, F, config.seed)
    else:
        raw = init_label_flip(D_c, epsilon, F, config.seed)
        D_p0 = Dataset(_project_rows(F, raw.X, raw.y), raw.y, raw.w, raw.domain)

    if config.steps == 0:
        dp = D_p0
        trace = []
    else:
        theta0 = train(union(D_r, D_p0), attack_loss, defender_config)
        g0 = np.linalg.norm(test_gradient(theta0, D_test, attack_loss))
        base = 1.0 / max(g0, 1e-12)
        etas = [config.eta] if config.eta is not None else \
            [s * base for s in ETA_GRID]
        best = (None, -np.inf, [])
        for eta in etas:
            dp_eta, trace_eta = _ascend(
                D_r, D_test, D_p0, theta0, F, eta, config.steps, defender_config,
                attack_loss, defender_loss)
            score = max(r["test_loss"] for r in trace_eta)
            if score > best[1]:
                best = (dp_eta, score, trace_eta)
        dp, _, trace = best

    dp = round_poison(dp, D_c.domain, config.seed + 7919)
    return evaluated_result("influence", dp, D_c, D_test, list(defenses_for_eval),
                            p, defender_loss, defender_config, started,
                            seed=config.seed, trace=trace)
