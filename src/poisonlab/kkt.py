"""The KKT attack: drive the defender to attacker-chosen decoy parameters.

Decoy candidates come from retraining on the clean data plus r copies of
high-loss label-flipped test points.  Given decoy parameters, two poisoned
points (one per class) are placed so their gradients cancel the clean-data
stationarity residual at the decoy, making it the training-loss minimizer;
the class split of the poison budget is grid searched.  Each split's two
points are put into the clean data's domain by ``round_poison`` before the
battery scores them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, flipped, union
from .feasible import FeasibleSet, HalfSpace, InfeasibleSetError
from .models import (
    _MARGIN_BAND,
    HINGE,
    LossSpec,
    ModelParams,
    TrainConfig,
    avg_loss,
    dloss_dmargin,
    loss_of_margin,
    margins,
    test_error_01,
    train,
)
from .results import AttackResult, evaluate_against_defenses
from .rounding import round_poison

DEFAULT_R_GRID = (1, 2, 3, 5, 8, 12, 18, 25, 33)
DEFAULT_Q_GRID = (0.05, 0.2, 0.35, 0.5)
_SOLVE_ITERS = 10_000   # accelerated projected-gradient steps, at most
_SOLVE_TOL = 1e-12      # relative objective change counted as settled


@dataclass(frozen=True)
class DecoyParams:
    theta_decoy: ModelParams
    gamma: float                 # loss threshold used
    r: int                       # repeat count used
    train_loss_on_clean: float
    test_error: float
    flip_weight: float = 0.0
    clean_model_loss_on_flip: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.test_error <= 1.0:
            raise ValueError("test_error must lie in [0,1]")


def pareto_prune(cands: list[DecoyParams]) -> list[DecoyParams]:
    """Drop every candidate strictly dominated in (test_error up, clean
    training loss down); the survivors form a Pareto frontier."""
    keep = []
    for i, a in enumerate(cands):
        dominated = any(
            (b.test_error >= a.test_error and b.train_loss_on_clean <= a.train_loss_on_clean
             and (b.test_error > a.test_error or b.train_loss_on_clean < a.train_loss_on_clean))
            for j, b in enumerate(cands) if j != i)
        if not dominated:
            keep.append(a)
    return keep


def gen_decoys(D_c: Dataset, D_test: Dataset, loss: LossSpec, lam: float,
               r_grid=DEFAULT_R_GRID, q_grid=DEFAULT_Q_GRID,
               objective: str = "mean", prune: bool = True) -> list[DecoyParams]:
    """Candidate decoys over the (repeats x loss-quantile) grid.

    For each (r, q): gamma is the q-quantile of the loss of the label-flipped
    test set under the clean model; the flips at or above gamma are added with
    weight r and the model is retrained."""
    if not r_grid or not q_grid:
        raise ValueError("grids must be non-empty")
    cfg = TrainConfig(lam=lam, objective=objective)
    theta_c = train(D_c, loss, cfg)
    flip_all = flipped(D_test)
    losses = loss_of_margin(loss, margins(theta_c, flip_all))
    out = []
    for r in r_grid:
        for q in q_grid:
            gamma = _quantile(losses, q)
            mask = losses >= gamma
            D_flip = Dataset(flip_all.X[mask], flip_all.y[mask],
                             flip_all.w[mask] * r, flip_all.domain)
            theta_d = train(union(D_c, D_flip), loss, cfg)
            out.append(DecoyParams(
                theta_d, gamma, r,
                avg_loss(theta_d, D_c, loss),
                test_error_01(theta_d, D_test),
                flip_weight=D_flip.total_weight,
                clean_model_loss_on_flip=avg_loss(theta_c, D_flip, loss)))
    return pareto_prune(out) if prune else out


def clean_gradient(theta_decoy: ModelParams, D_c: Dataset,
                   loss: LossSpec) -> np.ndarray:
    """Weighted mean clean-data gradient at the decoy parameters.  For the
    hinge, margins within the witness band of 1 take the zero subgradient,
    each point's minimal-norm choice, where the loss is 0 too: decoys are
    trained to that band, so which side of 1 such a margin rounds to is
    noise, and it must not move the poison."""
    m = margins(theta_decoy, D_c)
    slope = dloss_dmargin(loss, m)
    if loss.kind == HINGE:
        slope[np.abs(m - 1.0) <= _MARGIN_BAND * (1.0 + np.abs(m))] = 0.0
    coeff = D_c.w * slope * D_c.y
    return D_c.X.T @ coeff / D_c.total_weight


def decoy_loss_caps(D_c: Dataset, theta_decoy: ModelParams, loss: LossSpec,
                    p: float) -> dict:
    """Quantile-adaptive decoy-loss caps: the (1-p) quantile of clean-point
    losses under the decoy, per class (mirrors the defender's thresholding)."""
    ls = loss_of_margin(loss, margins(theta_decoy, D_c))
    return {lab: _quantile(ls[D_c.y == lab], 1.0 - p) for lab in (1, -1)}


def _quantile(a: np.ndarray, q: float) -> float:
    """np.quantile(a, q) by its default linear rule, bit for bit: at the
    virtual index v = (n - 1) q, numpy's lerp between the order statistics
    i = floor(v) and i + 1, which np.partition places, with weight t = v - i,
    measured from the upper one where t >= 0.5.  np.quantile itself calls
    np.unique, which imports numpy.ma, about 1 MB that nothing else loads."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("Quantiles must be in the range [0, 1]")
    v = (len(a) - 1) * q
    if v >= len(a) - 1:
        return float(np.max(a))
    i = int(v)
    lo, hi = np.partition(a, (i, i + 1))[i:i + 2]
    t, diff = v - i, hi - lo
    return float(hi - diff * (1.0 - t) if t >= 0.5 else lo + diff * t)


def kkt_solve(gDc: np.ndarray, theta_decoy: ModelParams, eps_plus: np.ndarray,
              eps_minus: np.ndarray, F: FeasibleSet, lam_eff: float):
    """For each of the S class splits (eps_plus[s], eps_minus[s]), minimize
    ||gDc - eps+ x+ + eps- x- + lam_eff * theta_decoy||^2 over the points of
    F with each class's support-vector cap, margin y theta_decoy^T x <= 1,
    by accelerated projected gradient from each class's anchor projected
    into that set.  The splits run in one loop over S x d arrays: each step
    projects the live splits' points of a class in one batch.  A split
    stops after the second step in a row that changes its objective by at
    most _SOLVE_TOL relative, and is not projected again.  The objective
    sees the points only through eps+ x+ - eps- x-, so where several pairs
    give the best difference the points are not unique: compare solves by
    their objective, not their points.

    Returns (X_plus, X_minus, objective, failed): S x d, S x d and S arrays,
    and a dict mapping each split whose projection could not be certified
    to its InfeasibleSetError; that split stops, and its rows are not an
    answer.  Raises InfeasibleSetError where a class's set is empty."""
    th = theta_decoy.theta
    F = (F.with_halfspace(1, HalfSpace(th, 1.0))
          .with_halfspace(-1, HalfSpace(-th, 1.0)))
    anchors = [F.project(F.for_label(y).anchor(theta_decoy.d), y)
               for y in (1, -1)]
    eps = {1: np.asarray(eps_plus, dtype=float),
           -1: np.asarray(eps_minus, dtype=float)}
    if (eps[1] < 0).any() or (eps[-1] < 0).any():
        raise ValueError("class budgets must be non-negative")
    X = {y: np.tile(a, (len(eps[1]), 1)) for y, a in zip((1, -1), anchors)}

    def residual(xp, xm):
        return gDc - eps[1][:, None] * xp + eps[-1][:, None] * xm + lam_eff * th

    L = 2.0 * (eps[1] ** 2 + eps[-1] ** 2)
    step = 1.0 / np.where(L > 0.0, L, 1.0)
    Z = {y: x.copy() for y, x in X.items()}
    live = L > 0.0
    t_acc = 1.0
    obj_prev, stall = np.full(len(L), np.inf), np.zeros(len(L), dtype=int)
    failed = {}
    for _ in range(_SOLVE_ITERS):
        if not live.any():
            break
        r = residual(Z[1], Z[-1])
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
        beta = (t_acc - 1.0) / t_new
        for y in (1, -1):
            rows = np.flatnonzero(live & (eps[y] > 0.0))
            if not rows.size:
                continue
            g = (-2.0 * y * eps[y][rows])[:, None] * r[rows]
            errors = {}
            x_new = F.project(Z[y][rows] - step[rows, None] * g, y, errors)
            for i, exc in errors.items():
                failed[int(rows[i])] = exc
                live[rows[i]] = False
            rows, x_new = rows[live[rows]], x_new[live[rows]]
            Z[y][rows] = x_new + beta * (x_new - X[y][rows])
            X[y][rows] = x_new
        t_acc = t_new
        r = residual(X[1], X[-1])
        obj = np.einsum("sd,sd->s", r, r)
        settled = np.abs(obj_prev - obj) <= _SOLVE_TOL * (1.0 + obj)
        stall = np.where(settled, stall + 1, 0)
        live &= stall < 2
        obj_prev = obj
    r = residual(X[1], X[-1])
    return X[1], X[-1], np.einsum("sd,sd->s", r, r), failed


def run_kkt(D_c: Dataset, D_test: Dataset, epsilon: float,
            decoys: list[DecoyParams], F_builder, T: int = 6,
            defenses_for_eval=(), p: float = 0.05,
            loss: LossSpec | None = None,
            config: TrainConfig | None = None,
            seed: int = 0) -> AttackResult:
    """Grid search class splits for every decoy; keep the attack with the
    highest test error (min over defenses when any are supplied; ties resolve
    to the lower decoy index).  A decoy's T + 1 splits are solved together,
    in one ``kkt_solve``.  A (decoy, split) subproblem whose feasible set is
    empty, or whose projection cannot be certified, is skipped and recorded
    in ``decoy_provenance["skipped"]``; InfeasibleSetError is raised only
    when every subproblem was skipped.

    Within a decoy, each split's retrains (with defenses: each defense's
    detector and defender) start from the previous split's models, which
    differ only in the poison split; results do not depend on it."""
    if not decoys:
        raise ValueError("need at least one decoy")
    if T < 1:
        raise ValueError("T must be at least 1")
    started = time.perf_counter()
    loss = loss or LossSpec.hinge()
    config = config or TrainConfig()
    n_c = D_c.total_weight
    # the stationarity residual is weight-averaged over the clean weight, so
    # lambda is the mean-form one over all n_c (1 + eps), times (1 + eps)
    lam_eff = config.mean_lam(n_c * (1.0 + epsilon)) * (1.0 + epsilon)
    eps_plus = np.arange(T + 1) * epsilon / T
    eps_minus = epsilon - eps_plus
    best = None  # (score, decoy_idx, t, dp, provenance)
    trajectory = []
    skipped = []
    for di, decoy in enumerate(decoys):
        F = F_builder(decoy)
        gDc = clean_gradient(decoy.theta_decoy, D_c, loss)
        theta, models = None, {}  # the previous split's models
        try:
            X_p, X_m, objs, failed = kkt_solve(
                gDc, decoy.theta_decoy, eps_plus, eps_minus, F, lam_eff)
        except InfeasibleSetError as exc:  # an empty class set: every split
            failed = dict.fromkeys(range(T + 1), exc)
        for t in range(T + 1):
            eps_p, eps_m = float(eps_plus[t]), float(eps_minus[t])
            if t in failed:
                skipped.append({"decoy_index": di, "eps_plus": eps_p,
                                "reason": str(failed[t])})
                continue
            xs, ys, ws = [], [], []
            if eps_p > 0:
                xs.append(X_p[t]); ys.append(1.0); ws.append(eps_p * n_c)
            if eps_m > 0:
                xs.append(X_m[t]); ys.append(-1.0); ws.append(eps_m * n_c)
            dp = (Dataset(np.array(xs), np.array(ys), np.array(ws))
                  if xs else Dataset.empty(D_c.d))
            dp = round_poison(dp, D_c.domain, seed + 31 * di + t)
            if defenses_for_eval:
                errs, reports = evaluate_against_defenses(
                    D_c, dp, D_test, list(defenses_for_eval), p, loss, config,
                    return_reports=True, models=models)
                score = min(errs.values())
            else:
                theta = train(union(D_c, dp), loss, config, start=theta)
                errs, reports = {}, []
                score = test_error_01(theta, D_test)
            trajectory.append((time.perf_counter() - started, score))
            if best is None or score > best[0]:
                prov = {"decoy_index": di, "r": decoy.r, "gamma": decoy.gamma,
                        "eps_plus": eps_p, "eps_minus": eps_m,
                        "kkt_objective": float(objs[t])}
                best = (score, di, t, dp, prov, errs, reports)
    if best is None:
        raise InfeasibleSetError(
            f"every KKT subproblem was infeasible ({len(skipped)} skipped)"
            + (f": {skipped[0]['reason']}" if skipped else ""))
    score, _, _, dp, prov, errs, reports = best
    prov["skipped"] = skipped
    res = AttackResult(attack="kkt", dp=dp, per_defense=errs,
                       defense_reports=reports, seed=seed,
                       decoy_provenance=prov)
    res.min_over_defense = min(errs.values()) if errs else score
    res.seconds = time.perf_counter() - started
    res.trajectory = trajectory
    return res
