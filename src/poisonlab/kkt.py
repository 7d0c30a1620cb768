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

from .data import Dataset, union
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


def flipped(D: Dataset) -> Dataset:
    return Dataset(D.X, -D.y, D.w, D.domain)


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
            gamma = float(np.quantile(losses, q))
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
    return {lab: float(np.quantile(ls[D_c.y == lab], 1.0 - p))
            for lab in (1, -1)}


def support_vector_set(F: FeasibleSet, theta_decoy: ModelParams) -> FeasibleSet:
    """F with each class's support-vector cap, margin y theta_decoy^T x <= 1:
    the set ``kkt_solve`` searches.  Build it once per decoy, so that each
    class's face table is factored once for all of the decoy's splits."""
    th = theta_decoy.theta
    return (F.with_halfspace(1, HalfSpace(th, 1.0))
             .with_halfspace(-1, HalfSpace(-th, 1.0)))


def projected_anchors(F_sv: FeasibleSet, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Each class's anchor projected into F_sv, the points ``kkt_solve``
    starts from.  They depend on the decoy only: project them once for all
    of its splits.  Raises InfeasibleSetError where a class's set is empty."""
    return tuple(F_sv.project(F_sv.for_label(y).anchor(d), y) for y in (1, -1))


def kkt_solve(gDc: np.ndarray, theta_decoy: ModelParams, eps_plus: float,
              eps_minus: float, F_sv: FeasibleSet, lam_eff: float,
              anchors: tuple[np.ndarray, np.ndarray]):
    """Minimize ||gDc - eps+ x+ + eps- x- + lam_eff * theta_decoy||^2 over
    the points of F_sv, ``support_vector_set(F, theta_decoy)``, by
    accelerated projected gradient from ``anchors``,
    ``projected_anchors(F_sv, d)``.  The solve stops after the second step
    in a row that changes the objective by at most _SOLVE_TOL relative.
    The objective sees the points only through eps+ x+ - eps- x-, so where
    several pairs give the best difference the points are not unique:
    compare solves by their objective, not their points.
    Returns (x_plus, x_minus, objective); the points never alias
    ``anchors``, which later splits start from."""
    if eps_plus < 0 or eps_minus < 0:
        raise ValueError("class budgets must be non-negative")
    th = theta_decoy.theta
    x_p, x_m = (a.copy() for a in anchors)

    def residual(xp, xm):
        return gDc - eps_plus * xp + eps_minus * xm + lam_eff * th

    if eps_plus == 0 and eps_minus == 0:
        r = residual(x_p, x_m)
        return x_p, x_m, float(np.dot(r, r))

    L = 2.0 * (eps_plus ** 2 + eps_minus ** 2)
    step = 1.0 / L
    zp, zm = x_p, x_m
    t_acc = 1.0
    obj_prev = np.inf
    stall = 0
    for it in range(_SOLVE_ITERS):
        r = residual(zp, zm)
        gp = -2.0 * eps_plus * r
        gm = 2.0 * eps_minus * r
        xp_new = F_sv.project(zp - step * gp, 1) if eps_plus > 0 else x_p
        xm_new = F_sv.project(zm - step * gm, -1) if eps_minus > 0 else x_m
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
        beta = (t_acc - 1.0) / t_new
        zp = xp_new + beta * (xp_new - x_p)
        zm = xm_new + beta * (xm_new - x_m)
        x_p, x_m, t_acc = xp_new, xm_new, t_new
        r = residual(x_p, x_m)
        obj = float(np.dot(r, r))
        if abs(obj_prev - obj) <= _SOLVE_TOL * (1.0 + obj):
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        obj_prev = obj
    r = residual(x_p, x_m)
    return x_p, x_m, float(np.dot(r, r))


def run_kkt(D_c: Dataset, D_test: Dataset, epsilon: float,
            decoys: list[DecoyParams], F_builder, T: int = 6,
            defenses_for_eval=(), p: float = 0.05,
            loss: LossSpec | None = None,
            config: TrainConfig | None = None,
            seed: int = 0) -> AttackResult:
    """Grid search class splits for every decoy; keep the attack with the
    highest test error (min over defenses when any are supplied; ties resolve
    to the lower decoy index).  A (decoy, split) subproblem whose feasible
    set is empty is skipped and recorded in ``decoy_provenance["skipped"]``;
    InfeasibleSetError is raised only when every subproblem was skipped.

    Within a decoy, each split's retrains (with defenses: each defense's
    detector and defender) start from the previous split's models, which
    differ only in the poison split; results do not depend on it."""
    if not decoys:
        raise ValueError("need at least one decoy")
    started = time.perf_counter()
    loss = loss or LossSpec.hinge()
    config = config or TrainConfig()
    n_c = D_c.total_weight
    # the stationarity residual is weight-averaged over the clean weight, so
    # lambda is the mean-form one over all n_c (1 + eps), times (1 + eps)
    lam_eff = config.mean_lam(n_c * (1.0 + epsilon)) * (1.0 + epsilon)
    best = None  # (score, decoy_idx, t, dp, provenance)
    trajectory = []
    skipped = []
    for di, decoy in enumerate(decoys):
        F_sv = support_vector_set(F_builder(decoy), decoy.theta_decoy)
        gDc = clean_gradient(decoy.theta_decoy, D_c, loss)
        theta, models = None, {}  # the previous split's models
        anchors = None  # projected once; an empty class set skips every split
        for t in range(T + 1):
            eps_p = t * epsilon / T
            eps_m = epsilon - eps_p
            try:
                if anchors is None:
                    anchors = projected_anchors(F_sv, D_c.d)
                x_p, x_m, obj = kkt_solve(gDc, decoy.theta_decoy, eps_p, eps_m,
                                          F_sv, lam_eff, anchors)
            except InfeasibleSetError as exc:
                skipped.append({"decoy_index": di, "eps_plus": eps_p,
                                "reason": str(exc)})
                continue
            xs, ys, ws = [], [], []
            if eps_p > 0:
                xs.append(x_p); ys.append(1.0); ws.append(eps_p * n_c)
            if eps_m > 0:
                xs.append(x_m); ys.append(-1.0); ws.append(eps_m * n_c)
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
                        "kkt_objective": obj}
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
