"""Min-max saddle-point attack.

Approximating the test loss by the clean training loss turns the bilevel
attacker problem into a saddle point: descend on theta while repeatedly
adding the highest-loss feasible point.  The post-burn-in maximizers form
the attack.  The improved variant constrains every candidate to have low
loss under decoy parameters, which is what lets it slip past the loss
defense; it assumes test and training data share a distribution.  The
collected maximizers are put into the clean data's domain by
``round_poison``.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from .data import Dataset
from .feasible import FeasibleSet, InfeasibleSetError
from .kkt import decoy_loss_caps
from .models import LossSpec, TrainConfig, dloss_dmargin, loss_of_margin
from .results import AttackResult, evaluated_result
from .rounding import round_poison


class DivergenceError(RuntimeError):
    def __init__(self, msg, trace):
        super().__init__(msg)
        self.trace = trace


def warn_if_distribution_shift(D_c: Dataset, D_test: Dataset) -> bool:
    """The attack substitutes training loss for test loss, which only holds
    when both sets share a distribution; emit a warning when the class
    centroids disagree by more than half a (pooled) standard deviation."""
    import warnings

    shifted = False
    for lab in (1.0, -1.0):
        a, b = D_c.y == lab, D_test.y == lab
        if not a.any() or not b.any():
            continue
        mu_a = np.average(D_c.X[a], axis=0, weights=D_c.w[a])
        mu_b = np.average(D_test.X[b], axis=0, weights=D_test.w[b])
        spread = float(np.mean(np.std(D_c.X[a], axis=0))) + 1e-12
        if np.linalg.norm(mu_a - mu_b) / np.sqrt(D_c.d) > 0.5 * spread:
            shifted = True
    if shifted:
        warnings.warn("test data looks distribution-shifted from the "
                      "training data; the min-max attack assumes they share "
                      "a distribution", stacklevel=2)
    return shifted


def max_loss_point(theta: np.ndarray, F: FeasibleSet, loss: LossSpec):
    """Highest-loss feasible point: per label, minimize the margin (losses are
    margin-decreasing), then take the larger loss; ties go to label +1."""
    best = None
    for y in (1.0, -1.0):  # +1 first, so ties keep it
        x = F.min_margin_point(theta, y)
        m = y * float(np.dot(theta, x))
        val = float(loss_of_margin(loss, m))
        if best is None or val > best[2] + 1e-12:
            best = (x, y, val, m)
    return best


def run_minmax_basic(D_c: Dataset, epsilon: float, F: FeasibleSet,
                     eta: float | None = None, n_burn: int | None = None,
                     lam: float = 0.1, loss: LossSpec | None = None,
                     D_test: Dataset | None = None, defenses_for_eval=(),
                     p: float = 0.05, config: TrainConfig | None = None,
                     seed: int = 0) -> AttackResult:
    """Subgradient descent on the saddle objective; collects one maximizer per
    post-burn-in iteration, then normalizes their weights to a total of
    exactly epsilon * |D_c|.

    Each trace row carries ``upper_bound``, the certified bound U(theta_t) of
    Steinhardt, Koh & Liang (2017) at the current iterate: the learner's
    objective, rescaled to the clean weight, with the poison term replaced
    by epsilon * max_F loss.  For any poison of weight epsilon * |D_c|
    inside F, the clean training loss of the model the learner fits on
    D_c + D_p is at most U(theta) for every theta; see
    ``certified_loss_bound``."""
    started = time.perf_counter()
    loss = loss or LossSpec.hinge()
    config = config or TrainConfig(lam=lam)
    n = D_c.total_weight
    n_poison = int(round(epsilon * n))
    if n_burn is None:
        n_burn = int(round(n / 10.0))
    if eta is None:
        eta = 0.05 / lam
    theta = np.zeros(D_c.d)
    collected = []
    trace = []
    bound = 1e6 * (1.0 + float(np.abs(D_c.X).max(initial=1.0)))
    # regularizer of the learner's objective rescaled to clean weight n
    reg = config.mean_lam(n * (1.0 + epsilon)) * (1.0 + epsilon)
    total_iters = n_burn + n_poison
    for t in range(1, total_iters + 1):
        x, y, val, m = max_loss_point(theta, F, loss)
        mc = D_c.y * (D_c.X @ theta)
        clean_loss = float(np.dot(D_c.w, loss_of_margin(loss, mc))) / n
        upper = 0.5 * reg * float(theta @ theta) + clean_loss + epsilon * val
        coeff = D_c.w * dloss_dmargin(loss, mc) * D_c.y
        grad_clean = D_c.X.T @ coeff / n
        g_point = float(dloss_dmargin(loss, m)) * y * x
        step = eta / np.sqrt(t)
        theta = theta - step * (lam * theta + grad_clean + epsilon * g_point)
        row = {"t": t, "max_loss": val, "margin": m, "label": int(y),
               "upper_bound": upper}
        if t > n_burn:
            collected.append((x, y))
            row["collected"] = True
        trace.append(row)
        if np.linalg.norm(theta) > bound:
            raise DivergenceError(f"theta norm exceeded {bound:.1e} at t={t}",
                                  trace)
    if collected:
        X = np.array([c[0] for c in collected])
        ys = np.array([c[1] for c in collected])
        w = np.full(len(collected), epsilon * n / len(collected))
        dp = Dataset(X, ys, w)
    else:
        dp = Dataset.empty(D_c.d)
    dp = round_poison(dp, D_c.domain, seed + 4241)
    return evaluated_result("minmax-basic", dp, D_c, D_test,
                            list(defenses_for_eval) if D_test is not None else [],
                            p, loss, config, started, seed=seed, trace=trace)


def certified_loss_bound(trace: list) -> float:
    """Smallest U(theta_t) over a min-max trace: an upper bound on the clean
    training loss (hence on the clean 0-1 training error, for the hinge) of
    the model fitted on D_c + D_p, for every poison of the run's weight
    inside its F, when the defense keeps every clean point.  max_F loss is
    exact up to floating point: the margin solver certifies its minimizer
    on every set it accepts (it does not accept LP sets yet)."""
    return min(r["upper_bound"] for r in trace)


def points_at_cap(dp: Dataset, theta_decoy, loss: LossSpec,
                  caps: dict) -> dict:
    """Per class, how many poison points sit on their decoy-loss cap (within
    1e-4 * (1 + cap), above the margin solver's tolerance): zero means the
    cap never bound the attack."""
    dl = loss_of_margin(loss, dp.y * (dp.X @ theta_decoy.theta))
    return {lab: int(np.sum((dp.y == lab) &
                            (dl >= caps[lab] - 1e-4 * (1.0 + caps[lab]))))
            for lab in (1, -1)}


def run_minmax(D_c: Dataset, D_test: Dataset, epsilon: float,
               F_base: FeasibleSet, decoys, tau_loss: float | None = None,
               eta: float | None = None, n_burn: int | None = None,
               lam: float = 0.1, loss: LossSpec | None = None,
               defenses_for_eval=(), p: float = 0.05,
               config: TrainConfig | None = None,
               seed: int = 0) -> AttackResult:
    """Decoy-constrained variant: candidates must additionally keep low loss
    under the decoy parameters; sweeps the supplied decoys and returns the
    best result (by min-over-defense error).

    The per-class cap is tau_loss when given; otherwise it is KKT's
    ``decoy_loss_caps``, the (1-p)-quantile of clean losses under the decoy:
    the largest loss a point can have and still survive the loss defense
    once the learner has moved to the decoy.  ``decoy_provenance["caps"]``
    holds the caps used and ``["at_cap"]`` counts, per class, the poison
    points on their cap; where both are zero the cap never bound and the
    result is that of unconstrained min-max on F.  A decoy whose capped class
    set is empty is skipped and recorded in ``decoy_provenance["skipped"]``;
    InfeasibleSetError is raised only when every decoy was skipped."""
    started = time.perf_counter()
    loss = loss or LossSpec.hinge()
    warn_if_distribution_shift(D_c, D_test)
    best = None
    trajectory = []
    skipped = []
    for di, decoy in enumerate(decoys):
        if tau_loss is None:
            caps = decoy_loss_caps(D_c, decoy.theta_decoy, loss, p)
        else:
            caps = {1: tau_loss, -1: tau_loss}
        F = F_base.with_decoy_caps(decoy.theta_decoy, loss, caps)
        try:
            res = run_minmax_basic(D_c, epsilon, F, eta=eta, n_burn=n_burn,
                                   lam=lam, loss=loss, D_test=D_test,
                                   defenses_for_eval=defenses_for_eval, p=p,
                                   config=config, seed=seed)
        except InfeasibleSetError as exc:
            skipped.append({"decoy_index": di, "reason": str(exc)})
            continue
        res.attack = "minmax"
        score = res.min_over_defense
        trajectory.append((time.perf_counter() - started, score))
        if best is None or (score is not None and score > best[0]):
            res.decoy_provenance = {
                "decoy_index": di, "r": decoy.r, "gamma": decoy.gamma,
                "tau_loss": tau_loss, "caps": caps,
                "at_cap": points_at_cap(res.dp, decoy.theta_decoy, loss, caps)}
            best = (score if score is not None else -1.0, res)
    if best is None:
        if skipped:
            reasons = Counter(s["reason"] for s in skipped)
            raise InfeasibleSetError("every decoy was skipped: " + "; ".join(
                f"{reason} ({n} of {len(skipped)})" for reason, n in reasons.items()))
        raise ValueError("no decoys supplied")
    out = best[1]
    out.decoy_provenance["skipped"] = skipped
    out.seconds = time.perf_counter() - started
    out.trajectory = trajectory
    return out
