"""Label-flip baseline: pick feasible flipped test points with high loss
under the clean model.

The bilevel label-flip objective (maximize the gap between poisoned-model and
clean-model loss on the flips) is stated declaratively in the literature; the
selection here is a greedy surrogate, ranking flips by their loss under the
clean model, with one optional re-ranking round after a trial retrain.
"""

from __future__ import annotations

import time

import numpy as np

from .data import Dataset, union
from .feasible import FeasibleSet, InfeasibleSetError
from .models import LossSpec, TrainConfig, loss_of_margin, margins, train
from .results import AttackResult, evaluated_result


def _select(pool: Dataset, scores: np.ndarray, budget: float) -> Dataset:
    """Take points by descending score until their weight reaches the budget
    exactly; the last point gets a fractional weight."""
    order = np.argsort(-scores, kind="stable")
    xs, ys, ws = [], [], []
    remaining = budget
    for i in order:
        if remaining <= 0:
            break
        take = min(pool.w[i], remaining)
        xs.append(pool.X[i])
        ys.append(pool.y[i])
        ws.append(take)
        remaining -= take
    if remaining > 1e-9 * (1.0 + budget) and xs:
        # pool exhausted: scale up to hit the budget exactly
        scale = budget / sum(ws)
        ws = [w * scale for w in ws]
    return Dataset(np.array(xs), np.array(ys), np.array(ws), pool.domain)


def run_alfa(D_c: Dataset, D_test: Dataset, epsilon: float, F: FeasibleSet,
             loss: LossSpec | None = None, lam: float = 0.1,
             defenses_for_eval=(), p: float = 0.05,
             config: TrainConfig | None = None, refine: bool = True,
             seed: int = 0) -> AttackResult:
    started = time.perf_counter()
    loss = loss or LossSpec.hinge()
    config = config or TrainConfig(lam=lam)
    if D_test.n == 0:
        raise ValueError("alfa needs a non-empty test pool")
    budget = epsilon * D_c.total_weight
    if budget <= 0:
        dp = Dataset.empty(D_c.d, D_c.domain)
        return evaluated_result("alfa", dp, D_c, D_test,
                                list(defenses_for_eval), p, loss, config,
                                started, seed=seed)
    theta_star = train(D_c, loss, config)
    flip = Dataset(D_test.X, -D_test.y, D_test.w, D_test.domain)
    feasible = np.array([F.contains(flip.X[i], flip.y[i]) for i in range(flip.n)])
    if not feasible.any():
        raise InfeasibleSetError("no flipped test point lies in the "
                                 "feasible set")
    pool = flip.subset(feasible)
    base_scores = loss_of_margin(loss, margins(theta_star, pool))
    dp = _select(pool, base_scores, budget)
    if refine and dp.n:
        theta_hat = train(union(D_c, dp), loss, config)
        gaps = base_scores - loss_of_margin(loss, margins(theta_hat, pool))
        dp = _select(pool, gaps, budget)
    return evaluated_result("alfa", dp, D_c, D_test, list(defenses_for_eval),
                            p, loss, config, started, seed=seed)
