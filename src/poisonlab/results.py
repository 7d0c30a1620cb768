"""Attack results and the defender-side evaluation grid.

An attack is judged by the minimum test error it forces across all deployed
defenses, each of which refits its detector and thresholds on the combined
clean + poisoned data before training.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .data import Dataset
from .defenses import DefenseKind, defend_and_train
from .models import LossSpec, TrainConfig


@dataclass
class AttackResult:
    attack: str
    dp: Dataset
    per_defense: dict = field(default_factory=dict)   # defense name -> test error
    defense_reports: list = field(default_factory=list)  # one report per defense
    min_over_defense: float | None = None
    seconds: float = 0.0
    decoy_provenance: dict | None = None
    seed: int | None = None
    trace: list = field(default_factory=list)         # per-iteration dict rows
    trajectory: list = field(default_factory=list)    # (seconds, error) pairs


def worker_count() -> int:
    """The defense-evaluation thread count, POISONLAB_WORKERS (default 1)."""
    raw = os.environ.get("POISONLAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"POISONLAB_WORKERS must be an integer >= 1, "
                         f"got {raw!r}")
    return workers


def evaluate_against_defenses(
    D_c: Dataset,
    D_p: Dataset,
    D_test: Dataset,
    defenses: list[DefenseKind],
    p: float,
    loss: LossSpec,
    config: TrainConfig,
    return_reports: bool = False,
    models: dict | None = None,
):
    """Test error per defense, each refit on D_c u D_p (the defender's view).
    ``models``, when given, maps each defense's name to the models dict its
    ``defend_and_train`` reads and updates (missing entries start empty)."""
    models = {} if models is None else models
    slots = [models.setdefault(k.kind, {}) for k in defenses]

    def one(kind: DefenseKind, slot: dict):
        _, err_fn, report = defend_and_train(D_c, D_p, kind, p, loss, config,
                                             slot)
        report = dict(report, test_error=err_fn(D_test))
        return kind.kind, report

    workers = worker_count()
    if workers > 1 and len(defenses) > 1:
        # imported here: a serial run need not load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            pairs = list(ex.map(one, defenses, slots))
    else:
        pairs = [one(k, slot) for k, slot in zip(defenses, slots)]
    errors = {name: rep["test_error"] for name, rep in pairs}
    if return_reports:
        return errors, [rep for _, rep in pairs]
    return errors


def evaluated_result(attack_name, dp, D_c, D_test, defenses, p, loss, config,
                     started: float, seed=None, decoy_provenance=None,
                     trace=None) -> AttackResult:
    res = AttackResult(attack=attack_name, dp=dp, seed=seed,
                       decoy_provenance=decoy_provenance, trace=trace or [])
    if defenses:
        res.per_defense, res.defense_reports = evaluate_against_defenses(
            D_c, dp, D_test, defenses, p, loss, config, return_reports=True)
        res.min_over_defense = min(res.per_defense.values())
    res.seconds = time.perf_counter() - started
    return res
