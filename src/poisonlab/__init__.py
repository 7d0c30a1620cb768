"""Data-poisoning attacks on linear classifiers with sanitization defenses."""

from .alfa import run_alfa
from .data import Dataset, InputDomain, load_dataset, save_dataset, synth_gaussians, union
from .defenses import DefenseKind, DetectorParams, Thresholds, defend_and_train, fit_detector, fit_thresholds, sanitize
from .feasible import (
    CollapsedAttack,
    FeasibleSet,
    build_feasible_set,
    collapse_two_points,
    verify_collapse,
)
from .influence import InfluenceConfig, influence_gradient, run_influence, test_gradient
from .kkt import DecoyParams, clean_gradient, gen_decoys, kkt_solve, projected_anchors, run_kkt, support_vector_set
from .minmax import max_loss_point, run_minmax, run_minmax_basic
from .models import (
    LossSpec,
    ModelParams,
    TrainConfig,
    avg_loss,
    inverse_hvp_cg,
    test_error_01,
    train,
    train_sgd_single_pass,
)
from .results import AttackResult
from .rounding import LpConstraint, expected_sq_distance, f_piecewise, repeat_round, round_point

__all__ = [
    "AttackResult",
    "CollapsedAttack",
    "Dataset",
    "DecoyParams",
    "DefenseKind",
    "DetectorParams",
    "FeasibleSet",
    "InfluenceConfig",
    "InputDomain",
    "LossSpec",
    "LpConstraint",
    "ModelParams",
    "Thresholds",
    "TrainConfig",
    "avg_loss",
    "build_feasible_set",
    "clean_gradient",
    "collapse_two_points",
    "defend_and_train",
    "expected_sq_distance",
    "f_piecewise",
    "fit_detector",
    "fit_thresholds",
    "gen_decoys",
    "influence_gradient",
    "inverse_hvp_cg",
    "kkt_solve",
    "load_dataset",
    "max_loss_point",
    "projected_anchors",
    "repeat_round",
    "round_point",
    "run_alfa",
    "run_influence",
    "run_kkt",
    "run_minmax",
    "run_minmax_basic",
    "sanitize",
    "save_dataset",
    "support_vector_set",
    "synth_gaussians",
    "test_error_01",
    "test_gradient",
    "train",
    "train_sgd_single_pass",
    "union",
    "verify_collapse",
]
