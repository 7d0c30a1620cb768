"""Experiment orchestration: attack x defense grids, transferability sweeps,
timing tables, and deterministic JSON/CSV reports."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .alfa import run_alfa
from .data import Dataset, InputDomain, load_dataset, synth_gaussians
from .defenses import ALL_DEFENSES, DefenseKind, defend
from .feasible import build_feasible_set, collapse_with_duals, verify_collapse
from .influence import InfluenceConfig, run_influence
from .kkt import DecoyParams, decoy_loss_caps, gen_decoys, run_kkt
from .minmax import run_minmax, run_minmax_basic
from .models import (
    LossSpec,
    ModelParams,
    TrainConfig,
    test_error_01,
    train,
    train_sgd_single_pass,
)
from .results import AttackResult, evaluated_result


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {
        "kind": "synth", "seed": 0, "n": 2000, "d": 20,
        "mean_separation": 4.2, "class_balance": 0.5})
    epsilon: float = 0.03
    p: float = 0.05
    defenses: tuple = ALL_DEFENSES
    attack: str = "none"
    attack_params: dict = field(default_factory=dict)
    lam: float = 0.1
    loss: str = "hinge"
    loss_delta: float = 0.01
    objective: str = "mean"
    seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5 and self.attack != "none":
            raise ConfigError("epsilon must lie in (0, 0.5]")
        if not 0.0 < self.p < 1.0:
            raise ConfigError("p must lie in (0,1)")
        unknown = set(self.defenses) - set(ALL_DEFENSES)
        if unknown:
            raise ConfigError(f"unknown defenses: {sorted(unknown)}")

    def loss_spec(self) -> LossSpec:
        return LossSpec(self.loss, self.loss_delta)

    def train_config(self) -> TrainConfig:
        return TrainConfig(lam=self.lam, objective=self.objective,
                           seed=self.seed)

    def defense_kinds(self) -> list[DefenseKind]:
        out = []
        for name in self.defenses:
            if name == "loss":
                out.append(DefenseKind.loss_defense(self.lam, self.loss_spec(),
                                                    self.objective))
            else:
                out.append(DefenseKind(name))
        return out

    @staticmethod
    def from_obj(obj) -> "ExperimentConfig":
        """The config a JSON object (a config file, a report's "config")
        describes; a key that names no field raises ConfigError."""
        if not isinstance(obj, dict):
            raise ConfigError("a config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**obj)


def load_experiment_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The (train, test) pair cfg.dataset names.  Synthetic keys left out
    take synth_gaussians' defaults; without "domain", each file's sidecar
    decides its domain."""
    ds = cfg.dataset
    if ds["kind"] == "synth":
        return synth_gaussians(ds["seed"], ds["n"], ds["d"],
                               ds["mean_separation"],
                               **picked(ds, "class_balance", "n_test"))
    if ds["kind"] == "file":
        missing = [k for k in ("train", "test") if k not in ds]
        if missing:
            raise ConfigError(f"the file dataset has no {' or '.join(missing)} "
                              "file")
        domain = InputDomain(ds["domain"]) if "domain" in ds else None
        return tuple(load_dataset(ds[k], ds.get("format", "sparse-text"), domain)
                     for k in ("train", "test"))
    raise ConfigError(f"unknown dataset kind {ds['kind']!r}")


# -- serialization ------------------------------------------------------------

def dataset_to_obj(D: Dataset) -> dict:
    return {"d": D.d, "domain": D.domain.value,
            "points": [[list(map(float, D.X[i])), float(D.y[i]), float(D.w[i])]
                       for i in range(D.n)]}


def dataset_from_obj(obj: dict) -> Dataset:
    pts = obj["points"]
    if not pts:
        return Dataset.empty(obj["d"], InputDomain(obj["domain"]))
    X = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts])
    w = np.array([p[2] for p in pts])
    return Dataset(X, y, w, InputDomain(obj["domain"]))


def decoys_to_obj(decoys: list[DecoyParams]) -> list[dict]:
    return [{"theta": [float(v) for v in d.theta_decoy.theta],
             "gamma": d.gamma, "r": d.r,
             "train_loss_on_clean": d.train_loss_on_clean,
             "test_error": d.test_error,
             "flip_weight": d.flip_weight,
             "clean_model_loss_on_flip": d.clean_model_loss_on_flip}
            for d in decoys]


def decoys_from_obj(objs: list[dict]) -> list[DecoyParams]:
    return [DecoyParams(ModelParams(np.array(o["theta"])), o["gamma"], o["r"],
                        o["train_loss_on_clean"], o["test_error"],
                        o.get("flip_weight", 0.0),
                        o.get("clean_model_loss_on_flip", 0.0))
            for o in objs]


def result_to_obj(cfg: ExperimentConfig, res: AttackResult) -> dict:
    return {
        "config": asdict(cfg) | {"defenses": list(cfg.defenses)},
        "attack": res.attack,
        "dp": dataset_to_obj(res.dp),
        "per_defense": {k: float(v) for k, v in res.per_defense.items()},
        "min_over_defense": res.min_over_defense,
        "defense_reports": res.defense_reports,
        "decoy_provenance": res.decoy_provenance,
        "seed": res.seed,
        "timing": {"seconds": res.seconds},
    }


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_stored(path, shape: str):
    """The JSON document stored in path, which must be an attack report
    (``shape="report"``) or a decoy file (``shape="decoys"``: a list of
    decoy objects whose theta is a list of numbers and whose other values
    are numbers); ConfigError names the file and the keys it must hold, or
    the field of the wrong type."""
    doc = json.loads(Path(path).read_text())
    if shape == "report":
        keys, what = {"config", "dp", "attack"}, "an attack report (an object"
        objs = [doc]
    else:
        keys = {"theta", "gamma", "r", "train_loss_on_clean", "test_error"}
        what = "a decoy file (a list of objects"
        objs = doc if isinstance(doc, list) else [None]
    if not all(isinstance(o, dict) and keys <= o.keys() for o in objs):
        raise ConfigError(f"{path} is not {what} with keys {', '.join(sorted(keys))})")
    if shape == "decoys":
        for i, o in enumerate(objs):
            theta = o["theta"]
            if not (isinstance(theta, list) and theta and all(map(_is_number, theta))):
                raise ConfigError(f"{path}: decoy {i}'s theta is not a list of numbers")
            for key in sorted((keys - {"theta"})
                              | {"flip_weight", "clean_model_loss_on_flip"}):
                if key in o and not _is_number(o[key]):
                    raise ConfigError(f"{path}: decoy {i}'s {key} is not a number")
    return doc


def write_report(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_trace_csv(rows: list[dict], path) -> None:
    """Write dict rows as CSV, columns sorted by name; with no rows the file
    still gets its (empty) header line."""
    keys = sorted({k for r in rows for k in r})
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=keys)
        wr.writeheader()
        wr.writerows(rows)


# -- commands -----------------------------------------------------------------

def picked(params: dict, *keys) -> dict:
    """The entries of params under the given keys, where set."""
    return {k: params[k] for k in keys if k in params}


def get_or_gen_decoys(cfg: ExperimentConfig, D_c, D_test, params: dict):
    decoy_file = params.get("decoy_file")
    if decoy_file:
        return decoys_from_obj(read_stored(decoy_file, "decoys"))
    grids = {k: tuple(v) for k, v in picked(params, "r_grid", "q_grid").items()}
    return gen_decoys(D_c, D_test, cfg.loss_spec(), cfg.lam,
                      objective=cfg.objective, **grids)


def run_attack(cfg: ExperimentConfig, D_c: Dataset, D_test: Dataset) -> AttackResult:
    """Run cfg.attack; each attack takes from cfg.attack_params only the keys
    it reads, and its own defaults fill the rest."""
    loss = cfg.loss_spec()
    tc = cfg.train_config()
    kinds = cfg.defense_kinds()
    pr = cfg.attack_params
    if cfg.attack == "none":
        started = time.perf_counter()
        dp = Dataset.empty(D_c.d, D_c.domain)
        return evaluated_result("none", dp, D_c, D_test, kinds, cfg.p, loss, tc,
                                started, seed=cfg.seed)
    F = build_feasible_set(D_c, cfg.p)
    if cfg.attack == "influence":
        icfg = InfluenceConfig(seed=cfg.seed, **picked(
            pr, "eta", "steps", "delta", "concentrated"))
        return run_influence(D_c, D_test, cfg.epsilon, F, icfg, kinds, cfg.p,
                             loss, tc)
    if cfg.attack == "kkt":
        decoys = get_or_gen_decoys(cfg, D_c, D_test, pr)

        def F_builder(decoy):
            caps = decoy_loss_caps(D_c, decoy.theta_decoy, loss, cfg.p)
            return F.with_decoy_caps(decoy.theta_decoy, loss, caps)

        return run_kkt(D_c, D_test, cfg.epsilon, decoys, F_builder,
                       defenses_for_eval=kinds, p=cfg.p, loss=loss, config=tc,
                       seed=cfg.seed, **picked(pr, "T"))
    if cfg.attack == "minmax":
        decoys = get_or_gen_decoys(cfg, D_c, D_test, pr)
        return run_minmax(D_c, D_test, cfg.epsilon, F, decoys, lam=cfg.lam,
                          loss=loss, defenses_for_eval=kinds, p=cfg.p,
                          config=tc, seed=cfg.seed,
                          **picked(pr, "tau_loss", "eta", "n_burn"))
    if cfg.attack == "minmax-basic":
        return run_minmax_basic(D_c, cfg.epsilon, F, lam=cfg.lam, loss=loss,
                                D_test=D_test, defenses_for_eval=kinds, p=cfg.p,
                                config=tc, seed=cfg.seed,
                                **picked(pr, "eta", "n_burn"))
    if cfg.attack == "alfa":
        return run_alfa(D_c, D_test, cfg.epsilon, F, loss, cfg.lam, kinds,
                        cfg.p, tc, seed=cfg.seed, **picked(pr, "refine"))
    raise ConfigError(f"unknown attack {cfg.attack!r}")


def cmd_attack(cfg: ExperimentConfig) -> dict:
    D_c, D_test = load_experiment_data(cfg)
    res = run_attack(cfg, D_c, D_test)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.attack}_seed{cfg.seed}"
    doc = result_to_obj(cfg, res)
    write_report(doc, out / f"{stem}.json")
    if res.trace:
        write_trace_csv(res.trace, out / f"{stem}_trace.csv")
    return doc


def defender_variant_error(D_c, D_p, D_test, kind, p, loss, tc,
                           optimizer: str) -> float:
    """Defender pipeline with a possibly non-exact optimizer."""
    fit = train if optimizer == "batch" else train_sgd_single_pass
    _, D_san, _ = defend(D_c, D_p, kind, p)
    return test_error_01(fit(D_san, loss, tc), D_test)


def cmd_transfer(attack_doc: dict, lambdas=None, optimizers=("batch",),
                 losses=("hinge",), eta0: float = 0.1) -> list[dict]:
    """Replay a stored attack against defender variants; one row per
    (lambda, optimizer, loss, defense)."""
    cfg = ExperimentConfig.from_obj(attack_doc["config"])
    D_c, D_test = load_experiment_data(cfg)
    D_p = dataset_from_obj(attack_doc["dp"])
    rows = []
    for lam in lambdas or [cfg.lam]:
        for opt in optimizers:
            for loss_name in losses:
                variant = replace(cfg, lam=lam, loss=loss_name)
                loss = variant.loss_spec()
                tc = replace(variant.train_config(), eta0=eta0)
                for kind in variant.defense_kinds():
                    err = defender_variant_error(D_c, D_p, D_test, kind, cfg.p,
                                                 loss, tc, opt)
                    rows.append({"lambda": lam, "optimizer": opt,
                                 "loss": loss_name, "defense": kind.kind,
                                 "test_error": err})
    return rows


def cmd_collapse(attack_doc: dict, tol: float = 1e-4) -> dict:
    """Collapse a stored attack to two points and verify by retraining.
    Both run on the relaxed (real-valued) view of D_c and D_p: a collapsed
    point is a weighted mean, so it leaves an integer domain."""
    cfg = ExperimentConfig.from_obj(attack_doc["config"])
    D_c, _ = load_experiment_data(cfg)
    D_c = Dataset(D_c.X, D_c.y, D_c.w)
    D_p = dataset_from_obj(attack_doc["dp"])
    D_p = Dataset(D_p.X, D_p.y, D_p.w)
    loss = cfg.loss_spec()
    theta, collapsed = collapse_with_duals(D_c, D_p, loss, cfg.lam,
                                           objective=cfg.objective)
    ok = verify_collapse(D_c, D_p, collapsed, loss, cfg.lam, tol=tol,
                         objective=cfg.objective)
    return {
        "collapsed": dataset_to_obj(collapsed.points),
        "fold_alphas": list(collapsed.fold_alphas),
        "distinct_points": collapsed.points.n,
        "total_weight": collapsed.points.total_weight,
        "source_weight": D_p.total_weight,
        "verified": bool(ok),
        "tol": tol,
    }


def cmd_timing(cfg: ExperimentConfig, attacks: list[str],
               target_error: float) -> list[dict]:
    """Wall-clock to reach a target min-over-defense error, per attack."""
    D_c, D_test = load_experiment_data(cfg)
    rows = []
    for name in sorted(attacks):
        res = run_attack(replace(cfg, attack=name), D_c, D_test)
        traj = res.trajectory or [(res.seconds, res.min_over_defense)]
        reached = [t for t, e in traj if e is not None and e >= target_error]
        rows.append({
            "attack": name,
            "seconds_total": res.seconds,
            "target_error": target_error,
            "seconds_to_target": min(reached) if reached else None,
            "reached": bool(reached),
            "final_error": res.min_over_defense,
            "trajectory": [[t, e] for t, e in traj],
        })
    return rows
