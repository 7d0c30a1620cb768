"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 solver failure.
POISONLAB_WORKERS sets the defense-evaluation worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import DataError, InputDomain, save_dataset
from .defenses import DefenseError
from .feasible import InfeasibleSetError
from .harness import (
    ConfigError,
    ExperimentConfig,
    cmd_attack,
    cmd_collapse,
    cmd_timing,
    cmd_transfer,
    decoys_to_obj,
    get_or_gen_decoys,
    load_experiment_data,
    picked,
    read_stored,
    write_trace_csv,
)
from .models import TrainingError, model_to_json, test_error_01, train

VALIDATION_ERRORS = (ConfigError, DataError, DefenseError, ValueError, KeyError,
                     FileNotFoundError, json.JSONDecodeError)
SOLVER_ERRORS = (TrainingError, InfeasibleSetError, RuntimeError)

# Flags default to unset (argparse.SUPPRESS): a flag left out keeps the
# --config file's value, or the default of the config field or function it
# sets.  These tables say where each given flag goes.
CONFIG_FLAGS = ("epsilon", "p", "lam", "loss", "objective", "seed",
                "output_dir")
DATASET_FLAGS = {  # per dataset kind, the keys of ExperimentConfig.dataset
    "synth": ("seed", "n", "d", "mean_separation", "class_balance"),
    "file": ("train", "test", "format", "domain"),
}
ATTACK_FLAGS = ("steps", "eta", "delta", "concentrated", "decoy_file", "T",
                "tau_loss", "n_burn")


def _add_common(sp):
    sp.add_argument("--config", help="JSON experiment config file; the flags "
                                     "given apply on top of it")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--loss", choices=["hinge", "smoothed_hinge", "logistic"])
    sp.add_argument("--objective", choices=["mean", "sum"])
    sp.add_argument("--defenses", nargs="*")
    sp.add_argument("--out", dest="output_dir")
    sp.add_argument("--synth-n", dest="n", type=int)
    sp.add_argument("--synth-d", dest="d", type=int)
    sp.add_argument("--synth-sep", dest="mean_separation", type=float)
    sp.add_argument("--synth-balance", dest="class_balance", type=float)
    sp.add_argument("--train-file", dest="train")
    sp.add_argument("--test-file", dest="test")
    sp.add_argument("--format", choices=["sparse-text", "dense-csv"])
    sp.add_argument("--domain", choices=[d.value for d in InputDomain])


def _config_from_args(args, attack: str | None = None) -> ExperimentConfig:
    """The --config file's config, or ExperimentConfig(), with the flags
    given applied on top; attack sets the attack, and the attack flags given
    update its attack_params."""
    given = vars(args)
    cfg = (ExperimentConfig.from_obj(json.loads(Path(args.config).read_text()))
           if "config" in args else ExperimentConfig())
    dataset = dict(cfg.dataset)
    if "train" in args and dataset["kind"] != "file":
        dataset = {"kind": "file"}
    dataset.update(picked(given, *DATASET_FLAGS.get(dataset["kind"], ())))
    fields = picked(given, *CONFIG_FLAGS)
    if "defenses" in args:
        fields["defenses"] = tuple(args.defenses)
    if attack is not None:
        fields.update(attack=attack, attack_params={
            **cfg.attack_params, **picked(given, *ATTACK_FLAGS)})
    return replace(cfg, dataset=dataset, **fields)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="poisonlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help,
                              argument_default=argparse.SUPPRESS)

    g = command("gen-data", "write a synthetic dataset to files")
    g.add_argument("--seed", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--sep", dest="mean_separation", type=float)
    g.add_argument("--balance", dest="class_balance", type=float)
    g.add_argument("--format", default="dense-csv",
                   choices=["sparse-text", "dense-csv"])
    g.add_argument("--train-out", required=True)
    g.add_argument("--test-out", required=True)

    t = command("train", "train on a dataset, print the model")
    _add_common(t)
    t.add_argument("--model-out")

    a = command("attack", "run an attack and report per-defense errors")
    a.add_argument("kind", choices=["influence", "kkt", "minmax",
                                    "minmax-basic", "alfa", "none"])
    _add_common(a)
    a.add_argument("--steps", type=int)
    a.add_argument("--eta", type=float)
    a.add_argument("--delta", type=float)
    a.add_argument("--basic", dest="concentrated", action="store_const",
                   const=False,
                   help="influence: per-point instead of concentrated")
    a.add_argument("--decoy-file")
    a.add_argument("--grid-T", dest="T", type=int)
    a.add_argument("--tau-loss", type=float,
                   help="minmax: fixed decoy-loss cap (default: per-class "
                        "(1-p)-quantile of clean losses under the decoy)")
    a.add_argument("--n-burn", type=int)

    d = command("decoys", "generate decoy parameters to a JSON file")
    _add_common(d)
    d.add_argument("--r-grid", type=int, nargs="*")
    d.add_argument("--q-grid", type=float, nargs="*")
    d.add_argument("--decoy-out", required=True)

    c = command("collapse", "collapse a stored attack to two points")
    c.add_argument("attack_file")
    c.add_argument("--tol", type=float)
    c.add_argument("--out")

    tr = command("transfer", "re-evaluate a stored attack under defender variants")
    tr.add_argument("attack_file")
    tr.add_argument("--lambdas", type=float, nargs="*")
    tr.add_argument("--optimizers", nargs="*", choices=["batch", "sgd"])
    tr.add_argument("--losses", nargs="*", choices=["hinge", "logistic"])
    tr.add_argument("--eta0", type=float)
    tr.add_argument("--out")

    tm = command("timing", "wall-clock to reach a target error")
    _add_common(tm)
    tm.add_argument("--attacks", nargs="*", default=["kkt", "influence"])
    tm.add_argument("--target-error", type=float, required=True)

    r = command("report", "merge run JSONs into a flat CSV")
    r.add_argument("files", nargs="+")
    r.add_argument("--csv-out", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args)
    try:
        if args.cmd == "gen-data":
            tr, te = load_experiment_data(_config_from_args(args))
            save_dataset(tr, args.train_out, args.format)
            save_dataset(te, args.test_out, args.format)
            print(f"wrote {args.train_out} ({tr.n} pts) and "
                  f"{args.test_out} ({te.n} pts)")
            return 0
        if args.cmd == "train":
            cfg = _config_from_args(args)
            D_c, D_test = load_experiment_data(cfg)
            theta = train(D_c, cfg.loss_spec(), cfg.train_config())
            err = test_error_01(theta, D_test)
            doc = model_to_json(theta, cfg.loss_spec(), cfg.lam)
            if "model_out" in args:
                Path(args.model_out).write_text(doc + "\n")
            print(f"test error {err:.4f}")
            return 0
        if args.cmd == "attack":
            cfg = _config_from_args(args, attack=args.kind)
            doc = cmd_attack(cfg)
            print(json.dumps({"per_defense": doc["per_defense"],
                              "min_over_defense": doc["min_over_defense"]},
                             sort_keys=True, indent=2))
            return 0
        if args.cmd == "decoys":
            cfg = _config_from_args(args)
            D_c, D_test = load_experiment_data(cfg)
            decoys = get_or_gen_decoys(cfg, D_c, D_test,
                                       picked(given, "r_grid", "q_grid"))
            Path(args.decoy_out).write_text(
                json.dumps(decoys_to_obj(decoys), sort_keys=True, indent=2))
            print(f"wrote {len(decoys)} decoys to {args.decoy_out}")
            return 0
        if args.cmd == "collapse":
            doc = read_stored(args.attack_file, "report")
            rep = cmd_collapse(doc, **picked(given, "tol"))
            text = json.dumps(rep, sort_keys=True, indent=2)
            if "out" in args:
                Path(args.out).write_text(text + "\n")
            print(text)
            return 0
        if args.cmd == "transfer":
            doc = read_stored(args.attack_file, "report")
            rows = cmd_transfer(doc, **picked(given, "lambdas", "optimizers",
                                              "losses", "eta0"))
            if "out" in args:
                write_trace_csv(rows, args.out)
            print(json.dumps(rows, sort_keys=True, indent=2))
            return 0
        if args.cmd == "timing":
            cfg = _config_from_args(args)
            rows = cmd_timing(cfg, args.attacks, args.target_error)
            print(json.dumps(rows, sort_keys=True, indent=2))
            return 0
        if args.cmd == "report":
            rows = []
            for f in args.files:
                doc = read_stored(f, "report")
                rows.append({"file": f, "attack": doc.get("attack"),
                             "min_over_defense": doc.get("min_over_defense"),
                             **{f"err_{k}": v
                                for k, v in doc.get("per_defense", {}).items()}})
            write_trace_csv(rows, args.csv_out)
            print(f"wrote {args.csv_out} ({len(rows)} rows)")
            return 0
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
