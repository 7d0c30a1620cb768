"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 solver failure.
POISONLAB_WORKERS sets the defense-evaluation worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import DataError, InputDomain, load_dataset, save_dataset, synth_gaussians
from .defenses import ALL_DEFENSES, DefenseError
from .feasible import InfeasibleSetError
from .harness import (
    ConfigError,
    ExperimentConfig,
    cmd_attack,
    cmd_collapse,
    cmd_timing,
    cmd_transfer,
    decoys_to_obj,
    gen_decoys,
    load_experiment_data,
    write_report,
    write_trace_csv,
)
from .kkt import DEFAULT_Q_GRID, DEFAULT_R_GRID
from .models import LossSpec, TrainConfig, TrainingError, model_to_json, test_error_01, train

VALIDATION_ERRORS = (ConfigError, DataError, DefenseError, ValueError, KeyError,
                     FileNotFoundError, json.JSONDecodeError)
SOLVER_ERRORS = (TrainingError, InfeasibleSetError, RuntimeError)


def _add_common(sp):
    sp.add_argument("--config", help="JSON experiment config file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=float, default=0.03)
    sp.add_argument("--p", type=float, default=0.05)
    sp.add_argument("--lam", type=float, default=0.1)
    sp.add_argument("--loss", default="hinge",
                    choices=["hinge", "smoothed_hinge", "logistic"])
    sp.add_argument("--objective", default="mean", choices=["mean", "sum"])
    sp.add_argument("--defenses", nargs="*", default=list(ALL_DEFENSES))
    sp.add_argument("--out", default="runs")
    sp.add_argument("--synth-n", type=int, default=2000)
    sp.add_argument("--synth-d", type=int, default=20)
    sp.add_argument("--synth-sep", type=float, default=4.2)
    sp.add_argument("--synth-balance", type=float, default=0.5)
    sp.add_argument("--train-file")
    sp.add_argument("--test-file")
    sp.add_argument("--format", default="sparse-text",
                    choices=["sparse-text", "dense-csv"])
    sp.add_argument("--domain", default="reals",
                    choices=[d.value for d in InputDomain])


def _config_from_args(args, attack="none", attack_params=None) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
        if attack != "none":
            cfg.attack = attack
            cfg.attack_params.update(attack_params or {})
        return cfg
    if args.train_file:
        dataset = {"kind": "file", "train": args.train_file,
                   "test": args.test_file, "format": args.format,
                   "domain": args.domain}
    else:
        dataset = {"kind": "synth", "seed": args.seed, "n": args.synth_n,
                   "d": args.synth_d, "mean_separation": args.synth_sep,
                   "class_balance": args.synth_balance}
    return ExperimentConfig(dataset=dataset, epsilon=args.epsilon, p=args.p,
                            defenses=tuple(args.defenses), attack=attack,
                            attack_params=attack_params or {}, lam=args.lam,
                            loss=args.loss, objective=args.objective,
                            seed=args.seed, output_dir=args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="poisonlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset to files")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=2000)
    g.add_argument("--d", type=int, default=20)
    g.add_argument("--sep", type=float, default=4.2)
    g.add_argument("--balance", type=float, default=0.5)
    g.add_argument("--format", default="dense-csv",
                   choices=["sparse-text", "dense-csv"])
    g.add_argument("--train-out", required=True)
    g.add_argument("--test-out", required=True)

    t = sub.add_parser("train", help="train on a dataset, print the model")
    _add_common(t)
    t.add_argument("--model-out")

    a = sub.add_parser("attack", help="run an attack and report per-defense errors")
    a.add_argument("kind", choices=["influence", "kkt", "minmax",
                                    "minmax-basic", "alfa", "none"])
    _add_common(a)
    a.add_argument("--steps", type=int, default=40)
    a.add_argument("--eta", type=float)
    a.add_argument("--delta", type=float, default=0.01)
    a.add_argument("--basic", action="store_true",
                   help="influence: per-point instead of concentrated")
    a.add_argument("--decoy-file")
    a.add_argument("--grid-T", type=int, default=6)
    a.add_argument("--tau-loss", type=float,
                   help="minmax: fixed decoy-loss cap (default: per-class "
                        "(1-p)-quantile of clean losses under the decoy)")
    a.add_argument("--n-burn", type=int)

    d = sub.add_parser("decoys", help="generate decoy parameters to a JSON file")
    _add_common(d)
    d.add_argument("--r-grid", type=int, nargs="*", default=DEFAULT_R_GRID)
    d.add_argument("--q-grid", type=float, nargs="*", default=DEFAULT_Q_GRID)
    d.add_argument("--decoy-out", required=True)

    c = sub.add_parser("collapse", help="collapse a stored attack to two points")
    c.add_argument("attack_file")
    c.add_argument("--tol", type=float, default=1e-4)
    c.add_argument("--out")

    tr = sub.add_parser("transfer", help="re-evaluate a stored attack under defender variants")
    tr.add_argument("attack_file")
    tr.add_argument("--lambdas", type=float, nargs="*")
    tr.add_argument("--optimizers", nargs="*", default=["batch"],
                    choices=["batch", "sgd"])
    tr.add_argument("--losses", nargs="*", default=["hinge"],
                    choices=["hinge", "logistic"])
    tr.add_argument("--eta0", type=float, default=0.1)
    tr.add_argument("--out")

    tm = sub.add_parser("timing", help="wall-clock to reach a target error")
    _add_common(tm)
    tm.add_argument("--attacks", nargs="*", default=["kkt", "influence"])
    tm.add_argument("--target-error", type=float, required=True)

    r = sub.add_parser("report", help="merge run JSONs into a flat CSV")
    r.add_argument("files", nargs="+")
    r.add_argument("--csv-out", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "gen-data":
            tr, te = synth_gaussians(args.seed, args.n, args.d, args.sep,
                                     args.balance)
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
            if args.model_out:
                Path(args.model_out).write_text(doc + "\n")
            print(f"test error {err:.4f}")
            return 0
        if args.cmd == "attack":
            params = {"steps": args.steps, "eta": args.eta,
                      "delta": args.delta, "concentrated": not args.basic,
                      "decoy_file": args.decoy_file, "T": args.grid_T,
                      "tau_loss": args.tau_loss, "n_burn": args.n_burn}
            cfg = _config_from_args(args, attack=args.kind,
                                    attack_params=params)
            doc = cmd_attack(cfg)
            print(json.dumps({"per_defense": doc["per_defense"],
                              "min_over_defense": doc["min_over_defense"]},
                             sort_keys=True, indent=2))
            return 0
        if args.cmd == "decoys":
            cfg = _config_from_args(args)
            D_c, D_test = load_experiment_data(cfg)
            decoys = gen_decoys(D_c, D_test, cfg.loss_spec(), cfg.lam,
                                r_grid=tuple(args.r_grid),
                                q_grid=tuple(args.q_grid),
                                objective=cfg.objective)
            Path(args.decoy_out).write_text(
                json.dumps(decoys_to_obj(decoys), sort_keys=True, indent=2))
            print(f"wrote {len(decoys)} decoys to {args.decoy_out}")
            return 0
        if args.cmd == "collapse":
            doc = json.loads(Path(args.attack_file).read_text())
            rep = cmd_collapse(doc, tol=args.tol)
            text = json.dumps(rep, sort_keys=True, indent=2)
            if args.out:
                Path(args.out).write_text(text + "\n")
            print(text)
            return 0
        if args.cmd == "transfer":
            doc = json.loads(Path(args.attack_file).read_text())
            rows = cmd_transfer(doc, lambdas=args.lambdas,
                                optimizers=args.optimizers,
                                losses=args.losses, eta0=args.eta0)
            if args.out:
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
                doc = json.loads(Path(f).read_text())
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
