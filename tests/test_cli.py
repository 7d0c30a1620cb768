import json
import subprocess
import sys
from pathlib import Path

import pytest

from poisonlab.cli import main


def run_cli(args):
    return main(args)


def test_gen_data_and_train(tmp_path, capsys):
    tr = tmp_path / "tr.csv"
    te = tmp_path / "te.csv"
    assert run_cli(["gen-data", "--seed", "1", "--n", "200", "--d", "3",
                    "--sep", "4", "--train-out", str(tr),
                    "--test-out", str(te)]) == 0
    assert run_cli(["train", "--train-file", str(tr), "--test-file", str(te),
                    "--format", "dense-csv", "--lam", "0.1",
                    "--model-out", str(tmp_path / "m.json")]) == 0
    out = capsys.readouterr().out
    assert "test error" in out
    model = json.loads((tmp_path / "m.json").read_text())
    assert model["d"] == 3 and len(model["theta"]) == 3


def test_attack_subcommand_writes_report(tmp_path, capsys):
    rc = run_cli(["attack", "alfa", "--synth-n", "150", "--synth-d", "3",
                  "--synth-sep", "2.5", "--defenses", "l2", "slab",
                  "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "alfa_seed0.json").read_text())
    assert doc["min_over_defense"] == min(doc["per_defense"].values())


def test_decoys_then_kkt_reuse(tmp_path):
    dec = tmp_path / "dec.json"
    assert run_cli(["decoys", "--synth-n", "150", "--synth-d", "3",
                    "--synth-sep", "2.5", "--r-grid", "1", "3",
                    "--q-grid", "0.3", "--decoy-out", str(dec)]) == 0
    assert dec.exists()
    assert run_cli(["attack", "kkt", "--synth-n", "150", "--synth-d", "3",
                    "--synth-sep", "2.5", "--defenses", "l2",
                    "--decoy-file", str(dec), "--grid-T", "2",
                    "--out", str(tmp_path)]) == 0


def test_collapse_and_transfer_commands(tmp_path, capsys):
    assert run_cli(["attack", "alfa", "--synth-n", "150", "--synth-d", "3",
                    "--synth-sep", "2.5", "--defenses", "l2",
                    "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    attack_file = str(tmp_path / "alfa_seed0.json")
    assert run_cli(["collapse", attack_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["distinct_points"] <= 2
    out_csv = tmp_path / "tr.csv"
    assert run_cli(["transfer", attack_file, "--lambdas", "0.1", "0.2",
                    "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "defense,lambda,loss,optimizer,test_error"
    assert len(lines) == 3  # two lambdas x one optimizer, loss and defense
    # no optimizers gives no rows: the file still gets its empty header
    assert run_cli(["transfer", attack_file, "--optimizers",
                    "--out", str(out_csv)]) == 0
    assert out_csv.read_bytes() == b"\r\n"


def test_report_merges_runs(tmp_path, capsys):
    run_cli(["attack", "alfa", "--synth-n", "150", "--synth-d", "3",
             "--synth-sep", "2.5", "--defenses", "l2", "--out", str(tmp_path)])
    rep = tmp_path / "rep.csv"
    assert run_cli(["report", str(tmp_path / "alfa_seed0.json"),
                    "--csv-out", str(rep)]) == 0
    assert "alfa" in rep.read_text()


def test_attacks_on_count_files(tmp_path, capsys, counts):
    from poisonlab import save_dataset
    tr, te = counts
    save_dataset(tr, tmp_path / "tr.txt", "sparse-text")
    save_dataset(te, tmp_path / "te.txt", "sparse-text")
    files = ["--train-file", str(tmp_path / "tr.txt"), "--test-file",
             str(tmp_path / "te.txt"), "--domain", "nonneg_int",
             "--out", str(tmp_path)]
    dec = str(tmp_path / "dec.json")
    assert run_cli(["decoys", *files, "--r-grid", "1", "3", "--q-grid", "0.3",
                    "--decoy-out", dec]) == 0
    assert run_cli(["attack", "kkt", *files, "--decoy-file", dec,
                    "--grid-T", "2"]) == 0
    dp = json.loads((tmp_path / "kkt_seed0.json").read_text())["dp"]
    assert dp["domain"] == "nonneg_int" and dp["points"]
    assert all(v == int(v) >= 0 for x, _, _ in dp["points"] for v in x)
    capsys.readouterr()
    assert run_cli(["attack", "minmax-basic", *files]) == 3
    assert "not supported yet" in capsys.readouterr().err


def test_count_files_take_their_sidecar_domain(tmp_path, capsys, counts):
    from poisonlab import save_dataset
    tr, te = counts
    save_dataset(tr, tmp_path / "tr.txt", "sparse-text")
    save_dataset(te, tmp_path / "te.txt", "sparse-text")
    assert run_cli(["attack", "kkt", "--train-file", str(tmp_path / "tr.txt"),
                    "--test-file", str(tmp_path / "te.txt"), "--defenses",
                    "l2", "--grid-T", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "kkt_seed0.json").read_text())
    assert "domain" not in doc["config"]["dataset"]
    dp = doc["dp"]
    assert dp["domain"] == "nonneg_int" and dp["points"]
    assert all(v == int(v) >= 0 for x, _, _ in dp["points"] for v in x)
    # the rounded points fold into weighted means, which are not counts:
    # collapse runs on the relaxed view of the data
    capsys.readouterr()
    assert run_cli(["collapse", str(tmp_path / "kkt_seed0.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verified"] is True and rep["distinct_points"] <= 2


def test_file_dataset_without_test_file_exits_2_and_names_it(tmp_path, capsys):
    tr = tmp_path / "tr.txt"
    tr.write_text("+1 1:0.5\n-1 1:-0.5\n")
    assert run_cli(["attack", "none", "--train-file", str(tr)]) == 2
    assert "no test file" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "two"])
def test_invalid_worker_count_exits_2_and_names_it(workers, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.setenv("POISONLAB_WORKERS", workers)
    assert run_cli(["attack", "none", "--synth-n", "150", "--synth-d", "3",
                    "--defenses", "l2", "--out", str(tmp_path)]) == 2
    assert "POISONLAB_WORKERS" in capsys.readouterr().err


def write_config(tmp_path, **fields):
    doc = {"dataset": {"kind": "synth", "seed": 3, "n": 150, "d": 3,
                       "mean_separation": 2.5, "class_balance": 0.5},
           "defenses": ["l2"], "seed": 5, "epsilon": 0.03,
           "output_dir": str(tmp_path / "file_out"), **fields}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_file_keeps_attack_params_the_flags_leave_unset(tmp_path):
    conf = write_config(tmp_path, attack_params={"steps": 2, "eta": 0.5})
    assert run_cli(["attack", "influence", "--config", conf]) == 0
    out = tmp_path / "file_out"
    doc = json.loads((out / "influence_seed5.json").read_text())
    assert doc["config"]["attack_params"] == {"steps": 2, "eta": 0.5}
    trace = (out / "influence_seed5_trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 3  # header, then iterations 0..steps


def test_flags_given_apply_on_top_of_the_config_file(tmp_path):
    conf = write_config(tmp_path)
    out = tmp_path / "flag_out"
    assert run_cli(["attack", "alfa", "--config", conf, "--seed", "9",
                    "--epsilon", "0.1", "--out", str(out)]) == 0
    doc = json.loads((out / "alfa_seed9.json").read_text())
    cfg = doc["config"]
    assert (cfg["seed"], cfg["epsilon"], cfg["output_dir"]) == (9, 0.1, str(out))
    assert cfg["dataset"]["seed"] == 9 and cfg["dataset"]["n"] == 150
    assert cfg["defenses"] == ["l2"]
    weight = sum(w for _, _, w in doc["dp"]["points"])
    assert weight == pytest.approx(0.1 * 150)


def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys):
    conf = write_config(tmp_path, eta0=0.1)
    assert run_cli(["attack", "none", "--config", conf]) == 2
    assert "eta0" in capsys.readouterr().err
    # a report written with the removed optimizer field is refused the same way
    assert run_cli(["attack", "none", "--config", write_config(tmp_path)]) == 0
    report = tmp_path / "file_out" / "none_seed5.json"
    doc = json.loads(report.read_text())
    doc["config"]["optimizer"] = "batch"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["transfer", str(report)]) == 2
    assert "optimizer" in capsys.readouterr().err


@pytest.mark.parametrize("kind,flags,params", [
    ("alfa", [], {}),
    ("kkt", ["--grid-T", "2"], {"T": 2}),
])
def test_flags_write_the_report_of_the_config_they_name(tmp_path, kind, flags,
                                                        params):
    from poisonlab.harness import ExperimentConfig, cmd_attack
    cfg = ExperimentConfig(
        dataset={"kind": "synth", "seed": 0, "n": 150, "d": 3,
                 "mean_separation": 2.5, "class_balance": 0.5},
        defenses=("l2", "slab"), attack=kind, attack_params=params,
        output_dir=str(tmp_path))
    want = json.loads(json.dumps(cmd_attack(cfg)))
    assert run_cli(["attack", kind, "--synth-n", "150", "--synth-d", "3",
                    "--synth-sep", "2.5", "--defenses", "l2", "slab",
                    "--out", str(tmp_path), *flags]) == 0
    got = json.loads((tmp_path / f"{kind}_seed0.json").read_text())
    want.pop("timing")
    got.pop("timing")
    assert got == want


# what `decoys`, `train` and `attack` write, with their shapes only
DECOY_FILE = [{"theta": [0.5, -0.5, 0.0], "gamma": 0.3, "r": 1,
               "train_loss_on_clean": 1.0, "test_error": 0.5}]
MODEL_FILE = {"d": 3, "theta": [0.5, -0.5, 0.0],
              "loss": {"kind": "hinge", "delta": 0.01}, "lambda": 0.1}
REPORT_FILE = {"config": {}, "dp": {}, "attack": "kkt"}


@pytest.mark.parametrize("cmd,doc,want", [
    ("collapse", DECOY_FILE, "not an attack report"),
    ("transfer", DECOY_FILE, "not an attack report"),
    ("report", DECOY_FILE, "not an attack report"),
    ("collapse", MODEL_FILE, "not an attack report"),
    ("report", MODEL_FILE, "not an attack report"),
    ("decoy-file", REPORT_FILE, "not a decoy file"),
    ("decoy-file", [{}], "not a decoy file"),
    ("decoy-file", [DECOY_FILE[0] | {"theta": ["ab", 0.0, 0.0]}],
     "decoy 0's theta is not a list of numbers"),
    ("decoy-file", [DECOY_FILE[0] | {"gamma": "0.3"}],
     "decoy 0's gamma is not a number"),
], ids=["collapse-decoys", "transfer-decoys", "report-decoys", "collapse-model",
        "report-model", "decoy-file-report", "decoy-file-empty-decoy",
        "decoy-file-text-theta", "decoy-file-text-gamma"])
def test_stored_file_of_the_wrong_shape_exits_2_and_names_it(cmd, doc, want,
                                                              tmp_path, capsys):
    stored = tmp_path / "stored.json"
    stored.write_text(json.dumps(doc))
    args = {"collapse": ["collapse", str(stored)],
            "transfer": ["transfer", str(stored)],
            "report": ["report", str(stored), "--csv-out",
                       str(tmp_path / "rep.csv")],
            "decoy-file": ["attack", "kkt", "--synth-n", "150", "--synth-d",
                           "3", "--defenses", "l2", "--decoy-file", str(stored),
                           "--out", str(tmp_path)]}[cmd]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert str(stored) in err and want in err
    assert not (tmp_path / "rep.csv").exists()


def test_sidecar_nan_weight_exits_2(tmp_path, capsys):
    from poisonlab import save_dataset, synth_gaussians
    tr, te = synth_gaussians(0, 60, 3, 2.0)
    save_dataset(tr, tmp_path / "tr.csv", "dense-csv")
    save_dataset(te, tmp_path / "te.csv", "dense-csv")
    sidecar = tmp_path / "tr.csv.json"
    meta = json.loads(sidecar.read_text())
    meta["weights"] = [float("nan")] + [1.0] * (tr.n - 1)
    sidecar.write_text(json.dumps(meta))
    assert run_cli(["attack", "kkt", "--train-file", str(tmp_path / "tr.csv"),
                    "--test-file", str(tmp_path / "te.csv"), "--format",
                    "dense-csv", "--out", str(tmp_path)]) == 2
    assert "weights must be finite" in capsys.readouterr().err


def test_validation_error_exit_code():
    assert run_cli(["attack", "kkt", "--epsilon", "0.9"]) == 2


def test_solver_failure_exit_code(tmp_path):
    # alfa on widely separated classes has an empty feasible flip pool
    assert run_cli(["attack", "alfa", "--synth-n", "100", "--synth-d", "3",
                    "--synth-sep", "9", "--defenses", "l2", "slab",
                    "--out", str(tmp_path)]) == 3


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "poisonlab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout


def test_solver_failure_maps_to_exit_3(monkeypatch, tmp_path):
    from poisonlab.models import TrainingError
    import poisonlab.cli as cli

    def boom(cfg):
        raise TrainingError("synthetic stall")

    monkeypatch.setattr(cli, "cmd_attack", boom)
    assert cli.main(["attack", "none", "--synth-n", "100", "--synth-d", "3",
                     "--out", str(tmp_path)]) == 3
