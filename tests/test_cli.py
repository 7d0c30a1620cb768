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
