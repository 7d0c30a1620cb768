import json
from pathlib import Path

import numpy as np
import pytest

from poisonlab.harness import (
    ConfigError,
    ExperimentConfig,
    cmd_attack,
    cmd_collapse,
    cmd_timing,
    cmd_transfer,
    dataset_from_obj,
    dataset_to_obj,
    decoys_from_obj,
    decoys_to_obj,
    load_experiment_data,
)
from poisonlab import Dataset, LossSpec, TrainConfig, gen_decoys, synth_gaussians


SMALL = {"kind": "synth", "seed": 3, "n": 150, "d": 3, "mean_separation": 2.5,
         "class_balance": 0.5}


def small_config(attack="none", **kw):
    return ExperimentConfig(dataset=dict(SMALL), attack=attack,
                            defenses=("l2", "slab"), lam=0.1, **kw)


def mask_timing(doc):
    doc = json.loads(json.dumps(doc))
    doc.pop("timing", None)
    return doc


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(p=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(attack="alfa", epsilon=0.9)
    with pytest.raises(ConfigError):
        ExperimentConfig(defenses=("l2", "bogus"))


def test_dataset_obj_round_trip(rng):
    D = Dataset.from_points(rng.standard_normal((5, 3)),
                            [1, -1, 1, 1, -1], rng.random(5))
    D2 = dataset_from_obj(dataset_to_obj(D))
    np.testing.assert_array_equal(D.X, D2.X)
    np.testing.assert_array_equal(D.w, D2.w)


def test_decoys_obj_round_trip():
    tr, te = synth_gaussians(3, 100, 3, 2.0)
    decoys = gen_decoys(tr, te, LossSpec.hinge(), 0.1, r_grid=(1, 2),
                        q_grid=(0.3,))
    back = decoys_from_obj(decoys_to_obj(decoys))
    assert len(back) == len(decoys)
    np.testing.assert_allclose(back[0].theta_decoy.theta,
                               decoys[0].theta_decoy.theta)


def test_cmd_attack_none_matches_clean_baseline(tmp_path):
    cfg = small_config(output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    assert doc["attack"] == "none"
    assert doc["min_over_defense"] == min(doc["per_defense"].values())
    assert (tmp_path / "none_seed0.json").exists()


def test_cmd_attack_deterministic_rerun(tmp_path):
    cfg1 = small_config("alfa", output_dir=str(tmp_path / "a"))
    cfg2 = small_config("alfa", output_dir=str(tmp_path / "b"))
    d1 = mask_timing(cmd_attack(cfg1))
    d2 = mask_timing(cmd_attack(cfg2))
    d1["config"].pop("output_dir"); d2["config"].pop("output_dir")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_min_equals_min_of_entries(tmp_path):
    cfg = small_config("alfa", output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    assert doc["min_over_defense"] == min(doc["per_defense"].values())


def test_self_consistency_reeval_from_dp(tmp_path):
    cfg = small_config("kkt", output_dir=str(tmp_path),
                       attack_params={"r_grid": (1, 3), "q_grid": (0.3,), "T": 2})
    doc = cmd_attack(cfg)
    # independent pipeline invocation from the stored D_p
    from poisonlab.harness import load_experiment_data
    from poisonlab.results import evaluate_against_defenses
    D_c, D_test = load_experiment_data(cfg)
    D_p = dataset_from_obj(doc["dp"])
    errs = evaluate_against_defenses(D_c, D_p, D_test, cfg.defense_kinds(),
                                     cfg.p, cfg.loss_spec(), cfg.train_config())
    assert min(errs.values()) == pytest.approx(doc["min_over_defense"])


def test_transfer_identity_matches_original(tmp_path):
    cfg = small_config("alfa", output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    rows = cmd_transfer(doc, lambdas=[cfg.lam])
    for row in rows:
        assert row["test_error"] == pytest.approx(doc["per_defense"][row["defense"]])


def test_transfer_row_count(tmp_path):
    cfg = small_config("alfa", output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    rows = cmd_transfer(doc, lambdas=[0.05, 0.1, 0.2])
    assert len(rows) == 3 * len(cfg.defenses)


def test_transfer_sgd_and_logistic_variants(tmp_path):
    cfg = small_config("alfa", output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    rows = cmd_transfer(doc, lambdas=[0.1], optimizers=("batch", "sgd"),
                        losses=("hinge", "logistic"))
    assert len(rows) == 4 * len(cfg.defenses)
    assert all(0.0 <= r["test_error"] <= 1.0 for r in rows)


def test_cmd_collapse_verifies(tmp_path):
    cfg = small_config("kkt", output_dir=str(tmp_path),
                       attack_params={"r_grid": (1, 3), "q_grid": (0.3,), "T": 2})
    doc = cmd_attack(cfg)
    rep = cmd_collapse(doc)
    assert rep["distinct_points"] <= 2
    assert rep["verified"] is True
    assert rep["total_weight"] <= rep["source_weight"] + 1e-9


def test_cmd_collapse_follows_the_reports_objective(tmp_path):
    from poisonlab.feasible import CollapsedAttack, verify_collapse
    cfg = ExperimentConfig(dataset={"kind": "synth", "seed": 1, "n": 200,
                                    "d": 3, "mean_separation": 2.5},
                           attack="influence", defenses=("l2",), seed=1,
                           output_dir=str(tmp_path))
    assert cfg.objective == "mean"
    doc = cmd_attack(cfg)
    rep = cmd_collapse(doc)
    assert rep["verified"] is True
    D_c, _ = load_experiment_data(cfg)
    collapsed = CollapsedAttack(dataset_from_obj(rep["collapsed"]))
    assert verify_collapse(D_c, dataset_from_obj(doc["dp"]), collapsed,
                           cfg.loss_spec(), cfg.lam, objective="mean")


def test_cmd_collapse_tampered_weights_fail(tmp_path):
    cfg = small_config("alfa", output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    # tamper: scale all poison weights up 10%
    for p in doc["dp"]["points"]:
        p[2] *= 1.1
    rep = cmd_collapse(doc)
    # the collapse of the tampered attack still verifies against itself; the
    # equivalence breaks only against the *original* training, so compare
    # collapsed weight against the untampered budget instead
    assert rep["source_weight"] == pytest.approx(
        1.1 * 0.03 * 150, rel=1e-6)


def test_cmd_timing_rows_sorted_and_reached(tmp_path):
    cfg = small_config(output_dir=str(tmp_path))
    rows = cmd_timing(cfg, ["alfa", "kkt"], target_error=0.0)
    assert [r["attack"] for r in rows] == ["alfa", "kkt"]
    assert all(r["reached"] for r in rows)  # any error >= 0.0


def test_cmd_timing_unreachable_target(tmp_path):
    cfg = small_config(output_dir=str(tmp_path))
    rows = cmd_timing(cfg, ["alfa"], target_error=0.99)
    assert rows[0]["reached"] is False
    assert rows[0]["seconds_to_target"] is None


def test_attack_json_carries_defense_reports(tmp_path, monkeypatch):
    cfg = small_config("alfa", output_dir=str(tmp_path))
    doc = cmd_attack(cfg)
    rows = doc["defense_reports"]
    assert {r["defense"] for r in rows} == set(cfg.defenses)
    for r in rows:
        assert {"defense", "p", "tau_plus", "tau_minus", "removed_weight",
                "test_error"} <= set(r)
        assert r["test_error"] == doc["per_defense"][r["defense"]]
    # the reports come from the attack's own battery: with no attack, each
    # defense is fit once
    from poisonlab import defenses
    fits = []
    real = defenses.fit_detector

    def counting(kind, D, start=None):
        fits.append(kind.kind)
        return real(kind, D, start)

    monkeypatch.setattr(defenses, "fit_detector", counting)
    doc = cmd_attack(small_config("none", output_dir=str(tmp_path)))
    assert sorted(fits) == sorted(cfg.defenses)
    assert {r["defense"] for r in doc["defense_reports"]} == set(cfg.defenses)


def test_kkt_attack_fits_the_centroid_set_once(monkeypatch):
    # every decoy's set is the one centroid set plus that decoy's caps, so
    # the l2 and slab detectors behind it are fit once, not once per decoy
    from poisonlab import feasible
    from poisonlab.harness import load_experiment_data, run_attack
    cfg = small_config("kkt", attack_params={"r_grid": (1, 3),
                                             "q_grid": (0.3, 0.6), "T": 2})
    D_c, D_test = load_experiment_data(cfg)
    fits = []
    real = feasible.fit_detector

    def counting(kind, D):
        fits.append(kind.kind)
        return real(kind, D)

    monkeypatch.setattr(feasible, "fit_detector", counting)
    res = run_attack(cfg, D_c, D_test)
    assert sorted(fits) == ["l2", "slab"]
    assert res.decoy_provenance["decoy_index"] >= 0


def test_attacks_on_count_data_give_integer_poison(counts):
    # every attack's relaxed poison is rounded once into the integer domain,
    # with the budget's weight and the same draws for the same seed; min-max
    # says that margin minimization on the LP set is not supported yet
    from poisonlab import InputDomain
    from poisonlab.feasible import InfeasibleSetError
    from poisonlab.harness import run_attack
    tr, te = counts
    params = {"none": {}, "influence": {"steps": 10},
              "kkt": {"r_grid": (1, 3), "q_grid": (0.3, 0.6), "T": 2},
              "alfa": {}}
    for attack, pr in params.items():
        cfg = ExperimentConfig(attack=attack, attack_params=pr, seed=4)
        dp = run_attack(cfg, tr, te).dp
        again = run_attack(cfg, tr, te).dp
        assert dp.domain is InputDomain.NONNEG_INT
        assert np.all(dp.X == np.floor(dp.X)) and np.all(dp.X >= 0)
        budget = 0.0 if attack == "none" else cfg.epsilon * tr.total_weight
        assert abs(dp.total_weight - budget) <= 1e-9 * budget
        for a, b in ((dp.X, again.X), (dp.y, again.y), (dp.w, again.w)):
            np.testing.assert_array_equal(a, b)
    for attack in ("minmax", "minmax-basic"):
        cfg = ExperimentConfig(attack=attack, attack_params={
            "r_grid": (1,), "q_grid": (0.3,)})
        with pytest.raises(InfeasibleSetError, match="not supported yet"):
            run_attack(cfg, tr, te)


def test_attacks_on_unit_interval_data_stay_in_the_box():
    # the domain box bounds every attack's poison: logistic-squashed
    # Gaussians, poison in [0, 1] and in F, of the budget's weight
    from poisonlab import InputDomain, build_feasible_set
    from poisonlab.harness import run_attack
    tr, te = (Dataset(1.0 / (1.0 + np.exp(-D.X)), D.y, D.w,
                      InputDomain.UNIT_INTERVAL)
              for D in synth_gaussians(3, 400, 5, 3.0))
    params = {"none": {}, "influence": {"steps": 10},
              "kkt": {"r_grid": (1, 3), "q_grid": (0.3, 0.6), "T": 2},
              "minmax": {"r_grid": (1, 3), "q_grid": (0.3,)},
              "minmax-basic": {}, "alfa": {}}
    for attack, pr in params.items():
        cfg = ExperimentConfig(attack=attack, attack_params=pr, seed=4)
        F = build_feasible_set(tr, cfg.p)
        dp = run_attack(cfg, tr, te).dp
        assert dp.domain is InputDomain.UNIT_INTERVAL
        assert np.all((dp.X >= 0.0) & (dp.X <= 1.0))
        for i in range(dp.n):
            assert F.contains(dp.X[i], dp.y[i]), (attack, i)
        budget = 0.0 if attack == "none" else cfg.epsilon * tr.total_weight
        assert abs(dp.total_weight - budget) <= 1e-9 * budget, attack


def test_timing_kkt_faster_than_influence(tmp_path):
    # ordering only, at a scale where per-iteration retraining dominates the
    # influence attack (its cost is steps x step-size-grid retrains)
    ds = {"kind": "synth", "seed": 3, "n": 800, "d": 6,
          "mean_separation": 2.8, "class_balance": 0.5}
    cfg = ExperimentConfig(dataset=ds, defenses=("l2",), lam=0.1,
                           attack_params={"r_grid": (1, 3), "q_grid": (0.3,),
                                          "T": 3, "steps": 40},
                           output_dir=str(tmp_path))
    rows = cmd_timing(cfg, ["influence", "kkt"], target_error=0.0)
    by = {r["attack"]: r for r in rows}
    assert by["kkt"]["seconds_total"] < by["influence"]["seconds_total"]


def test_transfer_lambda_increase_observation(tmp_path, capsys):
    # the L2-defense error generally does not decrease when the defender
    # regularizes 10x harder; reported as an observation, non-binding
    cfg = small_config("kkt", output_dir=str(tmp_path),
                       attack_params={"r_grid": (1, 3), "q_grid": (0.3,),
                                      "T": 2})
    doc = cmd_attack(cfg)
    rows = cmd_transfer(doc, lambdas=[cfg.lam, 10 * cfg.lam])
    l2 = {r["lambda"]: r["test_error"] for r in rows if r["defense"] == "l2"}
    moved = l2[10 * cfg.lam] - l2[cfg.lam]
    print(f"[observation] 10x defender lambda moves L2-defense error by "
          f"{moved:+.4f} (non-binding)")
    assert set(l2) == {cfg.lam, 10 * cfg.lam}
