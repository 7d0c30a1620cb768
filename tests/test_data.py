import json

import numpy as np
import pytest

from poisonlab import Dataset, InputDomain, LossSpec, TrainConfig
from poisonlab import load_dataset, save_dataset, synth_gaussians, train, union
from poisonlab.data import DataError
from poisonlab.models import test_error_01 as zero_one_error


def test_sparse_line_parses(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("+1 1:0.5 3:2\n")
    D = load_dataset(f, "sparse-text")
    assert D.d == 3
    np.testing.assert_array_equal(D.X[0], [0.5, 0.0, 2.0])
    assert D.y[0] == 1.0 and D.w[0] == 1.0


def test_dense_csv_row_parses(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,1,-1\n")
    D = load_dataset(f, "dense-csv")
    np.testing.assert_array_equal(D.X[0], [0.0, 1.0])
    assert D.y[0] == -1.0


def test_nonneg_integer_domain_rejects_fraction(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0.5,1,+1\n")
    with pytest.raises(DataError):
        load_dataset(f, "dense-csv", InputDomain.NONNEG_INT)


def test_malformed_line_reports_lineno(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("+1 1:0.5\n+1 nonsense\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(f, "sparse-text")


def test_bad_label_rejected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,0,3\n")
    with pytest.raises(DataError, match="label"):
        load_dataset(f, "dense-csv")


@pytest.mark.parametrize("label", [0.0, 2.0, np.nan])
def test_dataset_rejects_labels_other_than_plus_minus_one(label):
    with pytest.raises(DataError, match="labels must be -1 or \\+1"):
        Dataset(np.zeros((3, 2)), np.array([1.0, label, -1.0]), np.ones(3))
    assert Dataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0)).n == 0


@pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
def test_dataset_rejects_weights_not_finite_and_non_negative(weight):
    with pytest.raises(DataError, match="weights must be finite and non-negative"):
        Dataset(np.zeros((3, 2)), np.array([1.0, 1.0, -1.0]), np.array([1.0, weight, 1.0]))


@pytest.mark.parametrize("format", ["sparse-text", "dense-csv"])
def test_save_load_round_trip_bit_exact(tmp_path, rng, format):
    X = rng.standard_normal((7, 4))
    X[2, 1] = 0.0  # exercise sparse omission
    y = np.where(rng.random(7) < 0.5, 1.0, -1.0)
    w = rng.random(7) + 0.5
    D = Dataset(X, y, w)
    path = tmp_path / "d.dat"
    save_dataset(D, path, format)
    D2 = load_dataset(path, format)
    np.testing.assert_array_equal(D.X, D2.X)
    np.testing.assert_array_equal(D.y, D2.y)
    np.testing.assert_array_equal(D.w, D2.w)
    assert D2.domain is D.domain


def test_sidecar_declares_d_and_domain(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("+1 1:1\n")
    (tmp_path / "d.txt.json").write_text(json.dumps({"d": 5, "domain": "nonneg_int"}))
    D = load_dataset(f, "sparse-text")
    assert D.d == 5 and D.domain is InputDomain.NONNEG_INT


def test_synth_deterministic():
    a = synth_gaussians(7, 50, 3, 2.0)
    b = synth_gaussians(7, 50, 3, 2.0)
    for Da, Db in zip(a, b):
        np.testing.assert_array_equal(Da.X, Db.X)
        np.testing.assert_array_equal(Da.y, Db.y)


def test_synth_indistinguishable_classes_near_chance():
    tr, te = synth_gaussians(3, 2000, 4, 0.0)
    theta = train(tr, LossSpec.hinge(), TrainConfig(lam=0.1))
    assert abs(zero_one_error(theta, te) - 0.5) < 0.05


def test_synth_separated_classes_low_error():
    tr, te = synth_gaussians(11, 1000, 2, 10.0)
    theta = train(tr, LossSpec.hinge(), TrainConfig(lam=0.01))
    assert zero_one_error(theta, te) <= 0.01


def test_union_weight_additive():
    a = Dataset.from_points([[0.0], [1.0], [2.0]], [1, -1, 1])
    b = Dataset.from_points([[3.0], [4.0]], [1, -1])
    assert union(a, b).total_weight == 5.0


def test_union_empty_identity():
    a = Dataset.from_points([[0.0, 1.0]], [1])
    assert union(a, Dataset.empty(2)) is a


def test_union_fractional_weight():
    a = Dataset.from_points([[0.0]], [1])
    b = Dataset.from_points([[1.0]], [-1], [1.5])
    assert union(a, b).total_weight == 2.5


def test_union_dimension_mismatch():
    a = Dataset.from_points([[0.0]], [1])
    b = Dataset.from_points([[0.0, 1.0]], [1])
    with pytest.raises(DataError):
        union(a, b)


def test_union_associative_commutative_total():
    rng = np.random.default_rng(0)
    parts = [Dataset.from_points(rng.standard_normal((3, 2)), [1, -1, 1], rng.random(3))
             for _ in range(3)]
    w1 = union(union(parts[0], parts[1]), parts[2]).total_weight
    w2 = union(parts[0], union(parts[1], parts[2])).total_weight
    w3 = union(parts[2], union(parts[0], parts[1])).total_weight
    assert w1 == pytest.approx(w2) == pytest.approx(w3)


def test_weights_must_be_nonnegative():
    with pytest.raises(DataError):
        Dataset.from_points([[0.0]], [1], [-0.5])
