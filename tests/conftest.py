import numpy as np
import pytest

from poisonlab import Dataset, DecoyParams, LossSpec, ModelParams, TrainConfig, synth_gaussians, train


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_dataset(X, y, w=None):
    return Dataset.from_points(np.asarray(X, dtype=float), y, w)


@pytest.fixture
def decoy_pair():
    """A feasible decoy (the clean model) and an infeasible one: a near-zero
    decoy has hinge loss ~1 everywhere, so a cap of 0.25 leaves nothing."""
    tr, te = synth_gaussians(12, 150, 3, 2.5)
    th = train(tr, LossSpec.hinge(), TrainConfig(lam=0.1))
    good = DecoyParams(th, 0.0, 0, 0.0, 0.1)
    empty = DecoyParams(ModelParams(1e-3 * th.theta), 0.0, 0, 0.0, 0.5)
    return tr, te, good, empty
