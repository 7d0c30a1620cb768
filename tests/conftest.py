import numpy as np
import pytest

from poisonlab import Dataset, DecoyParams, InputDomain, LossSpec, ModelParams, TrainConfig, synth_gaussians, train


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


@pytest.fixture
def counts():
    """Word counts like the paper's corpora: 600 train and 600 test points,
    d = 20, Poisson rates 1.5 on the first ten words and 1.0 on the rest in
    class +1, swapped in class -1 (clean error about 12%)."""
    gen = np.random.default_rng(0)
    first = np.arange(20) < 10

    def draw(n):
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        rates = np.where((y[:, None] > 0) == first, 1.5, 1.0)
        return Dataset.from_points(gen.poisson(rates).astype(float), y,
                                   domain=InputDomain.NONNEG_INT)

    return draw(600), draw(600)
