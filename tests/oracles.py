"""Reference implementations that tests compare the package against."""

import numpy as np

from poisonlab.models import dloss_dmargin


def grad_point(loss, theta, x, y):
    """One point's loss gradient in theta, ell'(m) y x at m = y theta . x."""
    m = y * float(np.dot(theta.theta, x))
    return float(dloss_dmargin(loss, m)) * y * np.asarray(x, dtype=float)


def f_max_of_lines(x, K: int):
    """max_{k=0..K} (2k+1)x - k(k+1); equals f_piecewise for x <= K."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(K + 1)
    vals = (2 * k + 1)[None, :] * x[:, None] - (k * (k + 1))[None, :]
    out = vals.max(axis=1)
    return float(out[0]) if out.shape == (1,) else out
