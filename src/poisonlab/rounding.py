"""Integer-domain handling: randomized rounding and its LP relaxation.

Coordinates are rounded up with probability equal to their fractional part,
which preserves the mean.  The expected squared norm after rounding is

    E[x_hat_i^2] = f(x_i) = x*(ceil(x)+floor(x)) - ceil(x)*floor(x),

a piecewise-linear convex function, equivalently max_k (2k+1)x - k(k+1).
Constraining E[||x_hat - mu||^2] <= tau^2 therefore stays convex in x and
keeps rounded points inside the centroid-distance defense on expectation.

Attacks build their poison relaxed (real-valued) and hand it to
``round_poison`` once, which is the only place integer poison is made.
All randomness is counter-based (Philox) and explicitly seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, InputDomain

ROUND_REPEATS = 3  # a relaxed point of weight w becomes about w / 3 draws


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def round_point(x: np.ndarray, seed: int) -> np.ndarray:
    """Coordinatewise independent randomized rounding; E[x_hat] = x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("randomized rounding requires non-negative input")
    lo = np.floor(x)
    frac = x - lo
    up = rng_from_seed(seed).random(x.shape) < frac
    return lo + up


def f_piecewise(x) -> np.ndarray | float:
    """E[x_hat^2] under round_point, in closed form."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("f_piecewise requires non-negative input")
    val = x * (np.ceil(x) + np.floor(x)) - np.ceil(x) * np.floor(x)
    return float(val) if val.ndim == 0 else val


def expected_sq_distance(x: np.ndarray, mu: np.ndarray) -> float:
    """E[||x_hat - mu||^2] = sum_i f(x_i) - 2<x,mu> + ||mu||^2."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x.shape != mu.shape:
        raise ValueError("dimension mismatch")
    return float(f_piecewise(x).sum() - 2.0 * np.dot(x, mu) + np.dot(mu, mu))


@dataclass(frozen=True)
class LpConstraint:
    """Epigraph description of {x >= 0 : E[||x_hat - mu||^2] <= tau^2}.

    Auxiliary variables t_i >= (2k+1) x_i - k(k+1) for k = 0..K_i together
    with sum_i t_i - 2<x,mu> + ||mu||^2 <= tau^2 describe the set; K_i
    truncates the infinite max of lines per coordinate.
    """

    mu: np.ndarray
    tau: float
    K: np.ndarray  # per-coordinate truncation (int)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        K = np.asarray(self.K, dtype=int).reshape(-1)
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if len(K) != len(mu):
            raise ValueError("K and mu dimension mismatch")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K", K)

    def g_value(self, x: np.ndarray) -> float:
        """Constraint function with truncated pieces (exact for x_i <= K_i):
        line k = clip(floor(x_i), 0, K_i) is the largest of lines 0..K_i."""
        x = np.asarray(x, dtype=float)
        k = np.clip(np.floor(x), 0, self.K)
        t = (2 * k + 1) * x - k * (k + 1)
        return float(t.sum() - 2.0 * np.dot(x, self.mu) + np.dot(self.mu, self.mu))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            return False
        return self.g_value(x) <= self.tau ** 2

    def _prox(self, x0: np.ndarray, nu: float) -> np.ndarray:
        """argmin_{x >= 0} 0.5||x - x0||^2 + nu * (sum f_K(x_i) - 2<x, mu>):
        per coordinate the prox of a piecewise-linear convex function."""
        z = x0 + 2.0 * nu * self.mu
        h = (z - nu) / (1.0 + 2.0 * nu)
        k0 = np.floor(h)
        interior = (h - k0) * (1.0 + 2.0 * nu) <= 1.0
        t = np.where(interior, z - nu * (2.0 * k0 + 1.0), k0 + 1.0)
        # below 0 the k=0 line extends with slope 1; beyond K the last line
        # extends with slope 2K+1
        t = np.where(k0 < 0, z - nu, t)
        t = np.where(k0 >= self.K, z - nu * (2.0 * self.K + 1.0), t)
        return np.maximum(t, 0.0)


def default_K(D: Dataset) -> np.ndarray:
    """Per-coordinate truncation: ceil of the dataset max, plus one slack."""
    if D.n == 0:
        return np.zeros(D.d, dtype=int)
    return np.ceil(D.X.max(axis=0)).astype(int) + 1


def repeat_round(D_p: Dataset, r: int, seed: int) -> Dataset:
    """Round each distinct continuous point into ~w/r integer draws of weight
    ~r each, preserving the total poison weight exactly."""
    if r < 1:
        raise ValueError("repeat count must be >= 1")
    Xs, ys, ws = [], [], []
    for i in range(D_p.n):
        n_draws = max(1, int(round(D_p.w[i] / r)))
        for j in range(n_draws):
            Xs.append(round_point(D_p.X[i], seed + 1009 * i + j))
            ys.append(D_p.y[i])
            ws.append(D_p.w[i] / n_draws)
    if not Xs:
        return Dataset.empty(D_p.d, D_p.domain)
    return Dataset(np.array(Xs), np.array(ys), np.array(ws), D_p.domain)


def round_poison(dp: Dataset, domain: InputDomain, seed: int) -> Dataset:
    """An attack's relaxed poison in the clean data's domain.  Non-negative
    integer domains repeat-round it (``ROUND_REPEATS``), keeping the total
    weight; any other domain keeps the same points, validated against it."""
    if domain is InputDomain.NONNEG_INT:
        dp = repeat_round(dp, ROUND_REPEATS, seed)
    return Dataset(dp.X, dp.y, dp.w, domain)
