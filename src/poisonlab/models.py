"""Linear classifiers sign(theta^T x): losses, training, gradients, HVPs.

All losses are margin-based, ell(theta; x, y) = c(-y theta^T x):

    hinge            c(s) = max(0, 1 + s)
    smoothed hinge   c(s) = delta * log(1 + exp((1 + s) / delta))
    logistic         c(s) = log(1 + exp(s))

Training minimizes  lambda/2 ||theta||^2 + agg_i w_i * ell_i  where agg is
either the weighted mean (``mean``) or the plain weighted sum (``sum``).
The two modes coincide after rescaling lambda by the total weight;
``TrainConfig.mean_lam`` gives every other module the mean-form lambda.

There is no intercept; append a constant feature if one is wanted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import Dataset


class TrainingError(RuntimeError):
    """Optimizer failed to reach tolerance; carries the last iterate."""

    def __init__(self, msg, theta=None, residual=None):
        super().__init__(msg)
        self.theta = theta
        self.residual = residual


class UnsupportedLossError(TypeError):
    pass


HINGE = "hinge"
SMOOTHED_HINGE = "smoothed_hinge"
LOGISTIC = "logistic"


@dataclass(frozen=True)
class LossSpec:
    kind: str
    delta: float = 0.01

    def __post_init__(self):
        if self.kind not in (HINGE, SMOOTHED_HINGE, LOGISTIC):
            raise ValueError(f"unknown loss {self.kind!r}")
        if self.kind == SMOOTHED_HINGE and self.delta <= 0:
            raise ValueError("smoothing delta must be positive")

    @staticmethod
    def hinge() -> "LossSpec":
        return LossSpec(HINGE)

    @staticmethod
    def smoothed_hinge(delta: float = 0.01) -> "LossSpec":
        return LossSpec(SMOOTHED_HINGE, delta)

    @staticmethod
    def logistic() -> "LossSpec":
        return LossSpec(LOGISTIC)


@dataclass(frozen=True)
class ModelParams:
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    @property
    def d(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.1
    objective: str = "mean"  # "mean" | "sum"
    eta0: float = 0.1  # SGD only
    seed: int = 0      # SGD only
    tol: ClassVar[float] = 1e-8  # witness-norm target, relative to 1 + ||theta||

    def __post_init__(self):
        if self.objective not in ("mean", "sum"):
            raise ValueError("objective must be 'mean' or 'sum'")

    def mean_lam(self, total_weight: float) -> float:
        """The lambda' of the mean-loss form lambda'/2 ||theta||^2 +
        (1/W) sum_i w_i ell_i that has this objective's minimizer on data of
        total weight W."""
        return self.lam if self.objective == "mean" else self.lam / total_weight


# -- pointwise primitives, vectorized over margins m = y * (X @ theta) -------

def _smooth_terms(loss: LossSpec, m: np.ndarray):
    """(ell, ell', ell'') of a smooth loss at margins m; every formula for
    the smooth losses is here.  Both losses are softplus of z = (1 - m) /
    delta or -m, and all three terms come from e = exp(-|z|), which never
    overflows: softplus(z) = max(z, 0) + log1p(e), sigma(z) = 1 / (1 + e)
    for z >= 0 and e / (1 + e) below, and sigma(z) sigma(-z) = e / (1 + e)^2,
    which does not cancel where sigma(z) rounds to 1."""
    scale = loss.delta if loss.kind == SMOOTHED_HINGE else 1.0
    z = (1.0 - m) / scale if loss.kind == SMOOTHED_HINGE else -m
    e = np.exp(-np.abs(z))
    p = 1.0 + e
    s = np.where(z >= 0.0, 1.0, e) / p
    return scale * (np.maximum(z, 0.0) + np.log1p(e)), -s, e / (p * p) / scale


def loss_of_margin(loss: LossSpec, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if loss.kind == HINGE:
        return np.maximum(0.0, 1.0 - m)
    return _smooth_terms(loss, m)[0]


def dloss_dmargin(loss: LossSpec, m: np.ndarray) -> np.ndarray:
    """First derivative w.r.t. the margin; for hinge the subgradient at
    margin exactly 1 is resolved to -1 (deterministic choice)."""
    m = np.asarray(m, dtype=float)
    if loss.kind == HINGE:
        return np.where(m <= 1.0, -1.0, 0.0)
    return _smooth_terms(loss, m)[1]


def d2loss_dmargin2(loss: LossSpec, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if loss.kind == HINGE:
        raise UnsupportedLossError("hinge loss has no second derivative")
    return _smooth_terms(loss, m)[2]


def margins(theta: ModelParams, D: Dataset) -> np.ndarray:
    return D.y * (D.X @ theta.theta)


def avg_loss(theta: ModelParams, D: Dataset, loss: LossSpec) -> float:
    if D.total_weight <= 0:
        raise ValueError("avg_loss of an empty dataset")
    return float(np.dot(D.w, loss_of_margin(loss, margins(theta, D))) / D.total_weight)


def test_error_01(theta: ModelParams, D: Dataset) -> float:
    """Weight-averaged 0-1 error; sign(0) counts as an error for both labels."""
    if D.total_weight <= 0:
        raise ValueError("test_error_01 of an empty dataset")
    return float(np.dot(D.w, margins(theta, D) <= 0.0) / D.total_weight)


# -- hinge training: box-constrained dual QP ---------------------------------
#
# For the sum objective  lambda/2 ||theta||^2 + sum_i w_i max(0, 1 - m_i)
# the dual is  min_alpha  ||Z^T alpha||^2 / (2 lambda) - 1^T alpha  over the
# box 0 <= alpha_i <= w_i, with Z = y * X row-wise and theta = Z^T alpha /
# lambda; its gradient in alpha is m - 1.  A ridge seed (one Newton step
# from zero at delta = 1) and a smoothing continuation (Newton) find the
# margins to within a few delta; a primal active-set method on the dual then
# closes exactly in finitely many rounds: alpha = w below margin 1, alpha = 0
# above it, and the free alpha solve the margin-1 system.  A round is one
# Gram solve on the free rows, verified by its residual; SVD least squares
# takes only the singular faces.

_MARGIN_BAND = 1e-9  # the closer leaves margins within 1e-10 (1 + |m|) of 1
_KKT_TOL = 1e-10     # relative slack of the closer's margin tests
_CLOSER_ROUNDS = 4   # closer rounds per point and dimension, at most
_SMOOTHING_LEVELS = (0.03, 0.003)  # the continuation's deltas
_NEAR_BAND = 0.2     # the last level's rows: margins within this of 1


def _hinge_witness(theta, alpha, X, y, w, lam):
    """Minimal-effort member of the objective's subgradient set at theta.

    Margins within a +-1e-9 relative band of 1 may take the fractional
    coefficient alpha_i/w_i; everything else is forced to its region's value.
    """
    m = y * (X @ theta)
    band = _MARGIN_BAND * (1.0 + np.abs(m))
    a = np.where(m < 1.0 - band, w, np.where(m > 1.0 + band, 0.0, np.clip(alpha, 0.0, w)))
    return lam * theta - X.T @ (a * y)


def _face_step(Zf, r, lam, size):
    """A closer round's step for the free rows Zf at margin gaps r = 1 - m_f,
    and whether it is the Newton step to the face's minimizer.  With 0 < b
    <= d rows, lambda x for the Gram solve Zf Zf^T x = r, accepted on its own
    residual, |r - Zf Zf^T x| <= 1e-2 _KKT_TOL (1 + |m_f|), since the Gram
    matrix squares the rows' conditioning (Golub & Van Loan sec. 5.3).  Any
    other face takes SVD least squares at rank eps * size relative: the
    minimum-norm Newton step where the system is consistent, else its
    residual."""
    if 0 < len(r) <= Zf.shape[1]:
        G = Zf @ Zf.T
        try:
            x = np.linalg.solve(G, r)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.all(np.abs(r - G @ x) <= 1e-2 * _KKT_TOL * (1.0 + np.abs(1.0 - r))):
                return lam * x, True
    U, s, _ = np.linalg.svd(Zf, full_matrices=False)
    k = int(np.sum(s > np.max(s, initial=0.0) * np.finfo(float).eps * size))
    c = U[:, :k].T @ r
    resid = r - U[:, :k] @ c
    if np.all(np.abs(resid) <= _KKT_TOL * (1.0 + np.abs(1.0 - resid))):
        return lam * (U[:, :k] @ (c / s[:k] ** 2)), True
    return resid, False


def _hinge_closer(theta, Z, w, lam, delta):
    """Primal active-set method on the dual box QP (Nocedal & Wright,
    Numerical Optimization, 2006, sec. 16.5) from the smoothed iterate at
    level delta.  Points with margin below 1 - delta start pinned at
    alpha = w, those above 1 + delta pinned at 0, and the rest free at
    their smoothed duals w * sigma((1 - m) / delta).  A wider band frees
    points that the first rounds pin again, one round each.

    Each round solves the free margin-1 system (``_face_step``): by one Gram
    solve, verified by its residual, and by SVD least squares only on
    singular faces.  Where it is consistent, the free alpha take the Newton
    step to the minimizer on their face; where it is not, they follow its
    residual, a direction of zero curvature that lowers the dual, to the
    first bound.  A step that meets a bound pins that point.  Between face
    minimizers only the free rows' margins are kept: a blocked Newton step
    moves theta by Z_f^T d_alpha / lambda and recomputes the free margins,
    and a residual step, orthogonal to the range of the free rows, moves
    neither.  At a face minimizer theta = Z^T alpha / lambda and every
    margin are recomputed, and the pinned point whose margin lies farthest
    on the wrong side of 1 is released; with none left by more than
    _KKT_TOL * (1 + |m|), alpha is optimal.  Returns the last
    (theta, alpha)."""
    m = Z @ theta
    pin = np.where(m < 1.0 - delta, 1, np.where(m > 1.0 + delta, -1, 0))
    free = np.flatnonzero(pin == 0)
    alpha = np.where(pin > 0, w, 0.0)
    alpha[free] = -w[free] * _smooth_terms(LossSpec(SMOOTHED_HINGE, delta), m[free])[1]
    theta = Z.T @ alpha / lam
    m = Z @ theta
    at_min = False
    for _ in range(_CLOSER_ROUNDS * (len(w) + Z.shape[1])):
        if at_min:
            theta = Z.T @ alpha / lam
            m = Z @ theta
            wrong = pin * (m - 1.0) - _KKT_TOL * (1.0 + np.abs(m))
            j = int(np.argmax(wrong))
            if wrong[j] <= 0.0:
                return theta, alpha
            pin[j] = 0
            free = np.flatnonzero(pin == 0)
        Zf = Z[free]
        step, newton = _face_step(Zf, 1.0 - m[free], lam, max(Z.shape))
        a, wf = alpha[free], w[free]
        room = np.divide(np.where(step > 0.0, wf - a, -a), step,
                         out=np.full(len(step), np.inf), where=step != 0.0)
        t = np.min(room, initial=np.inf)
        at_min = newton and t >= 1.0
        if at_min:
            alpha[free] = np.clip(a + step, 0.0, wf)
            continue
        i = int(np.argmin(room))
        new = np.clip(a + t * step, 0.0, wf)
        new[i] = wf[i] if step[i] > 0.0 else 0.0
        alpha[free] = new
        pin[free[i]] = 1 if step[i] > 0.0 else -1
        if newton:
            theta = theta + Zf.T @ (new - a) / lam
            m[free] = Zf @ theta
        free = np.delete(free, i)
    return Z.T @ alpha / lam, alpha


def _ridge_seed(X, y, w, lam):
    """One undamped Newton step from zero on the smoothed hinge at delta =
    1, the continuation's start.  At zero every margin is 0, so every row
    has the same curvature sigma(1) sigma(-1) and slope -sigma(1): the step
    is a ridge regression of the labels over sigma(-1), with ridge lambda /
    (sigma(1) sigma(-1)) (Nocedal & Wright sec. 3.3)."""
    _, dl, curv = _smooth_terms(LossSpec(SMOOTHED_HINGE, 1.0), np.zeros(1))
    return _solve_hessian(X, w * curv[0], lam, -dl[0] * (X.T @ (w * y)),
                          1e-12, 10 * X.shape[1])[0]


def _train_hinge_sum(X, y, w, lam, tol, start=None):
    """The ridge seed, smoothing continuation at delta = 0.03 and 0.003
    from it, then the closer; given a start theta, the closer alone, from
    that theta at the last level's band.  Returns (theta, alpha) only where
    the witness norm meets tol.

    The first level runs on every row and stops at a relative gradient of
    1e-6, since its point only seeds the next level.  The last runs on
    the rows whose margin lies within _NEAR_BAND of 1: below the band the
    smoothed loss equals 1 - m to within exp(-_NEAR_BAND / delta), e^-66, so
    those rows enter as one fixed linear term, and above it they drop out.
    The closer then tests every row and releases any that the band
    misplaced, so the band moves its rounds, never its answer."""
    if start is None:
        theta = _ridge_seed(X, y, w, lam)
        for delta in _SMOOTHING_LEVELS[:-1]:
            theta = _train_smooth(X, y, w, LossSpec(SMOOTHED_HINGE, delta), lam,
                                  1e-6, 1.0, x0=theta, strict=False)
        m = y * (X @ theta)
        near = np.abs(m - 1.0) <= _NEAR_BAND
        below = m < 1.0 - _NEAR_BAND
        wb = w[below]
        theta = _train_smooth(X[near], y[near], w[near],
                              LossSpec(SMOOTHED_HINGE, _SMOOTHING_LEVELS[-1]),
                              lam, 1e-10, 1.0, x0=theta, strict=False,
                              linear=(X[below].T @ (wb * y[below]), np.sum(wb)))
    else:
        theta = start
    theta, alpha = _hinge_closer(theta, X * y[:, None], w, lam,
                                 _SMOOTHING_LEVELS[-1])
    r = float(np.linalg.norm(_hinge_witness(theta, alpha, X, y, w, lam)))
    target = tol * (1.0 + np.linalg.norm(theta))
    if r <= target:
        return theta, alpha
    raise TrainingError(f"hinge training stalled at witness norm {r:.3e} "
                        f"(target {target:.3e})", theta=theta, residual=r)


# -- smooth training: Newton with Armijo backtracking, from x0 or zero -------

_DENSE_NEWTON_MAX_D = 800


def _solve_hessian(X, curv, lam, v, rtol, maxiter, x0=None):
    """Solve (lambda I + X^T diag(curv) X) u = v, built from the rows whose
    curvature is not lost in rounding against the largest (near the hinge's
    corner only those near margin 1): by np.linalg.solve at d <=
    _DENSE_NEWTON_MAX_D, above it by CG from x0 to ||Hu - v|| <= rtol ||v||.
    Returns (u, info), info being CG's, and 0 for the dense solve."""
    curved = curv > np.finfo(float).eps * np.max(curv, initial=0.0)
    if not curved.all():
        X, curv = X[curved], curv[curved]
    d = X.shape[1]
    if d <= _DENSE_NEWTON_MAX_D:
        return np.linalg.solve(lam * np.eye(d) + (X.T * curv) @ X, v), 0
    from scipy.sparse.linalg import LinearOperator, cg
    op = LinearOperator((d, d), matvec=lambda u: lam * u + X.T @ (curv * (X @ u)))
    return cg(op, v, rtol=rtol, atol=0.0, x0=x0, maxiter=maxiter)


def _train_smooth(X, y, w, loss, lam, tol, norm, x0=None,
                  strict=True, linear=None):
    """Minimize lambda/2 ||theta||^2 + sum_i w_i ell_i / norm, plus, given
    ``linear`` = (b, c), the fixed term c - b^T theta of rows whose loss is
    linear in theta (the hinge continuation's rows below its band), by
    Armijo-damped Newton from x0, or from zero: the objective is strongly
    convex, so it converges from any start (Nocedal & Wright sec. 3.1, 3.3)."""
    d = X.shape[1]
    b, c = (np.zeros(d), 0.0) if linear is None else linear

    def fgc(th):
        ell, dl, curv = _smooth_terms(loss, y * (X @ th))
        f = 0.5 * lam * np.dot(th, th) + np.dot(w, ell) / norm + c - np.dot(b, th)
        g = lam * th + X.T @ (w * dl * y) / norm - b
        return f, g, w * curv / norm

    theta = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
    f, g, curv = fgc(theta)
    target = tol * (1.0 + np.linalg.norm(theta))
    it = 0
    while np.linalg.norm(g) > 0.5 * target and it < 100:
        step = _solve_hessian(X, curv, lam, g, 1e-12, 10 * d)[0]
        # backtrack to the Armijo condition f(theta - t s) <= f - 1e-4 t g^T s
        # (Nocedal & Wright sec. 3.1).  Near the optimum f differences drown
        # in rounding: f sums len(w) non-negative terms, so where f rises by
        # at most len(w) * eps * f a step that lowers the gradient norm counts
        slope, gn = 1e-4 * np.dot(g, step), np.linalg.norm(g)
        noise = np.finfo(float).eps * len(w) * abs(f)
        t = 1.0
        while t >= 1e-12:
            f_new, g_new, curv_new = fgc(theta - t * step)
            if f_new <= f - t * slope or (
                    f_new - f <= noise and np.linalg.norm(g_new) < gn):
                break
            t *= 0.5
        else:
            break  # no step qualifies
        theta, f, g, curv = theta - t * step, f_new, g_new, curv_new
        target = tol * (1.0 + np.linalg.norm(theta))
        it += 1
    if strict and np.linalg.norm(g) > target:
        raise TrainingError(
            f"training stalled at gradient norm {np.linalg.norm(g):.3e} "
            f"(target {target:.3e})", theta=theta, residual=float(np.linalg.norm(g)))
    return theta


def train_with_duals(D: Dataset, loss: LossSpec, config: TrainConfig,
                     start: ModelParams | None = None):
    """Train and also return per-point gradient scales gamma in [0,1]:
    the coefficient such that the point's gradient contribution at theta-hat
    is gamma_i * w_i * (-y_i x_i).  For the hinge these come from the dual
    solution (needed at margins exactly 1); for smooth losses gamma = c'(s).

    ``start`` warm-starts training: the hinge's exact closer runs from that
    theta in place of the smoothing continuation, and a smooth loss's Newton
    from it in place of zero.  The certificate is the same, so the result
    depends on the start only within it; the speed depends on it more, since
    a near start, such as the model of a slightly different training set,
    needs few closer rounds or Newton steps.
    """
    if D.n == 0 or D.total_weight <= 0:
        raise ValueError("cannot train on an empty dataset")
    if config.lam <= 0:
        raise ValueError("lambda must be positive")
    if start is not None and start.d != D.d:
        raise ValueError(f"start has dimension {start.d}, data {D.d}")
    mask = D.w > 0
    if mask.all():
        mask = slice(None)  # D's own arrays, not copies of them
    X, y, w = D.X[mask], D.y[mask], D.w[mask]
    norm = D.total_weight if config.objective == "mean" else 1.0
    x0 = None if start is None else start.theta
    gamma = np.zeros(D.n)
    if loss.kind == HINGE:
        theta, alpha = _train_hinge_sum(X, y, w, config.lam * norm, config.tol, x0)
        gamma[mask] = alpha / w
    else:
        theta = _train_smooth(X, y, w, loss, config.lam, config.tol, norm, x0)
        gamma[mask] = -dloss_dmargin(loss, y * (X @ theta))
    return ModelParams(theta), gamma


def train(D: Dataset, loss: LossSpec, config: TrainConfig,
          start: ModelParams | None = None) -> ModelParams:
    """Deterministic batch training to the configured tolerance: on return a
    member of the full-objective subgradient set at theta-hat has norm at
    most tol * (1 + ||theta-hat||).  ``start``: see ``train_with_duals``."""
    return train_with_duals(D, loss, config, start)[0]


def train_sgd_single_pass(D: Dataset, loss: LossSpec, config: TrainConfig) -> ModelParams:
    """One seeded shuffled pass of SGD on the mean-loss form of the
    objective, with step size eta0 / (lambda' * t), lambda' = mean_lam(W)."""
    if config.eta0 <= 0:
        raise ValueError("eta0 must be positive")
    rng = np.random.Generator(np.random.Philox(config.seed))
    order = rng.permutation(D.n)
    theta = np.zeros(D.d)
    lam = config.mean_lam(D.total_weight)
    scale = D.n / D.total_weight  # per-sample weight correction for mean loss
    for t, i in enumerate(order, start=1):
        eta = config.eta0 / (lam * t)
        m = D.y[i] * np.dot(D.X[i], theta)
        coeff = float(dloss_dmargin(loss, m)) * D.y[i] * D.w[i] * scale
        theta = (1.0 - eta * lam) * theta - eta * coeff * D.X[i]
    return ModelParams(theta)


def inverse_hvp_cg(theta: ModelParams, D: Dataset, lam: float, v: np.ndarray,
                   loss: LossSpec, tol: float = 1e-8,
                   x0: np.ndarray | None = None) -> np.ndarray:
    """Solve H u = v to ||Hu - v|| <= tol * ||v||, where H is lambda I plus
    the weighted-mean per-point loss Hessian: by one dense solve at d <=
    _DENSE_NEWTON_MAX_D, as Newton's steps are, and above it by conjugate
    gradients, which x0 warm-starts (e.g. from the previous attack
    iteration)."""
    if lam <= 0:
        raise ValueError("lambda must be positive for an invertible Hessian")
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return np.zeros_like(v)
    curv = D.w * d2loss_dmargin2(loss, margins(theta, D)) / D.total_weight
    u, info = _solve_hessian(D.X, curv, lam, v, tol, max(20 * D.d, 1000), x0)
    if info != 0:
        raise TrainingError(f"CG failed to converge (info={info})", theta=u)
    return u


def model_to_json(theta: ModelParams, loss: LossSpec, lam: float) -> str:
    doc = {
        "d": theta.d,
        "theta": [float(t) for t in theta.theta],
        "loss": {"kind": loss.kind, "delta": loss.delta},
        "lambda": lam,
    }
    return json.dumps(doc, sort_keys=True)
