"""Per-class feasible sets: membership, Euclidean projection, margin
minimization, and the two-point collapse of an attack with
retraining-based verification.

A class set is an intersection of an L2 ball, a slab around the
inter-centroid axis, half-spaces (decoy-loss caps, support-vector
constraints), the domain box or non-negativity, and, in place of the ball
on non-negative integer data, the LP relaxation of the expected
post-rounding squared distance.

Projection and margin minimization share one exact solver: on the ball cut
by the k <= 5 rows (slab faces, half-spaces) it tries the rows' active sets
by size and returns the first closed-form point whose KKT multipliers are
non-negative.  What depends only on the set is factored into a face table
(``_FaceTable``), which each ``FeasibleSet`` builds once per class, on its
first solve, with every active set in one stacked block; a query is one
pass of a few numpy operations, for one point or for a batch of points
(``FeasibleSet.project`` takes either).  Box and non-negativity bounds are
settled around it, point by point, by one bound stage, a primal
active-set method: it grows the pinned face until its point lies inside
the bounds, then descends one bound per step.  Where growth finds no
point, a first phase finds one; only that phase shows a set empty.  Each
pin pattern builds its own table, stacked the same way, for its one
query.  Sets with an LP atom are projected point by point by their dual
and certified by the duality gap; margin minimization on them is not
supported yet.  Every returned point passes ``contains``; a solve that
cannot certify says so, apart from "empty", and in a batch only for the
points it could not certify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, InputDomain, union
from .defenses import DefenseKind, class_centroids, fit_detector, fit_thresholds
from .models import (
    HINGE,
    LOGISTIC,
    LossSpec,
    ModelParams,
    TrainConfig,
    dloss_dmargin,
    train,
    train_with_duals,
)
from .rounding import LpConstraint, default_K

_SHRINK = 1e-8          # relative pull-in so returned points pass strict tests
_DESCENT_ROUNDS = 4     # descent steps per coordinate and row, at most
_GAP_TOL = 1e-7         # relative duality gap that certifies an LP-set projection
_EMPTY = "feasible set is empty: its ball, rows and bounds share no point"
_UNCERTIFIED = "could not certify a solution on the feasible set"


class InfeasibleSetError(RuntimeError):
    pass


def margin_floor(loss: LossSpec, cap: float) -> float:
    """Smallest margin m with ell(m) <= cap; the decoy-loss cap is the
    half-space {y theta^T x >= margin_floor}."""
    if cap <= 0:
        return np.inf
    if loss.kind == HINGE:
        return 1.0 - cap
    if loss.kind == LOGISTIC:
        if cap > 50:
            return -cap  # exp(cap) overflows; asymptote ell(m) ~ -m
        return -math.log(math.expm1(cap))
    u = cap / loss.delta
    if u > 50:
        return 1.0 - cap
    return 1.0 - loss.delta * math.log(math.expm1(u))


@dataclass(frozen=True)
class HalfSpace:
    """{x : a.x <= b}"""

    a: np.ndarray
    b: float


@dataclass(frozen=True)
class ClassConstraints:
    ball: tuple | None = None        # (center, radius)
    slab: tuple | None = None        # (axis, center, halfwidth)
    halfspaces: tuple = ()           # HalfSpace atoms
    box: tuple | None = None         # (lo, hi) closed bounds, may be scalars
    nonneg: bool = False
    lp: LpConstraint | None = None

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if self.ball is not None:
            c, r = self.ball
            if not np.linalg.norm(x - c) < r:
                return False
        if self.slab is not None:
            a, c, hw = self.slab
            if not abs(float(np.dot(a, x - c))) < hw:
                return False
        for hs in self.halfspaces:
            if float(np.dot(hs.a, x)) > hs.b + 1e-12 * (1.0 + abs(hs.b)):
                return False
        if self.box is not None:
            lo, hi = self.box
            if np.any(x < lo) or np.any(x > hi):
                return False
        if self.nonneg and np.any(x < 0.0):
            return False
        if self.lp is not None and not self.lp.contains(x):
            return False
        return True

    def anchor(self, d: int) -> np.ndarray:
        if self.ball is not None:
            return np.array(self.ball[0], dtype=float)
        if self.box is not None:
            lo, hi = self.box
            return (np.broadcast_to(lo, (d,)).astype(float)
                    + np.broadcast_to(hi, (d,))) / 2.0
        return np.zeros(d)

    def rows(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The slab faces and half-spaces as A x <= b, pulled in by _SHRINK
        so that solutions on a face pass the strict tests of ``contains``."""
        rows, rhs = [], []
        if self.slab is not None:
            ax, sc, hw = self.slab
            hws = hw * (1.0 - _SHRINK)
            t = float(np.dot(ax, sc))
            rows += [ax, -ax]
            rhs += [hws + t, hws - t]
        for hs in self.halfspaces:
            rows.append(hs.a)
            rhs.append(hs.b - _SHRINK * (1.0 + abs(hs.b)))
        return (np.array(rows, dtype=float).reshape(len(rows), d),
                np.array(rhs, dtype=float))

    def bounds(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate bounds from the box and non-negativity (+-inf when
        absent)."""
        lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
        if self.box is not None:
            lo, hi = np.maximum(lo, self.box[0]), np.minimum(hi, self.box[1])
        if self.nonneg:
            lo = np.maximum(lo, 0.0)
        return lo, hi


class _FaceTable:
    """Exact solver over the ball |x - c| <= rr cut by the rows A x <= b: the
    Euclidean projection of q, or the minimizer of q . x.

    Its query-independent half is a table of the rows' linearly independent
    active sets S.  From A_S^T = Q R it holds Q, R^-1, h = R^-T (b_S - A_S c),
    u0 = Q h, the offset from c to the faces' affine hull, and s2 = rr^2 -
    |u0|^2; unlike the normal equations (A_S A_S^T = R^T R), the QR does not
    square the rows' conditioning (Golub & Van Loan, Matrix Computations,
    sec. 5.3).  The sets of every size are stacked into one block, whose
    zero row is the ball alone, so a query tests them all in one pass.

    A query takes z = q - c (projection) or q (margin), and per S, Pz = z -
    Q Q^T z, the part of z in the null space of A_S:
    - projection: x = c + u0 + t Pz with t = min(1, sqrt(s2)/|Pz|), the
      ball's multiplier mu = 1/t - 1 and the rows' nu = R^-1 (Q^T z - h/t);
    - margin: if Pz != 0 the ball is active, x = c + u0 - s Pz/|Pz| with
      s = sqrt(s2) and mu = |Pz|/s; if Pz = 0, x = c + u0 when s2 >= 0 and
      mu = 0; nu = -R^-1 (Q^T z + mu h).
    It returns the first S, by size and then in the order of
    ``itertools.combinations``, whose x meets the other rows with nu >= 0.
    That x satisfies the KKT conditions of a convex problem, so it is the
    global solution."""

    def __init__(self, c, rr, A, b):
        self.c, self.rr, self.A, self.b = c, rr, A, b
        self.slack = b - A @ c
        self.row_n = np.sqrt(np.einsum("ij,ij->i", A, A))
        # the row test A u - slack <= 1e-11 (|A_i| (|c| + |u|) + |slack_i|)
        self._tol0 = 1e-11 * (self.row_n * math.sqrt(float(c @ c))
                              + np.abs(self.slack))
        top, d = min(len(b), len(c)), len(c)
        sets = [self._factor(n) for n in range(1, top + 1)]
        m = 1 + sum(len(Sn) for Sn, _, _, _ in sets)
        # sets smaller than the largest are padded with zeros, and with row
        # index len(b), past the real rows: a padded row adds nothing to
        # Q^T z, Pz, u0 or x, and its nu is 0
        S = np.full((m, top), len(b))
        Qt, Rinv, h = np.zeros((m, top, d)), np.zeros((m, top, top)), np.zeros((m, top))
        i = 1
        for n, (Sn, Qn, Rn, hn) in enumerate(sets, start=1):
            k = i + len(Sn)
            S[i:k, :n], Qt[i:k, :n], Rinv[i:k, :n, :n], h[i:k, :n] = Sn, Qn, Rn, hn
            i = k
        u0 = (h[:, None, :] @ Qt)[:, 0]
        s2 = rr * rr - np.einsum("md,md->m", u0, u0)
        with np.errstate(invalid="ignore"):
            s = np.sqrt(s2)
        self._block = (S, Qt, Rinv, h, np.append(self.row_n, 0.0)[S], u0, s2, s)
        self._inside, self._touch = s2 > 0.0, s2 == 0.0
        self._tol1 = 1e-11 * self.row_n

    def _factor(self, n: int):
        """S, Q^T, R^-1 and h of the independent active sets of size n."""
        S = np.array(list(itertools.combinations(range(len(self.b)), n)))
        Q, R = np.linalg.qr(self.A[S].transpose(0, 2, 1))
        # rows linearly dependent (e.g. both slab faces): det(A_S A_S^T) =
        # prod R_jj^2 is at most 1e-12 prod |A_j|^2
        dep = np.prod(np.diagonal(R, axis1=1, axis2=2) ** 2, axis=1) <= (
            1e-12 * np.prod(self.row_n[S] ** 2, axis=1))
        S, Q, R = S[~dep], Q[~dep], R[~dep]
        h = np.linalg.solve(R.transpose(0, 2, 1), self.slack[S][:, :, None])
        return S, Q.transpose(0, 2, 1), np.linalg.inv(R), h[:, :, 0]

    def solve(self, q, project: bool):
        """One pass over the query point q (d), or over a batch of P points
        (P x d): the same operations over the leading axis.  Returns (x,
        mu, nu, found) with q's leading axis: x, the ball's multiplier mu,
        the rows' multipliers nu (zero off the active set), and whether an
        active set certifies.  Where none does, the ball and rows share no
        point, and x, mu and nu are NaN."""
        c, A, slack = self.c, self.A, self.slack
        S, Qt, Rinv, h, rnS, u0, s2, s = self._block
        z = q - c if project else q
        zn = np.sqrt(np.einsum("...d,...d->...", z, z))[..., None]
        qz = (Qt @ z[..., None, :, None])[..., 0]
        pz = z[..., None, :] - (qz[..., None, :] @ Qt)[..., 0, :]
        pn = np.sqrt(np.einsum("...d,...d->...", pz, pz))
        with np.errstate(divide="ignore", invalid="ignore"):
            if project:
                # the faces' hull must meet the ball's interior
                ok = self._inside | (self._touch & (pn == 0.0))
                t = np.where(pn * pn <= s2, 1.0, s / pn)
                mu, step = 1.0 / t - 1.0, t
                nu = (Rinv @ (qz - h / t[..., None])[..., None])[..., 0]
            else:
                ball = pn > 1e-12 * zn
                ok = self._inside | (self._touch & ~ball)
                mu = np.where(ball, pn / s, 0.0)
                nu = -(Rinv @ (qz + mu[..., None] * h)[..., None])[..., 0]
                step = np.where(ball, -s / pn, 0.0)
            u = u0 + step[..., None] * pz
            un = np.sqrt(np.einsum("...d,...d->...", u, u))
            ok &= ~((nu * rnS < -1e-10 * zn[..., None]).any(axis=-1)
                    | (u @ A.T - slack > self._tol0 + self._tol1
                       * un[..., None]).any(axis=-1))
        i = ok.argmax(axis=-1)  # per point, the first set that certifies
        lead = (np.arange(len(i)),) if i.ndim else ()
        at = (*lead, i)
        found = ok[at]
        # nu on every row, and on a last column that takes the padding
        nu_all = np.zeros((*i.shape, len(self.b) + 1))
        nu_all[(*(a[:, None] for a in lead), S[i])] = nu[at]
        nu_all, mu = nu_all[..., :-1], mu[at]
        if project:  # x - q = (t - 1) z + Q (h - t Q^T z): q when q lies inside
            t = t[at]
            x = q + ((t - 1.0)[..., None] * z
                     + ((h[i] - t[..., None] * qz[at])[..., None, :] @ Qt[i])[..., 0, :])
        else:
            x = c + u[at]
        if not found.all():
            x, nu_all = (np.where(found[..., None], v, np.nan) for v in (x, nu_all))
            mu = np.where(found, mu, np.nan)
        return x, mu, nu_all, found


def _class_faces(cc: ClassConstraints, d: int) -> _FaceTable:
    """The face table of a class set's ball (pulled in by _SHRINK, or
    infinite without one) and rows; it serves every solve on the set."""
    c, r = cc.ball if cc.ball is not None else (np.zeros(d), math.inf)
    return _FaceTable(np.asarray(c, dtype=float), r * (1.0 - _SHRINK),
                      *cc.rows(d))


def _on_face(c, rr, A, b, lo, hi, q, project, pin):
    """The exact solver with the pinned coordinates held at their bounds
    (pin -1 at lo, +1 at hi, 0 free) in the ball of the radius they leave;
    each pin pattern has its own ball and rows, so its face table serves one
    query.  Returns x and the pinned bounds' multipliers, or None when that
    face of the bounds misses the ball and rows."""
    free = pin == 0
    at = np.where(pin < 0, lo, hi)[~free]
    off = at - c[~free]
    r2 = rr * rr - float(off @ off)
    if r2 < 0.0:
        return None
    xf, mu, nu, found = _FaceTable(
        c[free], math.sqrt(r2) if off.size else rr,
        np.compress(free, A, axis=1), b - A[:, ~free] @ at).solve(
            q[free], project)
    if not found:
        return None
    x = np.empty(len(c))
    x[free], x[~free] = xf, at
    return x, -pin * ((x - q if project else q) + mu * (x - c) + A.T @ nu)


def _descend(c, rr, A, b, lo, hi, q, project, x, tol, stop=lambda x: False):
    """The bound stage: a primal active-set method for the box and
    non-negativity bounds (Nocedal & Wright, Numerical Optimization, 2006,
    sec. 16.5).  While x lies outside the bounds (the face table's point),
    it pins every coordinate outside, releases the pins whose multipliers
    are below -tol, each coordinate once at most, and moves to the solution
    on that face.  Each such face pins a free coordinate, so this growth
    ends within 2d faces and cannot cycle; it returns None where a face
    misses the ball and rows.  From a point of the set it steps toward the
    solution on the face of the pinned bounds until a free coordinate meets
    its bound and pins it; after a whole step, it releases the pin with the
    most negative multiplier.  The iterates stay in the set and never raise
    the objective; where no multiplier is below -tol, x is optimal."""
    pin, freed, sol = np.zeros(len(x), dtype=int), np.zeros(len(x), bool), None
    below, above = x < lo, x > hi
    while below.any() or above.any():
        if sol is not None:
            drop = (sol[1] < -tol) & ~freed
            pin[drop], freed = 0, freed | drop
        pin[below], pin[above] = -1, 1
        sol = _on_face(c, rr, A, b, lo, hi, q, project, pin)
        if sol is None:
            return None
        x = sol[0]
        below, above = x < lo, x > hi
    for _ in range(_DESCENT_ROUNDS * (len(x) + len(b) + 1)):
        if sol is None:  # step toward the solution on the pinned face
            sol = _on_face(c, rr, A, b, lo, hi, q, project, pin)
            if sol is None:  # only rounding can lose x from its own face
                raise InfeasibleSetError(f"{_UNCERTIFIED}: a face of the "
                                         f"bounds lost the current point")
            step = sol[0] - x
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step < 0.0, (lo - x) / step,
                                np.where(step > 0.0, (hi - x) / step, np.inf))
            room[pin != 0] = np.inf
            i = int(np.argmin(room))
            if room[i] < 1.0:
                pin[i], sol = (-1 if step[i] < 0.0 else 1), None
                x = np.clip(x + room[i] * step, lo, hi)
                x[i] = lo[i] if pin[i] < 0 else hi[i]
        if sol is not None:  # a whole step, or the face the growth ended on
            (x, mult), sol = sol, None
            j = int(np.argmin(mult))
            if mult[j] >= -tol:
                return x
            pin[j] = 0
        if stop(x):
            return x
    raise InfeasibleSetError(f"{_UNCERTIFIED}: bounds not settled")


def _solve(cc: ClassConstraints, faces: _FaceTable, q: np.ndarray,
           project: bool):
    """The class set's face table (``_class_faces``) on the point q (d), or
    on a batch of P points (P x d) in one pass.  A point that leaves the
    box or non-negativity bounds, or for which the table finds none, goes
    on alone (``_settle``).  Returns (x, errors), x shaped like q: errors
    maps the row (0 for one point) of each point that could not be solved
    to its InfeasibleSetError, and that point of x is NaN."""
    x, _, _, found = faces.solve(q, project)
    d = len(faces.c)
    X, found, errors = x.reshape(-1, d), np.reshape(found, -1), {}
    if cc.box is not None or cc.nonneg or not found.all():
        lo, hi = cc.bounds(d)
        alone = ~found | ((X < lo) | (X > hi)).any(axis=1)
        for i in np.flatnonzero(alone):
            try:
                X[i] = _settle(cc, faces, q.reshape(-1, d)[i], project,
                               X[i] if found[i] else None, lo, hi)
            except InfeasibleSetError as exc:
                errors[int(i)] = exc
    for i, x_i in enumerate(X):
        if i not in errors and not cc.contains(x_i):
            errors[i] = InfeasibleSetError(
                f"{_UNCERTIFIED}: the certified point fails the membership test")
    if errors:
        X[list(errors)] = np.nan
    return X.reshape(x.shape), errors


def _settle(cc: ClassConstraints, faces: _FaceTable, q: np.ndarray,
            project: bool, x, lo, hi) -> np.ndarray:
    """One point past the face table: the bound stage ``_descend`` from the
    table's point x.  Where the table or the stage's growth finds no point
    (x None), a first phase finds one and ``_descend`` runs from it.  That
    phase descends on t over (x, t) in the rows A x - t <= b and the ball
    |x - c|^2 + (t - t0)^2 <= rr^2 + t0^2, from the clipped centre at t = t0:
    at t < 0, x lies inside the set, and a certified minimum t >= 0 shows
    that the set is empty."""
    c, rr, A, b = faces.c, faces.rr, faces.A, faces.b
    d = len(c)
    tol = 1e-10 * math.sqrt(float((q - c) @ (q - c) if project else q @ q))
    x = None if x is None else _descend(c, rr, A, b, lo, hi, q, project, x, tol)
    if x is None:
        xs = np.clip(c, lo, hi)
        dist = math.sqrt(float((xs - c) @ (xs - c)))
        rr1 = rr if cc.ball is not None else 1e6 * (1.0 + dist)  # no ball: search near 0
        t0 = float(np.max(A @ xs - b, initial=0.0)) + dist + rr1
        x1 = _descend(np.append(c, t0), math.hypot(rr1, t0),
                      np.column_stack([A, -np.ones(len(b))]), b,
                      np.append(lo, -np.inf), np.append(hi, np.inf),
                      np.eye(d + 1)[d], False, np.append(xs, t0), 1e-10,
                      stop=lambda x: x[-1] < 0.0)
        if x1[-1] >= 0.0:
            raise InfeasibleSetError(_EMPTY if cc.ball is not None else
                                     f"{_UNCERTIFIED}: no point found near "
                                     f"the origin")
        x = _descend(c, rr, A, b, lo, hi, q, project, x1[:d], tol)
    return x


def _lp_project(cc: ClassConstraints, x0: np.ndarray, d: int) -> np.ndarray:
    """Projection onto a set with an LP atom by its dual over (rho, mu, nu):
    the ball's, the LP constraint's and the rows' multipliers.  The inner
    minimizer is ``LpConstraint._prox`` at the ball-weighted point, clipped
    to the box; the dual is concave and smooth, and L-BFGS-B maximizes it.
    The result is accepted only if it lies in the set with a duality gap of
    at most _GAP_TOL * (1 + its squared distance / 2)."""
    from scipy.optimize import minimize

    lp = cc.lp
    A, b = cc.rows(d)
    lo, hi = cc.bounds(d)
    has_ball = cc.ball is not None
    c, r = cc.ball if has_ball else (np.zeros(d), 0.0)
    rr2 = (r * (1.0 - _SHRINK)) ** 2
    cap = lp.tau ** 2 - _SHRINK * (1.0 + lp.tau ** 2)

    def inner(lam):
        s = 1.0 + lam[0]
        z = (x0 + lam[0] * c - A.T @ lam[2:]) / s
        return np.clip(lp._prox(z, lam[1] / s), lo, hi)

    def neg_dual(lam):
        x = inner(lam)
        g = np.concatenate(([0.5 * (float((x - c) @ (x - c)) - rr2)
                             if has_ball else 0.0, lp.g_value(x) - cap],
                            A @ x - b))
        return -(0.5 * float((x - x0) @ (x - x0)) + float(lam @ g)), -g

    bounds = [(0.0, None if has_ball else 0.0)] + [(0.0, None)] * (1 + len(b))
    res = minimize(neg_dual, np.zeros(2 + len(b)), jac=True, method="L-BFGS-B",
                   bounds=bounds,
                   options={"ftol": 0.0, "gtol": 0.0, "maxiter": 1000})
    x = inner(res.x)
    primal = 0.5 * float((x - x0) @ (x - x0))
    gap = primal + float(res.fun)
    if not (cc.contains(x) and gap <= _GAP_TOL * (1.0 + primal)):
        raise InfeasibleSetError(f"{_UNCERTIFIED}: LP-set projection stopped "
                                 f"at duality gap {gap:.2e}")
    return x


@dataclass(frozen=True)
class FeasibleSet:
    """Conjunction of per-class constraints on poisoned points."""

    cons: dict  # label -> ClassConstraints
    d: int
    # label -> _FaceTable, built on the first solve; a set never changes, and
    # with_halfspace and with_decoy_caps return new sets with empty tables
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def for_label(self, y) -> ClassConstraints:
        return self.cons[int(y)]

    def _table(self, y) -> _FaceTable:
        faces = self._tables.get(int(y))
        if faces is None:
            faces = self._tables[int(y)] = _class_faces(self.for_label(y),
                                                         self.d)
        return faces

    def contains(self, x, y) -> bool:
        return self.for_label(y).contains(x)

    def project(self, x, y, failed: dict | None = None) -> np.ndarray:
        """Euclidean projection of x, one point (d) or a batch of P points
        (P x d), onto the class-y set pulled in by a relative 1e-8
        (integrality relaxed), so that each point passes ``contains``.

        Ball, row, box and non-negativity sets take the active-set solver
        (``_solve``), one face-table pass for the batch, certified by KKT
        multipliers >= -tol; sets with an LP atom take the dual
        (``_lp_project``) point by point, certified by the duality gap.
        A point that cannot be projected raises InfeasibleSetError, with
        "empty" in its message when the set is empty.  Given a dict
        ``failed``, the other points are still returned: each failed row is
        NaN, and its error is stored under its row index."""
        cc = self.for_label(y)
        x = np.asarray(x, dtype=float)
        if cc.lp is None:
            out, errors = _solve(cc, self._table(y), x, project=True)
        else:
            out, errors = np.full(x.shape, np.nan), {}
            rows = out.reshape(-1, self.d)  # a view of out
            for i, q in enumerate(x.reshape(-1, self.d)):
                try:
                    rows[i] = _lp_project(cc, q, self.d)
                except InfeasibleSetError as exc:
                    errors[i] = exc
        if errors:
            if failed is None:
                raise errors[min(errors)]
            failed.update(errors)
        return out

    def with_halfspace(self, y: int, hs: HalfSpace) -> "FeasibleSet":
        cc = self.cons[int(y)]
        cons = dict(self.cons)
        cons[int(y)] = replace(cc, halfspaces=cc.halfspaces + (hs,))
        return FeasibleSet(cons, self.d)

    def with_decoy_caps(self, theta_decoy: ModelParams, loss: LossSpec,
                        caps: dict) -> "FeasibleSet":
        """Add, per class y, the decoy-loss cap ell(theta_decoy; x, y) <=
        caps[y] as the half-space y theta^T x >= margin_floor; a cap with no
        finite floor adds nothing."""
        out = self
        for lab in (1, -1):
            floor = margin_floor(loss, caps[lab])
            if np.isfinite(floor):
                # y theta^T x >= floor  <=>  (-y theta) . x <= -floor
                out = out.with_halfspace(
                    lab, HalfSpace(-lab * theta_decoy.theta, -floor))
        return out

    def min_margin_point(self, theta: np.ndarray, y: float) -> np.ndarray:
        """Minimizer of the margin y theta^T x over the class-y set, pulled
        in like ``project``.

        The active-set solver (``_solve``) returns it in closed form on a
        ball cut by rows, with box and non-negativity bounds pinned around
        it, certified by KKT multipliers >= -tol.  For theta = 0 every point
        is a minimizer and the projection of the set's anchor is returned.
        Raises InfeasibleSetError when the set is empty, when no certificate
        is found, on sets without a ball (possibly unbounded) and on sets
        with an LP atom (not supported yet)."""
        theta = np.asarray(theta, dtype=float)
        cc = self.for_label(y)
        if cc.lp is not None:
            raise InfeasibleSetError("margin minimization on LP sets is not "
                                     "supported yet")
        if cc.ball is None:
            raise InfeasibleSetError("margin minimization needs a ball to be "
                                     "bounded")
        if not theta.any():
            return self.project(cc.anchor(self.d), y)
        x, errors = _solve(cc, self._table(y), y * theta, project=False)
        if errors:
            raise errors[0]
        return x


# -- builders -----------------------------------------------------------------

def _domain_constraints(domain: InputDomain, lp: LpConstraint | None):
    if domain is InputDomain.UNIT_INTERVAL:
        return {"box": (0.0, 1.0)}
    if domain is InputDomain.NONNEG_INT:
        # integrality is relaxed to x >= 0; the LP atom, when present,
        # additionally bounds the expected post-rounding distance
        return {"nonneg": True, "lp": lp}
    return {}


def _centroid_fits(D: Dataset, p: float) -> tuple[dict, dict]:
    """D's class centroids, and its l2 and slab thresholds at p by defense,
    fit on first use and kept on the Dataset object itself, as its k-NN
    tables are, so that they are freed with it (D is immutable)."""
    fits = vars(D).setdefault("_centroid_fits", {})
    if p not in fits:
        taus = {kind.kind: fit_thresholds(kind, fit_detector(kind, D), D, p).tau
                for kind in (DefenseKind.l2(), DefenseKind.slab())}
        fits[p] = (class_centroids(D), taus)
    return fits[p]


def build_feasible_set(
    D: Dataset,
    p: float,
    decoy: tuple | None = None,          # (ModelParams, LossSpec, {label: cap})
) -> FeasibleSet:
    """Attack-side feasible set from the centroid defenses fit on D: per class
    an L2 ball and slab at the defender's (1-p)-quantile thresholds, domain
    constraints, and optionally the decoy-loss half-space.  On non-negative
    integer data the ball gives way to the LP atom, which bounds the L2
    distance of the rounded point in expectation."""
    cents, taus = _centroid_fits(D, p)
    axis = cents[1] - cents[-1]
    cons = {}
    for lab in (1, -1):
        l2 = (cents[lab], taus["l2"][lab])
        lp = (LpConstraint(*l2, default_K(D))
              if D.domain is InputDomain.NONNEG_INT else None)
        cons[lab] = ClassConstraints(ball=l2 if lp is None else None,
                                     slab=(axis, cents[lab], taus["slab"][lab]),
                                     **_domain_constraints(D.domain, lp))
    F = FeasibleSet(cons, D.d)
    return F.with_decoy_caps(*decoy) if decoy is not None else F


def ball_only_feasible(centers: dict, radii: dict, d: int,
                       domain: InputDomain = InputDomain.REALS) -> FeasibleSet:
    cons = {lab: ClassConstraints(ball=(np.asarray(centers[lab], float), radii[lab]),
                                  **_domain_constraints(domain, None))
            for lab in (1, -1)}
    return FeasibleSet(cons, d)


# -- the two-point collapse ----------------------------------------------------

@dataclass(frozen=True)
class CollapsedAttack:
    """At most one distinct point per class, gradient-sum preserving."""

    points: Dataset
    fold_alphas: tuple = ()

    @property
    def total_weight(self) -> float:
        return self.points.total_weight


def collapse_two_points(D_p: Dataset, theta_hat: ModelParams, loss: LossSpec,
                        grad_scales: np.ndarray | None = None) -> CollapsedAttack:
    """Fold each class of D_p into a single point whose weighted gradient at
    theta_hat equals the class's summed gradient exactly.

    grad_scales supplies the per-point gradient coefficient gamma in [0,1]
    (gradient contribution gamma_i w_i (-y_i x_i)); when omitted it defaults
    to the loss's own derivative at theta_hat, which for the hinge picks the
    deterministic subgradient (gamma = 1 at margin exactly 1).  Pass the dual
    coefficients from training when points may sit exactly on the margin.
    """
    th = theta_hat.theta
    if grad_scales is None:
        grad_scales = -dloss_dmargin(loss, D_p.y * (D_p.X @ th))
    grad_scales = np.asarray(grad_scales, dtype=float)
    pts_x, pts_y, pts_w = [], [], []
    alphas = []
    for lab in (1.0, -1.0):
        mask = D_p.y == lab
        if not mask.any():
            continue
        X, w, g = D_p.X[mask], D_p.w[mask], grad_scales[mask]
        keep = (w > 0) & (g > 0)
        if not keep.any():
            continue  # degenerate class: no gradient contribution
        X, w, g = X[keep], w[keep], g[keep]
        if loss.kind == HINGE:
            u = w * g
            x_t = (u[:, None] * X).sum(axis=0) / u.sum()
            pts_x.append(x_t)
            pts_y.append(lab)
            pts_w.append(u.sum())
        else:
            x_acc, w_acc = X[0], w[0]
            for i in range(1, len(w)):
                gam = w_acc / (w_acc + w[i])
                c1 = -dloss_dmargin(loss, lab * float(np.dot(th, x_acc)))
                c2 = -dloss_dmargin(loss, lab * float(np.dot(th, X[i])))
                T = gam * c1 + (1.0 - gam) * c2
                x_new = (gam * c1 * x_acc + (1.0 - gam) * c2 * X[i]) / T
                c_new = -dloss_dmargin(loss, lab * float(np.dot(th, x_new)))
                alpha = T / c_new
                alphas.append(float(alpha))
                x_acc = x_new
                w_acc = alpha * (w_acc + w[i])
            pts_x.append(x_acc)
            pts_y.append(lab)
            pts_w.append(w_acc)
    if not pts_x:
        points = Dataset.empty(D_p.d, D_p.domain)
    else:
        points = Dataset(np.array(pts_x), np.array(pts_y), np.array(pts_w),
                         D_p.domain)
    if points.total_weight > D_p.total_weight + 1e-9 * (1.0 + D_p.total_weight):
        raise RuntimeError("collapse increased total weight; fold scales invalid")
    return CollapsedAttack(points, tuple(alphas))


def poisoned_gradient_sum(D_p: Dataset, theta: ModelParams, loss: LossSpec,
                          grad_scales: np.ndarray | None = None) -> np.ndarray:
    th = theta.theta
    if grad_scales is None:
        grad_scales = -dloss_dmargin(loss, D_p.y * (D_p.X @ th))
    coeff = D_p.w * grad_scales * (-D_p.y)
    return D_p.X.T @ coeff


def verify_collapse(D_c: Dataset, D_p: Dataset, collapsed: CollapsedAttack,
                    loss: LossSpec, lam: float, tol: float = 1e-4,
                    F: FeasibleSet | None = None,
                    objective: str = "sum") -> bool:
    """Retrain on the original and the collapsed attack and compare.  Both
    retrains use the sum-form lambda the objective has on the original
    union, so they minimize one objective despite their differing total
    weights."""
    D1 = union(D_c, D_p)
    D2 = union(D_c, collapsed.points)
    W1 = D1.total_weight
    lam_sum = TrainConfig(lam=lam, objective=objective).mean_lam(W1) * W1
    cfg = TrainConfig(lam=lam_sum, objective="sum")
    th1 = train(D1, loss, cfg).theta
    th2 = train(D2, loss, cfg).theta
    if np.linalg.norm(th1 - th2) > tol * (1.0 + np.linalg.norm(th1)):
        return False
    if F is not None:
        for i in range(collapsed.points.n):
            if not F.contains(collapsed.points.X[i], collapsed.points.y[i]):
                return False
    return True


def collapse_with_duals(D_c: Dataset, D_p: Dataset, loss: LossSpec, lam: float,
                        objective: str = "sum"):
    """Train on the union, then collapse D_p using the stationarity-consistent
    gradient scales from the dual solution.  Returns (theta_hat, collapsed)."""
    cfg = TrainConfig(lam=lam, objective=objective)
    theta, gamma = train_with_duals(union(D_c, D_p), loss, cfg)
    return theta, collapse_two_points(D_p, theta, loss, gamma[D_c.n:])
