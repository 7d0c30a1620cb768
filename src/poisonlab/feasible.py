"""Per-class feasible sets: membership, Euclidean projection, margin
minimization, the iterative constrained-attack loop, and the two-point
collapse of an attack with retraining-based verification.

A class set is an intersection of atoms that all admit closed-form
projections: an L2 ball, a slab around the inter-centroid axis, half-spaces
(decoy-loss caps, support-vector constraints), the domain box or
non-negativity, and optionally the LP relaxation of the expected post-
rounding squared distance.  Projections onto intersections run Dykstra's
alternating scheme over the atoms.

Margin minimization is exact on a ball cut by k half-spaces (the slab's two
faces, decoy-loss caps, support-vector constraints), which is every
real-domain set the builders emit: it enumerates the active sets of the k
rows and certifies the optimum by the KKT conditions.  Sets with a box,
non-negativity or LP atom use a local NLP solve, checked by a feasibility
probe and, when the probe fails, bisection on the margin level.
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
    SMOOTHED_HINGE,
    LossSpec,
    ModelParams,
    TrainConfig,
    dloss_dmargin,
    train,
    train_with_duals,
)
from .rounding import LpConstraint

_SHRINK = 1e-8          # relative pull-in so projected points pass strict tests
_DYKSTRA_CAP = 10_000
_FEAS_TOL = 1e-8


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

    def violation(self, x) -> float:
        return max(0.0, (float(np.dot(self.a, x)) - self.b) / np.linalg.norm(self.a))

    def project(self, x, shrink=0.0):
        b = self.b - shrink * (1.0 + abs(self.b))
        v = float(np.dot(self.a, x)) - b
        if v <= 0:
            return np.asarray(x, dtype=float)
        return x - (v / float(np.dot(self.a, self.a))) * self.a


@dataclass(frozen=True)
class ClassConstraints:
    ball: tuple | None = None        # (center, radius)
    slab: tuple | None = None        # (axis, center, halfwidth)
    halfspaces: tuple = ()           # HalfSpace atoms
    box: tuple | None = None         # (lo, hi) closed bounds, may be scalars
    nonneg: bool = False
    lp: LpConstraint | None = None

    def atoms(self, shrink: float):
        out = []
        if self.ball is not None:
            c, r = self.ball
            rr = r * (1.0 - shrink)

            def p_ball(x, c=c, rr=rr):
                d = np.linalg.norm(x - c)
                return x if d <= rr else c + (rr / d) * (x - c)

            def v_ball(x, c=c, r=r):
                return max(0.0, np.linalg.norm(x - c) - r)

            out.append((p_ball, v_ball))
        if self.slab is not None:
            a, c, hw = self.slab
            na2 = float(np.dot(a, a))
            hws = hw * (1.0 - shrink)

            def p_slab(x, a=a, c=c, hws=hws, na2=na2):
                t = float(np.dot(a, x - c))
                if abs(t) <= hws:
                    return x
                return x - ((t - math.copysign(hws, t)) / na2) * a

            def v_slab(x, a=a, c=c, hw=hw):
                return max(0.0, (abs(float(np.dot(a, x - c))) - hw) / math.sqrt(na2))

            out.append((p_slab, v_slab))
        for hs in self.halfspaces:
            out.append((lambda x, hs=hs: hs.project(x, shrink),
                        lambda x, hs=hs: hs.violation(x)))
        if self.box is not None:
            lo, hi = self.box
            out.append((lambda x, lo=lo, hi=hi: np.clip(x, lo, hi),
                        lambda x, lo=lo, hi=hi: float(
                            np.max(np.maximum(lo - x, x - hi), initial=0.0))))
        if self.nonneg:
            out.append((lambda x: np.maximum(x, 0.0),
                        lambda x: float(max(0.0, -x.min(initial=0.0)))))
        if self.lp is not None:
            out.append((lambda x: self.lp.project(np.maximum(x, 0.0)),
                        lambda x: 0.0 if self.lp.contains(np.maximum(x, 0.0))
                        else float(np.linalg.norm(np.maximum(x, 0.0) - self.lp.project(np.maximum(x, 0.0))) + max(0.0, -x.min(initial=0.0)))))
        return out

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


def _dykstra(x0: np.ndarray, atoms, cap=_DYKSTRA_CAP, tol=1e-11):
    """Project x0 onto the intersection of the atoms' sets."""
    if not atoms:
        return x0.copy()
    if len(atoms) == 1:
        return atoms[0][0](x0.copy())
    x = x0.astype(float).copy()
    incs = [np.zeros_like(x) for _ in atoms]
    scale = 1.0 + np.linalg.norm(x0)
    for it in range(cap):
        x_prev = x.copy()
        for i, (proj, _) in enumerate(atoms):
            y = x + incs[i]
            x_new = proj(y)
            incs[i] = y - x_new
            x = x_new
        if np.linalg.norm(x - x_prev) <= tol * scale:
            break
    return x


def _violation(x, atoms) -> float:
    return max((v(x) for _, v in atoms), default=0.0)


def _exact_min_margin(cc: "ClassConstraints", a_vec: np.ndarray):
    """Exact minimizer of a_vec . x over the shrunk ball cut by the shrunk slab
    faces and half-spaces (the same r' and b' as ``atoms(_SHRINK)``), or None
    when no active set certifies, which only rounding on a degenerate set
    causes.

    Active sets S of the k rows are tried by size.  With G = A_S A_S^T,
    u0 = A_S^T G^-1 (b_S - A_S c) is the offset from the centre to the
    faces' affine hull and Pa = a - A_S^T G^-1 A_S a the part of a in its
    null space.  If Pa != 0 the ball is active: x = c + u0 - s Pa/|Pa| with
    s = sqrt(r'^2 - |u0|^2), mu = |Pa|/s and nu = -G^-1 A_S (a + mu (x-c)).
    If Pa = 0 it is not: x = c + u0 if |u0| <= r', mu = 0.  The
    first S whose x meets the other rows with nu >= 0 satisfies the KKT
    conditions of a convex problem, so x is a global minimizer."""
    c, r = cc.ball
    rr = r * (1.0 - _SHRINK)
    rows, rhs = [], []
    if cc.slab is not None:
        ax, sc, hw = cc.slab
        hws = hw * (1.0 - _SHRINK)
        t = float(np.dot(ax, sc))
        rows += [ax, -ax]
        rhs += [hws + t, hws - t]
    for hs in cc.halfspaces:
        rows.append(hs.a)
        rhs.append(hs.b - _SHRINK * (1.0 + abs(hs.b)))
    an = math.sqrt(float(a_vec @ a_vec))
    A = np.array(rows, dtype=float).reshape(len(rows), len(a_vec))
    slack = np.array(rhs, dtype=float) - A @ c
    row_n = np.sqrt(np.einsum("ij,ij->i", A, A))
    row_tol = 1e-11 * (row_n * (math.sqrt(float(c @ c)) + rr) + np.abs(slack))
    nu_tol = 1e-10 * an
    AAt = A @ A.T
    Aa = A @ a_vec
    k = len(rhs)
    for size in range(min(k, len(a_vec)) + 1):
        for S in itertools.combinations(range(k), size):
            S = list(S)
            G = AAt[S][:, S]
            if np.linalg.det(G) <= 1e-12 * np.prod(np.diag(G)):
                continue  # rows linearly dependent (e.g. both slab faces)
            # w = G^-1 (b_S - A_S c), v = G^-1 A_S a
            w, v = np.linalg.solve(G, np.column_stack([slack[S], Aa[S]])).T
            u0 = A[S].T @ w
            pa = a_vec - A[S].T @ v
            u2 = float(u0 @ u0)
            pn = math.sqrt(float(pa @ pa))
            if pn > 1e-12 * an:
                if u2 >= rr * rr:
                    continue
                s = math.sqrt(rr * rr - u2)
                mu = pn / s
                x_c = u0 - (s / pn) * pa
            else:
                if u2 > rr * rr:
                    continue
                mu = 0.0
                x_c = u0
            # A_S (x - c) = b_S - A_S c, so G^-1 A_S (a + mu (x-c)) = v + mu w
            nu = -(v + mu * w)
            if (nu * row_n[S] < -nu_tol).any():
                continue
            if (A @ x_c - slack > row_tol).any():
                continue
            return c + x_c
    return None


def _slsqp_min_margin(cc: "ClassConstraints", a_vec: np.ndarray, x0: np.ndarray,
                      d: int):
    """Minimize a_vec . x over the (slightly shrunk) class set from x0."""
    from scipy.optimize import minimize as _minimize

    cons = []
    if cc.ball is not None:
        c, r = cc.ball
        rs = (r * (1.0 - _SHRINK)) ** 2
        cons.append({"type": "ineq",
                     "fun": lambda x, c=c, rs=rs: rs - np.dot(x - c, x - c),
                     "jac": lambda x, c=c: -2.0 * (x - c)})
    if cc.slab is not None:
        a, c, hw = cc.slab
        hws = hw * (1.0 - _SHRINK)
        cons.append({"type": "ineq",
                     "fun": lambda x, a=a, c=c, hws=hws: hws - np.dot(a, x - c),
                     "jac": lambda x, a=a: -a})
        cons.append({"type": "ineq",
                     "fun": lambda x, a=a, c=c, hws=hws: hws + np.dot(a, x - c),
                     "jac": lambda x, a=a: a})
    for hs in cc.halfspaces:
        bs = hs.b - _SHRINK * (1.0 + abs(hs.b))
        cons.append({"type": "ineq",
                     "fun": lambda x, hs=hs, bs=bs: bs - np.dot(hs.a, x),
                     "jac": lambda x, hs=hs: -hs.a})
    if cc.lp is not None:
        lp = cc.lp

        def lp_fun(x, lp=lp):
            return lp.tau ** 2 - lp.g_value(np.maximum(x, 0.0))

        def lp_jac(x, lp=lp):
            k = np.clip(np.floor(np.maximum(x, 0.0)), 0, lp.K)
            return -((2.0 * k + 1.0) - 2.0 * lp.mu)

        cons.append({"type": "ineq", "fun": lp_fun, "jac": lp_jac})
    bounds = None
    if cc.box is not None:
        lo, hi = cc.box
        lo = np.broadcast_to(lo, (d,)) if np.ndim(lo) == 0 else lo
        hi = np.broadcast_to(hi, (d,)) if np.ndim(hi) == 0 else hi
        bounds = list(zip(lo, hi))
    elif cc.nonneg:
        bounds = [(0.0, None)] * d
    try:
        res = _minimize(lambda x: float(np.dot(a_vec, x)), x0, jac=lambda x: a_vec,
                        method="SLSQP", constraints=cons, bounds=bounds,
                        options={"maxiter": 400, "ftol": 1e-12})
    except Exception:
        return None
    # the caller gates on feasibility and improvement, so return the iterate
    # even on soft failures (e.g. status 8, which still lands at the optimum)
    return res.x


@dataclass(frozen=True)
class FeasibleSet:
    """Conjunction of per-class constraints on poisoned points."""

    cons: dict  # label -> ClassConstraints
    d: int

    def for_label(self, y) -> ClassConstraints:
        return self.cons[int(y)]

    def contains(self, x, y) -> bool:
        return self.for_label(y).contains(x)

    def project(self, x, y) -> np.ndarray:
        """Euclidean projection of x onto the class-y set (integrality
        relaxed); raises InfeasibleSetError when the intersection is
        detectably empty."""
        cc = self.for_label(y)
        atoms = cc.atoms(_SHRINK)
        x = np.asarray(x, dtype=float)
        out = _dykstra(x, atoms)
        scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(out)
        if _violation(out, atoms) > _FEAS_TOL * scale:
            # one more attempt from the anchor before declaring infeasible
            out2 = _dykstra(cc.anchor(self.d), atoms)
            if _violation(out2, atoms) > _FEAS_TOL * scale:
                raise InfeasibleSetError(
                    f"projection did not converge; residual "
                    f"{_violation(out, atoms):.3e} suggests an empty set")
            out = out2
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

    def to_obj(self) -> dict:
        def one(cc: ClassConstraints) -> dict:
            out = {}
            if cc.ball is not None:
                out["ball"] = {"center": [float(v) for v in cc.ball[0]],
                               "radius": float(cc.ball[1])}
            if cc.slab is not None:
                out["slab"] = {"axis": [float(v) for v in cc.slab[0]],
                               "center": [float(v) for v in cc.slab[1]],
                               "halfwidth": float(cc.slab[2])}
            if cc.halfspaces:
                out["halfspaces"] = [{"a": [float(v) for v in hs.a],
                                      "b": float(hs.b)}
                                     for hs in cc.halfspaces]
            if cc.box is not None:
                out["box"] = {"lo": float(np.min(cc.box[0])),
                              "hi": float(np.max(cc.box[1]))}
            if cc.nonneg:
                out["nonneg"] = True
            if cc.lp is not None:
                out["lp"] = {"mu": [float(v) for v in cc.lp.mu],
                             "tau": float(cc.lp.tau),
                             "K": [int(v) for v in cc.lp.K]}
            return out

        return {"d": self.d, "classes": {str(lab): one(cc)
                                         for lab, cc in self.cons.items()}}

    @staticmethod
    def from_obj(obj: dict) -> "FeasibleSet":
        def one(spec: dict) -> ClassConstraints:
            ball = slab = box = lp = None
            if "ball" in spec:
                ball = (np.array(spec["ball"]["center"]), spec["ball"]["radius"])
            if "slab" in spec:
                slab = (np.array(spec["slab"]["axis"]),
                        np.array(spec["slab"]["center"]),
                        spec["slab"]["halfwidth"])
            hss = tuple(HalfSpace(np.array(h["a"]), h["b"])
                        for h in spec.get("halfspaces", ()))
            if "box" in spec:
                box = (spec["box"]["lo"], spec["box"]["hi"])
            if "lp" in spec:
                lp = LpConstraint(np.array(spec["lp"]["mu"]), spec["lp"]["tau"],
                                  np.array(spec["lp"]["K"]))
            return ClassConstraints(ball=ball, slab=slab, halfspaces=hss,
                                    box=box, nonneg=spec.get("nonneg", False),
                                    lp=lp)

        return FeasibleSet({int(lab): one(spec)
                            for lab, spec in obj["classes"].items()},
                           obj["d"])

    def min_margin_point(self, theta: np.ndarray, y: float,
                         tol: float = 1e-5, x0: np.ndarray | None = None) -> np.ndarray:
        """Minimizer of the margin y theta^T x over the class-y set.

        A ball cut only by the slab and half-spaces has an exact minimizer,
        found by enumerating active sets (``_exact_min_margin``); it is
        returned when the set accepts it.  Otherwise x0 (a previous
        solution) or the set's anchor is projected onto the set, which
        raises InfeasibleSetError on an empty set (an empty set accepts no
        exact point either); for theta = 0 that projection is the answer.
        Sets with a box, non-negativity or LP atom, and the rare ball set
        whose active sets all fail on rounding, take the local NLP solve,
        certified by a feasibility probe just below its value (the set cut
        by {margin <= level}); when the probe finds a point, bisection on
        the level brackets the optimum to within tol and a second NLP solve
        polishes it."""
        theta = np.asarray(theta, dtype=float)
        cc = self.for_label(y)
        if cc.ball is None and cc.box is None:
            raise InfeasibleSetError("margin minimization needs a ball or box "
                                     "to be bounded")
        tn = np.linalg.norm(theta)
        a_vec = y * theta
        if tn > 0.0 and cc.box is None and not cc.nonneg and cc.lp is None:
            x = _exact_min_margin(cc, a_vec)
            if x is not None and cc.contains(x):
                return x
        anchor = self.project(x0 if x0 is not None else cc.anchor(self.d), y)
        if tn == 0.0:
            return anchor
        atoms = cc.atoms(_SHRINK)
        witness = anchor
        m_hi = float(np.dot(a_vec, witness))
        if cc.ball is not None:
            c, r = cc.ball
            m_lo = float(np.dot(a_vec, c)) - r * tn - 1e-9 * (1.0 + r * tn)
        else:
            lo, hi = cc.box
            m_lo = float(np.minimum(a_vec * np.broadcast_to(lo, (self.d,)),
                                    a_vec * np.broadcast_to(hi, (self.d,))).sum())
        span = max(m_hi - m_lo, 1e-12)
        gap_target = tol * (1.0 + abs(m_hi) + span)

        def try_improve(z):
            nonlocal witness, m_hi
            if z is not None and cc.contains(z):
                m_z = float(np.dot(a_vec, z))
                if m_z < m_hi:
                    witness, m_hi = z, m_z
                    return True
            return False

        def probe_below(level):
            probe = atoms + [(lambda x, b=level: HalfSpace(a_vec, b).project(x, 0.0),
                              lambda x, b=level: HalfSpace(a_vec, b).violation(x))]
            z = _dykstra(witness, probe, cap=3000)
            if cc.contains(z) and float(np.dot(a_vec, z)) <= level + 1e-9 * (1.0 + abs(level)):
                return z
            return None

        # fast path: local NLP solve, certified by one feasibility probe just
        # below the value it found
        try_improve(_slsqp_min_margin(cc, a_vec, witness, self.d))
        z = probe_below(m_hi - gap_target)
        if z is None:
            return witness
        # certificate failed: bracket the optimum by bisection, then polish
        try_improve(z)
        while m_hi - m_lo > gap_target:
            m_mid = 0.5 * (m_hi + m_lo)
            z = probe_below(m_mid)
            if z is not None:
                try_improve(z)
                m_hi = min(m_hi, m_mid + 1e-9 * (1.0 + abs(m_mid)))
            else:
                m_lo = m_mid
        try_improve(_slsqp_min_margin(cc, a_vec, witness, self.d))
        return witness


# -- builders -----------------------------------------------------------------

def _domain_constraints(domain: InputDomain, lp: LpConstraint | None):
    if domain is InputDomain.UNIT_INTERVAL:
        return {"box": (0.0, 1.0)}
    if domain is InputDomain.NONNEG_INT:
        # integrality is relaxed to x >= 0; the LP atom, when present,
        # additionally bounds the expected post-rounding distance
        return {"nonneg": True, "lp": lp}
    return {}


def build_feasible_set(
    D: Dataset,
    p: float,
    include_slab: bool = True,
    decoy: tuple | None = None,          # (ModelParams, LossSpec, {label: cap})
    use_lp_for_integer_domain: bool = False,
    lp_K: np.ndarray | None = None,
) -> FeasibleSet:
    """Attack-side feasible set from the centroid defenses fit on D: per class
    an L2 ball and slab at the defender's (1-p)-quantile thresholds, domain
    constraints, and optionally the decoy-loss half-space."""
    cents = class_centroids(D)
    kinds = {"l2": DefenseKind.l2(), "slab": DefenseKind.slab()}
    taus = {}
    for name, kind in kinds.items():
        beta = fit_detector(kind, D)
        taus[name] = fit_thresholds(kind, beta, D, p).tau
    axis = cents[1] - cents[-1]
    cons = {}
    for lab in (1, -1):
        lp = None
        if use_lp_for_integer_domain and D.domain is InputDomain.NONNEG_INT:
            from .rounding import default_K
            K = lp_K if lp_K is not None else default_K(D)
            lp = LpConstraint(cents[lab], taus["l2"][lab], K)
        extra = _domain_constraints(D.domain, lp)
        ball = None if lp is not None else (cents[lab], taus["l2"][lab])
        slab = (axis, cents[lab], taus["slab"][lab]) if include_slab else None
        cons[lab] = ClassConstraints(ball=ball, slab=slab, **extra)
    F = FeasibleSet(cons, D.d)
    return F.with_decoy_caps(*decoy) if decoy is not None else F


def ball_only_feasible(centers: dict, radii: dict, d: int,
                       domain: InputDomain = InputDomain.REALS) -> FeasibleSet:
    cons = {lab: ClassConstraints(ball=(np.asarray(centers[lab], float), radii[lab]),
                                  **_domain_constraints(domain, None))
            for lab in (1, -1)}
    return FeasibleSet(cons, d)


# -- attack loop ---------------------------------------------------------------

def run_constrained_attack(D_c: Dataset, attack, epsilon: float, rounds: int,
                           p: float, build_set=None):
    """Alternate refits of the centroid statistics with inner attack solves.

    ``attack(F) -> AttackResult``-like object with a ``dp`` Dataset attribute;
    ``build_set(D) -> FeasibleSet`` defaults to the L2+slab construction.
    rounds=1 reproduces the fixed-beta variant (beta from the clean data).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    build_set = build_set or (lambda D: build_feasible_set(D, p))
    D_p = Dataset.empty(D_c.d, D_c.domain)
    result = None
    for _ in range(rounds):
        F = build_set(union(D_c, D_p))
        result = attack(F)
        if result.dp.n == 0:
            break
        D_p = result.dp
    return result


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
    """Retrain on the original and the collapsed attack and compare; with a
    mean-loss objective, lambda is rescaled so the underlying sum objectives
    match despite the differing total weights."""
    D1 = union(D_c, D_p)
    D2 = union(D_c, collapsed.points)
    if objective == "sum":
        cfg1 = cfg2 = TrainConfig(lam=lam, objective="sum")
    else:
        cfg1 = TrainConfig(lam=lam, objective="mean")
        cfg2 = TrainConfig(lam=lam * D1.total_weight / D2.total_weight,
                           objective="mean")
    th1 = train(D1, loss, cfg1).theta
    th2 = train(D2, loss, cfg2).theta
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
