"""The five data-sanitization defenses.

Each defense fits detector parameters beta on the combined (clean + poisoned)
training data, scores every point (larger = more anomalous), discards the
top-p weight mass per class via a threshold tau_y, and trains on the rest:

    L2    distance to the class centroid
    slab  |projection of (x - mu_y) onto the inter-centroid axis|
    loss  loss under a model trained on the unsanitized data
    SVD   norm of the component outside the top-k right-singular subspace
    k-NN  distance to the k-th nearest neighbor (weight counts multiplicity)

``score_dataset`` holds each scoring rule.  ``defend`` fits the detector
and scores the combined data once per fit, and derives both tau and the
kept set from that one score array.

k-NN scoring runs in blocks of rows sized so that each block array (a Gram
expansion, its argpartition, the coordinate differences of the first round
and of the merged score's crossing, the squares of reference rows) holds at
most ``_KNN_BLOCK_BYTES``.  Its working memory, beyond the data and the
tables it returns, is thus bounded whatever the number of points, up to
2^17 reference points, where a block is one row.
Per row, a BLAS Gram expansion only picks the 2k + 6 nearest candidates
(``np.argpartition``); their distances are recomputed exactly from coordinate
differences and sorted by (distance, reference index) before weight is
accumulated.  Adding reference weight can only bring the crossing of k
nearer: the cumulative weight at each point, in (distance, index) order, only
grows when weight comes before it, in floating point too.  So the crossing U
over the candidates bounds the row's score from above.  A row is settled when
a rounding bound on the expansion puts every other reference point beyond U.
Any other row (ties at the cut) takes one exact second round over every
reference point whose expansion lies within U^2 plus that bound, a set that
holds every point within its score.  A row whose weight falls short of k
among the candidates, and every row of a reference of at most 2k + 6 points,
takes every reference point instead.  Scores are thus the per-row rule's bit
for bit, whatever the BLAS thread count.  These are "the rounds".

The defender scores D = D_c u D_p on every battery, always with the same
clean set D_c, so the rounds run on D_c once per k: the table of D_c holds
each row's training score and the indices of every D_c point at exact
distance <= that score, ties included.  It is kept on the D_c object and
freed with it.  A training score of D is then merged from the table:
- a clean row keeps its tabled score unless the expansion puts some poison
  point within its squared score plus the rounding bound;
- such a row is rescored exactly over its tabled points and those poison
  points.  Poison weight can only bring the row's crossing nearer, so the
  crossing lies among these points, and their order and partial sums are
  the rounds' on D;
- poison rows, and clean rows whose weight never reaches k (for them a far
  poison point can raise the farthest distance), are scored by the rounds
  on D.
Distances use the same formula either way, so scores are bit for bit the
rounds' on D.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, union
from .models import LossSpec, ModelParams, TrainConfig, loss_of_margin, test_error_01, train

L2 = "l2"
SLAB = "slab"
LOSS = "loss"
SVD = "svd"
KNN = "knn"

ALL_DEFENSES = (L2, SLAB, LOSS, SVD, KNN)

_KNN_BLOCK_BYTES = 1 << 20  # k-NN: bytes of one block array, at most
_TIE_BAND = 1e-12  # relative slack on the removal budget (see _thresholds)


class DefenseError(ValueError):
    pass


@dataclass(frozen=True)
class DefenseKind:
    kind: str
    lam: float = 0.1                              # loss defense
    loss: LossSpec = field(default_factory=LossSpec.hinge)  # loss defense
    objective: str = "mean"                       # loss defense
    frob_target: float = 0.05                     # svd defense
    k: int = 5                                    # knn defense

    def __post_init__(self):
        if self.kind not in ALL_DEFENSES:
            raise DefenseError(f"unknown defense {self.kind!r}")
        if self.kind == SVD and not 0.0 < self.frob_target < 1.0:
            raise DefenseError("frob_target must lie in (0,1)")
        if self.kind == KNN and self.k < 1:
            raise DefenseError("k must be >= 1")

    @staticmethod
    def l2() -> "DefenseKind":
        return DefenseKind(L2)

    @staticmethod
    def slab() -> "DefenseKind":
        return DefenseKind(SLAB)

    @staticmethod
    def loss_defense(lam: float, loss: LossSpec | None = None,
                     objective: str = "mean") -> "DefenseKind":
        """The loss defense whose detector trains like the defender: loss
        and lambda under the given objective (see ``TrainConfig``)."""
        return DefenseKind(LOSS, lam=lam, loss=loss or LossSpec.hinge(),
                           objective=objective)

    @staticmethod
    def svd(frob_target: float = 0.05) -> "DefenseKind":
        return DefenseKind(SVD, frob_target=frob_target)

    @staticmethod
    def knn(k: int = 5) -> "DefenseKind":
        return DefenseKind(KNN, k=k)


@dataclass(frozen=True)
class DetectorParams:
    kind: str
    centroids: dict | None = None         # L2 / slab: {+1: mu, -1: mu}
    model: ModelParams | None = None      # loss
    basis: np.ndarray | None = None       # svd: (d, k) orthonormal columns
    reference: Dataset | None = None      # knn
    clean: Dataset | None = None          # knn: a prefix of the reference
                                          # (None: all of it), see score_dataset


@dataclass(frozen=True)
class Thresholds:
    tau: dict  # label -> float


def class_centroids(D: Dataset) -> dict:
    out = {}
    for lab in (1.0, -1.0):
        mask = D.y == lab
        wsum = D.w[mask].sum()
        if wsum <= 0:
            raise DefenseError(f"class {int(lab):+d} absent; cannot fit centroids")
        out[int(lab)] = (D.w[mask, None] * D.X[mask]).sum(axis=0) / wsum
    return out


def fit_detector(kind: DefenseKind, D: Dataset,
                 start: ModelParams | None = None) -> DetectorParams:
    """Detector parameters fitted on D; ``start`` is the loss defense's
    training start (see ``models.train``) and is ignored by the others."""
    if D.n == 0:
        raise DefenseError("cannot fit a detector on an empty dataset")
    if kind.kind in (L2, SLAB):
        return DetectorParams(kind.kind, centroids=class_centroids(D))
    if kind.kind == LOSS:
        model = train(D, kind.loss,
                      TrainConfig(lam=kind.lam, objective=kind.objective),
                      start=start)
        return DetectorParams(LOSS, model=model)
    if kind.kind == SVD:
        # weights act as multiplicities: spectrum of sqrt(w)-scaled rows
        Xw = D.X * np.sqrt(D.w)[:, None]
        _, s, Vt = np.linalg.svd(Xw, full_matrices=False)
        total = float((s ** 2).sum())
        if total <= 0:
            raise DefenseError("SVD of an all-zero data matrix")
        resid = 1.0 - np.cumsum(s ** 2) / total
        k = int(np.argmax(resid <= kind.frob_target)) + 1
        return DetectorParams(SVD, basis=np.ascontiguousarray(Vt[:k].T))
    return DetectorParams(KNN, reference=D)


def score_dataset(kind: DefenseKind, beta: DetectorParams, D: Dataset,
                  training: bool = False) -> np.ndarray:
    """Anomaly scores of every point of D; the one place each defense's rule
    is written.  With ``training=True`` and the k-NN defense, each point's own
    weight is excluded from its neighbor search (duplicate locations still
    shield each other), and D's scores come from the table of the detector's
    clean prefix of D (D's own table when it has none) and the rest of D."""
    if kind.kind in (L2, SLAB):
        axis = beta.centroids[1] - beta.centroids[-1]
        out = np.empty(D.n)
        for lab in (1, -1):
            m = D.y == lab
            R = D.X[m] - beta.centroids[lab]
            out[m] = np.linalg.norm(R, axis=1) if kind.kind == L2 else np.abs(R @ axis)
        return out
    if kind.kind == LOSS:
        m = D.y * (D.X @ beta.model.theta)
        return loss_of_margin(kind.loss, m)
    if kind.kind == SVD:
        proj = (D.X @ beta.basis) @ beta.basis.T
        return np.linalg.norm(D.X - proj, axis=1)
    # k-NN: the distance at which cumulative reference weight, nearest first
    # (ties by reference index), reaches k (the farthest distance when it
    # never does)
    ref = beta.reference
    if not (training and D is ref):
        return _knn_rounds(D.X, np.full(D.n, -1), ref, kind.k)[0]
    clean = ref if beta.clean is None else beta.clean
    table = _knn_table(clean, kind.k)
    if clean is ref:
        return table.score.copy()
    return _knn_merged(table, clean, ref, kind.k)


@dataclass(frozen=True)
class _KnnTable:
    """The k-NN training scores of one dataset by the rounds, per row: the
    score, whether the row's weight falls short of k, and the indices of
    every point at exact distance <= the score (none for a short row),
    padded with the row's own index."""
    score: np.ndarray
    short: np.ndarray
    nbrs: np.ndarray


_KNN_TABLES_LOCK = threading.Lock()


def _knn_table(D: Dataset, k: int) -> _KnnTable:
    """D's k-NN table, built on first use and kept on the Dataset object
    itself, so that it is freed with it (D is immutable)."""
    with _KNN_TABLES_LOCK:
        tables = vars(D).setdefault("_knn_tables", {})
        if k not in tables:
            tables[k] = _KnnTable(*_knn_rounds(D.X, np.arange(D.n), D, k))
        return tables[k]


def _knn_merged(table: _KnnTable, clean: Dataset, D: Dataset,
                k: int) -> np.ndarray:
    """The k-NN training scores of D, whose first rows are ``clean``, from
    clean's table and the rest of D (the poison); equal to the rounds' on D
    bit for bit (see the module docstring)."""
    n_c = clean.n
    # compared in row blocks: one n_c x d boolean temporary would not be
    step = _knn_block_rows(D.d)
    if not (n_c <= D.n and np.array_equal(D.y[:n_c], clean.y)
            and np.array_equal(D.w[:n_c], clean.w)
            and all(np.array_equal(D.X[lo:min(lo + step, n_c)], clean.X[lo:lo + step])
                    for lo in range(0, n_c, step))):
        raise DefenseError("the k-NN detector's clean set is not a prefix of "
                           "its reference")
    poison = np.arange(n_c, D.n)
    out = np.empty(D.n)
    out[:n_c] = table.score
    # the poison rows, and clean rows short of k, whose farthest point a far
    # poison point can replace
    redo = np.concatenate([np.flatnonzero(table.short), poison])
    out[redo] = _knn_rounds(D.X[redo], redo, D, k)[0]
    ref_sq = _sq_norms(D.X)
    # a row of a block: g's poison columns, or the row's d coordinates
    step = _knn_block_rows(max(D.n - n_c, D.d))
    for lo in range(0, n_c, step):
        rows = np.arange(lo, min(lo + step, n_c))
        g, err = _gram(clean.X[rows], D.X[n_c:], ref_sq[n_c:], ref_sq.max())
        # a poison point outside every such bound lies beyond the row's score
        near = ((g <= (table.score[rows] ** 2 + err)[:, None])
                & ~table.short[rows, None])
        hit = near.any(axis=1)
        rows, near = rows[hit], near[hit]
        if not len(rows):
            continue
        # the nearby poison, padded with the row's own index: its weight is
        # left out, so a pad shifts the crossing's position but not its sum
        cols = np.sort(np.where(near, poison, rows[:, None]), axis=1)
        cand = np.sort(np.hstack([table.nbrs[rows], cols[:, -near.sum(axis=1).max():]]),
                       axis=1)
        # the crossing's arrays hold a row's candidates x d coordinates
        chunk = _knn_block_rows(cand.shape[1] * D.d)
        for a in range(0, len(rows), chunk):
            r = rows[a:a + chunk]
            out[r] = _knn_crossing(D.X[r], cand[a:a + chunk], D, k, r)[0]
    return out


def _knn_block_rows(width: int) -> int:
    """Rows per k-NN block whose arrays have at most ``width`` floats a row."""
    return max(1, _KNN_BLOCK_BYTES // (8 * max(width, 1)))


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 of each row of the C-ordered X (a Dataset's), squared in row
    blocks within ``_KNN_BLOCK_BYTES``: per row the same sum as over all
    rows at once."""
    out = np.empty(len(X))
    step = _knn_block_rows(X.shape[1])
    for lo in range(0, len(X), step):
        out[lo:lo + step] = np.sum(X[lo:lo + step] ** 2, axis=1)
    return out


def _gram(X: np.ndarray, R: np.ndarray, r_sq: np.ndarray, r_sq_max: float):
    """Squared distances from the rows X to the rows R (|r|^2 = r_sq) by the
    Gram expansion, and per row of X a bound on their rounding and on that of
    a squared exact distance, relative to |x|^2 + r_sq_max."""
    x_sq = np.sum(X ** 2, axis=1)
    tol = (6 * X.shape[1] + 24) * np.finfo(float).eps
    g = X @ R.T  # built in place: one block-sized array
    g *= -2.0
    g += x_sq[:, None]
    g += r_sq
    return g, tol * (x_sq + r_sq_max)


def _knn_rounds(X: np.ndarray, own: np.ndarray, ref: Dataset, k: int):
    """The k-NN scores of the rows X against ref, row r leaving out the
    weight of reference index own[r] (-1: none), in row blocks; also, as in
    ``_KnnTable``, whether each row falls short of k and its reference
    indices within its score, padded with own[r]."""
    m = 2 * k + 6  # candidates per row in the first round
    ref_sq = _sq_norms(ref.X)
    score, short = np.empty(len(X)), np.zeros(len(X), dtype=bool)
    found = []  # (rows, their reference indices within their scores)
    # a row of a block: g's |ref| columns, or its first round's m x d
    # coordinate differences
    step = _knn_block_rows(max(ref.n, m * ref.d))
    for lo in range(0, len(X), step):
        Xb, ob = X[lo:lo + step], own[lo:lo + step]
        i = np.arange(len(Xb))
        g, err = _gram(Xb, ref.X, ref_sq, ref_sq.max())
        bound = np.full(len(Xb), np.inf)  # no first round: every point
        if ref.n > m:
            s, nb, ok, bound = _knn_settle(Xb, g, m, err, ref, k, ob)
            score[lo + i[ok]] = s[ok]
            found.append((lo + i[ok], nb[ok]))
            i = i[~ok]
        # one exact round over every point within the row's bound
        for r in i:
            cand = np.flatnonzero(g[r] <= bound[r])[None]
            s, sh, nb = _knn_crossing(Xb[r:r + 1], cand, ref, k, ob[r:r + 1])
            score[lo + r], short[lo + r] = s[0], sh[0]
            found.append(([lo + r], nb))
        del g  # before the next block's product
    nbrs = np.repeat(own[:, None], max((nb.shape[1] for _, nb in found), default=0),
                     axis=1)
    for rows, nb in found:
        nbrs[rows, :nb.shape[1]] = nb
    return score, short, nbrs


def _knn_settle(X: np.ndarray, g: np.ndarray, m: int, err: np.ndarray,
                ref: Dataset, k: int, own: np.ndarray):
    """Per row of X, the score and points of ``_knn_crossing`` over its m
    nearest reference points by the Gram expansion g; whether every other
    point's expansion exceeds the bound, which certifies the score; and the
    bound, score^2 + err (inf when short), that g meets within the score."""
    part = np.argpartition(g, m, axis=1)
    score, short, nb = _knn_crossing(X, np.sort(part[:, :m], axis=1), ref, k, own)
    bound = np.where(short, np.inf, score ** 2 + err)
    return score, nb, bound < g[np.arange(len(X)), part[:, m]], bound


def _knn_crossing(X: np.ndarray, cand: np.ndarray, ref: Dataset, k: int,
                  own: np.ndarray):
    """Per row of X, over the reference points ``cand`` (indices ascending
    per row) in (exact distance, index) order: the distance at which
    cumulative weight, leaving out index own[r] (-1: none), first reaches k,
    or the farthest when it never does; whether it never does (short); and
    the candidates at distance <= that score (none when short), padded with
    own[r]."""
    dist = np.sqrt(np.sum((ref.X[cand] - X[:, None, :]) ** 2, axis=2))
    order = np.argsort(dist, axis=1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=1)
    idx = np.take_along_axis(cand, order, axis=1)
    w = np.where(idx == own[:, None], 0.0, ref.w[idx])
    # cumulative weights never decrease, so the count below k is the first
    # position that reaches it
    j = np.count_nonzero(np.cumsum(w, axis=1) < k, axis=1)
    short = j == cand.shape[1]
    score = dist[np.arange(len(X)), np.where(short, -1, j)]
    # the points within the score are a prefix of the sorted row
    c = np.where(short, 0, np.count_nonzero(dist <= score[:, None], axis=1))
    width = c.max(initial=0)
    nb = np.where(np.arange(width) < c[:, None], idx[:, :width], own[:, None])
    return score, short, nb


def _thresholds(scores: np.ndarray, D: Dataset, p: float) -> Thresholds:
    """Nearest-rank thresholds from the training scores of D (see
    ``fit_thresholds``)."""
    if not 0.0 < p < 1.0:
        raise DefenseError("p must lie in (0,1)")
    tau = {}
    for lab in (1, -1):
        mask = D.y == lab
        if not mask.any():
            raise DefenseError(f"class {lab:+d} absent; cannot fit threshold")
        s, w = scores[mask], D.w[mask]
        budget = p * w.sum()
        order = np.argsort(-s, kind="stable")
        s, w = s[order], w[order]
        # mass at or above each distinct score: the cumulative weight, in
        # descending order, at the last point of each run of equal scores
        last = np.append(s[1:] != s[:-1], True)
        mass_ge = np.cumsum(w)[last]
        # the band absorbs summation-order rounding at an exact budget tie
        n_ok = np.count_nonzero(mass_ge <= budget * (1.0 + _TIE_BAND))
        tau[lab] = float(s[last][n_ok - 1] if n_ok else np.nextafter(s[0], np.inf))
    return Thresholds(tau)


def _keep(scores: np.ndarray, D: Dataset, tau: Thresholds) -> np.ndarray:
    """Mask of the points scoring strictly below their class threshold."""
    return scores < np.where(D.y == 1.0, tau.tau[1], tau.tau[-1])


def fit_thresholds(kind: DefenseKind, beta: DetectorParams, D: Dataset,
                   p: float) -> Thresholds:
    """Per class, tau_y is the smallest observed score value such that the
    weight of {score >= tau_y} is at most p times the class weight (up to a
    relative 1e-12 tie band); when even the top score carries more than that
    mass, tau_y sits just above it (so nothing is removed)."""
    return _thresholds(score_dataset(kind, beta, D, training=True), D, p)


def sanitize(D: Dataset, kind: DefenseKind, beta: DetectorParams,
             tau: Thresholds) -> Dataset:
    """Keep exactly the points scoring strictly below their class threshold."""
    return D.subset(_keep(score_dataset(kind, beta, D, training=True), D, tau))


def defend(D_c: Dataset, D_p: Dataset, kind: DefenseKind, p: float,
           models: dict | None = None):
    """The defender's sanitize step: fit beta on D = D_c u D_p, score D once,
    and derive tau and the kept set from those scores.  ``models``: see
    ``defend_and_train`` (its "detector" entry).

    Returns (D, D_san, tau); raises DefenseError when the kept set is empty or
    single-class."""
    D = union(D_c, D_p)
    models = {} if models is None else models
    beta = fit_detector(kind, D, models.get("detector"))
    if kind.kind == KNN:
        beta = replace(beta, clean=D_c)
    if beta.model is not None:
        models["detector"] = beta.model
    scores = score_dataset(kind, beta, D, training=True)
    tau = _thresholds(scores, D, p)
    D_san = D.subset(_keep(scores, D, tau))
    if D_san.n == 0:
        raise DefenseError("sanitization removed every point")
    if not ((D_san.y == 1.0).any() and (D_san.y == -1.0).any()):
        raise DefenseError("sanitized set is single-class")
    return D, D_san, tau


def defend_and_train(D_c: Dataset, D_p: Dataset, kind: DefenseKind, p: float,
                     loss: LossSpec, config: TrainConfig,
                     models: dict | None = None):
    """Full defender pipeline: ``defend``, then train on the kept set.

    ``models``, when given, carries this defense's models from one call to
    the next, such as the previous split of an attack's grid: the loss
    detector's and the defender's training start from its "detector" and
    "theta" entries where present (see ``models.train``), and the call stores
    its own models there.  Results do not depend on it.

    Returns (theta_hat, err_fn, report); err_fn maps a test set to 0-1 error.
    """
    models = {} if models is None else models
    D, D_san, tau = defend(D_c, D_p, kind, p, models)
    theta = models["theta"] = train(D_san, loss, config,
                                    start=models.get("theta"))
    report = {
        "defense": kind.kind,
        "p": p,
        "tau_plus": tau.tau[1],
        "tau_minus": tau.tau[-1],
        "removed_weight": {lab: D.class_weight(lab) - D_san.class_weight(lab)
                           for lab in (1, -1)},
    }
    return theta, (lambda D_test: test_error_01(theta, D_test)), report
