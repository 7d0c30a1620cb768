"""Weighted labeled datasets: containers, file I/O, synthetic generation.

Points carry non-negative real weights so that fractional copies of a point
are representable without duplication; all losses, gradients and defense
statistics downstream are weight-scaled.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class InputDomain(enum.Enum):
    """Admissible feature domains."""

    REALS = "reals"
    UNIT_INTERVAL = "unit_interval"
    NONNEG_INT = "nonneg_int"


class DataError(ValueError):
    """Malformed file or domain/shape violation."""


def _check_domain(X: np.ndarray, domain: InputDomain) -> None:
    if not np.all(np.isfinite(X)):
        i = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
        raise DataError(f"non-finite feature values at point {i}")
    if domain is InputDomain.UNIT_INTERVAL:
        bad = ~((X >= 0.0) & (X <= 1.0)).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"point {i} outside [0,1]: {X[i]}")
    elif domain is InputDomain.NONNEG_INT:
        bad = ~((X >= 0.0) & (X == np.floor(X))).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"point {i} is not a non-negative integer vector: {X[i]}")


@dataclass(frozen=True)
class Dataset:
    """Immutable weighted multiset of labeled points.

    X has shape (n, d), y in {-1, +1}, w finite and >= 0.  Instances are
    safe to share across parallel workers; all mutating operations return
    new datasets.
    """

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray
    domain: InputDomain = InputDomain.REALS

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if X.ndim != 2:
            raise DataError("X must be 2-dimensional")
        if len(y) != len(X) or len(w) != len(X):
            raise DataError("X, y, w length mismatch")
        if not ((y == 1.0) | (y == -1.0)).all():
            raise DataError("labels must be -1 or +1")
        if not ((w >= 0.0) & (w < np.inf)).all():
            raise DataError("weights must be finite and non-negative")
        _check_domain(X, self.domain)
        X.setflags(write=False)
        y.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    def class_weight(self, label: int) -> float:
        return float(self.w[self.y == label].sum())

    def subset(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.X[mask], self.y[mask], self.w[mask], self.domain)

    @staticmethod
    def from_points(X, y, w=None, domain: InputDomain = InputDomain.REALS) -> "Dataset":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if w is None:
            w = np.ones(len(y))
        return Dataset(X, y, np.asarray(w, dtype=float), domain)

    @staticmethod
    def empty(d: int, domain: InputDomain = InputDomain.REALS) -> "Dataset":
        return Dataset(np.zeros((0, d)), np.zeros(0), np.zeros(0), domain)


def union(a: Dataset, b: Dataset) -> Dataset:
    """Weighted multiset union; total weight is exactly additive."""
    if a.d != b.d:
        raise DataError(f"dimension mismatch: {a.d} vs {b.d}")
    if a.domain is not b.domain:
        raise DataError(f"domain mismatch: {a.domain} vs {b.domain}")
    if b.n == 0:
        return a
    if a.n == 0:
        return b
    return Dataset(
        np.vstack([a.X, b.X]),
        np.concatenate([a.y, b.y]),
        np.concatenate([a.w, b.w]),
        a.domain,
    )


def synth_gaussians(
    seed: int,
    n: int,
    d: int,
    mean_separation: float,
    class_balance: float = 0.5,
    n_test: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Two isotropic unit-variance Gaussian classes with means +-(sep/2)*e1.

    Deterministic given the arguments; train and test are disjoint draws.
    """
    if n < 4 or d < 1:
        raise DataError("need n >= 4 and d >= 1")
    if not 0.0 < class_balance < 1.0:
        raise DataError("class_balance must lie in (0,1)")
    n_test = n if n_test is None else n_test
    rng = np.random.Generator(np.random.Philox(seed))
    mu = np.zeros(d)
    mu[0] = mean_separation / 2.0

    def draw(m):
        n_pos = int(round(m * class_balance))
        n_pos = min(max(n_pos, 1), m - 1)
        y = np.concatenate([np.ones(n_pos), -np.ones(m - n_pos)])
        X = rng.standard_normal((m, d)) + np.outer(y, mu)
        return Dataset(X, y, np.ones(m))

    return draw(n), draw(n_test)


# ---------------------------------------------------------------------------
# File formats.
#
# sparse-text: one point per line, "<label> <idx>:<val> ...", 1-based indices.
# dense-csv:   comma-separated features with the label in the last column.
# Either file may be accompanied by a JSON sidecar "<path>.json" declaring
# {"d": ..., "domain": ...} and, when any weight differs from 1, "weights".
# ---------------------------------------------------------------------------

_FORMATS = ("sparse-text", "dense-csv")


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _parse_label(tok: str, lineno: int) -> float:
    tok = tok.replace("−", "-")  # tolerate unicode minus
    try:
        v = float(tok)
    except ValueError:
        raise DataError(f"line {lineno}: bad label {tok!r}")
    if v not in (-1.0, 1.0):
        raise DataError(f"line {lineno}: label must be +1 or -1, got {tok!r}")
    return v


def load_dataset(path, format: str, domain: InputDomain | None = None) -> Dataset:
    """Parse a dataset file; points get unit weights unless the sidecar says
    otherwise.  Dimension comes from the sidecar when present, else from the
    max feature index (sparse) or the column count (dense)."""
    if format not in _FORMATS:
        raise DataError(f"unknown format {format!r}")
    path = Path(path)
    meta = {}
    sc = _sidecar_path(path)
    if sc.exists():
        meta = json.loads(sc.read_text())
    if domain is None:
        domain = InputDomain(meta.get("domain", "reals"))

    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if format == "sparse-text":
        rows = []
        labels = []
        max_idx = 0
        for lineno, ln in enumerate(lines, start=1):
            toks = ln.split()
            labels.append(_parse_label(toks[0], lineno))
            entries = []
            for tok in toks[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataError(f"line {lineno}: bad feature entry {tok!r}")
                if idx < 1:
                    raise DataError(f"line {lineno}: indices are 1-based, got {idx}")
                entries.append((idx, val))
                max_idx = max(max_idx, idx)
            rows.append(entries)
        d = int(meta.get("d", max_idx))
        X = np.zeros((len(rows), d))
        for i, entries in enumerate(rows):
            for idx, val in entries:
                if idx > d:
                    raise DataError(f"line {i + 1}: index {idx} exceeds declared d={d}")
                X[i, idx - 1] = val
        y = np.array(labels)
    else:
        rows = []
        labels = []
        for lineno, ln in enumerate(lines, start=1):
            toks = ln.split(",")
            if len(toks) < 2:
                raise DataError(f"line {lineno}: need at least one feature and a label")
            labels.append(_parse_label(toks[-1].strip(), lineno))
            try:
                rows.append([float(t) for t in toks[:-1]])
            except ValueError:
                raise DataError(f"line {lineno}: bad feature value")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise DataError("inconsistent column counts")
        X = np.array(rows, dtype=float)
        y = np.array(labels)

    w = np.asarray(meta["weights"], dtype=float) if "weights" in meta else np.ones(len(y))
    return Dataset(X, y, w, domain)


def save_dataset(D: Dataset, path, format: str) -> None:
    """Write a dataset plus its JSON sidecar.  repr() keeps floats bit-exact
    across a save/load round trip."""
    if format not in _FORMATS:
        raise DataError(f"unknown format {format!r}")
    path = Path(path)
    lines = []
    if format == "sparse-text":
        for i in range(D.n):
            ents = " ".join(
                f"{j + 1}:{float(v)!r}" for j, v in enumerate(D.X[i]) if v != 0.0
            )
            lab = "+1" if D.y[i] > 0 else "-1"
            lines.append(f"{lab} {ents}".rstrip())
    else:
        for i in range(D.n):
            feats = ",".join(repr(float(v)) for v in D.X[i])
            lab = "+1" if D.y[i] > 0 else "-1"
            lines.append(f"{feats},{lab}")
    path.write_text("\n".join(lines) + "\n")
    meta = {"d": D.d, "domain": D.domain.value}
    if not np.all(D.w == 1.0):
        meta["weights"] = [float(v) for v in D.w]
    _sidecar_path(path).write_text(json.dumps(meta, sort_keys=True))
