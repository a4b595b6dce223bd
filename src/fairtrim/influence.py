"""Influence of training points on test losses via damped inverse-HVP solves.

For a trained model with mean training loss Hessian H, the influence of
training point z on test point z_test is

    score(z, z_test) = -grad L(z_test)^T (H + damping*I)^{-1} grad L(z)

Negative scores mark points whose removal would *reduce* the test loss
(harmful points); rankings therefore sort ascending so the most harmful come
first. Two solvers are provided for the damped system: conjugate gradients
(default) and the stochastic truncated-Neumann recursion ("lissa").
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, EmptyDataset, EmptyInfluenceSet, RangeError
from .model import Model, grad_loss, hvp, mean_grad, per_example_grads

CG = "cg"
LISSA = "lissa"
_LISSA_STREAM = 2


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the damped inverse-HVP solve (H + damping*I)x = v."""

    method: str = CG
    damping: float = 0.01
    cg_tol: float = 1e-6  # converged when ||r|| <= cg_tol * ||v||
    cg_max_iter: int = 200
    # the recursion contracts only if lissa_scale > eigmax(H + damping*I);
    # cross-entropy Hessians here have small spectra, so 5.0 is conservative
    lissa_depth: int = 5000
    lissa_samples: int = 1
    lissa_scale: float = 5.0
    lissa_batch: int = 0  # 0 means use the full training batch each step
    seed: int = 0

    def __post_init__(self):
        if self.method not in (CG, LISSA):
            raise RangeError(f"unknown solver method {self.method!r}")
        if self.damping < 0:
            raise RangeError("damping must be >= 0")
        if self.cg_tol <= 0 or self.cg_max_iter < 1:
            raise RangeError("cg_tol must be > 0 and cg_max_iter >= 1")
        if self.lissa_depth < 1 or self.lissa_samples < 1 or self.lissa_scale <= 0:
            raise RangeError("lissa depth/samples must be >= 1 and scale > 0")


@dataclass(frozen=True)
class SolveInfo:
    method: str
    iterations: int
    residual_norm: float  # ||(H + damping*I)x - v|| on the full batch
    converged: bool

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
        }


def conjugate_gradient(matvec, b: np.ndarray, tol: float, max_iter: int):
    """Solve A x = b for symmetric positive definite A given as a matvec.

    Returns (x, iterations, residual_norm, converged) with the convergence
    contract ||b - A x|| <= tol * ||b||. A zero right-hand side returns the
    zero vector immediately. If a direction of non-positive curvature is met
    (A not PD), the current iterate is returned unconverged.
    """
    b = np.asarray(b, dtype=np.float64)
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    r = b.copy()  # r = b - A@0
    p = r.copy()
    rs = float(r @ r)
    target = tol * bnorm
    for k in range(1, max_iter + 1):
        Ap = matvec(p)
        curv = float(p @ Ap)
        if curv <= 0.0:
            return x, k, float(np.sqrt(rs)), False
        alpha = rs / curv
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            return x, k, float(np.sqrt(rs_new)), True
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iter, float(np.sqrt(rs)), False


def _damped_matvec(m: Model, X, y, damping):
    return lambda w: hvp(m, w, (X, y)) + damping * w


def _lissa_solve(m: Model, v, X, y, cfg: SolverConfig):
    """Average of stochastic truncated-Neumann estimates of (H+dI)^{-1} v.

    Recursion per sample: x_0 = v; x_j = v + (I - (H+dI)/scale) x_{j-1};
    estimate = x_depth / scale. Minibatches for the HVP inside the recursion
    are drawn from a stream derived from (cfg.seed,).
    """
    n = X.shape[0]
    batch = cfg.lissa_batch if 0 < cfg.lissa_batch < n else n
    rng = np.random.default_rng([cfg.seed, _LISSA_STREAM])
    acc = np.zeros_like(v)
    for _ in range(cfg.lissa_samples):
        x = v.copy()
        for _ in range(cfg.lissa_depth):
            if batch < n:
                idx = rng.choice(n, size=batch, replace=False)
                hx = hvp(m, x, (X[idx], y[idx])) + cfg.damping * x
            else:
                hx = hvp(m, x, (X, y)) + cfg.damping * x
            x = v + x - hx / cfg.lissa_scale
        acc += x / cfg.lissa_scale
    return acc / cfg.lissa_samples, cfg.lissa_depth * cfg.lissa_samples


def inverse_hvp_detailed(
    m: Model, v: np.ndarray, train: Dataset, cfg: SolverConfig
) -> tuple[np.ndarray, SolveInfo]:
    """Solve (H + damping*I) x = v; H is the mean-loss Hessian over ``train``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n_params,):
        raise DimensionMismatch(f"v has shape {v.shape}, expected ({m.n_params},)")
    if len(train) == 0:
        raise EmptyDataset("inverse HVP needs a non-empty training set")
    X, y = train.encoded, train.labels
    matvec = _damped_matvec(m, X, y, cfg.damping)
    if cfg.method == CG:
        x, iters, res, ok = conjugate_gradient(matvec, v, cfg.cg_tol, cfg.cg_max_iter)
    else:
        x, iters = _lissa_solve(m, v, X, y, cfg)
        res = float(np.linalg.norm(matvec(x) - v))
        ok = True  # no residual-based stop; reported residual is diagnostic
    return x, SolveInfo(cfg.method, iters, res, ok)


def inverse_hvp(m: Model, v: np.ndarray, train: Dataset, cfg: SolverConfig) -> np.ndarray:
    x, _ = inverse_hvp_detailed(m, v, train, cfg)
    return x


@dataclass(frozen=True, eq=False)
class InfluenceSet:
    """Test points whose loss the ranking aggregates.

    Each entry is a synthetic feature vector paired with the label the model
    predicted for it (the point's tentative ground truth).
    """

    features: np.ndarray  # (k, width)
    labels: np.ndarray  # (k,)

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise DimensionMismatch(
                f"influence set shapes disagree: {self.features.shape} vs {self.labels.shape}"
            )

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class RankedPoint:
    row_id: int
    score: float  # mean influence on the set; more negative = more harmful


@dataclass(frozen=True, eq=False)
class InfluenceRanking:
    """Training rows ordered most-harmful-first with solver diagnostics."""

    entries: tuple[RankedPoint, ...]
    method: str
    damping: float
    solves: tuple[SolveInfo, ...]

    @property
    def row_ids(self) -> tuple[int, ...]:
        return tuple(e.row_id for e in self.entries)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("rank", "row_id", "score"))
            for rank, e in enumerate(self.entries, start=1):
                w.writerow((rank, e.row_id, repr(e.score)))

    def solve_health(self) -> dict:
        """Convergence, iterations and residual norm of the ranking's one solve."""
        (s,) = self.solves
        return {
            "converged": s.converged,
            "iterations": s.iterations,
            "residual_norm": s.residual_norm,
        }

    def diagnostics_json(self) -> dict:
        return {
            "method": self.method,
            "damping": self.damping,
            "n_solves": len(self.solves),
            "converged": int(sum(s.converged for s in self.solves)),
            "max_residual_norm": max((s.residual_norm for s in self.solves), default=0.0),
            "solves": [s.to_json() for s in self.solves],
        }

    def save_diagnostics(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.diagnostics_json(), fh, indent=2)


def influence_score(
    m: Model, train_point: tuple[np.ndarray, int], s_test: np.ndarray
) -> float:
    """-s_test^T grad L(z) for one training point z = (x, y)."""
    x, y = train_point
    return float(-(s_test @ grad_loss(m, x, y)))


def rank_by_influence(
    iset: InfluenceSet, train: Dataset, m: Model, cfg: SolverConfig
) -> InfluenceRanking:
    """Aggregate influence of every training row on the set, ascending.

    A row's aggregate score is the mean of its per-entry scores. Influence is
    linear in the test gradient, mean_i(-G (H+dI)^{-1} g_i) =
    -G (H+dI)^{-1} mean_i(g_i), so one damped inverse-HVP solve against the
    mean loss gradient over the set gives every aggregate score (Koh & Liang
    compute s_test this way for a summed test loss). Ascending scores put the
    most harmful rows first; ties break toward the smaller row_id.
    """
    if len(iset) == 0:
        raise EmptyInfluenceSet("cannot rank against an empty influence set")
    if len(train) == 0:
        raise EmptyDataset("cannot rank an empty training set")
    if iset.features.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"influence set width {iset.features.shape[1]} != model input {m.input_dim}"
        )

    g = mean_grad(m, iset.features, iset.labels)
    s_test, info = inverse_hvp_detailed(m, g, train, cfg)

    G = per_example_grads(m, train.encoded, train.labels)  # (n, p)
    scores = -(G @ s_test)  # (n,)

    order = np.lexsort((train.row_ids, scores))  # score asc, then row_id asc
    entries = tuple(
        RankedPoint(int(train.row_ids[i]), float(scores[i])) for i in order
    )
    return InfluenceRanking(
        entries=entries, method=cfg.method, damping=cfg.damping, solves=(info,)
    )
