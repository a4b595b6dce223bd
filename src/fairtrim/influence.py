"""Influence of training points on test losses via damped inverse solves.

For a trained model, the influence of training point z on test point z_test
is

    score(z, z_test) = -grad L(z_test)^T (G + damping*I)^{-1} grad L(z)

where G is the Gauss-Newton matrix of the mean training loss. It replaces
the loss Hessian H, which at the models trained here often has curvature
below -damping, so that conjugate gradients break down on H + damping*I.
G is positive semi-definite by construction (Schraudolph 2002; Martens
2010), so conjugate gradients, the one solver, converge on G + damping*I
for any damping > 0. For this two-class softmax net

    G = (1/n) sum_i p0_i p1_i j_i j_i^T,   j_i = grad_theta (z1 - z0)_i,

applied matrix-free through J, the per-example Jacobian of the logit gap. Row i's
loss gradient is r_i j_i, r_i = p1_i - y_i, so J also gives the scores, -r * (J s_test).

Negative scores mark points whose removal would *reduce* the test loss (harmful
points); rankings therefore sort ascending so the most harmful come first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, write_csv, write_json
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyInfluenceSet,
    NotPositiveDefinite,
    RangeError,
    require_integers,
)
from .model import Model, logit_gap_jacobian, loss_residual, mean_grad, param_vector

CG = "cg"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the damped Gauss-Newton solve (G + damping*I)x = v by CG."""

    method: str = CG  # conjugate gradients is the only solver
    damping: float = 0.01  # > 0 makes G + damping*I positive definite
    cg_tol: float = 1e-6  # converged when ||r|| <= cg_tol * ||v||
    cg_max_iter: int = 200

    def __post_init__(self):
        require_integers(self, "cg_max_iter")
        if self.method != CG:
            raise RangeError(f"unknown solver method {self.method!r}")
        if not (self.damping > 0 and np.isfinite(self.damping)):
            raise RangeError(f"damping must be positive and finite, got {self.damping}")
        if not (self.cg_tol > 0 and np.isfinite(self.cg_tol)):
            raise RangeError(f"cg_tol must be positive and finite, got {self.cg_tol}")
        if self.cg_max_iter < 1:
            raise RangeError("cg_max_iter must be >= 1")


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    residual_norm: float  # CG's residual ||v - (G + damping*I)x||
    converged: bool


def conjugate_gradient(matvec, b: np.ndarray, tol: float, max_iter: int):
    """Solve A x = b for symmetric positive definite A given as a matvec.

    Returns (x, iterations, residual_norm, converged) with the convergence
    contract ||b - A x|| <= tol * ||b||; hitting ``max_iter`` first returns
    the last iterate unconverged. A zero right-hand side returns the zero
    vector immediately. A direction of non-positive curvature (A not PD)
    raises NotPositiveDefinite.
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
            raise NotPositiveDefinite(
                f"curvature {curv:.3g} <= 0 at CG iteration {k}: the operator is not PD"
            )
        alpha = rs / curv
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            return x, k, float(np.sqrt(rs_new)), True
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iter, float(np.sqrt(rs)), False


def inverse_hvp_detailed(
    m: Model, v: np.ndarray, train: Dataset, cfg: SolverConfig
) -> tuple[np.ndarray, SolveInfo]:
    """Solve (G + damping*I) x = v by CG; G is the Gauss-Newton matrix over ``train``."""
    v = param_vector(m, v)
    return _gauss_newton_solve(*logit_gap_jacobian(m, train.encoded), v, cfg)


def _gauss_newton_solve(J: np.ndarray, p: np.ndarray, v: np.ndarray, cfg: SolverConfig):
    """CG on (G + damping*I) x = v, G = (1/n) J^T diag(p0 p1) J applied matrix-free."""
    w = p[:, 0] * p[:, 1] / len(p)
    x, iters, res, ok = conjugate_gradient(
        lambda u: J.T @ (w * (J @ u)) + cfg.damping * u, v, cfg.cg_tol, cfg.cg_max_iter
    )
    return x, SolveInfo(iters, res, ok)


@dataclass(frozen=True, eq=False)
class InfluenceSet:
    """Test points whose loss the ranking aggregates.

    Each entry is a synthetic feature vector paired with the label the model
    predicted for it (the point's tentative ground truth).
    """

    features: np.ndarray  # (k, width)
    labels: np.ndarray  # (k,)
    pool_pairs: int  # size of the similar-pair pool the set was drawn from

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
    damping: float
    solves: tuple[SolveInfo, ...]
    influence_set: InfluenceSet  # the set the rows were ranked against

    @property
    def row_ids(self) -> tuple[int, ...]:
        return tuple(e.row_id for e in self.entries)

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ("rank", "row_id", "score"),
                  ((rank, e.row_id, repr(e.score)) for rank, e in enumerate(self.entries, start=1)))

    def solve_health(self) -> dict:
        """Convergence, iterations and residual norm of the ranking's one solve."""
        (s,) = self.solves
        return {
            "converged": s.converged,
            "iterations": s.iterations,
            "residual_norm": s.residual_norm,
        }

    def save_diagnostics(self, path: str | Path) -> None:
        obj = {"method": CG, "damping": self.damping, **self.solve_health()}
        write_json(path, obj, indent=2)


def rank_by_influence(
    iset: InfluenceSet, train: Dataset, m: Model, cfg: SolverConfig
) -> InfluenceRanking:
    """Aggregate influence of every training row on the set, ascending.

    A row's aggregate score is the mean of its per-entry scores. Influence is linear in
    the test gradient, mean_i(-g_z^T (G+dI)^{-1} g_i) = -g_z^T (G+dI)^{-1} mean_i(g_i),
    so one damped Gauss-Newton solve against the mean loss gradient over the set gives
    every aggregate score (Koh & Liang compute s_test this way for a summed test loss).
    One logit-gap Jacobian J of the rows serves the solve and the scores, -r * (J s_test).
    Ascending scores put the most harmful rows first; ties break toward the smaller row_id.
    """
    if len(iset) == 0:
        raise EmptyInfluenceSet("cannot rank against an empty influence set")
    if len(train) == 0:
        raise EmptyDataset("cannot rank an empty training set")

    g_set = mean_grad(m, iset.features, iset.labels)  # a set of another width fails here,
    J, p = logit_gap_jacobian(m, train.encoded)  # before the n x p J is allocated
    s_test, info = _gauss_newton_solve(J, p, g_set, cfg)
    scores = -loss_residual(p, train.labels) * (J @ s_test)  # row i's gradient is r_i J[i]

    order = np.lexsort((train.row_ids, scores))  # score asc, then row_id asc
    entries = tuple(
        RankedPoint(int(train.row_ids[i]), float(scores[i])) for i in order
    )
    return InfluenceRanking(
        entries=entries, damping=cfg.damping, solves=(info,), influence_set=iset,
    )
