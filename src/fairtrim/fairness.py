"""Individual-discrimination testing on synthetic similar pairs.

A *similar pair* is two feature vectors identical except for the sensitive
attribute (which is always flipped) and, when the similarity radius lam > 0,
numeric coordinates allowed to drift within +/-lam (clipped to [0, 1]). A
model discriminates on a pair when it predicts different labels for the two
members; the individual discrimination of a model is the fraction of such
pairs over a synthetic pool.

Pool size contract: pool_multiplier * |d| seed points are drawn uniformly
from the encoded feature space; each seed gets 1 companion when lam == 0
(the companion copies the seed's numerics bitwise) and 2 companions when
lam > 0. With the default multiplier of 100 that yields 100x|d| pairs at
lam == 0 and 200x|d| pairs otherwise.

Memory contract: a pool of N pairs at encoded width w holds 2*N*w*8 bytes.
Drawing it and scoring it (``flip_mask``, ``build_influence_set``) add only
a transient set by model.PREDICT_BLOCK_ROWS, not by N, beyond per-pair
labels and probabilities.

Determinism: draws happen per column in encoding-layout order (seeds first,
then companion perturbations), from a generator keyed on (rng_seed, stream,
call_index), so any pool is reproducible from its config and call index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NUMERIC, Dataset
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    MissingGroup,
    RangeError,
    SensitiveAbsent,
    require_integers,
)
from .influence import InfluenceSet
from .model import PREDICT_BLOCK_ROWS, predict_batch

_POOL_STREAM_SORT = 0
_POOL_STREAM_ESTIMATE = 1


@dataclass(frozen=True)
class SimilarityConfig:
    lam: float = 0.0  # numeric similarity radius in normalized units
    pool_multiplier: int = 100  # seeds per dataset row
    rng_seed: int = 0

    def __post_init__(self):
        require_integers(self, "pool_multiplier", "rng_seed")
        if not (0.0 <= self.lam <= 1.0):
            raise RangeError(f"lam must lie in [0, 1], got {self.lam}")
        if self.pool_multiplier < 1:
            raise RangeError("pool_multiplier must be >= 1")
        if self.rng_seed < 0:
            raise RangeError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def companions(self) -> int:
        """Pairs per seed point: 1 at lam == 0, 2 otherwise."""
        return 1 if self.lam == 0.0 else 2


@dataclass(frozen=True, eq=False)
class PairPool:
    """Columnar batch of similar pairs (row i of each matrix is one pair)."""

    first: np.ndarray  # (N, width)
    second: np.ndarray  # (N, width)

    def __post_init__(self):
        if self.first.shape != self.second.shape:
            raise DimensionMismatch(
                f"pair matrices disagree: {self.first.shape} vs {self.second.shape}"
            )

    def __len__(self) -> int:
        return int(self.first.shape[0])


def _pool_rng(cfg: SimilarityConfig, call_index: int | None) -> np.random.Generator:
    if call_index is None:
        return np.random.default_rng([cfg.rng_seed, _POOL_STREAM_SORT])
    return np.random.default_rng([cfg.rng_seed, _POOL_STREAM_ESTIMATE, call_index])


def generate_similar_pairs(
    d: Dataset, cfg: SimilarityConfig, call_index: int | None = None
) -> PairPool:
    """Draw the synthetic pool for ``d`` (see module docstring for contract)."""
    if d.schema.sensitive is None:
        raise SensitiveAbsent("similar pairs require a sensitive column")
    if len(d) == 0:
        raise EmptyDataset("cannot size a pool from an empty dataset")
    rng = _pool_rng(cfg, call_index)

    n_seeds = cfg.pool_multiplier * len(d)
    k = cfg.companions
    # each seed is drawn into its first companion's row and copied to the rest
    first = np.empty((n_seeds, k, d.width), dtype=np.float64)
    seeds = first[:, 0]
    for codec in d.encoding.codecs:
        if codec.kind == NUMERIC:
            seeds[:, codec.start] = rng.random(n_seeds)
        else:
            choice = rng.integers(codec.width, size=n_seeds)
            seeds[:, codec.start : codec.stop] = choice[:, None] == np.arange(codec.width)
    first[:, 1:] = first[:, :1]
    first = first.reshape(n_seeds * k, d.width)
    second = first.copy()
    sens = d.sensitive_block
    second[:, sens] = first[:, sens][:, ::-1]  # flip the 2-wide one-hot

    if cfg.lam > 0.0:
        n_total = first.shape[0]
        for codec in d.encoding.codecs:
            if codec.kind != NUMERIC:
                continue
            # consecutive blocks continue the column's single draw sequence
            for start in range(0, n_total, PREDICT_BLOCK_ROWS):
                v = first[start : start + PREDICT_BLOCK_ROWS, codec.start]
                lo = np.maximum(0.0, v - cfg.lam)
                hi = np.minimum(1.0, v + cfg.lam)
                second[start : start + PREDICT_BLOCK_ROWS, codec.start] = (
                    lo + rng.random(v.size) * (hi - lo)
                )

    return PairPool(first, second)


def flip_mask(m, pool: PairPool) -> np.ndarray:
    """True for each pair of ``pool`` on which ``m`` predicts different labels."""
    return predict_batch(m, pool.first)[0] != predict_batch(m, pool.second)[0]


def discriminatory_pairs(m, pool: PairPool) -> PairPool:
    """The subset of ``pool`` on which ``m`` predicts different labels."""
    flips = flip_mask(m, pool)
    return PairPool(pool.first[flips], pool.second[flips])


def build_influence_set(m, pool: PairPool) -> InfluenceSet:
    """Lower-confidence member of each pair of ``pool`` on which ``m``
    discriminates, with its predicted label as tentative ground truth.
    Confidence ties take the first member. The set is empty when ``m``
    discriminates on no pair."""
    l1, c1 = predict_batch(m, pool.first)
    l2, c2 = predict_batch(m, pool.second)
    flips = l1 != l2
    take_first = (c1 <= c2)[flips]
    return InfluenceSet(
        features=np.where(take_first[:, None], pool.first[flips], pool.second[flips]),
        labels=np.where(take_first, l1[flips], l2[flips]).astype(np.int64),
        pool_pairs=len(pool),
    )


def estimate_discrim(
    m, d: Dataset, cfg: SimilarityConfig, call_index: int = 0
) -> float:
    """Fraction of a fresh synthetic pool on which ``m`` flips its prediction.

    call_index picks an independent pool stream; repeated estimates inside a
    loop should pass distinct indices, re-measurement of the same pool the
    same index.
    """
    pool = generate_similar_pairs(d, cfg, call_index=call_index)
    return float(np.mean(flip_mask(m, pool)))


def accuracy_and_parity(m, d: Dataset) -> tuple[float, float | None]:
    """Accuracy of ``m`` on ``d`` and its statistical parity difference, from
    one prediction of the rows. Parity is None when ``d`` carries no group
    metadata or has no rows of one group."""
    if len(d) == 0:
        raise EmptyDataset("accuracy over an empty dataset is undefined")
    labels, _ = predict_batch(m, d.encoded)
    acc = float(np.mean(labels == d.labels))
    if d.group_values is None or d.sensitive_categories is None:
        return acc, None
    groups = np.asarray(d.group_values)
    masks = [groups == cat for cat in d.sensitive_categories]
    if not all(mask.any() for mask in masks):
        return acc, None
    rate0, rate1 = (float(labels[mask].mean()) for mask in masks)
    return acc, abs(rate0 - rate1)


def accuracy(m, d: Dataset) -> float:
    return accuracy_and_parity(m, d)[0]


def statistical_parity_difference(m, d: Dataset) -> float:
    """Absolute gap in positive-prediction rate between the two groups."""
    if d.group_values is None or d.sensitive_categories is None:
        raise SensitiveAbsent("dataset carries no sensitive-group metadata")
    if len(d) == 0:
        raise EmptyDataset("parity over an empty dataset is undefined")
    for cat in d.sensitive_categories:
        if cat not in d.group_values:
            raise MissingGroup(f"group {cat!r} has no rows in the evaluation set")
    return accuracy_and_parity(m, d)[1]


def metrics_report(m, d: Dataset, cfg: SimilarityConfig, call_index: int = 0) -> dict:
    """Discrimination, accuracy, and (when group metadata exists) parity."""
    pool = generate_similar_pairs(d, cfg, call_index=call_index)
    flips = flip_mask(m, pool)
    acc, parity = accuracy_and_parity(m, d)
    return {
        "individual_discrimination": float(np.mean(flips)),
        "pool_pairs": int(len(pool)),
        "discriminatory_pairs": int(np.sum(flips)),
        "accuracy": acc,
        "statistical_parity_difference": parity,
    }
