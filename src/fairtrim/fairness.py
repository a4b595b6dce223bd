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

Memory contract: the run path (``estimate_discrim``, ``metrics_report`` and
``debias.sort_dataset``) builds no pool. It holds the pool's draws, one
8-byte draw per column per seed, and one block of at most
model.PREDICT_BLOCK_ROWS pairs, expanded from the draws into two buffers
reused from block to block, beyond per-pair flips (and, for the sort pool,
the influence set). Only ``generate_similar_pairs`` builds a dense pool: N
pairs at encoded width w take 2*N*w*8 bytes. Scoring one (``flip_mask``,
``build_influence_set``) adds only a transient set by PREDICT_BLOCK_ROWS.

Determinism: draws happen per column in encoding-layout order (seeds first,
then companion perturbations), from a generator keyed on (rng_seed, stream,
call_index), so any pool is reproducible from its config and call index.
"""

from __future__ import annotations

import numbers
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
    # bool is an Integral, but True is no call index
    bad_type = isinstance(call_index, bool) or not isinstance(call_index, numbers.Integral)
    if bad_type or call_index < 0:
        raise RangeError(f"call_index must be a non-negative integer, got {call_index!r}")
    return np.random.default_rng([cfg.rng_seed, _POOL_STREAM_ESTIMATE, call_index])


@dataclass(frozen=True, eq=False)
class _Draws:
    """A pool as the random draws it is made from.

    ``columns`` holds one draw per seed for each codec, in codec order: a
    uniform for a numeric column, a category code for a categorical one. At
    lam > 0 the stream then continues with n_pairs drift uniforms for each
    numeric codec, pair s*k + c being companion c of seed s. Each uniform is
    one 64-bit output of the stream, so the drifts are not stored:
    ``drift_state`` is the stream where they begin, and a block reads its
    share of each codec's drifts from there.
    """

    d: Dataset
    lam: float
    k: int  # companions per seed
    columns: tuple[np.ndarray, ...]  # per codec, (n_seeds,)
    drift_state: dict | None  # bit-generator state; None at lam == 0

    @property
    def n_seeds(self) -> int:
        return int(self.columns[0].shape[0])

    def _drift_streams(self) -> list[np.random.Generator]:
        """One generator per numeric codec, at the start of its drifts."""
        if self.drift_state is None:
            return []
        numeric = sum(codec.kind == NUMERIC for codec in self.d.encoding.codecs)
        streams = []
        for j in range(numeric):
            bits = np.random.PCG64()
            bits.state = self.drift_state
            bits.advance(j * self.n_seeds * self.k)
            streams.append(np.random.Generator(bits))
        return streams

    def _expand(self, start, stop, seeds, second, drifts) -> None:
        """Write seeds start..stop into ``seeds`` (one row each) and the
        second members of their pairs into ``second`` (k rows each): the seed
        row with the sensitive one-hot reversed and each numeric drifted."""
        codecs, k = self.d.encoding.codecs, self.k
        seeds.fill(0.0)
        rows = np.arange(stop - start)
        for codec, draw in zip(codecs, self.columns):
            if codec.kind == NUMERIC:
                seeds[:, codec.start] = draw[start:stop]
            else:  # set the drawn category's column of the zeroed one-hot block
                seeds[rows, codec.start + draw[start:stop]] = 1.0
        companions = second.reshape(stop - start, k, self.d.width)
        companions[:] = seeds[:, None]
        sens = self.d.sensitive_block
        companions[:, :, sens] = seeds[:, None, sens][:, :, ::-1]  # flip the 2-wide one-hot
        numeric = [codec.start for codec in codecs if codec.kind == NUMERIC]
        for j, stream in zip(numeric, drifts):
            v = seeds[:, j, None]
            lo = np.maximum(0.0, v - self.lam)
            hi = np.minimum(1.0, v + self.lam)
            companions[:, :, j] = lo + stream.random((stop - start, k)) * (hi - lo)

    def blocks(self):
        """Yield (seed rows, k, second rows) of consecutive seeds, at most
        PREDICT_BLOCK_ROWS pairs and at least one seed per block. The rows
        are two buffers reused from block to block, so a block is valid
        until the next one is made."""
        k, n = self.k, self.n_seeds
        step = max(1, PREDICT_BLOCK_ROWS // k)
        seeds = np.empty((min(step, n), self.d.width))
        second = np.empty((min(step, n) * k, self.d.width))
        drifts = self._drift_streams()
        for start in range(0, n, step):
            stop = min(start + step, n)
            block_seeds, block_second = seeds[: stop - start], second[: (stop - start) * k]
            self._expand(start, stop, block_seeds, block_second, drifts)
            yield block_seeds, k, block_second


def _draw(d: Dataset, cfg: SimilarityConfig, call_index: int | None) -> _Draws:
    """The random draws of ``d``'s pool (see module docstring for contract)."""
    if d.schema.sensitive is None:
        raise SensitiveAbsent("similar pairs require a sensitive column")
    if len(d) == 0:
        raise EmptyDataset("cannot size a pool from an empty dataset")
    rng = _pool_rng(cfg, call_index)
    n_seeds = cfg.pool_multiplier * len(d)
    columns = tuple(
        rng.random(n_seeds) if c.kind == NUMERIC else rng.integers(c.width, size=n_seeds)
        for c in d.encoding.codecs
    )
    drift_state = rng.bit_generator.state if cfg.lam > 0.0 else None
    return _Draws(d, cfg.lam, cfg.companions, columns, drift_state)


def generate_similar_pairs(
    d: Dataset, cfg: SimilarityConfig, call_index: int | None = None
) -> PairPool:
    """Draw the synthetic pool for ``d`` (see module docstring for contract)."""
    draws = _draw(d, cfg, call_index)
    first = np.empty((draws.n_seeds * draws.k, d.width))
    second = np.empty_like(first)
    stop = 0
    for seeds, k, block in draws.blocks():
        rows = slice(stop, stop + len(block))
        first[rows] = np.repeat(seeds, k, axis=0)
        second[rows] = block
        stop = rows.stop
    return PairPool(first, second)


def _dense_blocks(pool: PairPool):
    """(first rows, 1, second rows) of ``pool``, PREDICT_BLOCK_ROWS pairs at
    a time; an empty pool is one empty block."""
    for start in range(0, max(len(pool), 1), PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        yield pool.first[rows], 1, pool.second[rows]


def _score(m, blocks, influence: bool = False) -> tuple[np.ndarray, InfluenceSet | None]:
    """The pool-scoring loop over (seed rows, k, second rows) blocks.

    Pair (s, c) of a block is seed row s against second row s*k + c, and it
    flips when ``m`` labels the two differently; each seed row is predicted
    once for all its k pairs. Returns every pair's flip, in pool order, and
    with ``influence`` the pool's influence set (see build_influence_set).
    """
    flips, rows, labels = [], [], []
    for seeds, k, second in blocks:
        l1, c1 = predict_batch(m, seeds)
        l2, c2 = predict_batch(m, second)
        f = (l2.reshape(-1, k) != l1[:, None]).ravel()
        flips.append(f)
        if influence:
            s = np.flatnonzero(f) // k  # the seed row of each flipped pair
            take_first = c1[s] <= c2[f]
            rows.append(np.where(take_first[:, None], seeds[s], second[f]))
            labels.append(np.where(take_first, l1[s], l2[f]))
    flips = np.concatenate(flips)
    if not influence:
        return flips, None
    return flips, InfluenceSet(np.concatenate(rows), np.concatenate(labels), len(flips))


def flip_mask(m, pool: PairPool) -> np.ndarray:
    """True for each pair of ``pool`` on which ``m`` predicts different labels."""
    return _score(m, _dense_blocks(pool))[0]


def discriminatory_pairs(m, pool: PairPool) -> PairPool:
    """The subset of ``pool`` on which ``m`` predicts different labels."""
    flips = flip_mask(m, pool)
    return PairPool(pool.first[flips], pool.second[flips])


def build_influence_set(m, pool: PairPool) -> InfluenceSet:
    """Lower-confidence member of each pair of ``pool`` on which ``m``
    discriminates, with its predicted label as tentative ground truth.
    Confidence ties take the first member. The set is empty when ``m``
    discriminates on no pair."""
    return _score(m, _dense_blocks(pool), influence=True)[1]


def _sort_influence_set(m, d: Dataset, cfg: SimilarityConfig) -> InfluenceSet:
    """``build_influence_set`` of ``d``'s sort pool (call_index None), scored
    from its draws a block at a time, for ``debias.sort_dataset``."""
    return _score(m, _draw(d, cfg, None).blocks(), influence=True)[1]


def estimate_discrim(
    m, d: Dataset, cfg: SimilarityConfig, call_index: int = 0
) -> float:
    """Fraction of a fresh synthetic pool on which ``m`` flips its prediction.

    call_index, a non-negative integer, picks an independent pool stream;
    repeated estimates inside a loop should pass distinct indices,
    re-measurement of the same pool the same index. The pool is scored from
    its draws a block at a time, so the estimate equals
    ``np.mean(flip_mask(m, generate_similar_pairs(d, cfg, call_index)))``
    without building the dense pool.
    """
    return float(np.mean(_score(m, _draw(d, cfg, call_index).blocks())[0]))


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
    """Discrimination, accuracy, and (when group metadata exists) parity.
    The pool is scored from its draws a block at a time, as in
    ``estimate_discrim``."""
    flips = _score(m, _draw(d, cfg, call_index).blocks())[0]
    acc, parity = accuracy_and_parity(m, d)
    return {
        "individual_discrimination": float(np.mean(flips)),
        "pool_pairs": len(flips),
        "discriminatory_pairs": int(np.sum(flips)),
        "accuracy": acc,
        "statistical_parity_difference": parity,
    }
