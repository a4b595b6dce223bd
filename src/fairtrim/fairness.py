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
``debias.sort_dataset``) builds no pool. One block generator,
``_pool_blocks``, holds the pool's draws, one 8-byte draw per column per
seed, and expands them one block of at most model.PREDICT_BLOCK_ROWS pairs
(read at call time, the one block size of pools and predictions) at a time
into two buffers reused from block to block, each at most
PREDICT_BLOCK_ROWS*w*8 bytes at encoded width w. Scoring a block adds one
block's activations (about 0.9 MB at 16/8 hidden units); beyond that the
run path keeps per-pair flips (and, for the sort pool, the influence set).
Only ``generate_similar_pairs`` builds a dense pool, and only an estimate
pool: N pairs take 2*N*w*8 bytes. Scoring one (``discriminatory_pairs``,
``build_influence_set``) adds only a transient set by PREDICT_BLOCK_ROWS.

Determinism: a pool is one random stream, seeded with (rng_seed, *key).
The sort pool's key is the constant ``_SORT_POOL``, (0,); estimate pool
call_index's is (1, call_index), from ``_estimate_key``, the one validator
of an estimate index. The stream is read in order: first one draw per seed
for each codec in encoding-layout order (a uniform for a numeric, a
category code for a categorical), then, at lam > 0, n_seeds*k drift
uniforms u for each numeric codec in turn, pair s*k + c being companion c
of seed s. A drifted numeric is lo + u*(hi - lo), where [lo, hi] is
[v - lam, v + lam] clipped to [0, 1]. So any pool is reproducible from its
config and call index.

Scoring: a pair flips when the model's labels for its two members differ.
Its influence-set member is the one of lower confidence, ties to the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .data import NUMERIC, Dataset
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    MissingGroup,
    RangeError,
    is_integer,
    require_integers,
)
from .influence import InfluenceSet
from .model import Model, predict_batch

_SORT_POOL = (0,)  # the sort pool's stream key; see _estimate_key for the others


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


def _estimate_key(call_index: int) -> tuple[int, int]:
    """The stream key of estimate pool ``call_index``, a non-negative integer;
    anything else, None included, raises RangeError."""
    if not is_integer(call_index) or call_index < 0:
        raise RangeError(f"call_index must be a non-negative integer, got {call_index!r}")
    return (1, call_index)


def _pool_blocks(d: Dataset, cfg: SimilarityConfig, key: tuple[int, ...]):
    """``d``'s pool on stream ``key`` (see module docstring for contract) as
    a generator of (seed rows, k, second rows) blocks of consecutive seeds,
    at most PREDICT_BLOCK_ROWS pairs and at least one seed per block. Second
    row s*k + c is companion c of seed row s: the seed with the sensitive
    one-hot reversed and each numeric drifted. The draws are made by the
    call and a block is expanded from them when it is reached, into two
    buffers reused from block to block, so a block is valid until the next
    one is made.

    The pool's stream is read as the contract orders it without storing the
    drifts: each uniform is one 64-bit output, so numeric codec j's drifts
    come from a copy of the stream advanced past the j codecs before it.
    """
    sens = d.sensitive_block
    if len(d) == 0:
        raise EmptyDataset("cannot size a pool from an empty dataset")
    rng = np.random.default_rng([cfg.rng_seed, *key])
    codecs, n, k, lam = d.encoding.codecs, cfg.pool_multiplier * len(d), cfg.companions, cfg.lam
    columns = [
        rng.random(n) if c.kind == NUMERIC else rng.integers(c.width, size=n) for c in codecs
    ]
    numeric = [c.start for c in codecs if c.kind == NUMERIC]
    drifts = []
    for j in range(len(numeric) if lam > 0.0 else 0):
        bits = np.random.PCG64()
        bits.state = rng.bit_generator.state
        drifts.append(np.random.Generator(bits.advance(j * n * k)))
    step = max(1, model.PREDICT_BLOCK_ROWS // k)
    seed_buffer = np.empty((min(step, n), d.width))
    second_buffer = np.empty((min(step, n) * k, d.width))

    def expand(start: int):
        size = min(step, n - start)
        seeds, second = seed_buffer[:size], second_buffer[: size * k]
        seeds.fill(0.0)
        rows = np.arange(size)
        for codec, draw in zip(codecs, columns):
            if codec.kind == NUMERIC:
                seeds[:, codec.start] = draw[start : start + size]
            else:  # set the drawn category's column of the zeroed one-hot block
                seeds[rows, codec.start + draw[start : start + size]] = 1.0
        companions = second.reshape(size, k, d.width)
        companions[:] = seeds[:, None]
        companions[:, :, sens] = seeds[:, None, sens][:, :, ::-1]  # flip the 2-wide one-hot
        for col, stream in zip(numeric, drifts):
            v = seeds[:, col, None]
            lo = np.maximum(0.0, v - lam)
            hi = np.minimum(1.0, v + lam)
            companions[:, :, col] = lo + stream.random((size, k)) * (hi - lo)
        return seeds, k, second

    # a block's temporaries go when expand returns, before the caller scores it
    return (expand(start) for start in range(0, n, step))


def generate_similar_pairs(d: Dataset, cfg: SimilarityConfig, call_index: int) -> PairPool:
    """Draw estimate pool ``call_index`` for ``d`` (see module docstring for contract)."""
    first = np.empty((cfg.pool_multiplier * len(d) * cfg.companions, d.width))
    second = np.empty_like(first)
    stop = 0
    for seeds, k, block in _pool_blocks(d, cfg, _estimate_key(call_index)):
        rows = slice(stop, stop + len(block))
        first[rows] = np.repeat(seeds, k, axis=0)
        second[rows] = block
        stop = rows.stop
    return PairPool(first, second)


def _dense_blocks(pool: PairPool):
    """(first rows, 1, second rows) of ``pool``, PREDICT_BLOCK_ROWS pairs at
    a time; an empty pool is one empty block."""
    step = model.PREDICT_BLOCK_ROWS
    for start in range(0, max(len(pool), 1), step):
        rows = slice(start, start + step)
        yield pool.first[rows], 1, pool.second[rows]


def _score(m: Model, blocks, influence: bool = False) -> tuple[np.ndarray, InfluenceSet | None]:
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


def discriminatory_pairs(m: Model, pool: PairPool) -> PairPool:
    """The subset of ``pool`` on which ``m`` predicts different labels."""
    flips = _score(m, _dense_blocks(pool))[0]
    return PairPool(pool.first[flips], pool.second[flips])


def build_influence_set(m: Model, pool: PairPool) -> InfluenceSet:
    """Lower-confidence member of each pair of ``pool`` on which ``m``
    discriminates, with its predicted label as tentative ground truth.
    Confidence ties take the first member. The set is empty when ``m``
    discriminates on no pair."""
    return _score(m, _dense_blocks(pool), influence=True)[1]


def _sort_influence_set(m: Model, d: Dataset, cfg: SimilarityConfig) -> InfluenceSet:
    """``build_influence_set`` of ``d``'s sort pool (key ``_SORT_POOL``),
    scored from its draws a block at a time, for ``debias.sort_dataset``."""
    return _score(m, _pool_blocks(d, cfg, _SORT_POOL), influence=True)[1]


def estimate_discrim(
    m: Model, d: Dataset, cfg: SimilarityConfig, call_index: int = 0
) -> float:
    """Fraction of a fresh synthetic pool on which ``m`` flips its prediction.

    call_index, a non-negative integer, picks an independent pool stream;
    repeated estimates inside a loop should pass distinct indices, and
    re-measurement of the same pool the same index. The pool is scored from
    its draws a block at a time, so the estimate is the share of
    ``generate_similar_pairs(d, cfg, call_index)``'s pairs that
    ``discriminatory_pairs`` keeps for ``m``, without building the dense
    pool.
    """
    return float(np.mean(_score(m, _pool_blocks(d, cfg, _estimate_key(call_index)))[0]))


def accuracy_and_parity(m: Model, d: Dataset) -> tuple[float, float | None]:
    """Accuracy of ``m`` on ``d`` and its statistical parity difference, from
    one prediction of the rows. A row's group is the set column of its
    sensitive one-hot. Parity is None when ``d``'s schema declares no
    sensitive column or ``d`` has no rows of one group."""
    if len(d) == 0:
        raise EmptyDataset("accuracy over an empty dataset is undefined")
    labels, _ = predict_batch(m, d.encoded)
    acc = float(np.mean(labels == d.labels))
    if d.schema.sensitive is None:
        return acc, None
    members = d.encoded[:, d.sensitive_block].T == 1.0  # one row mask per group
    if not members.any(axis=1).all():
        return acc, None
    rate0, rate1 = (float(labels[mask].mean()) for mask in members)
    return acc, abs(rate0 - rate1)


def accuracy(m: Model, d: Dataset) -> float:
    return accuracy_and_parity(m, d)[0]


def statistical_parity_difference(m: Model, d: Dataset) -> float:
    """Absolute gap in positive-prediction rate between the two groups."""
    members = d.encoded[:, d.sensitive_block] == 1.0
    if len(d) == 0:
        raise EmptyDataset("parity over an empty dataset is undefined")
    for cat, present in zip(d.sensitive_categories, members.any(axis=0)):
        if not present:
            raise MissingGroup(f"group {cat!r} has no rows in the evaluation set")
    return accuracy_and_parity(m, d)[1]


def metrics_report(m: Model, d: Dataset, cfg: SimilarityConfig, call_index: int = 0) -> dict:
    """Discrimination, accuracy, and (when both groups have rows) parity.
    The pool is scored from its draws a block at a time, as in
    ``estimate_discrim``."""
    flips = _score(m, _pool_blocks(d, cfg, _estimate_key(call_index)))[0]
    acc, parity = accuracy_and_parity(m, d)
    return {
        "individual_discrimination": float(np.mean(flips)),
        "pool_pairs": len(flips),
        "discriminatory_pairs": int(np.sum(flips)),
        "accuracy": acc,
        "statistical_parity_difference": parity,
    }
