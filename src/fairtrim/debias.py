"""Removing bias-inducing training points.

Pipeline: train on the full data, find discriminatory synthetic pairs, rank
the training rows by how much they raise loss on those pairs, then peel off
chunks of the most harmful rows (retraining each time) until discrimination
stops improving. The loop returns the best dataset seen, i.e. the subset one
chunk *before* the first non-improving measurement.

``debias_group`` runs that loop with one config for several datasets of
one row count at once, each on its own pools, training their chunk models
together in stacked ``train_many`` calls; ``debias_data`` is its one-member
case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import takewhile

from .data import Dataset, write_json
from .errors import AlreadyFair, DimensionMismatch, EmptyDataset, RangeError, require_integers
from .fairness import SimilarityConfig, _sort_influence_set, estimate_discrim
from .influence import InfluenceRanking, SolverConfig, rank_by_influence
from .model import Hyperparameters, Model, train_many


@dataclass(frozen=True)
class DebiasConfig:
    similarity: SimilarityConfig
    hp: Hyperparameters
    solver: SolverConfig = SolverConfig()
    chunk_percent: float = 1.0  # chunk i removes ceil(i * chunk_percent/100 * n) rows
    max_chunks: int = 100
    freeze_pool: bool = False  # reuse one measurement pool across iterations

    def __post_init__(self):
        require_integers(self, "max_chunks")
        if not (0.0 < self.chunk_percent <= 100.0):
            raise RangeError(f"chunk_percent must lie in (0, 100], got {self.chunk_percent}")
        if self.max_chunks < 1:
            raise RangeError("max_chunks must be >= 1")


@dataclass(frozen=True)
class ChunkMeasurement:
    chunk_index: int
    rows_removed: int
    discrimination: float


@dataclass(frozen=True, eq=False)
class DebiasReport:
    """Everything observed during the removal loop.

    ``full_model`` was trained on the input and ``model`` on the returned
    dataset; ``model`` is ``full_model`` when the input comes back
    unchanged. Neither is written by ``to_json``.
    """

    trace: tuple[ChunkMeasurement, ...]
    stop_index: int  # chunk index of the returned dataset
    removed_row_ids: tuple[int, ...]  # in ranking order
    ranking: InfluenceRanking | None
    full_model: Model | None = None
    model: Model | None = None

    @property
    def already_fair(self) -> bool:  # the full model flipped no pair: nothing ranked
        return self.ranking is None

    @property
    def loop_exhausted(self) -> bool:  # the last chunk still improved
        return self.ranking is not None and len(self.trace) == self.stop_index + 1

    def outcome(self) -> dict:
        """The removal and stop, as a grid record and ``fairtrim debias`` name them."""
        return dict(removed_row_ids=self.removed_row_ids, stop_index=self.stop_index,
                    already_fair=self.already_fair, loop_exhausted=self.loop_exhausted)

    def to_json(self) -> dict:
        return {
            "stop_index": self.stop_index,
            "removed_row_ids": list(self.removed_row_ids),
            "already_fair": self.already_fair,
            "loop_exhausted": self.loop_exhausted,
            "trace": [asdict(t) for t in self.trace],
            "ranking_row_ids": None if self.ranking is None else list(self.ranking.row_ids),
            "ranking_solve": None if self.ranking is None else self.ranking.solve_health(),
        }

    def save(self, path) -> None:
        write_json(path, self.to_json(), indent=2)


def sort_dataset(
    d: Dataset, m: Model, similarity: SimilarityConfig, solver: SolverConfig
) -> InfluenceRanking:
    """Rank the rows of ``d`` most-harmful-first for model ``m``.

    Harm is measured against the lower-confidence members of the model's
    discriminatory pairs on the sort pool; the ranking keeps that influence
    set. Raises AlreadyFair when the model discriminates on no pair (there
    is nothing to rank against). The sort pool is scored from its random
    draws a block at a time; no dense pool is built.
    """
    iset = _sort_influence_set(m, d, similarity)
    if len(iset) == 0:
        raise AlreadyFair(
            f"model discriminates on none of the {iset.pool_pairs} synthetic pairs"
        )
    return rank_by_influence(iset, d, m, solver)


def removal_count(i: int, chunk_percent: float, n: int) -> int:
    """Rows removed by chunk i of an n-row dataset: ceil(i * percent/100 * n),
    in exact arithmetic (in floats, 7 * 1.0 / 100.0 * 100 is 7.000000000000001)."""
    if i < 0:
        raise RangeError(f"chunk index must be >= 0, got {i}")
    return math.ceil(Fraction(str(float(chunk_percent))) * i * n / 100)


def chunk_schedule(n: int, chunk_percent: float, max_chunks: int) -> list[int]:
    """Removal counts of chunks 0..max_chunks of an n-row dataset, cut before
    the first count that would leave no row to train on."""
    counts = (removal_count(i, chunk_percent, n) for i in range(max_chunks + 1))
    return list(takewhile(lambda k: k < n, counts))


def improved(discrimination: list[float]) -> bool:
    """The stop rule: the last measurement is below every one before it."""
    *before, last = discrimination
    return all(last < x for x in before)


def drop_first(ranking: InfluenceRanking, d: Dataset, k: int) -> Dataset:
    """``d`` without its first k ranked rows, 0 <= k <= |d|; chunk i's k is
    ``chunk_schedule``'s entry i."""
    if not 0 <= k <= len(d):
        raise RangeError(f"cannot remove {k} of {len(d)} rows")
    return d.without_row_ids(set(ranking.row_ids[:k]))


def debias_data(d: Dataset, cfg: DebiasConfig) -> tuple[Dataset, DebiasReport]:
    """Iteratively remove ranked chunks until discrimination stops improving.

    ``chunk_schedule`` gives the removal count of each chunk; chunk i keeps
    all but the top ceil(i * chunk_percent/100 * |d|) ranked rows and is
    measured on pool ``call_index=i`` (pool 0 for every chunk when
    cfg.freeze_pool). A model is trained per distinct removal count, since
    an equal count removes the same rows. The loop ends at the first
    measurement for which ``improved`` fails, or when the schedule runs out,
    and returns the last chunk that improved. If the initial model
    discriminates on no pair at all, ``d`` is returned unchanged and the
    report is ``already_fair``. The report carries the model trained on
    ``d`` (``full_model``) and the one trained on the returned subset
    (``model``), so callers need not retrain.

    This is ``debias_group`` of one member, with ``cfg``'s pool seed.
    """
    [result] = debias_group(
        [d], cfg, pool_seeds=[cfg.similarity.rng_seed], full_models=train_many([d], cfg.hp)
    )
    return result


def debias_group(
    datasets: Sequence[Dataset],
    cfg: DebiasConfig,
    *,
    pool_seeds: Sequence[int],
    full_models: Sequence[Model],
) -> list[tuple[Dataset, DebiasReport]]:
    """Run the removal loop of ``debias_data`` on several datasets at once.

    Every member runs ``cfg``; member j differs only in its dataset, its
    pools, drawn with ``replace(cfg.similarity, rng_seed=pool_seeds[j])``,
    and its full model ``full_models[j]``, which the caller trained on it
    with ``cfg.hp`` (the grid trains them in one stack with its
    sensitive-dropped ``sr`` models). Each member has its own ranking, trace
    and stop, and its result is the one ``debias_data`` gives it alone under
    that pool seed. The datasets share a row count, so chunk i removes the
    same number of rows k from each, and the models of every running member
    whose k is new train together in one ``train_many`` call. A member
    leaves the group at its stop, or at once when it is already fair.
    Training and measurement go through this module's ``train_many`` and
    ``estimate_discrim``, so a test scripts the loop by replacing those two.
    """
    if not datasets or any(len(d) == 0 for d in datasets):
        raise EmptyDataset("cannot debias an empty dataset")
    n = len(datasets[0])
    if any(len(d) != n for d in datasets):
        raise DimensionMismatch("a removal group's datasets must share a row count")
    if len(pool_seeds) != len(datasets):
        raise DimensionMismatch(f"{len(pool_seeds)} pool seeds for {len(datasets)} datasets")
    if len(full_models) != len(datasets) or any(
        m.input_dim != d.width for m, d in zip(full_models, datasets)
    ):
        raise DimensionMismatch("full_models needs one model of each dataset's width")
    sims = [replace(cfg.similarity, rng_seed=seed) for seed in pool_seeds]

    rankings = []
    for d, sim, full_model in zip(datasets, sims, full_models):
        try:
            rankings.append(sort_dataset(d, full_model, sim, cfg.solver))
        except AlreadyFair:
            rankings.append(None)
    models = [{0: m} for m in full_models]  # by removal count: training is deterministic
    traces = [[] for _ in datasets]
    running = [j for j, ranking in enumerate(rankings) if ranking is not None]
    for i, k in enumerate(chunk_schedule(n, cfg.chunk_percent, cfg.max_chunks)):
        if not running:
            break
        # the running members have run the same chunks, so k is new to all or to none
        if k not in models[running[0]]:
            subsets = [drop_first(rankings[j], datasets[j], k) for j in running]
            for j, m in zip(running, train_many(subsets, cfg.hp)):
                models[j][k] = m
        pool = 0 if cfg.freeze_pool else i
        for j in running:
            disc = estimate_discrim(models[j][k], datasets[j], sims[j], call_index=pool)
            traces[j].append(ChunkMeasurement(i, k, disc))
        running = [j for j in running if improved([t.discrimination for t in traces[j]])]
    return [_result(*member) for member in zip(datasets, rankings, traces, models)]


def _result(d, ranking, trace, models) -> tuple[Dataset, DebiasReport]:
    """One member's returned subset and report, read off its trace."""
    if ranking is None:
        return d, DebiasReport((), 0, (), None, full_model=models[0], model=models[0])
    stop = trace[-1] if improved([t.discrimination for t in trace]) else trace[-2]
    return drop_first(ranking, d, stop.rows_removed), DebiasReport(
        trace=tuple(trace),
        stop_index=stop.chunk_index,
        removed_row_ids=ranking.row_ids[: stop.rows_removed],
        ranking=ranking,
        full_model=models[0],
        model=models[stop.rows_removed],
    )
