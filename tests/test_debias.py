"""Removal-loop semantics, driven by scripted training and measurements
(the ``scripted_loop`` fixture)."""

import copy
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairtrim.debias import (
    DebiasConfig,
    chunk_schedule,
    debias_data,
    debias_group,
    drop_first,
    removal_count,
    sort_dataset,
)
from fairtrim.data import SplitSpec, drop_sensitive, split
from fairtrim.errors import AlreadyFair, DimensionMismatch, EmptyDataset, RangeError
from fairtrim.fairness import SimilarityConfig, discriminatory_pairs, generate_similar_pairs
from fairtrim.influence import SolverConfig
from fairtrim.model import Hyperparameters, mask_sensitive, train, train_many


def stub_cfg(chunk_percent=1.0, max_chunks=100, freeze_pool=False):
    return DebiasConfig(
        similarity=SimilarityConfig(lam=0.0, pool_multiplier=10, rng_seed=0),
        hp=Hyperparameters(4, 2, 7, epochs=1, weight_init_seed=0),
        solver=SolverConfig(),
        chunk_percent=chunk_percent,
        max_chunks=max_chunks,
        freeze_pool=freeze_pool,
    )


def trained_on(calls, subset):
    """The one model the scripted training returned for ``subset``."""
    [m] = [m for ids, m in calls if ids == tuple(subset.row_ids.tolist())]
    return m


def run_stubbed(scripted_loop, toy, trained, sequence, chunk_percent=1.0, max_chunks=100):
    """Drive the loop with a scripted discrimination series: chunk i
    measures ``sequence[i]``.

    Every training returns a distinct copy of ``trained``; ``calls`` records
    (row ids, model) per training so tests can tell which model came from
    which subset.
    """
    calls = []

    def train_copy(subset):
        m = copy.copy(trained)
        calls.append((tuple(subset.row_ids.tolist()), m))
        return m

    scripted_loop(
        train=train_copy, measure=lambda model, d, similarity, call_index: sequence[call_index]
    )
    out, report = debias_data(toy, stub_cfg(chunk_percent, max_chunks))
    assert report.loop_exhausted == (len(report.trace) == report.stop_index + 1)
    assert report.already_fair == (report.ranking is None)
    return out, report, calls


# --- removal_count / drop_first ----------------------------------------------

def test_removal_count_ceil():
    assert removal_count(0, 1.0, 700) == 0
    assert removal_count(1, 1.0, 700) == 7
    assert removal_count(1, 1.0, 7) == 1  # ceil(0.07)
    assert removal_count(2, 1.0, 7) == 1  # ceil(0.14)
    assert removal_count(15, 1.0, 7) == 2  # ceil(1.05)
    assert removal_count(3, 2.5, 40) == 3
    with pytest.raises(RangeError):
        removal_count(-1, 1.0, 7)


def test_removal_count_is_exact():
    # in floats, 7 * 1.0 / 100.0 * 100 is 7.000000000000001 and the ceil 8,
    # so chunks 7 and 8 of a 100-row dataset removed the same 8 rows
    assert removal_count(7, 1.0, 100) == 7
    assert removal_count(8, 1.0, 100) == 8
    assert removal_count(7, 2.0, 300) == 42


# whole hundreds of rows make i * percent/100 * n a whole number more often,
# which is where float rounding pushed the ceil one row too far
@settings(max_examples=300)
@given(
    i=st.integers(0, 200),
    halves=st.integers(1, 200),
    n=st.integers(1, 5000) | st.integers(1, 50).map(lambda k: 100 * k),
)
def test_removal_count_matches_exact_arithmetic(i, halves, n):
    # integer and half-integer percents in (0, 100]
    assert removal_count(i, halves / 2, n) == math.ceil(Fraction(halves, 200) * i * n)


def test_chunk_schedule_stops_before_emptying_and_at_max_chunks():
    assert chunk_schedule(7, 100.0, 100) == [0]  # chunk 1 would remove all 7 rows
    assert chunk_schedule(7, 15.0, 100) == [0, 2, 3, 4, 5, 6]  # chunk 6 removes 7
    assert chunk_schedule(700, 1.0, 3) == [0, 7, 14, 21]
    assert chunk_schedule(7, 1.0, 3) == [0, 1, 1, 1]


def test_drop_first_prefix_semantics(toy, trained):
    ranking = sort_dataset(
        toy, trained, SimilarityConfig(lam=0.0, pool_multiplier=10, rng_seed=0), SolverConfig()
    )
    d0 = drop_first(ranking, toy, 0)
    assert d0.row_ids.tolist() == toy.row_ids.tolist()
    d2 = drop_first(ranking, toy, 2)
    dropped = set(toy.row_ids.tolist()) - set(d2.row_ids.tolist())
    assert dropped == set(ranking.row_ids[:2])
    assert len(drop_first(ranking, toy, 7)) == 0
    for k in (-1, 8):
        with pytest.raises(RangeError):
            drop_first(ranking, toy, k)


def test_sort_dataset_already_fair_raises(toy):
    # a masked model cannot discriminate at lam=0, so there is nothing to sort
    with pytest.raises(AlreadyFair):
        sort_dataset(
            toy, fair_model(toy), SimilarityConfig(lam=0.0, pool_multiplier=20), SolverConfig()
        )


# --- scripted loop behaviour --------------------------------------------------

# each example installs its own script, so sharing the fixture across examples is safe
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(seq=st.lists(st.floats(allow_nan=False), min_size=2, max_size=12))
def test_stop_index_ends_the_strictly_decreasing_prefix(scripted_loop, toy, trained, seq):
    end = 0
    while end + 1 < len(seq) and seq[end + 1] < seq[end]:
        end += 1
    # 1 % of 7 rows: every chunk up to max_chunks leaves rows to train on
    _, report, _ = run_stubbed(scripted_loop, toy, trained, seq, max_chunks=len(seq) - 1)
    assert report.stop_index == end
    assert [t.discrimination for t in report.trace] == seq[: end + 2]
    assert report.loop_exhausted == (end == len(seq) - 1)


def test_loop_stops_at_first_non_improvement(scripted_loop, toy, trained):
    # improving at 1 and 2, flat at 3 -> returns the chunk-2 subset
    seq = {0: 0.30, 1: 0.20, 2: 0.10, 3: 0.10}
    out, report, calls = run_stubbed(scripted_loop, toy, trained, seq, chunk_percent=15.0)
    assert report.stop_index == 2
    k = removal_count(2, 15.0, 7)  # ceil(2*0.15*7) = 3
    assert len(out) == 7 - k
    assert report.removed_row_ids == report.ranking.row_ids[:k]
    assert set(out.row_ids.tolist()) == set(toy.row_ids.tolist()) - set(report.removed_row_ids)
    assert [t.discrimination for t in report.trace] == [0.30, 0.20, 0.10, 0.10]
    assert not report.loop_exhausted and not report.already_fair
    assert report.full_model is trained_on(calls, toy)
    assert report.model is trained_on(calls, out)
    assert len(calls) == 4  # the full data and chunks 1-3, each trained once


def test_repeated_removal_count_reuses_the_previous_model(scripted_loop, toy, trained):
    # 1 % of 7 rows: chunks 1-3 all remove one row, so they share one training
    seq = {0: 0.3, 1: 0.2, 2: 0.1, 3: 0.1}
    out, report, calls = run_stubbed(scripted_loop, toy, trained, seq, chunk_percent=1.0)
    assert [t.rows_removed for t in report.trace] == [0, 1, 1, 1]
    assert [t.discrimination for t in report.trace] == [0.3, 0.2, 0.1, 0.1]
    assert report.stop_index == 2 and len(out) == 6
    assert len(calls) == 2  # the full data and the one-row-removed subset
    assert report.model is trained_on(calls, out)


def test_loop_immediate_stop_returns_input_unchanged(scripted_loop, toy, trained):
    seq = {0: 0.05, 1: 0.05}
    out, report, calls = run_stubbed(scripted_loop, toy, trained, seq)
    assert report.stop_index == 0
    assert out.row_ids.tolist() == toy.row_ids.tolist()
    assert report.removed_row_ids == ()
    assert len(report.trace) == 2


def test_loop_strictly_increasing_measurement_stops_at_zero(scripted_loop, toy, trained):
    seq = {0: 0.10, 1: 0.20}
    out, report, _ = run_stubbed(scripted_loop, toy, trained, seq)
    assert report.stop_index == 0 and len(out) == 7


def test_trace_strictly_decreasing_before_stop(scripted_loop, toy, trained):
    seq = {0: 0.5, 1: 0.4, 2: 0.3, 3: 0.35}
    _, report, _ = run_stubbed(scripted_loop, toy, trained, seq, chunk_percent=15.0)
    discs = [t.discrimination for t in report.trace]
    for a, b in zip(discs, discs[1:-1]):
        assert b < a
    assert discs[-1] >= discs[-2]


def test_loop_exhaustion_returns_last_candidate(scripted_loop, toy, trained):
    # always improving; max_chunks=3 -> returns chunk-3 subset, flagged
    seq = {i: 0.5 - 0.1 * i for i in range(4)}
    out, report, calls = run_stubbed(scripted_loop, toy, trained, seq, chunk_percent=15.0, max_chunks=3)
    assert report.loop_exhausted
    assert report.stop_index == 3
    assert len(out) == 7 - removal_count(3, 15.0, 7)
    assert report.model is trained_on(calls, out)
    assert report.model is not report.full_model


def test_loop_guards_against_emptying_dataset(scripted_loop, toy, trained):
    # chunk 1 would remove all rows: loop must stop before training on nothing
    seq = {0: 0.5, 1: 0.4}
    out, report, calls = run_stubbed(scripted_loop, toy, trained, seq, chunk_percent=100.0)
    assert report.loop_exhausted
    assert report.stop_index == 0
    assert out.row_ids.tolist() == toy.row_ids.tolist()
    assert len(calls) == 1
    assert report.model is report.full_model is trained_on(calls, toy)


def fair_model(toy):
    """A model that cannot see the sensitive column, so it flips no pair."""
    hp = Hyperparameters(6, 3, 7, epochs=300, weight_init_seed=0)
    return mask_sensitive(train(drop_sensitive(toy), hp), toy)


def test_already_fair_short_circuits(scripted_loop, toy):
    wrapped = fair_model(toy)
    calls = []

    def train_fair(subset):
        calls.append((tuple(subset.row_ids.tolist()), wrapped))
        return wrapped

    scripted_loop(train=train_fair)
    out, report = debias_data(toy, stub_cfg())
    assert report.already_fair
    assert report.removed_row_ids == ()
    assert out.row_ids.tolist() == toy.row_ids.tolist()
    assert report.trace == ()
    assert len(calls) == 1
    assert report.model is report.full_model is trained_on(calls, out)


def test_chunk_indices_measured_with_distinct_pools(scripted_loop, toy, trained):
    # chunk i is measured on pool call_index=i; a scripted spy checks the
    # indices arrive in order
    seen = []

    def measure(model, d, similarity, call_index):
        seen.append(call_index)
        return {0: 0.3, 1: 0.3}[call_index]

    scripted_loop(train=lambda subset: trained, measure=measure)
    debias_data(toy, stub_cfg())
    assert seen == [0, 1]


def test_frozen_pool_measures_every_chunk_on_pool_zero(scripted_loop, toy, trained):
    # the same model on the same frozen pool measures the same rate each time
    cfg = stub_cfg(chunk_percent=15.0, freeze_pool=True)
    scripted_loop(train=lambda subset: trained)
    _, report = debias_data(toy, cfg)
    frozen = generate_similar_pairs(toy, cfg.similarity, call_index=0)
    expected = len(discriminatory_pairs(trained, frozen)) / len(frozen)
    assert len(report.trace) == 2  # chunk 1 does not improve on chunk 0
    assert all(t.discrimination == expected for t in report.trace)


def test_debias_empty_dataset_raises(toy):
    with pytest.raises(EmptyDataset):
        debias_data(toy.subset(np.array([], dtype=int)), stub_cfg())


def test_report_json_round_trip(scripted_loop, toy, trained, tmp_path):
    seq = {0: 0.3, 1: 0.2, 2: 0.2}
    _, report, _ = run_stubbed(scripted_loop, toy, trained, seq, chunk_percent=15.0)
    p = tmp_path / "report.json"
    report.save(p)
    import json

    obj = json.loads(p.read_text())
    assert obj["stop_index"] == report.stop_index
    assert obj["removed_row_ids"] == list(report.removed_row_ids)
    assert len(obj["trace"]) == len(report.trace)
    assert obj["ranking_row_ids"] == list(report.ranking.row_ids)


def test_end_to_end_real_training_runs(toy):
    # small real run: no stubs, real pools; checks plumbing not outcomes
    cfg = DebiasConfig(
        similarity=SimilarityConfig(lam=0.0, pool_multiplier=10, rng_seed=1),
        hp=Hyperparameters(6, 3, 7, epochs=400, learning_rate=0.5, weight_init_seed=1),
        solver=SolverConfig(),
        chunk_percent=10.0,
        max_chunks=5,
    )
    out, report = debias_data(toy, cfg)
    assert len(out) <= 7
    assert report.trace  # at least the baseline measurement happened
    assert report.stop_index <= 5
    # the report's models are the ones a caller would otherwise retrain
    assert report.full_model.theta.tobytes() == train(toy, cfg.hp).theta.tobytes()
    assert report.model.theta.tobytes() == train(out, cfg.hp).theta.tobytes()


# --- removal groups -----------------------------------------------------------

def test_group_members_leave_at_their_stop(scripted_loop, toy, trained):
    # member 2 is already fair; member 1 stops after chunk 1, member 0 after chunk 3
    shifted = replace(toy, row_ids=toy.row_ids + 100)
    fair = fair_model(toy)
    # each member's pool seed tells the scripted measurement which member it measures
    sequences = {0: [0.3, 0.2, 0.1, 0.2], 1: [0.3, 0.4]}
    sizes = scripted_loop(
        train=lambda s: copy.copy(trained),
        measure=lambda model, d, similarity, call_index: sequences[similarity.rng_seed][call_index],
    )
    results = debias_group(
        [toy, toy, shifted], stub_cfg(chunk_percent=15.0),
        pool_seeds=[0, 1, 2], full_models=[copy.copy(trained), copy.copy(trained), fair],
    )
    assert sizes == [2, 1, 1]  # chunks 1, 2 and 3; the caller trained the full models
    assert [len(r.trace) for _, r in results] == [4, 2, 0]
    assert [r.stop_index for _, r in results] == [2, 0, 0]
    assert results[2][1].already_fair and results[2][0] is shifted


def test_group_rejects_members_that_do_not_share_the_loop(toy, trained):
    cfg = stub_cfg()
    narrow = train(drop_sensitive(toy), cfg.hp)
    for datasets, seeds, fulls in [
        ([toy, toy.subset(np.arange(6))], [0, 1], [trained, trained]),  # row counts
        ([toy, toy], [0], [trained, trained]),  # a pool seed short
        ([toy, toy], [0, 1, 2], [trained, trained]),  # a pool seed over
        ([toy, toy], [0, 1], [trained]),  # a full model short
        ([toy, toy], [0, 1], [trained, narrow]),  # a full model of another width
    ]:
        with pytest.raises(DimensionMismatch):
            debias_group(datasets, cfg, pool_seeds=seeds, full_models=fulls)
    with pytest.raises(EmptyDataset):
        debias_group([], cfg, pool_seeds=[], full_models=[])


@pytest.fixture(scope="module")
def loans_splits(loans60):
    return [split(loans60, SplitSpec(permutation_seed=s))[0] for s in range(4)]


def test_group_member_is_its_own_debias_data(loans_splits):
    hp = Hyperparameters(6, 3, 16, epochs=150, learning_rate=0.3, weight_init_seed=0)
    cfg = DebiasConfig(
        similarity=SimilarityConfig(lam=0.0, pool_multiplier=3), hp=hp,
        solver=SolverConfig(cg_max_iter=60), chunk_percent=5.0, max_chunks=6,
    )
    seeds = range(len(loans_splits))
    grouped = debias_group(
        loans_splits, cfg, pool_seeds=seeds, full_models=train_many(loans_splits, hp)
    )
    assert len({r.stop_index for _, r in grouped}) > 1  # members stop at different chunks
    for seed, d, (out, report) in zip(seeds, loans_splits, grouped):
        own_pools = replace(cfg.similarity, rng_seed=seed)
        alone_out, alone = debias_data(d, replace(cfg, similarity=own_pools))
        assert report.to_json() == alone.to_json()
        assert out.row_ids.tolist() == alone_out.row_ids.tolist()
        assert report.model.theta.tobytes() == alone.model.theta.tobytes()


# --- typed errors -----------------------------------------------------------

# the loop settings' typed errors, as (settings, error)
DEBIAS_ERRORS = {
    "max-chunks-zero": (dict(max_chunks=0), RangeError),
    "max-chunks-fraction": (dict(max_chunks=1.5), RangeError),
    "chunk-percent-over-100": (dict(chunk_percent=100.5), RangeError),
}


@pytest.mark.parametrize("case", sorted(DEBIAS_ERRORS))
def test_typed_errors(case):
    fields, error = DEBIAS_ERRORS[case]
    with pytest.raises(error):
        stub_cfg(**fields)
