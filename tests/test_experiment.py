"""Grid enumeration, batch-size derivation, shared test set, and reports."""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairtrim.data import SplitSpec, drop_sensitive, load_dataset, split
from fairtrim.debias import DebiasConfig
from fairtrim.errors import EmptyResult, RangeError
from fairtrim.experiment import (
    ExperimentResult,
    GridSpec,
    TECHNIQUES,
    _enumerate_configs,
    _phase_one,
    _shape_groups,
    debiased_test_set,
    derived_batch_sizes,
    emit_reports,
    nearest_power_of_two,
    run_grid,
    summarize_reports,
    unfair_points_union,
)
from fairtrim.fairness import SimilarityConfig
from fairtrim.influence import SolverConfig
from fairtrim.model import Hyperparameters, mask_sensitive, train
from fairtrim.synthetic import loans_schema


def tiny_spec(**overrides):
    base = dict(
        hidden1_choices=(6,),
        hidden2_choices=(3,),
        batch_sizes=(16,),
        permutation_seeds=(0, 1),
        epochs=150,
        learning_rate=0.3,
        pool_multiplier=3,
        chunk_percent=5.0,
        max_chunks=4,
        solver=SolverConfig(cg_max_iter=60),
        base_seed=0,
    )
    base.update(overrides)
    return GridSpec(**base)


# --- batch-size rule ----------------------------------------------------------

def test_nearest_power_of_two_linear_distance_ties_up():
    assert nearest_power_of_two(100) == 128  # |100-64|=36 > |128-100|=28
    assert nearest_power_of_two(50) == 64  # |50-32|=18 > |64-50|=14
    assert nearest_power_of_two(96) == 128  # exact tie between 64 and 128 -> up
    assert nearest_power_of_two(3) == 4  # tie between 2 and 4 -> up
    assert nearest_power_of_two(0.4) == 1
    assert nearest_power_of_two(1) == 1
    assert nearest_power_of_two(2.9) == 2


def test_derived_batch_sizes_thousand_rows():
    assert derived_batch_sizes(1000) == (128, 64)


def test_derived_batch_sizes_dedupe():
    # n=30: 30/10=3 -> 4, 30/20=1.5 -> 2
    assert derived_batch_sizes(30) == (4, 2)
    # n=15: 1.5 -> 2 and 0.75 -> 1
    assert derived_batch_sizes(15) == (2, 1)


# --- unions and filtered test sets ---------------------------------------------

def test_unfair_points_union_sorted_dedup():
    assert unfair_points_union([(5, 2), (2, 9), ()]) == (2, 5, 9)
    assert unfair_points_union([]) == ()


def test_debiased_test_set_filters(loans60):
    sub = loans60.subset(np.arange(10))
    ids = sub.row_ids.tolist()
    out = debiased_test_set(sub, tuple(ids[:3]))
    assert out.row_ids.tolist() == ids[3:]
    assert debiased_test_set(sub, tuple(ids)) is None


# --- grid run -------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_result(loans60):
    return run_grid(loans60, tiny_spec())


def test_grid_enumerates_all_configs(grid_result):
    assert len(grid_result.records) == 2  # 1*1*1*2
    assert [r.permutation_seed for r in grid_result.records] == [0, 1]
    assert all(r.config_id.startswith("h6-h3-b16-p") for r in grid_result.records)


def test_grid_records_have_all_techniques(grid_result):
    for r in grid_result.records:
        assert set(r.metrics) == set(TECHNIQUES)
        for tech in TECHNIQUES:
            m = r.metrics[tech]
            assert 0.0 <= m.discrimination <= 1.0
            if m.accuracy is not None:
                assert 0.0 <= m.accuracy <= 1.0 and 0.0 <= m.parity <= 1.0


def test_grid_sr_never_discriminates_at_lambda_zero(grid_result):
    for r in grid_result.records:
        assert r.metrics["sr"].discrimination == 0.0


def test_grid_shared_debiased_test_set(grid_result, loans60):
    from fairtrim.data import SplitSpec, split

    union = set(grid_result.unfair_union)
    for r in grid_result.records:
        # every config's eval set excludes the whole union, not just its own
        _, te = split(loans60, SplitSpec(permutation_seed=r.permutation_seed))
        expected = len(te) - len(union & set(te.row_ids.tolist()))
        assert r.debiased_test_rows == expected


def test_grid_train_test_sizes(grid_result, loans60):
    for r in grid_result.records:
        assert r.train_rows == int(0.8 * len(loans60))
        assert r.test_rows == len(loans60) - r.train_rows


def test_picks_structure(grid_result):
    picks = grid_result.picks()
    assert set(picks) == {"least_discrimination", "highest_accuracy", "least_parity"}
    ld = picks["least_discrimination"]
    assert ld["config_id"] in {r.config_id for r in grid_result.records}
    assert set(ld["metrics"]) == set(TECHNIQUES)
    # argmin property
    ours_d = [r.metrics["ours"].discrimination for r in grid_result.records]
    assert ld["metrics"]["ours"]["discrimination"] == min(ours_d)


def test_picks_empty_raises():
    with pytest.raises(EmptyResult):
        ExperimentResult(records=(), unfair_union=()).picks()


def test_grid_records_no_parity_where_a_test_set_lacks_a_group(toy, tmp_path):
    # 7-row fixture, 5/2 splits: permutation seed 1 puts two 'black' rows in
    # the test split, so parity there is undefined; seed 0 tests one of each
    spec = dict(hidden1_choices=(6,), hidden2_choices=(3,), batch_sizes=(5,),
                epochs=200, learning_rate=0.3, pool_multiplier=20)
    result = run_grid(toy, GridSpec(permutation_seeds=(0, 1), **spec))
    both, one_group = result.records
    for tech in TECHNIQUES:
        assert both.metrics[tech].parity is not None
        assert one_group.metrics[tech].parity is None
        assert one_group.metrics[tech].accuracy is not None
    picks = result.picks()
    assert picks["least_parity"]["config_id"] == both.config_id
    emit_reports(result, tmp_path)

    alone = run_grid(toy, GridSpec(permutation_seeds=(1,), **spec)).picks()
    assert alone["least_parity"] is None
    assert alone["highest_accuracy"]["config_id"] == one_group.config_id


def test_grid_spec_validation():
    with pytest.raises(RangeError):
        GridSpec(hidden1_choices=())
    with pytest.raises(RangeError):
        GridSpec(batch_sizes=())  # None derives batch sizes; an empty axis does not
    with pytest.raises(RangeError):
        GridSpec(workers=0)


# a repeated value would give configs with one config_id that train the same models
@pytest.mark.parametrize("axis", [
    "hidden1_choices", "hidden2_choices", "batch_sizes", "permutation_seeds",
])
def test_grid_spec_rejects_a_repeated_axis_value(axis):
    GridSpec(**{axis: (16, 8)})
    with pytest.raises(RangeError):
        GridSpec(**{axis: (16, 8, 16)})


# a bad value past the first of an axis fails before any shape group trains
@pytest.mark.parametrize("axis, values", [
    ("hidden1_choices", (16, 0)),
    ("batch_sizes", (8, -1)),
    ("permutation_seeds", (0, -1)),
])
def test_every_axis_value_is_checked_before_training(loans60, monkeypatch, axis, values):
    import fairtrim.debias
    import fairtrim.experiment

    def refuse(*args, **kwargs):
        raise AssertionError("trained before checking the grid axes")

    for module in (fairtrim.debias, fairtrim.experiment):
        monkeypatch.setattr(module, "train_many", refuse)
    with pytest.raises(RangeError):
        run_grid(loans60, tiny_spec(**{axis: values}))


# every seed reaches numpy's SeedSequence, which takes only non-negative ints
@pytest.mark.parametrize("make", [
    lambda seed: Hyperparameters(4, 2, 7, weight_init_seed=seed),
    lambda seed: SimilarityConfig(rng_seed=seed),
    lambda seed: SplitSpec(permutation_seed=seed),
    lambda seed: GridSpec(base_seed=seed),
], ids=["weight_init_seed", "rng_seed", "permutation_seed", "base_seed"])
def test_negative_seed_is_range_error(make):
    make(0)
    with pytest.raises(RangeError):
        make(-1)


# an integer setting given a fraction or a bool fails where it is given, not later
@pytest.mark.parametrize("make", [
    lambda v: DebiasConfig(SimilarityConfig(), Hyperparameters(4, 2, 7), max_chunks=v),
    lambda v: SimilarityConfig(pool_multiplier=v),
    lambda v: SimilarityConfig(rng_seed=v),
    lambda v: SolverConfig(cg_max_iter=v),
    lambda v: SplitSpec(v),
    lambda v: GridSpec(workers=v),
    lambda v: GridSpec(base_seed=v),
], ids=["max_chunks", "pool_multiplier", "rng_seed", "cg_max_iter", "permutation_seed",
        "workers", "base_seed"])
def test_integer_setting_rejects_a_fraction(make):
    make(np.int64(2))  # numpy ints pass
    for bad in (2.5, True):
        with pytest.raises(RangeError):
            make(bad)


def test_full_scale_spec_dimensions():
    spec = GridSpec.full_scale()
    assert spec.hidden1_choices == (16, 24, 32)
    assert spec.hidden2_choices == (8, 12)
    assert spec.batch_sizes is None
    assert len(spec.permutation_seeds) == 20


def test_grid_trains_each_model_once(loans60, monkeypatch):
    import fairtrim.debias
    import fairtrim.experiment
    from fairtrim.model import train_many

    seen, sizes = [], []

    def spy(datasets, hp):
        # width tells the sensitive-dropped sr training from the full one
        seen.extend((tuple(d.row_ids.tolist()), d.width, hp) for d in datasets)
        sizes.append(len(datasets))
        return train_many(datasets, hp)

    monkeypatch.setattr(fairtrim.debias, "train_many", spy)
    monkeypatch.setattr(fairtrim.experiment, "train_many", spy)
    result = run_grid(loans60, tiny_spec())
    assert seen
    assert len(seen) == len(set(seen))
    # tiny_spec is one group of two seeds whose removal counts never repeat:
    # both configs' full and sr models train in one stack, then chunk c every
    # config still running, i.e. whose trace reaches c (stop_index + 2
    # entries, as neither config exhausts its loop)
    assert not any(r.loop_exhausted or r.already_fair for r in result.records)
    traces = [r.stop_index + 2 for r in result.records]
    assert sizes == [4] + [sum(t > c for t in traces) for c in range(1, max(traces))]
    assert 1 in sizes  # the configs stop at different chunks


def test_phase_one_full_and_sr_models_are_their_own_trainings(loans60_files):
    # the sensitive column first: sr's columns are not a prefix of full's
    schema = loans_schema()
    columns = dict(schema.columns)
    schema = replace(schema, columns=(("group", columns.pop("group")), *columns.items()))
    d = load_dataset(loans60_files[0], schema)
    assert d.sensitive_block.start == 0
    spec = tiny_spec(max_chunks=1)
    configs = _enumerate_configs(d, spec)
    hp = spec.loop(6, 3, 16).hp
    for (*_, ps), (_, _, _, models, _) in zip(configs, _phase_one((d, spec, configs))):
        tr, _ = split(d, SplitSpec(ps, train_fraction=spec.train_fraction))
        full, sr = train(tr, hp), mask_sensitive(train(drop_sensitive(tr), hp), tr)
        assert models["full"].theta.tobytes() == full.theta.tobytes()
        assert models["full"].final_train_loss == full.final_train_loss
        assert models["sr"].theta.tobytes() == sr.theta.tobytes()
        assert models["sr"].final_train_loss == sr.final_train_loss
        W1 = models["sr"].unpack()[0]
        assert not W1[d.sensitive_block].any()  # zero rows at the sensitive one-hot


def test_shape_groups_cut_seeds_only_for_idle_workers(loans60):
    spec = tiny_spec(batch_sizes=(16, 8), permutation_seeds=(0, 1, 2))
    configs = _enumerate_configs(loans60, spec)
    sizes = {w: [len(job) for job in _shape_groups(configs, w)] for w in (1, 2, 3, 4, 6, 9)}
    # a group stays whole while there is a worker for it, so it trains as one stack
    assert sizes[1] == sizes[2] == [3, 3]
    assert sizes[3] == sizes[4] == [2, 1, 2, 1]
    assert sizes[6] == sizes[9] == [1] * 6
    for w in sizes:
        jobs = _shape_groups(configs, w)
        assert [c for job in jobs for c in job] == configs  # config order
        assert all(len({c[2:5] for c in job}) == 1 for job in jobs)  # one shape per job


def test_pool_has_a_job_for_every_worker(loans60, monkeypatch):
    import fairtrim.experiment

    pool_sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(fairtrim.experiment, "ProcessPoolExecutor", Recording)
    two_groups = dict(batch_sizes=(16, 8))
    par = run_grid(loans60, tiny_spec(workers=3, **two_groups))  # 4 jobs of one seed
    run_grid(loans60, tiny_spec(workers=2, permutation_seeds=(0,)))  # 1 job, no pool
    assert pool_sizes == [3]
    seq = run_grid(loans60, tiny_spec(**two_groups))
    assert [r.config_id for r in par.records] == [r.config_id for r in seq.records]
    for a, b in zip(seq.records, par.records):
        assert a.metrics == b.metrics
        assert a.removed_row_ids == b.removed_row_ids


def test_workers_do_not_change_results(loans60):
    seq = run_grid(loans60, tiny_spec())
    par = run_grid(loans60, tiny_spec(workers=2))
    assert len(seq.records) == len(par.records)
    for a, b in zip(seq.records, par.records):
        assert a.config_id == b.config_id
        for tech in TECHNIQUES:
            assert a.metrics[tech] == b.metrics[tech]
        assert a.removed_row_ids == b.removed_row_ids
    assert seq.unfair_union == par.unfair_union


# --- reports ---------------------------------------------------------------------

def test_emit_reports_files_and_shape(grid_result, tmp_path):
    paths = emit_reports(grid_result, tmp_path / "out")
    assert set(paths) == {"configs", "boxplot", "summary"}
    with open(paths["configs"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid_result.records) * len(TECHNIQUES)
    assert {r["technique"] for r in rows} == set(TECHNIQUES)
    float(rows[0]["discrimination"])  # parseable

    with open(paths["boxplot"], newline="") as fh:
        brows = list(csv.DictReader(fh))
    assert {r["metric"] for r in brows} <= {"discrimination", "accuracy", "parity"}
    for r in brows:
        q = [float(r[k]) for k in ("min", "q1", "median", "q3", "max")]
        assert q == sorted(q)

    summary = json.loads(Path(paths["summary"]).read_text())
    assert summary["n_configs"] == len(grid_result.records)
    assert "picks" in summary


def test_emit_reports_byte_identical_on_rerun(grid_result, tmp_path):
    a = emit_reports(grid_result, tmp_path / "a")
    b = emit_reports(grid_result, tmp_path / "b")
    for key in a:
        assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()


def test_summarize_reports_reads_back_what_emit_reports_wrote(grid_result, tmp_path):
    emit_reports(grid_result, tmp_path)
    summary = summarize_reports(tmp_path)
    assert summary["picks"] == grid_result.picks()
    assert summary["unfair_union_size"] == len(grid_result.unfair_union)
    assert summary["mean_discrimination"] == {
        tech: float(np.mean([r.metrics[tech].discrimination for r in grid_result.records]))
        for tech in TECHNIQUES
    }
    assert list(summary["mean_discrimination"]) == sorted(TECHNIQUES)
