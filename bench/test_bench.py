"""Tests of the benchmark itself: its forward pass, its checks and its tracer.

    python3 -m pytest bench -q

Each check is shown to accept a correct output and to reject a deliberately
corrupted one.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import fairtrim  # noqa: E402
from fairtrim import data, debias, experiment, fairness, influence, model, synthetic  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


@pytest.fixture(scope="module")
def loans(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loans")
    flipped = synthetic.write_loans(tmp / "l.csv", tmp / "l.json", n=60, seed=0, flip_rate=0.45)
    return data.load_dataset(tmp / "l.csv", synthetic.loans_schema()), frozenset(flipped)


HP = model.Hyperparameters(hidden1=6, hidden2=3, batch_size=16, epochs=60, learning_rate=0.3)


# --- forward pass ---------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_pass_agrees_with_predict_batch(seed):
    rng = np.random.default_rng(seed)
    dim, h1, h2 = 7, 5, 3
    m = model.Model(dim, h1, h2, rng.normal(0, 2, model.param_count(dim, h1, h2)))
    X = rng.random((checks.BLOCK_ROWS + 1000, dim))  # crosses a block boundary
    labels, _ = model.predict_batch(m, X)
    assert np.array_equal(checks.forward_labels(m, X), labels)


def test_forward_pass_of_a_masked_model(loans):
    d, _ = loans
    sr = model.mask_sensitive(model.train(data.drop_sensitive(d), HP), d)
    labels, _ = model.predict_batch(sr, d.encoded)
    assert np.array_equal(checks.forward_labels(sr, d.encoded), labels)


# --- audit-pool -----------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_estimate_check_accepts_the_program_and_rejects_corruption(loans, lam):
    d, _ = loans
    m = model.train(d, HP)
    sim = fairness.SimilarityConfig(lam=lam, pool_multiplier=20, rng_seed=3)
    value = fairness.estimate_discrim(m, d, sim, call_index=0)
    pool = fairness.generate_similar_pairs(d, sim, call_index=0)
    assert checks.estimate_problems("k", value, m, pool, d, lam) == []

    assert checks.estimate_problems("k", value + 1.0 / len(pool), m, pool, d, lam)
    sens = d.sensitive_block
    second = pool.second.copy()
    second[0, sens] = pool.first[0, sens]  # sensitive block not swapped
    assert checks.estimate_problems("k", value, m, replace(pool, second=second), d, lam)
    num = d.encoding.codecs[0].start
    second = pool.second.copy()
    second[0, num] = min(pool.first[0, num] + lam + 0.05, 1.5)  # drifts too far
    assert checks.estimate_problems("k", value, m, replace(pool, second=second), d, lam)


def test_estimate_check_rejects_a_discriminating_sensitive_dropped_model(loans):
    d, _ = loans
    sr = model.mask_sensitive(model.train(data.drop_sensitive(d), HP), d)
    sim = fairness.SimilarityConfig(lam=0.0, pool_multiplier=20)
    pool = fairness.generate_similar_pairs(d, sim, call_index=0)
    assert checks.estimate_problems("sr", 0.0, sr, pool, d, 0.0) == []
    assert checks.estimate_problems("sr", 0.01, sr, pool, d, 0.0)


def test_scoring_check(loans):
    d, _ = loans
    m = model.train(d, HP)
    out = {
        "accuracy": {"full": fairness.accuracy(m, d)},
        "parity": {"full": fairness.statistical_parity_difference(m, d)},
    }
    assert checks.scoring_problems(out, d, {"full": m}) == []
    out["parity"]["full"] += 1e-12
    assert checks.scoring_problems(out, d, {"full": m})


# --- debias-rank ----------------------------------------------------------------

@pytest.fixture(scope="module")
def debiased(loans):
    d, flipped = loans
    cfg = debias.DebiasConfig(
        similarity=fairness.SimilarityConfig(pool_multiplier=20, rng_seed=1),
        hp=HP, chunk_percent=5.0, max_chunks=3,
    )
    out, report = debias.debias_data(d, cfg)
    retrained = model.train(out, HP)
    pool = fairness.generate_similar_pairs(d, cfg.similarity, call_index=report.stop_index)
    return d, flipped, out, report, checks.flip_rate(retrained, pool)


def _debias_check(fixture, **changes):
    d, flipped, out, report, retrained = fixture
    args = dict(d=d, debiased=out, report=report, chunk_percent=5.0, flipped=flipped,
                retrained_discm=retrained)
    args.update(changes)
    return checks.debias_problems(**args)


def test_debias_check_accepts_the_program(debiased):
    report = debiased[3]
    assert report.removed_row_ids, "the fixture should remove rows"
    assert _debias_check(debiased) == []


def test_debias_check_rejects_corruption(debiased):
    d, flipped, out, report, retrained = debiased
    ranked = report.ranking.row_ids
    outside = report.removed_row_ids[:-1] + (ranked[-1],)  # an id outside the prefix
    assert _debias_check(debiased, report=replace(report, removed_row_ids=outside))

    entries = list(report.ranking.entries)
    entries[0], entries[1] = entries[1], entries[0]
    swapped = replace(report.ranking, entries=tuple(entries))
    assert _debias_check(debiased, report=replace(report, ranking=swapped))

    assert _debias_check(debiased, debiased=out.without_row_ids({int(out.row_ids[0])}))
    assert _debias_check(debiased, retrained_discm=retrained + 1e-9)

    trace = list(report.trace)
    trace[0] = replace(trace[0], discrimination=0.0)  # no longer falls to the stop
    assert _debias_check(debiased, report=replace(report, trace=tuple(trace)))

    # the removed rows hold no planted flips at all
    assert _debias_check(debiased, flipped=frozenset(int(r) for r in d.row_ids) - set(report.removed_row_ids))


# --- grid-4cfg ------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid(loans, tmp_path_factory):
    d, _ = loans
    spec = experiment.GridSpec(
        hidden1_choices=(6,), hidden2_choices=(3,), batch_sizes=(16,),
        permutation_seeds=(0, 1), epochs=60, learning_rate=0.3,
        pool_multiplier=5, chunk_percent=10.0, max_chunks=1,
    )
    result = experiment.run_grid(d, spec)
    paths = experiment.emit_reports(result, tmp_path_factory.mktemp("grid"))
    reports = {k: Path(p).read_bytes() for k, p in paths.items()}
    tests = {
        r.config_id: data.split(d, data.SplitSpec(r.permutation_seed, spec.train_fraction))[1]
        for r in result.records
    }
    return result, tests, reports


def test_grid_check_accepts_the_program(grid):
    result, tests, reports = grid
    assert checks.grid_problems(result, tests, reports, dict(reports)) == []


def test_grid_check_rejects_corruption(grid):
    result, tests, reports = grid
    changed = dict(reports)
    raw = bytearray(changed["configs"])
    raw[-2] ^= 1
    changed["configs"] = bytes(raw)
    assert checks.grid_problems(result, tests, changed, reports)

    rec = result.records[0]
    metrics = dict(rec.metrics, sr=replace(rec.metrics["sr"], discrimination=0.002))
    bad = replace(result, records=(replace(rec, metrics=metrics),) + result.records[1:])
    assert checks.grid_problems(bad, tests, reports, reports)

    bad = replace(result, records=(replace(rec, debiased_test_rows=rec.test_rows + 1),) + result.records[1:])
    assert checks.grid_problems(bad, tests, reports, reports)

    bad = replace(result, unfair_union=tuple(result.unfair_union) + (10_000,))
    assert checks.grid_problems(bad, tests, reports, reports)


# --- tracer ---------------------------------------------------------------------

def test_tracer_wraps_bound_names_and_restores_them(loans):
    d, flipped = loans
    originals = (debias.train, experiment.train, influence.hvp, fairtrim.train)
    cfg = debias.DebiasConfig(
        similarity=fairness.SimilarityConfig(pool_multiplier=20, rng_seed=1),
        hp=HP, chunk_percent=5.0, max_chunks=2,
    )
    with Tracer() as t:
        assert debias.train is not originals[0]
        debias.debias_data(d, cfg)
    assert (debias.train, experiment.train, influence.hvp, fairtrim.train) == originals

    m = layer_metrics(t.spans, flipped)
    assert m["model.train_calls"] == 1 + m["debias.chunks"]
    assert m["model.hvp_calls"] >= m["influence.cg_iterations"] > 0
    assert m["fairness.discm_pairs"] == m["influence.solves"]
    top = sum(s.duration for s in t.spans if s.parent is None)
    assert sum(self_times(t.spans).values()) == pytest.approx(top)
