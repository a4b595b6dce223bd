"""The benchmark's own forward pass still agrees with the library's labels.

``bench/checks.py`` recomputes each ``audit-pool`` discrimination estimate
with a forward pass of its own (``forward_labels``, in blocks of its own
size) and calls the run incorrect on any difference. A library change to how
``predict_batch`` blocks or computes its labels must keep every label, so
this test compares the two on a pool that spans several library blocks.
"""

import importlib.util
from pathlib import Path

import pytest

from fairtrim import model
from fairtrim.data import drop_sensitive, load_dataset
from fairtrim.fairness import SimilarityConfig, discriminatory_pairs, generate_similar_pairs
from fairtrim.model import Hyperparameters, mask_sensitive, predict_batch, train
from fairtrim.synthetic import loans_schema, write_loans

CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("fairtrim_bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    """A loans set, a plain and a masked model at audit-pool's layer sizes, and a pool."""
    tmp = tmp_path_factory.mktemp("audit")
    write_loans(tmp / "d.csv", tmp / "s.json", n=100, seed=1, flip_rate=0.35)
    d = load_dataset(tmp / "d.csv", loans_schema())
    hp = Hyperparameters(16, 8, 32, epochs=40, learning_rate=0.3)
    models = {"plain": train(d, hp), "masked": mask_sensitive(train(drop_sensitive(d), hp), d)}
    pool = generate_similar_pairs(d, SimilarityConfig(lam=0.1, pool_multiplier=70, rng_seed=1), 0)
    return models, pool


@pytest.mark.parametrize("name", ["plain", "masked"])
def test_bench_forward_labels_equal_predict_batch(checks, audit, name):
    models, pool = audit
    m = models[name]
    assert len(pool) > 3 * model.PREDICT_BLOCK_ROWS and len(pool) % model.PREDICT_BLOCK_ROWS
    for X in (pool.first, pool.second):
        labels = predict_batch(m, X)[0]
        assert 0 < labels.sum() < len(labels)  # both classes, so equality says something
        assert checks.forward_labels(m, X).tobytes() == labels.tobytes()
    assert checks.flip_rate(m, pool) == len(discriminatory_pairs(m, pool)) / len(pool)
