"""Fixtures shared by the test modules: the 7-row toy loans file in ``data/``,
a model trained on it, a scripted removal loop, finite-difference references
for the loss gradient and the logit-gap Jacobian, the synthetic-pair
contract check, and a dense reference for drawing and scoring a pool.

Approvals track income except that one high-income, high-wealth applicant
from the disadvantaged group is denied (row 2). That single row is what a
debiasing run is expected to find and remove.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fairtrim.debias
from fairtrim.data import load_dataset, load_schema
from fairtrim.model import Hyperparameters, mean_loss, predict_proba, train

TOY_CSV = Path(__file__).resolve().parent / "data" / "loans.csv"
TOY_SCHEMA = TOY_CSV.with_name("loans.schema.json")


@pytest.fixture(scope="session")
def toy_files():
    """The toy CSV and its schema sidecar, as path strings."""
    return str(TOY_CSV), str(TOY_SCHEMA)


@pytest.fixture(scope="session")
def toy_schema():
    return load_schema(TOY_SCHEMA)


@pytest.fixture(scope="session")
def toy(toy_schema):
    return load_dataset(TOY_CSV, toy_schema)


@pytest.fixture(scope="session")
def trained(toy):
    """An (8, 4) model trained 2,000 epochs on the toy fixture."""
    return train(toy, Hyperparameters(8, 4, 7, epochs=2000, learning_rate=0.3, weight_init_seed=1))


@pytest.fixture
def scripted_loop(monkeypatch):
    """Replace the removal loop's training, measurement, or both.

    ``scripted_loop(train=None, measure=None)`` installs ``train(subset) ->
    model`` for every model ``debias`` trains, and ``measure(model, d,
    similarity, call_index) -> float`` (the signature of
    ``estimate_discrim``) for every pool estimate; one left None stays real.
    It returns the list of member counts of the stacked training calls, so a
    test can tell which subsets trained together.
    """

    def install(train=None, measure=None):
        sizes = []
        if train is not None:
            def train_many(datasets, hp):
                sizes.append(len(datasets))
                return [train(d) for d in datasets]

            monkeypatch.setattr(fairtrim.debias, "train_many", train_many)
        if measure is not None:
            monkeypatch.setattr(fairtrim.debias, "estimate_discrim", measure)
        return sizes

    return install


@pytest.fixture(scope="session")
def fd_logit_gap_jacobian():
    """``(m, X, h=1e-5) -> (n, p)``: central differences of z1 - z0 through predict_proba.

    It reads only the model's probabilities, so it is a reference for
    ``logit_gap_jacobian`` that shares none of its backward pass.
    """

    def jacobian(m, X, h=1e-5):
        def gap(theta):
            p = predict_proba(replace(m, theta=theta), X)
            return np.log(p[:, 1]) - np.log(p[:, 0])

        return np.column_stack([
            (gap(m.theta + h * e) - gap(m.theta - h * e)) / (2 * h) for e in np.eye(m.n_params)
        ])

    return jacobian


@pytest.fixture(scope="session")
def fd_grad():
    """``(m, X, y, h=1e-5) -> (p,)``: central differences of the mean loss,
    one coordinate at a time."""

    def grad(m, X, y, h=1e-5):
        out = np.empty(m.n_params)
        for i in range(m.n_params):
            up, dn = m.theta.copy(), m.theta.copy()
            up[i] += h
            dn[i] -= h
            out[i] = (
                mean_loss(replace(m, theta=up), X, y) - mean_loss(replace(m, theta=dn), X, y)
            ) / (2 * h)
        return out

    return grad


@pytest.fixture(scope="session")
def pair_invariants():
    """``(d, pool, lam)``: assert the synthetic-pair contract on every pair of ``pool``.

    Each one-hot block holds exactly one 1; the companion swaps the sensitive
    category and copies every other category; numerics stay in [0, 1] and
    within ``lam`` of their seed (bitwise equal at ``lam == 0``).
    """

    def check(d, pool, lam):
        a, b = pool.first, pool.second
        sens = d.sensitive_block
        np.testing.assert_array_equal(b[:, sens], a[:, sens][:, ::-1])
        assert not np.any(np.all(a[:, sens] == b[:, sens], axis=1))
        for codec in d.encoding.codecs:
            cols = slice(codec.start, codec.stop)
            for member in (a, b):
                block = member[:, cols]
                if codec.kind == "categorical":
                    assert set(np.unique(block)) <= {0.0, 1.0}
                    np.testing.assert_array_equal(block.sum(axis=1), 1.0)
                else:
                    assert np.all((block >= 0.0) & (block <= 1.0))
            if codec.name == d.schema.sensitive:
                continue
            if codec.kind == "categorical" or lam == 0.0:
                np.testing.assert_array_equal(a[:, cols], b[:, cols])
            else:
                assert np.max(np.abs(a[:, cols] - b[:, cols])) <= lam + 1e-12

    return check


@pytest.fixture(scope="session")
def dense_pool():
    """``(d, cfg, call_index) -> (first, second)``: the whole pool, drawn as the
    ``fairness`` module docstring states it, in plain numpy.

    One stream keyed on (rng_seed, 0) for call_index None, else (rng_seed, 1,
    call_index), read in order: a draw per seed for each codec, then n*k
    drift uniforms for each numeric codec. It shares no code with the
    library's pool, so it checks the draw order, the expansion and the drift.
    """

    def draw(d, cfg, call_index):
        key = [cfg.rng_seed, 0] if call_index is None else [cfg.rng_seed, 1, call_index]
        rng = np.random.default_rng(key)
        n, k = cfg.pool_multiplier * len(d), 1 if cfg.lam == 0.0 else 2
        seeds = np.zeros((n, d.width))
        for codec in d.encoding.codecs:
            if codec.kind == "numeric":
                seeds[:, codec.start] = rng.random(n)
            else:
                seeds[np.arange(n), codec.start + rng.integers(codec.width, size=n)] = 1.0
        first = np.repeat(seeds, k, axis=0)  # pair s*k + c is companion c of seed s
        second = first.copy()
        sens = d.sensitive_block
        second[:, sens] = first[:, sens][:, ::-1]
        if cfg.lam > 0.0:
            for codec in d.encoding.codecs:
                if codec.kind == "numeric":
                    v = first[:, codec.start]
                    lo, hi = np.maximum(0.0, v - cfg.lam), np.minimum(1.0, v + cfg.lam)
                    second[:, codec.start] = lo + rng.random(n * k) * (hi - lo)
        return first, second

    return draw


@pytest.fixture(scope="session")
def dense_scores():
    """``(m, first, second) -> (flips, features, labels)``: the scoring rule of the
    ``fairness`` module docstring over whole pair matrices.

    Labels are the argmax of ``predict_proba`` and confidences its maximum; a
    pair flips when its labels differ, and its influence-set member, with
    that member's label, is the lower-confidence one, ties to the first.
    """

    def score(m, first, second):
        p1, p2 = predict_proba(m, first), predict_proba(m, second)
        l1, l2 = p1.argmax(axis=1), p2.argmax(axis=1)
        flips = l1 != l2
        take_first = p1.max(axis=1) <= p2.max(axis=1)
        features = np.where(take_first[:, None], first, second)[flips]
        return flips, features, np.where(take_first, l1, l2)[flips]

    return score
