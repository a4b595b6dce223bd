"""Fixtures shared by the test modules: the 7-row toy loans file in ``data/``,
a scripted removal loop, and a finite-difference logit-gap Jacobian.

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
from fairtrim.model import predict_proba

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
