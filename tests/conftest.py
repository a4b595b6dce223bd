"""Fixtures shared by the test modules: the 7-row toy loans file in ``data/``.

Approvals track income except that one high-income, high-wealth applicant
from the disadvantaged group is denied (row 2). That single row is what a
debiasing run is expected to find and remove.
"""

from pathlib import Path

import pytest

from fairtrim.data import load_dataset, load_schema

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
