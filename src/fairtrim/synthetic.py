"""Synthetic biased loans.

Labels follow a group-blind credit score, then a fixed fraction of
positive-label rows in one group get flipped to denials. The flipped row ids
are returned so tests can check recall-style properties. (The 7-row toy
fixture with the same pathology is committed under ``tests/data``.)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import FeatureSchema, write_csv, write_json


def loans_schema() -> FeatureSchema:
    return FeatureSchema(
        columns=(
            ("income", "numeric"),
            ("savings", "numeric"),
            ("debt", "numeric"),
            ("employment", "categorical"),
            ("housing", "categorical"),
            ("group", "categorical"),
        ),
        sensitive="group",
        label="decision",
        positive_label="approved",
    )


def make_loans_rows(
    n: int, seed: int = 0, flip_rate: float = 0.35
) -> tuple[tuple[str, ...], list[tuple[str, ...]], list[int]]:
    """Biased loan applications: (header, raw rows, 1-based flipped row ids).

    A group-blind score decides creditworthiness; then flip_rate of the
    would-be approvals in group "beta" are recorded as denials. Those
    flipped rows are the planted bias.
    """
    rng = np.random.default_rng([seed, 99])
    income = rng.uniform(20.0, 120.0, size=n)
    savings = rng.uniform(0.0, 50.0, size=n)
    debt = rng.uniform(0.0, 30.0, size=n)
    employment = rng.choice(["stable", "contract", "none"], size=n)
    housing = rng.choice(["own", "rent"], size=n)
    group = rng.choice(["alpha", "beta"], size=n)

    score = (
        2.2 * (income - 20.0) / 100.0
        + 1.0 * savings / 50.0
        - 1.6 * debt / 30.0
        + 0.35 * (employment == "stable")
        + 0.15 * (housing == "own")
        + rng.normal(0.0, 0.15, size=n)
    )
    approved = score > 1.05  # roughly balanced classes

    flip = approved & (group == "beta") & (rng.random(n) < flip_rate)
    flipped = (np.flatnonzero(flip) + 1).tolist()  # row ids are 1-based
    decisions = np.where(approved & ~flip, "approved", "denied")

    header = ("income", "savings", "debt", "employment", "housing", "group", "decision")
    rows = [
        (f"{inc:.4f}", f"{sav:.4f}", f"{dbt:.4f}", emp, hou, grp, dec)
        for inc, sav, dbt, emp, hou, grp, dec in zip(
            income.tolist(), savings.tolist(), debt.tolist(), employment.tolist(),
            housing.tolist(), group.tolist(), decisions.tolist(),
        )
    ]
    return header, rows, flipped


def write_loans(
    csv_path: str | Path,
    schema_path: str | Path,
    n: int,
    seed: int = 0,
    flip_rate: float = 0.35,
) -> list[int]:
    """Write the biased loans CSV + schema JSON; returns flipped row ids."""
    header, rows, flipped = make_loans_rows(n, seed=seed, flip_rate=flip_rate)
    write_csv(csv_path, header, rows)
    write_json(schema_path, loans_schema().to_json(), indent=2)
    return flipped
