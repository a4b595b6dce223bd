"""Loading, encoding, splitting, and the sensitive-column drop."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtrim.data import (
    Dataset,
    FeatureSchema,
    SplitSpec,
    drop_sensitive,
    kept_columns_after_drop,
    load_dataset,
    load_schema,
    split,
    write_json,
)
from fairtrim.errors import (
    EmptyDataset,
    LabelError,
    ParseError,
    RangeError,
    SchemaMismatch,
    SensitiveAbsent,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# --- schema -----------------------------------------------------------------

def test_schema_round_trip(toy_schema):
    s = toy_schema
    assert FeatureSchema.from_json(s.to_json()) == s


def test_schema_rejects_duplicate_columns():
    with pytest.raises(SchemaMismatch):
        FeatureSchema((("a", "numeric"), ("a", "numeric")), None, "y", "1")


def test_schema_rejects_unknown_kind():
    with pytest.raises(SchemaMismatch):
        FeatureSchema((("a", "integer"),), None, "y", "1")


def test_schema_rejects_numeric_sensitive():
    with pytest.raises(SchemaMismatch):
        FeatureSchema((("a", "numeric"),), "a", "y", "1")


def test_schema_rejects_label_among_features():
    with pytest.raises(SchemaMismatch):
        FeatureSchema((("y", "numeric"),), None, "y", "1")


@pytest.mark.parametrize(
    "field, value",
    [("label", ["decision"]), ("positive_label", None), ("positive_label", 1), ("sensitive", 5)],
    ids=["label-list", "positive-label-null", "positive-label-number", "sensitive-number"],
)
def test_schema_json_fields_must_be_strings(toy_schema, field, value):
    with pytest.raises(SchemaMismatch, match=f"schema field {field} is"):
        FeatureSchema.from_json({**toy_schema.to_json(), field: value})


# --- loading and encoding ---------------------------------------------------

def test_toy_loads_with_expected_encoding(toy):
    assert len(toy) == 7
    assert toy.width == 4  # income, wealth, race one-hot (black, white)
    assert toy.row_ids.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert toy.labels.tolist() == [1, 0, 1, 0, 0, 0, 1]
    # min-max scaling on full data: income spans [0.1, 1.0]
    np.testing.assert_allclose(toy.encoded[0, 0], 1.0)
    np.testing.assert_allclose(toy.encoded[3, 0], 0.0)
    np.testing.assert_allclose(toy.encoded[1, 0], (0.9 - 0.1) / 0.9)
    # categories in sorted order: black before white
    assert toy.sensitive_categories == ("black", "white")
    assert toy.encoded[0, 2:].tolist() == [0.0, 1.0]  # white
    assert toy.encoded[1, 2:].tolist() == [1.0, 0.0]  # black
    # a row's group, read off its one-hot, is its raw sensitive value
    race = toy.raw_header.index("race")
    assert toy.group_values == tuple(row[race] for row in toy.raw_rows)
    assert toy.subset([4, 1]).group_values == (toy.raw_rows[4][race], toy.raw_rows[1][race])


def test_one_hot_blocks_sum_to_one(toy):
    block = toy.encoded[:, toy.sensitive_block]
    np.testing.assert_allclose(block.sum(axis=1), 1.0)


def test_header_order_is_flexible(tmp_path, toy_schema):
    write_csv(
        tmp_path / "r.csv",
        ("decision", "race", "wealth", "income"),
        [("approved", "white", "0.1", "1.0"), ("denied", "black", "0.7", "0.9")],
    )
    d = load_dataset(tmp_path / "r.csv", toy_schema)
    assert d.labels.tolist() == [1, 0]
    assert d.encoded[0, 0] == 1.0  # income still first feature column


def test_missing_column_raises(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "decision"),
              [("1.0", "0.1", "approved")])
    with pytest.raises(SchemaMismatch):
        load_dataset(tmp_path / "r.csv", toy_schema)


def test_extra_column_raises(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "zip", "decision"),
              [("1.0", "0.1", "white", "02139", "approved")])
    with pytest.raises(SchemaMismatch):
        load_dataset(tmp_path / "r.csv", toy_schema)


def test_non_numeric_cell_raises(tmp_path, toy_schema):
    # the first bad cell is named, with its row, whichever kind of bad it is
    for cell, problem in (("lots", "is not numeric"), ("nan", "is not finite"),
                          ("inf", "is not finite")):
        write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "decision"),
                  [("1", "0.1", "white", "approved"), ("2", "0.2", "black", "denied"),
                   (cell, "0.1", "white", "approved"), ("-inf", "0.3", "black", "denied"),
                   ("x", "0.3", "black", "denied")])
        with pytest.raises(ParseError, match=f"column 'income', row 3: '{cell}' {problem}"):
            load_dataset(tmp_path / "r.csv", toy_schema)


def test_three_label_values_raise(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "decision"),
              [("1", "1", "white", "approved"), ("2", "1", "black", "denied"),
               ("3", "1", "white", "deferred")])
    with pytest.raises(LabelError):
        load_dataset(tmp_path / "r.csv", toy_schema)


def test_missing_positive_label_raises(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "decision"),
              [("1", "1", "white", "denied"), ("2", "1", "black", "deferred")])
    with pytest.raises(LabelError):
        load_dataset(tmp_path / "r.csv", toy_schema)


def test_empty_csv_raises(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "decision"), [])
    with pytest.raises(EmptyDataset):
        load_dataset(tmp_path / "r.csv", toy_schema)


def test_sensitive_with_three_values_raises(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "decision"),
              [("1", "1", "white", "approved"), ("2", "1", "black", "denied"),
               ("3", "1", "other", "denied")])
    with pytest.raises(SchemaMismatch):
        load_dataset(tmp_path / "r.csv", toy_schema)


def test_constant_numeric_column_encodes_to_zero(tmp_path, toy_schema):
    write_csv(tmp_path / "r.csv", ("income", "wealth", "race", "decision"),
              [("5", "1", "white", "approved"), ("5", "2", "black", "denied")])
    d = load_dataset(tmp_path / "r.csv", toy_schema)
    assert d.encoded[:, 0].tolist() == [0.0, 0.0]


def test_schema_file_round_trip(tmp_path, toy_schema):
    p = tmp_path / "s.json"
    with open(p, "w") as fh:
        json.dump(toy_schema.to_json(), fh)
    assert load_schema(p) == toy_schema


# --- subsets and row ids ----------------------------------------------------

def test_row_ids_survive_subsetting(toy):
    sub = toy.subset(np.array([4, 1, 6]))
    assert sub.row_ids.tolist() == [5, 2, 7]
    assert sub.labels.tolist() == [0, 0, 1]
    assert sub.raw_rows[0][0] == "0.1"


def test_without_row_ids(toy):
    sub = toy.without_row_ids({2, 7})
    assert sub.row_ids.tolist() == [1, 3, 4, 5, 6]
    assert len(sub) == 5


def test_subset_reencodes_identically(toy):
    idx = np.array([0, 2, 5])
    sub = toy.subset(idx)
    np.testing.assert_array_equal(sub.encoded, toy.encoded[idx])
    np.testing.assert_array_equal(sub.labels, toy.labels[idx])
    assert sub.raw_rows == tuple(toy.raw_rows[i] for i in idx)
    assert sub.encoding is toy.encoding


def test_to_csv_round_trips_raw_values(toy, tmp_path):
    sub = toy.without_row_ids({2})
    out = tmp_path / "out.csv"
    sub.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row_id", "income", "wealth", "race", "decision"]
    assert rows[1] == ["1", "1.0", "0.1", "white", "approved"]
    assert [r[0] for r in rows[1:]] == ["1", "3", "4", "5", "6", "7"]


def test_write_json_is_ascii_in_any_locale(tmp_path):
    # json.dump escapes every non-ASCII character, so no JSON file's bytes depend
    # on the locale's encoding; CSV files are checked under the C locale in test_cli
    obj = {"patrimonio-ñ": ["blanco-ñ", "négro", "日本"], "ñ": 1.5}
    write_json(tmp_path / "out.json", obj, indent=2)
    raw = (tmp_path / "out.json").read_bytes()
    assert raw.isascii()
    assert json.loads(raw) == obj


# --- split ------------------------------------------------------------------

def test_split_sizes_and_partition(toy):
    tr, te = split(toy, SplitSpec(permutation_seed=0, train_fraction=0.8))
    assert len(tr) == 5  # floor(0.8 * 7)
    assert len(te) == 2
    assert sorted(tr.row_ids.tolist() + te.row_ids.tolist()) == list(range(1, 8))


def test_split_deterministic(toy):
    a = split(toy, SplitSpec(3))
    b = split(toy, SplitSpec(3))
    assert a[0].row_ids.tolist() == b[0].row_ids.tolist()
    np.testing.assert_array_equal(a[0].encoded, b[0].encoded)


def test_split_seed_changes_assignment(toy):
    seen = {tuple(split(toy, SplitSpec(s))[0].row_ids.tolist()) for s in range(6)}
    assert len(seen) > 1


def test_split_rejects_bad_fraction():
    with pytest.raises(RangeError):
        SplitSpec(0, train_fraction=1.0)
    with pytest.raises(RangeError):
        SplitSpec(0, train_fraction=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), frac=st.floats(0.1, 0.9))
def test_split_is_always_a_partition(toy_schema, seed, frac):
    rng = np.random.default_rng(0)
    n = 23
    header = ("income", "wealth", "race", "decision")
    rows = [
        (f"{rng.random():.3f}", f"{rng.random():.3f}",
         "white" if i % 2 else "black", "approved" if i % 3 else "denied")
        for i in range(n)
    ]
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write(buf.getvalue())
        path = fh.name
    try:
        d = load_dataset(path, toy_schema)
    finally:
        os.unlink(path)
    tr, te = split(d, SplitSpec(seed, train_fraction=frac))
    assert len(tr) == int(np.floor(frac * n))
    assert sorted(tr.row_ids.tolist() + te.row_ids.tolist()) == list(range(1, n + 1))


# --- drop_sensitive ---------------------------------------------------------

def test_drop_sensitive_removes_block(toy):
    dropped = drop_sensitive(toy)
    assert dropped.width == 2
    assert dropped.schema.sensitive is None
    assert [c[0] for c in dropped.schema.columns] == ["income", "wealth"]
    np.testing.assert_array_equal(dropped.encoded, toy.encoded[:, :2])
    with pytest.raises(SensitiveAbsent):  # the result has no groups
        dropped.group_values


def test_drop_sensitive_twice_raises(toy):
    with pytest.raises(SensitiveAbsent):
        drop_sensitive(drop_sensitive(toy))


def test_kept_columns_after_drop(toy):
    assert kept_columns_after_drop(toy).tolist() == [0, 1]


def test_drop_sensitive_middle_column(tmp_path):
    schema = FeatureSchema(
        columns=(("a", "numeric"), ("g", "categorical"), ("b", "numeric")),
        sensitive="g", label="y", positive_label="1",
    )
    write_csv(tmp_path / "r.csv", ("a", "g", "b", "y"),
              [("0", "m", "3", "1"), ("1", "f", "4", "0")])
    d = load_dataset(tmp_path / "r.csv", schema)
    assert d.width == 4
    dropped = drop_sensitive(d)
    assert dropped.width == 2
    np.testing.assert_allclose(dropped.encoded, [[0.0, 0.0], [1.0, 1.0]])
    assert kept_columns_after_drop(d).tolist() == [0, 3]


# --- typed errors -----------------------------------------------------------

def _load_text(tmp_path, toy, text):
    (tmp_path / "r.csv").write_text(text)
    return load_dataset(tmp_path / "r.csv", toy.schema)


# each raise that no other test reaches, as (call on the toy and a tmp dir, error)
DATA_ERRORS = {
    "schema-no-columns": (
        lambda toy, tmp: FeatureSchema((), None, "decision", "approved"), SchemaMismatch),
    "schema-sensitive-not-a-column": (
        lambda toy, tmp: FeatureSchema((("income", "numeric"),), "race", "decision", "approved"),
        SchemaMismatch),
    "csv-no-header": (lambda toy, tmp: _load_text(tmp, toy, ""), EmptyDataset),
    "csv-duplicate-header": (
        lambda toy, tmp: _load_text(
            tmp, toy, "income,wealth,race,race,decision\n1,1,white,white,approved\n"),
        SchemaMismatch),
    "csv-ragged-row": (
        lambda toy, tmp: _load_text(tmp, toy, "income,wealth,race,decision\n1,1,white\n"),
        ParseError),
    "split-empty": (lambda toy, tmp: split(toy.subset([]), SplitSpec(0)), EmptyDataset),
    "codec-unknown-column": (lambda toy, tmp: toy.encoding.codec("age"), SchemaMismatch),
    "sensitive-block-after-drop": (
        lambda toy, tmp: drop_sensitive(toy).sensitive_block, SensitiveAbsent),
}


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_typed_errors(toy, tmp_path, case):
    call, error = DATA_ERRORS[case]
    with pytest.raises(error):
        call(toy, tmp_path)
