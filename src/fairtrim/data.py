"""Tabular ingestion: schema-driven CSV loading, encoding, splits.

Feature space convention used by the whole package:

* numeric columns are min-max scaled to [0, 1] with bounds fitted on the full
  dataset at load time (a constant column encodes to 0.0);
* categorical columns are one-hot encoded over the categories observed at
  load, in sorted order;
* the encoding is fitted and applied in one pass over each column, so the
  fitted codecs and the encoded matrix cannot disagree on the layout;
* the fitted EncodingSpec is frozen into the Dataset and inherited by every
  subset, so train/test/debiased subsets and synthetic points all live in one
  feature space.

Rows keep their 1-based CSV position as a stable ``row_id`` through every
subsetting operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    FairtrimError,
    LabelError,
    ParseError,
    RangeError,
    SchemaMismatch,
    SensitiveAbsent,
    require_integers,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_KINDS = (NUMERIC, CATEGORICAL)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureSchema:
    """Declares the columns of a tabular dataset.

    ``columns`` lists the feature columns as (name, kind) pairs in encoding
    order, where kind is "numeric" or "categorical". The label column is named
    separately and is never encoded as a feature. ``positive_label`` is the
    raw label value mapped to outcome 1; exactly one other raw value may occur
    and maps to 0.
    """

    columns: tuple[tuple[str, str], ...]
    sensitive: str | None
    label: str
    positive_label: str

    def __post_init__(self):
        if not self.columns:
            raise SchemaMismatch("schema declares no feature columns")
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch(f"duplicate column names in schema: {names}")
        for name, kind in self.columns:
            if kind not in _KINDS:
                raise SchemaMismatch(f"column {name!r} has unknown kind {kind!r}")
        if self.label in names:
            raise SchemaMismatch(f"label column {self.label!r} also listed as a feature")
        if self.sensitive is not None:
            if self.sensitive not in names:
                raise SchemaMismatch(f"sensitive column {self.sensitive!r} not in schema")
            if dict(self.columns)[self.sensitive] != CATEGORICAL:
                raise SchemaMismatch(f"sensitive column {self.sensitive!r} must be categorical")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def to_json(self) -> dict:
        return {
            "columns": [{"name": n, "kind": k} for n, k in self.columns],
            "sensitive": self.sensitive,
            "label": self.label,
            "positive_label": self.positive_label,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSchema":
        """The schema of a decoded schema file. ``label`` and ``positive_label``
        must be JSON strings and ``sensitive`` a string or null, since CSV
        headers and cells are strings: ``["decision"]`` is no column name,
        and null is no label value."""
        try:
            cols = tuple((c["name"], c["kind"]) for c in obj["columns"])
            label, positive, sensitive = obj["label"], obj["positive_label"], obj.get("sensitive")
            for name, value in (("label", label), ("positive_label", positive)):
                if not isinstance(value, str):
                    raise SchemaMismatch(f"schema field {name} is {value!r}, not a string")
            if not (sensitive is None or isinstance(sensitive, str)):
                raise SchemaMismatch(
                    f"schema field sensitive is {sensitive!r}, not a string or null"
                )
            return cls(columns=cols, sensitive=sensitive, label=label, positive_label=positive)
        except (KeyError, TypeError) as exc:
            raise SchemaMismatch(f"malformed schema JSON: {exc}") from exc


def read_json(path: str | Path, error: type[FairtrimError]):
    """The value of a UTF-8 JSON file; text that is not UTF-8 or not JSON, or
    that nests deeper than the decoder's recursion limit, raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError: a JSON or a UTF-8 decode error
        raise error(f"{path} is not UTF-8 JSON: {exc}") from exc


def read_csv(
    path: str | Path, error: type[FairtrimError]
) -> tuple[tuple[str, ...] | None, list[tuple[str, ...]]]:
    """(header, rows) of a UTF-8 CSV file, each a tuple of cells, in one pass.

    The header is None for an empty file. Text that is not UTF-8, or that the
    csv module refuses (a field over its size limit), raises ``error``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            return None if header is None else tuple(header), [tuple(r) for r in reader]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"{path} is not UTF-8 CSV: {exc}") from exc


def write_json(path: str | Path, obj, **layout) -> None:
    """Write ``obj`` as a UTF-8 JSON file, laid out by ``json.dump``'s
    ``layout`` keywords (indent, sort_keys)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, **layout)


def write_csv(path: str | Path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as a UTF-8 CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def load_schema(path: str | Path) -> FeatureSchema:
    return FeatureSchema.from_json(read_json(path, SchemaMismatch))


@dataclass(frozen=True)
class ColumnCodec:
    """Encoding recipe for one feature column.

    Numeric columns occupy one min-max scaled output column; categorical
    columns occupy one output column per category, in sorted category order.
    """

    name: str
    kind: str
    start: int
    stop: int
    categories: tuple[str, ...] | None = None

    @property
    def width(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class EncodingSpec:
    codecs: tuple[ColumnCodec, ...]

    def codec(self, name: str) -> ColumnCodec:
        for c in self.codecs:
            if c.name == name:
                return c
        raise SchemaMismatch(f"no codec for column {name!r}")

    def block(self, name: str) -> slice:
        c = self.codec(name)
        return slice(c.start, c.stop)


def _parse_numeric(name: str, values: list[str]) -> np.ndarray:
    """The column as float64; a ParseError names the first cell that is not a finite number."""
    try:
        out = np.array([float(v) for v in values], dtype=np.float64)
        if np.isfinite(out).all():
            return out
    except ValueError:
        pass
    for i, v in enumerate(values):  # find the first bad cell, to name it
        try:
            if math.isfinite(float(v)):
                continue
        except ValueError as exc:
            raise ParseError(f"column {name!r}, row {i + 1}: {v!r} is not numeric") from exc
        raise ParseError(f"column {name!r}, row {i + 1}: {v!r} is not finite")


def _encode_columns(
    schema: FeatureSchema, header: tuple[str, ...], rows: list[tuple[str, ...]]
) -> tuple[EncodingSpec, np.ndarray]:
    """Fit each column's codec and encode its values in the same pass."""
    col_idx = {name: i for i, name in enumerate(header)}
    codecs, blocks = [], []
    offset = 0
    for name, kind in schema.columns:
        values = [row[col_idx[name]] for row in rows]
        if kind == NUMERIC:
            parsed = _parse_numeric(name, values)
            lo, hi = float(parsed.min()), float(parsed.max())
            codec = ColumnCodec(name, kind, offset, offset + 1)
            span = hi - lo
            scaled = (parsed - lo) / span if span > 0.0 else np.zeros_like(parsed)
            blocks.append(scaled[:, None])
        else:
            cats = tuple(sorted(set(values)))
            codec = ColumnCodec(name, kind, offset, offset + len(cats), categories=cats)
            index = {cat: i for i, cat in enumerate(cats)}
            blocks.append(np.eye(len(cats))[[index[v] for v in values]])
        codecs.append(codec)
        offset = codec.stop
    return EncodingSpec(tuple(codecs)), np.hstack(blocks)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable encoded dataset plus enough raw material to export subsets.

    A row's group is its sensitive one-hot block, ``sensitive_block``. The
    group properties are read off that block and its codec, and raise
    SensitiveAbsent when the schema declares no sensitive column.
    """

    schema: FeatureSchema
    encoding: EncodingSpec
    row_ids: np.ndarray  # (n,) int64, 1-based CSV positions
    encoded: np.ndarray  # (n, width) float64
    labels: np.ndarray  # (n,) int64 in {0, 1}
    raw_header: tuple[str, ...]
    raw_rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        _readonly(self.row_ids)
        _readonly(self.encoded)
        _readonly(self.labels)

    def __len__(self) -> int:
        return int(self.encoded.shape[0])

    @property
    def width(self) -> int:
        return int(self.encoded.shape[1])

    def _sensitive_codec(self) -> ColumnCodec:
        if self.schema.sensitive is None:
            raise SensitiveAbsent("dataset schema declares no sensitive column")
        return self.encoding.codec(self.schema.sensitive)

    @property
    def sensitive_block(self) -> slice:
        """The columns of the sensitive one-hot, one per category."""
        c = self._sensitive_codec()
        return slice(c.start, c.stop)

    @property
    def sensitive_categories(self) -> tuple[str, str]:
        """The sensitive column's two values, in its one-hot columns' order."""
        return self._sensitive_codec().categories

    @property
    def group_values(self) -> tuple[str, ...]:
        """Each row's sensitive value: the category of its one-hot's set column."""
        codes = self.encoded[:, self.sensitive_block].argmax(axis=1)
        return tuple(self.sensitive_categories[i] for i in codes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New Dataset holding the rows at ``indices`` (positional), in order."""
        idx = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            row_ids=self.row_ids[idx],
            encoded=self.encoded[idx],
            labels=self.labels[idx],
            raw_rows=tuple(self.raw_rows[i] for i in idx),
        )

    def without_row_ids(self, drop) -> "Dataset":
        drop_arr = np.asarray(sorted(drop), dtype=np.int64)
        keep = np.flatnonzero(~np.isin(self.row_ids, drop_arr))
        return self.subset(keep)

    def to_csv(self, path: str | Path) -> None:
        """Write raw rows with original values, prefixed by row_id."""
        write_csv(path, ("row_id",) + self.raw_header,
                  ((int(rid),) + row for rid, row in zip(self.row_ids, self.raw_rows)))


def load_dataset(path: str | Path, schema: FeatureSchema) -> Dataset:
    header, rows = read_csv(path, ParseError)
    if header is None:
        raise EmptyDataset(f"{path} has no header row")

    expected = set(schema.feature_names) | {schema.label}
    got = set(header)
    if len(header) != len(got):
        raise SchemaMismatch(f"duplicate columns in CSV header: {header}")
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise SchemaMismatch(
            f"CSV header does not match schema (missing={missing}, extra={extra})"
        )
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row {i + 1} has {len(row)} cells, expected {len(header)}")
    if not rows:
        raise EmptyDataset(f"{path} contains a header but no rows")

    col_idx = {name: i for i, name in enumerate(header)}
    raw_labels = [row[col_idx[schema.label]] for row in rows]
    distinct = sorted(set(raw_labels))
    if schema.positive_label not in distinct:
        raise LabelError(
            f"positive label {schema.positive_label!r} never occurs "
            f"(observed values: {distinct})"
        )
    negatives = [v for v in distinct if v != schema.positive_label]
    if len(negatives) > 1:
        raise LabelError(f"label column has more than two values: {distinct}")
    labels = np.fromiter(
        (1 if v == schema.positive_label else 0 for v in raw_labels),
        dtype=np.int64, count=len(raw_labels),
    )

    encoding, encoded = _encode_columns(schema, header, rows)

    if schema.sensitive is not None:
        codec = encoding.codec(schema.sensitive)
        if len(codec.categories) != 2:
            raise SchemaMismatch(
                f"sensitive column {schema.sensitive!r} must take exactly 2 "
                f"values, found {codec.categories}"
            )

    return Dataset(
        schema=schema,
        encoding=encoding,
        row_ids=np.arange(1, len(rows) + 1, dtype=np.int64),
        encoded=encoded,
        labels=labels,
        raw_header=header,
        raw_rows=tuple(rows),
    )


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic permutation split: first floor(frac*n) rows train."""

    permutation_seed: int
    train_fraction: float = 0.8

    def __post_init__(self):
        require_integers(self, "permutation_seed")
        if not (0.0 < self.train_fraction < 1.0):
            raise RangeError(
                f"train_fraction must lie strictly in (0, 1), got {self.train_fraction}"
            )
        if self.permutation_seed < 0:
            raise RangeError(f"permutation_seed must be >= 0, got {self.permutation_seed}")


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    if len(d) == 0:
        raise EmptyDataset("cannot split an empty dataset")
    rng = np.random.default_rng(spec.permutation_seed)
    perm = rng.permutation(len(d))
    n_train = int(np.floor(spec.train_fraction * len(d)))
    return d.subset(perm[:n_train]), d.subset(perm[n_train:])


def drop_sensitive(d: Dataset) -> Dataset:
    """Remove the sensitive column from the feature space (not from raw rows).

    The result's schema declares no sensitive column, so it has no groups;
    encoded width shrinks by the one-hot block. Raises SensitiveAbsent when
    ``d`` has no sensitive column.
    """
    kept = kept_columns_after_drop(d)
    name = d.schema.sensitive

    new_schema = FeatureSchema(
        columns=tuple(c for c in d.schema.columns if c[0] != name),
        sensitive=None,
        label=d.schema.label,
        positive_label=d.schema.positive_label,
    )
    codecs = []
    offset = 0
    for c in d.encoding.codecs:
        if c.name == name:
            continue
        codecs.append(replace(c, start=offset, stop=offset + c.width))
        offset += c.width
    return replace(
        d,
        schema=new_schema,
        encoding=EncodingSpec(tuple(codecs)),
        # one C-ordered copy; d.encoded[:, kept] would be F-ordered
        encoded=np.take(d.encoded, kept, axis=1),
    )


def kept_columns_after_drop(d: Dataset) -> np.ndarray:
    """Indices into d's full-width vectors that survive drop_sensitive(d)."""
    block = d.sensitive_block
    return np.r_[0 : block.start, block.stop : d.width]
