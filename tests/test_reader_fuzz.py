"""Fuzz the CLI's file readers with one mutation of a valid input file.

Whatever the bytes, ``main`` returns 0, or 1 or 2 with one stderr JSON line
naming a FairtrimError or an OSError: no exception escapes, and no other
error type reaches the user.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TOY_CSV, TOY_SCHEMA
from fairtrim.cli import main
from fairtrim.errors import FairtrimError
from fairtrim.experiment import (
    TECHNIQUES,
    ConfigRecord,
    ExperimentResult,
    TechniqueMetrics,
    emit_reports,
)
from fairtrim.model import Hyperparameters, save_model, train

# each input file and the command that reads it
COMMANDS = {
    "data.csv": "load-check",
    "schema.json": "load-check",
    "model.json": "discrim",
    "summary.json": "report",
    "configs.csv": "report",
}
OPS = ("swap", "truncate", "byte", "duplicate-line")
BYTES = (0xFF, 0x00, ord('"'), ord(","), ord("\n"))
# 10**400 is a JSON number that float64 cannot hold
JSON_VALUES = (None, True, 0, -1, 10**400, 0.5, "x", [], [0], {}, {"x": 0})


def _names(cls) -> set[str]:
    return {cls.__name__}.union(*(_names(sub) for sub in cls.__subclasses__()))


TYPED = _names(FairtrimError) | _names(OSError)


@pytest.fixture(scope="module")
def valid(tmp_path_factory, toy):
    """The bytes of a valid file of each kind: the toy data and schema, a
    model that fits them, and the reports of a one-config grid."""
    tmp = tmp_path_factory.mktemp("valid")
    save_model(train(toy, Hyperparameters(2, 2, 7, epochs=20)), tmp / "model.json")
    metrics = {t: TechniqueMetrics(0.25, 0.5, 0.125) for t in TECHNIQUES}
    record = ConfigRecord(
        config_id="h2-h2-b7-p0", hidden1=2, hidden2=2, batch_size=7, permutation_seed=0,
        train_rows=5, test_rows=2, debiased_test_rows=2, removed_row_ids=(2,), stop_index=0,
        already_fair=False, loop_exhausted=False, metrics=metrics,
    )
    emit_reports(ExperimentResult(records=(record,), unfair_union=(2,)), tmp)
    files = {name: (tmp / name).read_bytes() for name in ("model.json", "summary.json",
                                                           "configs.csv")}
    return {**files, "data.csv": TOY_CSV.read_bytes(), "schema.json": TOY_SCHEMA.read_bytes()}


def _paths(obj, path=()):
    """The path of every value in a decoded JSON document, the root's first."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, (*path, key))


def _replace(obj, path, new):
    if not path:
        return new
    copy = obj.copy()
    copy[path[0]] = _replace(obj[path[0]], path[1:], new)
    return copy


def mutate(content: bytes, op: str, at: int, value: int) -> bytes:
    """``content`` with one mutation; ``at`` and ``value`` pick where and what."""
    if op == "truncate":
        return content[: at % len(content)]
    if op == "byte":
        k = at % len(content)
        return content[:k] + bytes([BYTES[value % len(BYTES)]]) + content[k + 1 :]
    if op == "duplicate-line":
        lines = content.splitlines(keepends=True)
        k = at % len(lines)
        return b"".join(lines[: k + 1] + lines[k:])
    # swap: one JSON value for a value of another type, an integer for a float too
    obj = json.loads(content)
    paths = list(_paths(obj))
    path = paths[at % len(paths)]
    old = obj
    for key in path:
        old = old[key]
    others = [v for v in JSON_VALUES if type(v) is not type(old)]
    return json.dumps(_replace(obj, path, others[value % len(others)])).encode()


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(COMMANDS)),
    op=st.sampled_from(OPS),
    at=st.integers(0, 10**6),
    value=st.integers(0, 100),
)
# a byte 0xff: no UTF-8 text
@example(name="data.csv", op="byte", at=40, value=0)
@example(name="configs.csv", op="byte", at=0, value=0)
@example(name="schema.json", op="byte", at=0, value=0)
@example(name="model.json", op="byte", at=0, value=0)
@example(name="summary.json", op="byte", at=0, value=0)
# 10**400 for theta[0] and for final_train_loss: numbers float64 cannot hold
@example(name="model.json", op="swap", at=9, value=4)
@example(name="model.json", op="swap", at=7, value=4)
def test_mutated_input_file_ends_in_a_result_or_a_typed_error(tmp_path_factory, valid, name,
                                                              op, at, value):
    assume(op != "swap" or name.endswith(".json"))
    work = tmp_path_factory.getbasetemp() / "fuzz"  # every file is rewritten below
    work.mkdir(exist_ok=True)
    for file, content in valid.items():
        (work / file).write_bytes(mutate(content, op, at, value) if file == name else content)
    paths = {file: str(work / file) for file in valid}
    argv = {
        "load-check": ["load-check", paths["data.csv"], "--schema", paths["schema.json"]],
        "discrim": ["discrim", paths["data.csv"], "--schema", paths["schema.json"],
                    "--model", paths["model.json"], "--pool-multiplier", "5"],
        "report": ["report", "--out-dir", str(work)],
    }[COMMANDS[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert code in (1, 2)
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["error"] in TYPED, line
