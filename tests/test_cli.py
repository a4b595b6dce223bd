"""End-to-end coverage of every CLI subcommand and the error surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairtrim
from conftest import TOY_CSV
from fairtrim.cli import main
from fairtrim.model import Model, load_model, param_count, save_model
from fairtrim.synthetic import write_loans


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


TRAIN_FAST = ["--epochs", "80", "--lr", "0.5"]
FAST = TRAIN_FAST + ["--pool-multiplier", "5"]

HYPERPARAMETERS = {"--seed", "--hidden1", "--hidden2", "--batch-size", "--epochs", "--lr"}
POOL = {"--lambda", "--pool-multiplier"}
SOLVER = {"--damping", "--cg-tol"}
LOOP = {"--chunk-percent", "--freeze-pool"}
COMMAND_FLAGS = {
    "load-check": {"--schema"},
    "train": {"--schema", "--out-dir"} | HYPERPARAMETERS,
    "discrim": {"--schema", "--model"} | HYPERPARAMETERS | POOL,
    "rank": {"--schema", "--out-dir", "--model"} | HYPERPARAMETERS | POOL | SOLVER,
    "debias": {"--schema", "--out-dir"} | HYPERPARAMETERS | POOL | SOLVER | LOOP,
    "grid": {"--schema", "--out-dir", "--workers"} | HYPERPARAMETERS | POOL | SOLVER | LOOP,
    "report": {"--out-dir"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_accepts_only_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert flags - {"--help"} == COMMAND_FLAGS[command]


def test_flag_of_another_command_is_rejected(toy_files):
    csv_path, schema_path = toy_files
    with pytest.raises(SystemExit) as exc:
        main(["train", csv_path, "--schema", schema_path, "--workers", "2"])
    assert exc.value.code == 2


def test_load_check(capsys, toy_files):
    csv_path, schema_path = toy_files
    obj = run_json(capsys, ["load-check", csv_path, "--schema", schema_path])
    assert obj["rows"] == 7
    assert obj["encoded_width"] == 4  # income, wealth, race one-hot (2)
    assert obj["label_counts"] == {"positive": 3, "negative": 4}
    assert obj["groups"] == {"black": 4, "white": 3}
    assert obj["derived_batch_sizes"] == [1]


def test_load_check_wrong_schema_is_domain_error(capsys, toy_files, loans60_files):
    csv_path, _ = toy_files
    _, schema_path = loans60_files
    code, out, err = run(capsys, ["load-check", csv_path, "--schema", schema_path])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "SchemaMismatch"
    assert payload["message"]


def test_load_check_missing_file_is_environment_error(capsys, toy_files):
    _, schema_path = toy_files
    code, out, err = run(capsys, ["load-check", "/nonexistent.csv", "--schema", schema_path])
    assert code == 1
    assert "error" in json.loads(err)


# a 4.97 PiB pool, which the allocator refuses at once; before, numpy's
# _ArrayMemoryError escaped as a traceback with no JSON
def test_unallocatable_pool_is_environment_error(capsys, toy_files):
    csv_path, schema_path = toy_files
    argv = ["discrim", csv_path, "--schema", schema_path, "--epochs", "1",
            "--pool-multiplier", str(10**14)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "MemoryError"
    assert "PiB" in payload["message"]


def test_bad_flag_value_is_domain_error(capsys, toy_files):
    csv_path, schema_path = toy_files
    code, _, err = run(
        capsys,
        ["discrim", csv_path, "--schema", schema_path, "--lambda", "2.0"],
    )
    assert code == 2
    assert json.loads(err)["error"] == "RangeError"


@pytest.fixture
def refuse_training(monkeypatch):
    """Every training entry point raises, so a test fails if a command trains."""
    def refuse(*args, **kwargs):
        raise AssertionError("trained before checking the input")

    for module in (fairtrim.cli, fairtrim.model, fairtrim.debias, fairtrim.experiment):
        for name in ("train", "train_many"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


# a bad pool or loop flag fails before any model trains
@pytest.mark.parametrize("command, flag, value", [
    ("discrim", "--lambda", "2"),
    ("discrim", "--pool-multiplier", "0"),
    ("rank", "--lambda", "2"),
    ("rank", "--pool-multiplier", "0"),
    ("grid", "--lambda", "2"),
    ("grid", "--pool-multiplier", "0"),
    ("grid", "--chunk-percent", "0"),
])
def test_bad_flag_fails_before_training(capsys, toy_files, tmp_path, refuse_training,
                                        command, flag, value):
    csv_path, schema_path = toy_files
    argv = [command, csv_path, "--schema", schema_path, flag, value]
    if command != "discrim":  # the one of the three that writes no files
        argv += ["--out-dir", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "RangeError"


# before, these trained a model and only then found no sensitive column to
# flip; load-check and train still accept such a schema
@pytest.mark.parametrize("command", ["discrim", "rank", "debias"])
def test_no_sensitive_column_fails_before_training(capsys, toy_files, tmp_path,
                                                   refuse_training, command):
    (tmp_path / "schema.json").write_text(schema_json(sensitive=None))
    argv = [command, toy_files[0], "--schema", str(tmp_path / "schema.json")]
    assert run_json(capsys, ["load-check", *argv[1:]])["groups"] is None
    if command != "discrim":
        argv += ["--out-dir", str(tmp_path / "out")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "SensitiveAbsent"
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_domain_error(capsys, toy_files, tmp_path):
    csv_path, schema_path = toy_files
    code, _, err = run(
        capsys,
        ["train", csv_path, "--schema", schema_path, "--seed", "-1", "--out-dir", str(tmp_path)],
    )
    assert code == 2
    assert json.loads(err)["error"] == "RangeError"


@pytest.mark.parametrize("command", ["train", "grid"])
def test_negative_batch_size_is_domain_error(capsys, toy_files, tmp_path, command):
    # only 0 asks for a derived batch size
    csv_path, schema_path = toy_files
    code, _, err = run(
        capsys,
        [command, csv_path, "--schema", schema_path, "--batch-size", "-5",
         "--out-dir", str(tmp_path)],
    )
    assert code == 2
    assert json.loads(err)["error"] == "RangeError"


# a learning rate this large overflows the weights to nan within a few epochs; before,
# train wrote the nan model and debias called it already fair, both exiting 0
@pytest.mark.parametrize("command", ["train", "debias"])
def test_diverged_training_is_domain_error(capsys, toy_files, tmp_path, command):
    csv_path, schema_path = toy_files
    argv = [command, csv_path, "--schema", schema_path, "--lr", "1e308", "--epochs", "50",
            "--out-dir", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1  # the JSON error, with no numpy warning before it
    assert json.loads(err)["error"] == "RangeError"
    assert "diverged" in json.loads(err)["message"]
    assert list(tmp_path.iterdir()) == []


def test_train_writes_model(capsys, toy_files, tmp_path):
    csv_path, schema_path = toy_files
    obj = run_json(
        capsys,
        ["train", csv_path, "--schema", schema_path, "--out-dir", str(tmp_path)]
        + TRAIN_FAST + ["--batch-size", "7"],
    )
    m = load_model(obj["model_path"])
    assert m.n_params == obj["n_params"]
    assert 0.0 <= obj["train_accuracy"] <= 1.0
    assert obj["final_train_loss"] > 0.0


def test_discrim_with_saved_model(capsys, toy_files, tmp_path):
    csv_path, schema_path = toy_files
    trained = run_json(
        capsys,
        ["train", csv_path, "--schema", schema_path, "--out-dir", str(tmp_path)]
        + TRAIN_FAST + ["--batch-size", "7"],
    )
    obj = run_json(
        capsys,
        ["discrim", csv_path, "--schema", schema_path,
         "--model", trained["model_path"]] + FAST,
    )
    assert obj["pool_pairs"] == 5 * 7
    assert obj["discriminatory_pairs"] <= obj["pool_pairs"]
    assert 0.0 <= obj["individual_discrimination"] <= 1.0
    assert obj["statistical_parity_difference"] is not None


def test_discrim_trains_when_model_omitted(capsys, toy_files):
    csv_path, schema_path = toy_files
    obj = run_json(
        capsys,
        ["discrim", csv_path, "--schema", schema_path] + FAST + ["--batch-size", "7"],
    )
    assert obj["pool_pairs"] == 5 * 7


def test_rank_outputs(capsys, toy_files, tmp_path):
    csv_path, schema_path = toy_files
    obj = run_json(
        capsys,
        ["rank", csv_path, "--schema", schema_path, "--out-dir", str(tmp_path),
         "--seed", "3"] + FAST + ["--batch-size", "7"],
    )
    ranking = Path(obj["ranking_path"])
    assert ranking.exists()
    header, *rows = ranking.read_text().strip().splitlines()
    assert header == "rank,row_id,score"
    assert len(rows) >= 1
    assert (tmp_path / "ranking_diagnostics.json").exists()
    assert obj["most_harmful"][0] == int(rows[0].split(",")[1])
    assert set(obj["ranking_solve"]) == {"converged", "iterations", "residual_norm"}


def test_rank_on_already_fair_model_is_domain_error(capsys, toy, toy_files, tmp_path):
    # all-zero weights predict one class everywhere, so no pair flips
    save_model(
        Model(toy.width, 16, 8, theta=np.zeros(param_count(toy.width, 16, 8))),
        tmp_path / "model.json",
    )
    csv_path, schema_path = toy_files
    code, out, err = run(
        capsys,
        ["rank", csv_path, "--schema", schema_path, "--model", str(tmp_path / "model.json"),
         "--out-dir", str(tmp_path)],
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "AlreadyFair"


def test_rank_and_debias_rank_the_same_way(capsys, toy_files, tmp_path):
    csv_path, schema_path = toy_files
    flags = [csv_path, "--schema", schema_path, "--seed", "3", "--pool-multiplier", "20"]
    run_json(capsys, ["rank", *flags, "--out-dir", str(tmp_path / "rank")])
    run_json(capsys, ["debias", *flags, "--out-dir", str(tmp_path / "debias")])
    _, *rows = (tmp_path / "rank" / "ranking.csv").read_text().strip().splitlines()
    report = json.loads((tmp_path / "debias" / "debias_report.json").read_text())
    assert [int(r.split(",")[1]) for r in rows] == report["ranking_row_ids"]


def test_debias_outputs(capsys, toy_files, tmp_path):
    csv_path, schema_path = toy_files
    obj = run_json(
        capsys,
        ["debias", csv_path, "--schema", schema_path, "--out-dir", str(tmp_path),
         "--seed", "3"] + FAST + ["--batch-size", "7"],
    )
    assert obj["rows_before"] == 7
    assert obj["rows_after"] == 7 - len(obj["removed_row_ids"])
    assert Path(obj["debiased_path"]).exists()
    report = json.loads((tmp_path / "debias_report.json").read_text())
    assert report["removed_row_ids"] == obj["removed_row_ids"]
    assert report["ranking_solve"]["iterations"] >= 1
    assert report["ranking_solve"]["converged"] is True


def test_grid_and_report(capsys, loans60_files, tmp_path):
    csv_path, schema_path = loans60_files
    obj = run_json(
        capsys,
        ["grid", csv_path, "--schema", schema_path, "--out-dir", str(tmp_path),
         "--hidden1", "6", "--hidden2", "3", "--chunk-percent", "5",
         "--epochs", "120", "--lr", "0.3", "--pool-multiplier", "3"],
    )
    # single hidden pair x 2 derived batch sizes x 2 permutation seeds
    assert obj["n_configs"] == 4
    assert set(obj["reports"]) == {"configs", "boxplot", "summary"}
    for p in obj["reports"].values():
        assert Path(p).exists()

    rep = run_json(capsys, ["report", "--out-dir", str(tmp_path)])
    assert set(rep["mean_discrimination"]) == {"full", "sr", "ours"}
    assert rep["picks"] == obj["picks"]


def test_report_without_grid_files(capsys, tmp_path):
    code, _, err = run(capsys, ["report", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error" in json.loads(err)


def model_json(**fields):
    """A model file for the toy's 4 encoded columns and hidden sizes 1, 1, but for ``fields``.

    Its width fits the toy data, so only the field under test can make it fail.
    """
    obj = {"format": "fairtrim-model", "version": 1, "activation": "tanh", "input_dim": 4,
           "hidden1": 1, "hidden2": 1, "final_train_loss": None, "theta": [0.0] * 11}
    return json.dumps({**obj, **fields})


def schema_json(**fields):
    """The toy's schema file but for ``fields``."""
    obj = {"columns": [{"name": "income", "kind": "numeric"},
                       {"name": "wealth", "kind": "numeric"},
                       {"name": "race", "kind": "categorical"}],
           "sensitive": "race", "label": "decision", "positive_label": "approved"}
    return json.dumps({**obj, **fields})


NOT_UTF8 = b"\xff\xfe\x00{"  # a UTF-16 byte-order mark: no UTF-8 text
TOY_BYTES = TOY_CSV.read_bytes()
HEADER = b"income,wealth,race,decision\n"


def test_schema_json_fits_the_toy(capsys, toy_files, tmp_path):
    (tmp_path / "schema.json").write_text(schema_json())
    run_json(capsys, ["load-check", toy_files[0], "--schema", str(tmp_path / "schema.json")])


@pytest.mark.parametrize(
    "command, files, error",
    [
        ("discrim", {"model.json": "[1, 2]"}, "DimensionMismatch"),
        ("discrim", {"model.json": "not json"}, "DimensionMismatch"),
        ("discrim", {"model.json": '{"format": "fairtrim-model", "version": 1, '
                                   '"activation": "tanh"}'}, "DimensionMismatch"),
        ("discrim", {"model.json": '{"format": "fairtrim-model", "version": 1, '
                                   '"activation": "relu"}'}, "RangeError"),
        ("discrim", {"model.json": model_json(theta=["x"] * 11)}, "DimensionMismatch"),
        ("discrim", {"model.json": model_json(input_dim="ten")}, "DimensionMismatch"),
        ("discrim", {"model.json": model_json(input_dim=4.7)}, "DimensionMismatch"),
        ("discrim", {"model.json": model_json(hidden1=True)}, "DimensionMismatch"),
        ("discrim", {"model.json": model_json(theta=[float("nan")] * 11)}, "RangeError"),
        ("discrim", {"model.json": model_json(final_train_loss="low")}, "DimensionMismatch"),
        ("discrim", {"model.json": model_json(theta=["0.123"] * 11)}, "DimensionMismatch"),
        ("discrim", {"model.json": model_json(hidden1=0)}, "DimensionMismatch"),
        ("discrim", {"model.json": NOT_UTF8}, "DimensionMismatch"),
        ("load-check", {"schema.json": schema_json(label=["decision"])}, "SchemaMismatch"),
        ("load-check", {"schema.json": schema_json(positive_label=None)}, "SchemaMismatch"),
        ("load-check", {"schema.json": NOT_UTF8}, "SchemaMismatch"),
        ("load-check", {"schema.json": "[" * 100_000 + "]" * 100_000}, "SchemaMismatch"),
        ("load-check", {"data.csv": TOY_BYTES[:40] + b"\xff" + TOY_BYTES[41:]}, "ParseError"),
        # over the csv module's default field size limit of 131,072 characters
        ("load-check", {"data.csv": HEADER + b"1" * 131_073 + b",0.1,white,approved\n"},
         "ParseError"),
        ("report", {"summary.json": '{"unfair_union": []}',
                    "configs.csv": "technique,discrimination\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": []}',
                    "configs.csv": "config_id\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": []}',
                    "configs.csv": "technique,discrimination\nfull,high\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": 5}',
                    "configs.csv": "technique,discrimination\n"}, "MalformedReport"),
        ("report", {"summary.json": "not json",
                    "configs.csv": "technique,discrimination\n"}, "MalformedReport"),
        ("report", {"summary.json": NOT_UTF8,
                    "configs.csv": "technique,discrimination\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": []}',
                    "configs.csv": NOT_UTF8}, "MalformedReport"),
    ],
    ids=["model-list", "model-not-json", "model-no-input-dim", "model-relu",
         "model-theta-strings", "model-input-dim-word", "model-input-dim-fraction",
         "model-hidden1-bool", "model-theta-nan", "model-loss-word",
         "model-theta-numeric-strings", "model-hidden1-zero", "model-not-utf8",
         "schema-label-list", "schema-positive-label-null", "schema-not-utf8",
         "schema-nested-too-deep",
         "data-not-utf8", "data-field-over-limit",
         "summary-no-picks", "configs-no-columns", "configs-non-numeric-discrimination",
         "summary-union-not-list", "summary-not-json", "summary-not-utf8", "configs-not-utf8"],
)
def test_malformed_file_is_domain_error(capsys, toy_files, tmp_path, command, files, error):
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    # the toy's own file wherever the case writes none
    csv_path, schema_path = (
        str(tmp_path / name) if name in files else toy
        for name, toy in zip(("data.csv", "schema.json"), toy_files)
    )
    argv = {
        "discrim": ["discrim", csv_path, "--schema", schema_path,
                    "--model", str(tmp_path / "model.json")],
        "load-check": ["load-check", csv_path, "--schema", schema_path],
        "report": ["report", "--out-dir", str(tmp_path)],
    }[command]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert json.loads(err)["error"] == error


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def run_child(argv, **env):
    """Run ``argv`` under this interpreter, with ``env`` added to the
    environment; the child finds the package where this process imported it from."""
    src = str(Path(fairtrim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_module_invocation_subprocess(toy_files):
    csv_path, schema_path = toy_files
    proc = run_child(["-m", "fairtrim.cli", "load-check", csv_path, "--schema", schema_path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"] == 7


# run -> (its short flags, the files it writes); gen-loans is a child run of
# scripts/gen_loans_data.py against write_loans in this process
LOCALE_RUNS = {
    "train": (TRAIN_FAST, ("model.json",)),
    "rank": (FAST, ("ranking.csv", "ranking_diagnostics.json")),
    "debias": (FAST, ("debiased.csv", "debias_report.json")),
    "grid": (FAST, ("configs.csv", "boxplot.csv", "summary.json")),
    "gen-loans": ((), ("loans.csv", "loans.schema.json")),
}


@pytest.mark.parametrize("run_name", sorted(LOCALE_RUNS))
def test_files_are_utf8_under_the_c_locale(capsys, toy_files, tmp_path, run_name):
    flags, files = LOCALE_RUNS[run_name]
    here, child = tmp_path / "here", tmp_path / "child"
    if run_name == "gen-loans":
        here.mkdir()
        child.mkdir()
        write_loans(here / "loans.csv", here / "loans.schema.json", n=50)
        argv = [str(SCRIPTS / "gen_loans_data.py"), str(child / "loans.csv"), "--rows", "50"]
    else:
        # the toy with a non-ASCII column name and category, which sort as the toy's do
        csv_path, schema_path = tmp_path / "loans.csv", tmp_path / "loans.schema.json"
        for path, toy in zip((csv_path, schema_path), toy_files):
            text = Path(toy).read_text(encoding="utf-8")
            path.write_text(
                text.replace("wealth", "patrimonio-ñ").replace("white", "blanco-ñ"),
                encoding="utf-8",
            )
        command = [run_name, str(csv_path), "--schema", str(schema_path), "--seed", "3", *flags]
        run_json(capsys, [*command, "--out-dir", str(here)])
        argv = ["-m", "fairtrim.cli", *command, "--out-dir", str(child)]
    # the locale's encoding is ASCII, and Python's UTF-8 mode is off
    proc = run_child(argv, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (child / name).read_bytes() == (here / name).read_bytes(), name
    if run_name == "debias":
        assert "blanco-ñ".encode() in (here / "debiased.csv").read_bytes()


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


# importing a script checks every fairtrim name it uses, which no other test runs
@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_help_runs(script):
    proc = run_child([str(SCRIPTS / script), "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


# each script's cheapest run that does its work, as (argv, a line it prints);
# run_grid_demo.py and pin_acceptance.py have none that takes under seconds,
# so test_script_help_runs above is their smoke run
SCRIPT_RUNS = {
    "gen-loans-50": (["gen_loans_data.py", "{tmp}/loans.csv", "--rows", "50"], "wrote 50 rows"),
    # a model that flips no pair: the demo says so instead of ranking nothing
    "toy-already-fair": (["run_toy_demo.py", "--epochs", "0"], "already fair"),
    "toy-300-epochs": (["run_toy_demo.py", "--epochs", "300"], "retrained without"),
}


@pytest.mark.parametrize("run", sorted(SCRIPT_RUNS))
def test_script_runs_at_its_cheapest_setting(tmp_path, run):
    (script, *args), line = SCRIPT_RUNS[run]
    proc = run_child([str(SCRIPTS / script), *(a.format(tmp=tmp_path) for a in args)])
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
