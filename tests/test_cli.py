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
from fairtrim.cli import main
from fairtrim.model import Model, load_model, param_count, save_model
from fairtrim.synthetic import write_loans


@pytest.fixture(scope="module")
def loans_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loans")
    csv_path, schema_path = tmp / "loans.csv", tmp / "loans.schema.json"
    write_loans(csv_path, schema_path, n=60, seed=0, flip_rate=0.5)
    return str(csv_path), str(schema_path)


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


def test_load_check_wrong_schema_is_domain_error(capsys, toy_files, loans_files):
    csv_path, _ = toy_files
    _, schema_path = loans_files
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


def test_bad_flag_value_is_domain_error(capsys, toy_files):
    csv_path, schema_path = toy_files
    code, _, err = run(
        capsys,
        ["discrim", csv_path, "--schema", schema_path, "--lambda", "2.0"],
    )
    assert code == 2
    assert json.loads(err)["error"] == "RangeError"


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
def test_bad_flag_fails_before_training(capsys, toy_files, tmp_path, monkeypatch,
                                        command, flag, value):
    def refuse(*args, **kwargs):
        raise AssertionError("trained before checking the flags")

    for module in (fairtrim.cli, fairtrim.model, fairtrim.debias, fairtrim.experiment):
        for name in ("train", "train_many"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    csv_path, schema_path = toy_files
    argv = [command, csv_path, "--schema", schema_path, flag, value]
    if command != "discrim":  # the one of the three that writes no files
        argv += ["--out-dir", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "RangeError"


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


def test_grid_and_report(capsys, loans_files, tmp_path):
    csv_path, schema_path = loans_files
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


@pytest.mark.parametrize(
    "command, files, error",
    [
        ("discrim", {"model.json": "[1, 2]"}, "DimensionMismatch"),
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
        ("report", {"summary.json": '{"unfair_union": []}',
                    "configs.csv": "technique,discrimination\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": []}',
                    "configs.csv": "config_id\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": []}',
                    "configs.csv": "technique,discrimination\nfull,high\n"}, "MalformedReport"),
        ("report", {"summary.json": '{"picks": {}, "unfair_union": 5}',
                    "configs.csv": "technique,discrimination\n"}, "MalformedReport"),
    ],
    ids=["model-list", "model-no-input-dim", "model-relu", "model-theta-strings",
         "model-input-dim-word", "model-input-dim-fraction", "model-hidden1-bool",
         "model-theta-nan", "model-loss-word", "summary-no-picks",
         "configs-no-columns", "configs-non-numeric-discrimination", "summary-union-not-list"],
)
def test_malformed_file_is_domain_error(capsys, toy_files, tmp_path, command, files, error):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    csv_path, schema_path = toy_files
    argv = {
        "discrim": ["discrim", csv_path, "--schema", schema_path,
                    "--model", str(tmp_path / "model.json")],
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


def run_child(argv):
    """Run ``argv`` under this interpreter; the child finds the package where
    this process imported it from."""
    src = str(Path(fairtrim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_invocation_subprocess(toy_files):
    csv_path, schema_path = toy_files
    proc = run_child(["-m", "fairtrim.cli", "load-check", csv_path, "--schema", schema_path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"] == 7


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


# importing a script checks every fairtrim name it uses, which no other test runs
@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_help_runs(script):
    proc = run_child([str(SCRIPTS / script), "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
