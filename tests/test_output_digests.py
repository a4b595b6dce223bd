"""The bytes of every file the CLI writes, pinned on the toy fixture.

Each digest is the sha256 of one output file. A refactor that means to keep
behaviour must keep every one of them; a change that means to alter an
output updates its digest here and says why.
"""

import hashlib

import pytest

from fairtrim.cli import main

SEED = ["--seed", "3"]
SEEDED = SEED + ["--pool-multiplier", "20"]
REPORTS = ("configs.csv", "boxplot.csv", "summary.json")

# run -> (argv after "<command> <csv> --schema <schema>", files it writes)
RUNS = {
    "train": (["train", *SEED], ("model.json",)),
    "rank": (["rank", *SEEDED], ("ranking.csv", "ranking_diagnostics.json")),
    "debias": (["debias", *SEEDED], ("debias_report.json", "debiased.csv")),
    "debias-frozen": (
        ["debias", *SEEDED, "--freeze-pool"], ("debias_report.json", "debiased.csv")
    ),
    "grid-w1": (["grid", *SEEDED, "--workers", "1"], REPORTS),
    "grid-w2": (["grid", *SEEDED, "--workers", "2"], REPORTS),
}

DIGESTS = {
    "debias-frozen/debias_report.json": "f06c4e69283aa4e76a7cb0e14a334249f37514023b240e75433d231f68956651",
    "debias-frozen/debiased.csv": "a0e6d68fb1fb604fe28ead3b0e553fe0cb1f4a757e58c893fb0f7f8a4028c8d7",
    "debias/debias_report.json": "193ea29e9212a374046d3f641b1faba8c4dcc861dfc01ac0f96bdb13fd2cacad",
    "debias/debiased.csv": "a0e6d68fb1fb604fe28ead3b0e553fe0cb1f4a757e58c893fb0f7f8a4028c8d7",
    "grid-w1/boxplot.csv": "7f9a3b0cad5f360c1658b2cc1731cd517ae949a890222970ecc8da91c08493e2",
    "grid-w1/configs.csv": "f0cf8ac874ae0c0784e3a47433fa70e0b748cd162a4892e69e83218033a25b69",
    "grid-w1/summary.json": "029200893b0d29e9b5dd223547d036f23e09d260a33a44da141f3ef1609c0365",
    "grid-w2/boxplot.csv": "7f9a3b0cad5f360c1658b2cc1731cd517ae949a890222970ecc8da91c08493e2",
    "grid-w2/configs.csv": "f0cf8ac874ae0c0784e3a47433fa70e0b748cd162a4892e69e83218033a25b69",
    "grid-w2/summary.json": "029200893b0d29e9b5dd223547d036f23e09d260a33a44da141f3ef1609c0365",
    "rank/ranking.csv": "96336098498c72e4ce35b6e4586b6a3facd1e79072a9b17bcc9bc96d8909e632",
    "rank/ranking_diagnostics.json": "fa9fa17c7fa490014d4880c001a0460e191791426cfdc7a5e095ea5c3ac05180",
    "train/model.json": "6d489e70f36de2c23a0ad57d1d171afb5c7193c3bb530d9ee2603727b59539c7",
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_output_bytes_are_pinned(capsys, toy_files, tmp_path, run):
    csv_path, schema_path = toy_files
    (command, *flags), files = RUNS[run]
    argv = [command, csv_path, "--schema", schema_path, *flags, "--out-dir", str(tmp_path)]
    assert main(argv) == 0, capsys.readouterr().err
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}
    assert got == {name: DIGESTS[f"{run}/{name}"] for name in files}
