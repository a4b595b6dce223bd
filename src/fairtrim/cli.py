"""Command-line entry point.

Every subcommand prints a JSON object on stdout and exits 0 on success.
Expected failures print one JSON object {"error": <type>, "message": ...} on
stderr and exit 2 (domain errors) or 1 (file/OS errors).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import load_dataset, load_schema
from .debias import DebiasConfig, debias_data
from .errors import FairtrimError
from .experiment import (
    GridSpec,
    derived_batch_sizes,
    emit_reports,
    nearest_power_of_two,
    run_grid,
)
from .fairness import (
    SimilarityConfig,
    build_influence_set,
    discriminatory_pairs,
    generate_similar_pairs,
    metrics_report,
)
from .influence import SolverConfig, rank_by_influence
from .model import Hyperparameters, load_model, save_model, train


def _shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", required=True, help="path to the schema JSON sidecar")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="numeric similarity radius in [0, 1]")
    p.add_argument("--pool-multiplier", type=int, default=100)
    p.add_argument("--chunk-percent", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden1", type=int, default=16)
    p.add_argument("--hidden2", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=0,
                   help="0 derives the nearest power of two to rows/10")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--damping", type=float, default=0.01)
    p.add_argument("--cg-tol", type=float, default=1e-6)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--freeze-pool", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fairtrim",
        description="Find and remove bias-inducing training points from tabular data.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, needs_model_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset", help="path to the CSV file")
        _shared_flags(p)
        if needs_model_flag:
            p.add_argument("--model", default=None,
                           help="trained model JSON (trains one when omitted)")
        return p

    cmd("load-check", "validate a CSV against its schema and summarize it")
    cmd("train", "train a model on the full dataset and save it")
    cmd("discrim", "measure individual discrimination of a model",
        needs_model_flag=True)
    cmd("rank", "rank training rows by influence on discriminatory pairs",
        needs_model_flag=True)
    cmd("debias", "iteratively remove harmful rows until discrimination stops improving")
    cmd("grid", "run the hyperparameter grid comparing full/sr/ours")
    rep = sub.add_parser("report", help="summarize grid output files")
    rep.add_argument("--out-dir", default=".")
    return ap


def _hp(args, n_rows: int) -> Hyperparameters:
    bs = args.batch_size if args.batch_size > 0 else nearest_power_of_two(n_rows / 10)
    return Hyperparameters(
        hidden1=args.hidden1, hidden2=args.hidden2, batch_size=bs,
        epochs=args.epochs, learning_rate=args.lr, weight_init_seed=args.seed,
    )


def _sim(args) -> SimilarityConfig:
    return SimilarityConfig(
        lam=args.lam, pool_multiplier=args.pool_multiplier, rng_seed=args.seed
    )


def _solver(args) -> SolverConfig:
    return SolverConfig(damping=args.damping, cg_tol=args.cg_tol)


def _load(args):
    return load_dataset(args.dataset, load_schema(args.schema))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _get_model(args, d):
    if getattr(args, "model", None):
        return load_model(args.model)
    return train(d, _hp(args, len(d)))


def cmd_load_check(args) -> int:
    d = _load(args)
    label_counts = {
        "positive": int(d.labels.sum()),
        "negative": int(len(d) - d.labels.sum()),
    }
    groups = None
    if d.group_values is not None:
        groups = {
            cat: int(sum(g == cat for g in d.group_values))
            for cat in d.sensitive_categories
        }
    _emit({
        "rows": len(d),
        "encoded_width": d.width,
        "columns": [{"name": n, "kind": k} for n, k in d.schema.columns],
        "label_counts": label_counts,
        "groups": groups,
        "derived_batch_sizes": list(derived_batch_sizes(len(d))),
    })
    return 0


def cmd_train(args) -> int:
    d = _load(args)
    m = train(d, _hp(args, len(d)))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "model.json"
    save_model(m, path)
    from .fairness import accuracy

    _emit({
        "model_path": str(path),
        "final_train_loss": m.final_train_loss,
        "train_accuracy": accuracy(m, d),
        "n_params": m.n_params,
    })
    return 0


def cmd_discrim(args) -> int:
    d = _load(args)
    m = _get_model(args, d)
    _emit(metrics_report(m, d, _sim(args)))
    return 0


def cmd_rank(args) -> int:
    solver = _solver(args)  # reject a bad solver flag before training
    d = _load(args)
    m = _get_model(args, d)
    sim = _sim(args)
    pool = generate_similar_pairs(d, sim, call_index=None)
    discm = discriminatory_pairs(m, pool)
    iset = build_influence_set(m, discm)
    ranking = rank_by_influence(iset, d, m, solver)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ranking.to_csv(out / "ranking.csv")
    ranking.save_diagnostics(out / "ranking_diagnostics.json")
    _emit({
        "pool_pairs": len(pool),
        "discriminatory_pairs": len(discm),
        "ranking_path": str(out / "ranking.csv"),
        "most_harmful": list(ranking.row_ids[:10]),
        "ranking_solve": ranking.solve_health(),
    })
    return 0


def cmd_debias(args) -> int:
    d = _load(args)
    cfg = DebiasConfig(
        similarity=_sim(args),
        hp=_hp(args, len(d)),
        solver=_solver(args),
        chunk_percent=args.chunk_percent,
        freeze_pool=args.freeze_pool,
    )
    debiased, report = debias_data(d, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    debiased.to_csv(out / "debiased.csv")
    report.save(out / "debias_report.json")
    _emit({
        "rows_before": len(d),
        "rows_after": len(debiased),
        "removed_row_ids": list(report.removed_row_ids),
        "stop_index": report.stop_index,
        "already_fair": report.already_fair,
        "loop_exhausted": report.loop_exhausted,
        "debiased_path": str(out / "debiased.csv"),
    })
    return 0


def cmd_grid(args) -> int:
    d = _load(args)
    spec = GridSpec(
        hidden1_choices=(args.hidden1,),
        hidden2_choices=(args.hidden2,),
        batch_sizes=(args.batch_size,) if args.batch_size > 0 else None,
        epochs=args.epochs,
        learning_rate=args.lr,
        lam=args.lam,
        pool_multiplier=args.pool_multiplier,
        chunk_percent=args.chunk_percent,
        solver=_solver(args),
        freeze_pool=args.freeze_pool,
        base_seed=args.seed,
        workers=args.workers,
    )
    result = run_grid(d, spec)
    paths = emit_reports(result, args.out_dir)
    _emit({
        "n_configs": len(result.records),
        "unfair_union_size": len(result.unfair_union),
        "picks": result.picks(),
        "reports": paths,
    })
    return 0


def cmd_report(args) -> int:
    out = Path(args.out_dir)
    summary_path = out / "summary.json"
    configs_path = out / "configs.csv"
    if not summary_path.exists() or not configs_path.exists():
        raise FileNotFoundError(f"no grid reports found under {out}")
    with open(summary_path) as fh:
        summary = json.load(fh)
    by_technique: dict[str, list[float]] = {}
    with open(configs_path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_technique.setdefault(row["technique"], []).append(
                float(row["discrimination"])
            )
    _emit({
        "picks": summary["picks"],
        "unfair_union_size": len(summary["unfair_union"]),
        "mean_discrimination": {
            tech: float(np.mean(v)) for tech, v in sorted(by_technique.items())
        },
    })
    return 0


_COMMANDS = {
    "load-check": cmd_load_check,
    "train": cmd_train,
    "discrim": cmd_discrim,
    "rank": cmd_rank,
    "debias": cmd_debias,
    "grid": cmd_grid,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FairtrimError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
