"""Command-line entry point.

Every subcommand prints a JSON object on stdout and exits 0 on success: each
``cmd_*`` returns that object and ``main`` prints it.
Expected failures print one JSON object {"error": <type>, "message": ...} on
stderr and exit 2 (domain errors) or 1 (file/OS errors, and a request too
large to allocate, as "MemoryError").

Each subcommand accepts only the flag groups ``_COMMANDS`` lists for it,
each group declared once in ``_FLAG_GROUPS``; the README's command table
shows them.

rank and debias rank the rows through the same ``debias.sort_dataset``, so
with the same flags they produce the same order. On a model that already
discriminates on no pair, debias reports ``already_fair`` and rank exits 2
with ``AlreadyFair``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .data import load_dataset, load_schema
from .debias import DebiasConfig, debias_data, sort_dataset
from .errors import FairtrimError, RangeError
from .experiment import GridSpec, derived_batch_sizes, emit_reports, run_grid, summarize_reports
from .fairness import SimilarityConfig, accuracy, metrics_report
from .influence import SolverConfig
from .model import Hyperparameters, load_model, save_model, train


# Flag groups, each declared once; a subcommand gets exactly the groups it reads.
_FLAG_GROUPS = {
    "dataset": (("dataset", dict(help="path to the CSV file")),),
    "schema": (("--schema", dict(required=True, help="path to the schema JSON sidecar")),),
    "hyperparameters": (
        ("--seed", dict(type=int, default=Hyperparameters.weight_init_seed,
                        help="weight init seed; also seeds the pair pool where one is drawn")),
        ("--hidden1", dict(type=int, default=16)),
        ("--hidden2", dict(type=int, default=8)),
        ("--batch-size", dict(type=int, default=0,
                              help="0 derives the nearest power of two to rows/10")),
        ("--epochs", dict(type=int, default=Hyperparameters.epochs)),
        ("--lr", dict(type=float, default=Hyperparameters.learning_rate)),
    ),
    "pool": (
        ("--lambda", dict(dest="lam", type=float, default=SimilarityConfig.lam,
                          help="numeric similarity radius in [0, 1]")),
        ("--pool-multiplier", dict(type=int, default=SimilarityConfig.pool_multiplier)),
    ),
    "solver": (
        ("--damping", dict(type=float, default=SolverConfig.damping)),
        ("--cg-tol", dict(type=float, default=SolverConfig.cg_tol)),
    ),
    "loop": (
        ("--chunk-percent", dict(type=float, default=DebiasConfig.chunk_percent)),
        ("--freeze-pool", dict(action="store_true")),
    ),
    "out-dir": (("--out-dir", dict(default=".")),),
    "model": (("--model", dict(help="trained model JSON (trains one when omitted)")),),
    "workers": (("--workers", dict(type=int, default=GridSpec.workers)),),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fairtrim",
        description="Find and remove bias-inducing training points from tabular data.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, groups) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for group in groups:
            for flag, kwargs in _FLAG_GROUPS[group]:
                p.add_argument(flag, **kwargs)
    return ap


def _batch_size(args) -> int | None:
    """--batch-size, or None for 0, which asks for a size derived from the rows."""
    if args.batch_size < 0:
        raise RangeError(f"--batch-size must be >= 0 (0 derives one), got {args.batch_size}")
    return args.batch_size or None


def _hp(args, n_rows: int) -> Hyperparameters:
    bs = _batch_size(args) or derived_batch_sizes(n_rows)[0]
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
    """The dataset; a command that draws pools (it takes the pool flags)
    refuses one with no sensitive column here, before it trains."""
    d = load_dataset(args.dataset, load_schema(args.schema))
    if "pool" in _COMMANDS[args.command][2]:
        d.sensitive_block  # raises SensitiveAbsent
    return d


def _out_dir(args) -> Path:
    """--out-dir, created with its parents if missing."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _get_model(args, d):
    if args.model:
        return load_model(args.model)
    return train(d, _hp(args, len(d)))


def cmd_load_check(args) -> dict:
    d = _load(args)
    label_counts = {
        "positive": int(d.labels.sum()),
        "negative": int(len(d) - d.labels.sum()),
    }
    groups = None
    if d.schema.sensitive is not None:  # rows per group: the sums of the one-hot's columns
        counts = d.encoded[:, d.sensitive_block].sum(axis=0)
        groups = {cat: int(c) for cat, c in zip(d.sensitive_categories, counts)}
    return {
        "rows": len(d),
        "encoded_width": d.width,
        "columns": [{"name": n, "kind": k} for n, k in d.schema.columns],
        "label_counts": label_counts,
        "groups": groups,
        "derived_batch_sizes": list(derived_batch_sizes(len(d))),
    }


def cmd_train(args) -> dict:
    d = _load(args)
    m = train(d, _hp(args, len(d)))
    path = _out_dir(args) / "model.json"
    save_model(m, path)
    return {
        "model_path": str(path),
        "final_train_loss": m.final_train_loss,
        "train_accuracy": accuracy(m, d),
        "n_params": m.n_params,
    }


def cmd_discrim(args) -> dict:
    sim = _sim(args)  # reject a bad pool flag before training
    d = _load(args)
    return metrics_report(_get_model(args, d), d, sim)


def cmd_rank(args) -> dict:
    sim, solver = _sim(args), _solver(args)  # reject a bad flag before training
    d = _load(args)
    ranking = sort_dataset(d, _get_model(args, d), sim, solver)
    out = _out_dir(args)
    ranking.to_csv(out / "ranking.csv")
    ranking.save_diagnostics(out / "ranking_diagnostics.json")
    return {
        "pool_pairs": ranking.influence_set.pool_pairs,
        "discriminatory_pairs": len(ranking.influence_set),
        "ranking_path": str(out / "ranking.csv"),
        "most_harmful": list(ranking.row_ids[:10]),
        "ranking_solve": ranking.solve_health(),
    }


def cmd_debias(args) -> dict:
    d = _load(args)
    cfg = DebiasConfig(
        similarity=_sim(args),
        hp=_hp(args, len(d)),
        solver=_solver(args),
        chunk_percent=args.chunk_percent,
        freeze_pool=args.freeze_pool,
    )
    debiased, report = debias_data(d, cfg)
    out = _out_dir(args)
    debiased.to_csv(out / "debiased.csv")
    report.save(out / "debias_report.json")
    return {
        "rows_before": len(d),
        "rows_after": len(debiased),
        **report.outcome(),
        "debiased_path": str(out / "debiased.csv"),
    }


def cmd_grid(args) -> dict:
    d = _load(args)
    bs = _batch_size(args)
    spec = GridSpec(
        hidden1_choices=(args.hidden1,),
        hidden2_choices=(args.hidden2,),
        batch_sizes=None if bs is None else (bs,),
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
    return {
        "n_configs": len(result.records),
        "unfair_union_size": len(result.unfair_union),
        "picks": result.picks(),
        "reports": paths,
    }


def cmd_report(args) -> dict:
    return summarize_reports(args.out_dir)


# command -> (handler, help, flag groups); the commands that train share _TRAINING
_TRAINING = ("dataset", "schema", "hyperparameters")
_COMMANDS = {
    "load-check": (cmd_load_check, "validate a CSV against its schema and summarize it",
                   ("dataset", "schema")),
    "train": (cmd_train, "train a model on the full dataset and save it",
              _TRAINING + ("out-dir",)),
    "discrim": (cmd_discrim, "measure individual discrimination of a model",
                _TRAINING + ("pool", "model")),
    "rank": (cmd_rank, "rank training rows by influence on discriminatory pairs",
             _TRAINING + ("pool", "solver", "out-dir", "model")),
    "debias": (cmd_debias,
               "iteratively remove harmful rows until discrimination stops improving",
               _TRAINING + ("pool", "solver", "loop", "out-dir")),
    "grid": (cmd_grid, "run the hyperparameter grid comparing full/sr/ours",
             _TRAINING + ("pool", "solver", "loop", "out-dir", "workers")),
    "report": (cmd_report, "summarize grid output files", ("out-dir",)),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = _COMMANDS[args.command][0](args)
    except (FairtrimError, OSError, ValueError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; name the public class
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        json.dump({"error": name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, FairtrimError) else 1
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
