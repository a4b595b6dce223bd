"""Hyperparameter-grid experiments comparing three trainings per config.

Per grid config (hidden sizes x batch size x split permutation seed):

* ``full``: trained on the train split as-is;
* ``sr``:   trained after dropping the sensitive column, evaluated through a
            feature mask so it lives in the original space;
* ``ours``: trained on the debiased train split (influence-ranked removal).

``full`` and ``ours`` are the models the removal loop trained while removing
rows, so each config trains them once.

Configs run in shape groups: the configs that differ only in permutation
seed share hidden sizes, batch size, train-split size and the weight seed,
so their trainings take the same steps. Each group trains its ``sr`` models in one
``train_many`` call and debiases its configs in one ``debias_group`` loop,
which trains the members' ``full`` and chunk models together. ``workers``
spreads groups over processes; with more workers than groups, each group's
seeds are cut into runs so that every worker has a group to train.

Phase one measures each model's individual discrimination on synthetic
pools from the config's train split. Phase two pools the unfair rows found
across configs, filters them out of every test split, scores accuracy and
statistical parity on that shared debiased test set, and builds each
config's record once. The metric names are the fields of TechniqueMetrics.

``emit_reports`` writes the files named in ``REPORT_FILES``, byte-stable
across reruns of the same spec; ``summarize_reports`` reads them back.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby, product
from pathlib import Path

import numpy as np

from .data import Dataset, SplitSpec, drop_sensitive, split
from .debias import DebiasConfig, debias_group
from .errors import EmptyResult, MalformedReport, RangeError, require_integers
from .fairness import SimilarityConfig, accuracy_and_parity, estimate_discrim
from .influence import SolverConfig
from .model import Hyperparameters, mask_sensitive, train_many

TECHNIQUES = ("full", "sr", "ours")


def nearest_power_of_two(x: float) -> int:
    """Power of two with least linear distance to x; ties round up."""
    if x < 1.0:
        return 1
    lo = 2 ** int(math.floor(math.log2(x)))
    hi = lo * 2
    return lo if (x - lo) < (hi - x) else hi


def derived_batch_sizes(n_rows: int) -> tuple[int, ...]:
    """Nearest powers of two to n/10 and n/20, deduplicated in that order."""
    sizes = [nearest_power_of_two(n_rows / 10), nearest_power_of_two(n_rows / 20)]
    out = []
    for s in sizes:
        if s not in out:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class GridSpec:
    """Axes and shared settings of a grid run.

    Every setting a config passes on takes the library's default from the
    class that owns it (SplitSpec, Hyperparameters, SimilarityConfig,
    SolverConfig, DebiasConfig), so a grid run and a single ``debias`` run
    agree unless told otherwise. ``loop`` is the DebiasConfig every config
    passes on, but for its own hp and pool seed; it is built with the spec,
    so a bad loop or pool setting fails before anything trains.
    """

    hidden1_choices: tuple[int, ...] = (16, 24)
    hidden2_choices: tuple[int, ...] = (8,)
    batch_sizes: tuple[int, ...] | None = None  # None: derive from dataset size
    permutation_seeds: tuple[int, ...] = (0, 1)
    train_fraction: float = SplitSpec.train_fraction
    epochs: int = Hyperparameters.epochs
    learning_rate: float = Hyperparameters.learning_rate
    lam: float = SimilarityConfig.lam
    pool_multiplier: int = SimilarityConfig.pool_multiplier
    chunk_percent: float = DebiasConfig.chunk_percent
    max_chunks: int = DebiasConfig.max_chunks
    solver: SolverConfig = SolverConfig()
    freeze_pool: bool = DebiasConfig.freeze_pool
    base_seed: int = 0
    workers: int = 1
    loop: DebiasConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.hidden1_choices and self.hidden2_choices and self.permutation_seeds):
            raise RangeError("grid axes must be non-empty")
        for name in ("hidden1_choices", "hidden2_choices", "batch_sizes", "permutation_seeds"):
            values = getattr(self, name) or ()
            if len(set(values)) != len(values):
                raise RangeError(f"{name} repeats a value: {values}")
        require_integers(self, "workers", "base_seed")
        if self.workers < 1:
            raise RangeError("workers must be >= 1")
        if self.base_seed < 0:
            raise RangeError(f"base_seed must be >= 0, got {self.base_seed}")
        object.__setattr__(self, "loop", DebiasConfig(
            similarity=SimilarityConfig(lam=self.lam, pool_multiplier=self.pool_multiplier),
            hp=Hyperparameters(  # the first config's; each shape group sets its own
                hidden1=self.hidden1_choices[0], hidden2=self.hidden2_choices[0],
                batch_size=(self.batch_sizes or (1,))[0], epochs=self.epochs,
                learning_rate=self.learning_rate, weight_init_seed=self.base_seed,
            ),
            solver=self.solver, chunk_percent=self.chunk_percent,
            max_chunks=self.max_chunks, freeze_pool=self.freeze_pool,
        ))
        # every axis value passes its owning class's checks now, not when its
        # shape group starts after the earlier groups have trained
        batch_sizes = self.batch_sizes or (self.loop.hp.batch_size,)
        for h1, h2, bs in product(self.hidden1_choices, self.hidden2_choices, batch_sizes):
            replace(self.loop.hp, hidden1=h1, hidden2=h2, batch_size=bs)
        for seed in self.permutation_seeds:
            SplitSpec(permutation_seed=seed, train_fraction=self.train_fraction)

    @classmethod
    def full_scale(cls, **overrides) -> "GridSpec":
        """The full 3x2x(2 derived batches)x20 = 240-config grid."""
        base = dict(
            hidden1_choices=(16, 24, 32),
            hidden2_choices=(8, 12),
            batch_sizes=None,
            permutation_seeds=tuple(range(20)),
        )
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class TechniqueMetrics:
    discrimination: float
    accuracy: float | None  # None when this config's test rows all got filtered
    parity: float | None


METRICS = tuple(f.name for f in fields(TechniqueMetrics))


@dataclass(frozen=True)
class ConfigRecord:
    config_id: str
    hidden1: int
    hidden2: int
    batch_size: int
    permutation_seed: int
    train_rows: int
    test_rows: int
    debiased_test_rows: int | None
    removed_row_ids: tuple[int, ...]
    stop_index: int
    already_fair: bool
    loop_exhausted: bool
    metrics: dict  # technique -> TechniqueMetrics


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    records: tuple[ConfigRecord, ...]
    unfair_union: tuple[int, ...]

    def picks(self) -> dict:
        """Best config by each criterion, judged on the debiased model.

        Tie-breaks (documented contract): least discrimination prefers higher
        accuracy, then lexicographic config_id; highest accuracy prefers
        lower discrimination, then config_id; least parity prefers higher
        accuracy, then config_id. Configs with no surviving test rows are
        skipped for accuracy/parity picks, and configs whose test rows lack a
        group (parity None) for the parity pick.
        """
        if not self.records:
            raise EmptyResult("no experiment records to aggregate")
        out = {}
        for name, (needs, key) in _PICKS.items():
            qualified = [r for r in self.records if getattr(r.metrics["ours"], needs) is not None]
            best = min(
                qualified, key=lambda r: (*key(r.metrics["ours"]), r.config_id), default=None
            )
            out[name] = None if best is None else _pick_view(best)
        return out


# pick -> (the ``ours`` metric a config needs to qualify, sort key on its
# ``ours`` metrics); config_id breaks what ties are left. Accuracy is None
# only where parity is, too.
_PICKS = {
    "least_discrimination": ("discrimination", lambda m: (
        m.discrimination, math.inf if m.accuracy is None else -m.accuracy,
    )),
    "highest_accuracy": ("accuracy", lambda m: (-m.accuracy, m.discrimination)),
    "least_parity": ("parity", lambda m: (m.parity, -m.accuracy)),
}


def _pick_view(r: ConfigRecord) -> dict:
    return {
        "config_id": r.config_id,
        "metrics": {tech: asdict(m) for tech, m in r.metrics.items()},
    }


def unfair_points_union(removals: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Sorted union of unfair row_ids found across configs."""
    out: set[int] = set()
    for ids in removals:
        out.update(ids)
    return tuple(sorted(out))


def debiased_test_set(test: Dataset, unfair: tuple[int, ...]) -> Dataset | None:
    """``test`` without the ``unfair`` rows, or None when no row is left."""
    out = test.without_row_ids(set(unfair))
    return out if len(out) else None


def _config_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _enumerate_configs(d: Dataset, spec: GridSpec):
    batches = spec.batch_sizes or derived_batch_sizes(len(d))
    combos = list(
        product(spec.hidden1_choices, spec.hidden2_choices, batches, spec.permutation_seeds)
    )
    return [
        (i, f"h{h1}-h{h2}-b{bs}-p{ps}", h1, h2, bs, ps)
        for i, (h1, h2, bs, ps) in enumerate(combos)
    ]


# DebiasReport attributes a ConfigRecord carries under the same names
_OUTCOME = ("removed_row_ids", "stop_index", "already_fair", "loop_exhausted")


def _phase_one(args):
    """Train sr and debias one shape group; full and ours are the reports' models.

    The group's configs share hidden sizes and batch size, so one stacked
    training gives every sr model and one removal loop debiases them all.
    Returns, per config in the group's order, the report's ``_OUTCOME``
    fields, the train-split size, the test split, the models and their
    discrimination by technique.
    """
    d, spec, group = args
    _, _, h1, h2, bs, _ = group[0]
    hp = replace(spec.loop.hp, hidden1=h1, hidden2=h2, batch_size=bs)
    splits = [
        split(d, SplitSpec(permutation_seed=ps, train_fraction=spec.train_fraction))
        for *_, ps in group
    ]
    sims = [
        replace(spec.loop.similarity, rng_seed=_config_seed(spec.base_seed, index))
        for index, *_ in group
    ]
    srs = train_many([drop_sensitive(tr) for tr, _ in splits], hp)
    reports = debias_group([
        (tr, replace(spec.loop, similarity=sim, hp=hp)) for (tr, _), sim in zip(splits, sims)
    ])

    out = []
    for (tr, te), sim, sr, (_, report) in zip(splits, sims, srs, reports):
        models = {"full": report.full_model, "sr": mask_sensitive(sr, tr), "ours": report.model}
        # final pools: call indices past anything the removal loop used
        discrimination = {
            tech: estimate_discrim(models[tech], tr, sim, call_index=spec.max_chunks + 1 + j)
            for j, tech in enumerate(TECHNIQUES)
        }
        outcome = {name: getattr(report, name) for name in _OUTCOME}
        out.append((outcome, len(tr), te, models, discrimination))
    return out


def _shape_groups(configs, workers: int) -> list[list]:
    """The configs' shape groups in config order, as jobs for ``workers``.

    With fewer groups than workers, each group is cut into runs of consecutive
    seeds so that every worker has a job; otherwise a group stays whole and
    trains as one stack.
    """
    # the seed is the innermost axis, so each shape's configs are consecutive
    groups = [list(group) for _, group in groupby(configs, key=lambda c: c[2:5])]
    parts = -(-workers // len(groups))
    out = []
    for group in groups:
        size = -(-len(group) // parts)
        out.extend(group[i : i + size] for i in range(0, len(group), size))
    return out


def run_grid(d: Dataset, spec: GridSpec) -> ExperimentResult:
    configs = _enumerate_configs(d, spec)
    jobs = [(d, spec, part) for part in _shape_groups(configs, spec.workers)]
    workers = min(spec.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_phase_one, jobs))
    else:
        grouped = [_phase_one(j) for j in jobs]
    results = [r for group in grouped for r in group]  # config order

    union = unfair_points_union([outcome["removed_row_ids"] for outcome, *_ in results])

    records = []
    for config, (outcome, train_rows, test, models, discm) in zip(configs, results):
        _, config_id, h1, h2, bs, ps = config
        dtest = debiased_test_set(test, union)
        scores = {
            t: (None, None) if dtest is None else accuracy_and_parity(models[t], dtest)
            for t in TECHNIQUES
        }
        records.append(ConfigRecord(
            config_id=config_id, hidden1=h1, hidden2=h2, batch_size=bs, permutation_seed=ps,
            train_rows=train_rows, test_rows=len(test),
            debiased_test_rows=None if dtest is None else len(dtest),
            metrics={t: TechniqueMetrics(discm[t], *scores[t]) for t in TECHNIQUES},
            **outcome,
        ))
    return ExperimentResult(records=tuple(records), unfair_union=union)


# --- report files -----------------------------------------------------------

REPORT_FILES = {"configs": "configs.csv", "boxplot": "boxplot.csv", "summary": "summary.json"}

_CONFIG_COLUMNS = (
    "config_id", "hidden1", "hidden2", "batch_size", "permutation_seed",
    "technique", *METRICS,
    "train_rows", "test_rows", "debiased_test_rows",
    "removed_count", "stop_index", "already_fair", "loop_exhausted",
)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)  # shortest round-trip form keeps files byte-stable
    return str(v)


def write_config_csv(result: ExperimentResult, path: str | Path) -> None:
    """One row per (config, technique), each from one field mapping."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CONFIG_COLUMNS)
        for r in result.records:
            config_fields = dict(asdict(r), removed_count=len(r.removed_row_ids))
            for tech in TECHNIQUES:
                row = dict(config_fields, technique=tech, **asdict(r.metrics[tech]))
                w.writerow([_cell(row[c]) for c in _CONFIG_COLUMNS])


def write_boxplot_csv(result: ExperimentResult, path: str | Path) -> None:
    """Five-number summaries per technique and metric across configs."""
    rows = []
    for tech in TECHNIQUES:
        for metric in METRICS:
            vals = [
                getattr(r.metrics[tech], metric)
                for r in result.records
                if getattr(r.metrics[tech], metric) is not None
            ]
            if not vals:
                continue
            q = np.quantile(np.asarray(vals, dtype=np.float64), [0.0, 0.25, 0.5, 0.75, 1.0])
            rows.append([tech, metric] + [repr(float(x)) for x in q])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("technique", "metric", "min", "q1", "median", "q3", "max"))
        w.writerows(rows)


def write_summary_json(result: ExperimentResult, path: str | Path) -> None:
    obj = {
        "n_configs": len(result.records),
        "unfair_union": list(result.unfair_union),
        "picks": result.picks(),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def emit_reports(result: ExperimentResult, out_dir: str | Path) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in REPORT_FILES.items()}
    write_config_csv(result, paths["configs"])
    write_boxplot_csv(result, paths["boxplot"])
    write_summary_json(result, paths["summary"])
    return {k: str(v) for k, v in paths.items()}


def summarize_reports(out_dir: str | Path) -> dict:
    """Picks, union size and mean discrimination per technique, read back
    from the reports under ``out_dir``. Raises FileNotFoundError when a file
    is missing and MalformedReport when one lacks or garbles a field this reads."""
    out = Path(out_dir)
    summary_path = out / REPORT_FILES["summary"]
    configs_path = out / REPORT_FILES["configs"]
    if not summary_path.exists() or not configs_path.exists():
        raise FileNotFoundError(f"no grid reports found under {out}")
    with open(summary_path) as fh:
        summary = json.load(fh)
    if not (isinstance(summary, dict) and {"picks", "unfair_union"} <= summary.keys()):
        raise MalformedReport(f"{summary_path} needs the fields picks and unfair_union")
    if not isinstance(summary["unfair_union"], list):
        raise MalformedReport(f"{summary_path}: unfair_union must be a list of row ids")
    by_technique: dict[str, list[float]] = {}
    with open(configs_path, newline="") as fh:
        rows = csv.DictReader(fh)
        if not {"technique", "discrimination"} <= set(rows.fieldnames or ()):
            raise MalformedReport(f"{configs_path} needs the columns technique and discrimination")
        for row in rows:
            try:
                disc = float(row["discrimination"])
            except (TypeError, ValueError) as exc:
                raise MalformedReport(f"{configs_path} line {rows.line_num}: {exc}") from exc
            by_technique.setdefault(row["technique"], []).append(disc)
    return {
        "picks": summary["picks"],
        "unfair_union_size": len(summary["unfair_union"]),
        "mean_discrimination": {
            tech: float(np.mean(v)) for tech, v in sorted(by_technique.items())
        },
    }
