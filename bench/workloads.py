"""The benchmark's workloads: inputs from a seed, the timed operation, checks.

Each workload has three parts. ``setup`` makes the inputs from ``--seed``
and everything the operation only reads; its time is ``setup_s``. ``run`` is
the timed operation, a call of fairtrim's public functions; its time is
``run_s``. ``check`` tests the output (see checks.py) and returns a list of
problems. The operation is deterministic, so the first output of a run is
checked in full and every later one must equal it.

The programs are called through their modules (``debias.debias_data``,
not a name bound here at import), so the tracer's wrappers see each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import checks
from fairtrim import data, debias, experiment, fairness, influence, model, synthetic


@dataclass
class Inputs:
    """What ``setup`` made: the dataset, the planted flips, and extras."""

    d: object
    flipped: frozenset
    extra: dict


def _loans(workdir: Path, rows: int, data_seed: int, flip_rate: float) -> tuple:
    csv_path, schema_path = workdir / "loans.csv", workdir / "loans.schema.json"
    flipped = synthetic.write_loans(csv_path, schema_path, n=rows, seed=data_seed, flip_rate=flip_rate)
    d = data.load_dataset(csv_path, data.load_schema(schema_path))
    return d, frozenset(flipped)


# --- debias-rank ----------------------------------------------------------------
# One debias_data call with the CG solver. The influence ranking is most of
# the run and the grid code is never called. The loans data is fixed; the
# seed picks the similarity pools (the ranking's pool and every chunk's
# estimate pool), so each seed ranks against a different set of pairs while
# the amount of work stays close to the same. The removal loop stops after
# one chunk of 2 % (6 rows): uncapped, it ran 2 to 10 retrainings depending
# on the seed, which swamped the ranking's timing.

class DebiasRank:
    name = "debias-rank"
    ROWS, DATA_SEED, FLIP_RATE = 300, 0, 0.35
    HP = model.Hyperparameters(hidden1=16, hidden2=8, batch_size=32, epochs=300)
    POOL_MULTIPLIER, CHUNK_PERCENT, MAX_CHUNKS = 30, 2.0, 1

    def setup(self, seed: int, workdir: Path) -> Inputs:
        d, flipped = _loans(workdir, self.ROWS, self.DATA_SEED, self.FLIP_RATE)
        cfg = debias.DebiasConfig(
            similarity=fairness.SimilarityConfig(
                lam=0.0, pool_multiplier=self.POOL_MULTIPLIER, rng_seed=seed
            ),
            hp=self.HP,
            solver=influence.SolverConfig(method=influence.CG),
            chunk_percent=self.CHUNK_PERCENT,
            max_chunks=self.MAX_CHUNKS,
        )
        return Inputs(d, flipped, {"cfg": cfg})

    def run(self, inp: Inputs):
        return debias.debias_data(inp.d, inp.extra["cfg"])

    def check(self, inp: Inputs, out, first) -> list[str]:
        debiased, report = out
        if first is not None:
            same = (
                report.to_json() == first[1].to_json()
                and debiased.row_ids.tolist() == first[0].row_ids.tolist()
            )
            return [] if same else ["output differs from the run's first repetition"]
        cfg = inp.extra["cfg"]
        stop = report.stop_index
        retrained = model.train(debiased, cfg.hp)
        pool = fairness.generate_similar_pairs(inp.d, cfg.similarity, call_index=stop)
        return checks.debias_problems(
            inp.d, debiased, report, cfg.chunk_percent, inp.flipped,
            checks.flip_rate(retrained, pool),
        )


# --- grid-4cfg ------------------------------------------------------------------
# run_grid plus emit_reports on the demo's 4-config spec (one hidden size,
# the two derived batch sizes, two split seeds) with one worker. It is the
# only workload where the experiment layer and repeated model.train carry a
# large share of the run. The seed is the grid's base_seed, which seeds the
# weights and every config's pools. As in debias-rank, the removal loop
# stops after one chunk, so every seed trains exactly 20 models.

class Grid4Cfg:
    name = "grid-4cfg"
    ROWS, DATA_SEED, FLIP_RATE = 200, 0, 0.45

    def setup(self, seed: int, workdir: Path) -> Inputs:
        d, flipped = _loans(workdir, self.ROWS, self.DATA_SEED, self.FLIP_RATE)
        spec = experiment.GridSpec(
            hidden1_choices=(16,), hidden2_choices=(8,), batch_sizes=None,
            permutation_seeds=(0, 3), epochs=400, learning_rate=0.3,
            pool_multiplier=5, chunk_percent=10.0, max_chunks=1,
            solver=influence.SolverConfig(cg_max_iter=100),
            freeze_pool=True, workers=1, base_seed=seed,
        )
        return Inputs(d, flipped, {"spec": spec, "out_dir": workdir / "grid"})

    def run(self, inp: Inputs):
        result = experiment.run_grid(inp.d, inp.extra["spec"])
        paths = experiment.emit_reports(result, inp.extra["out_dir"])
        return result, paths

    def check(self, inp: Inputs, out, first) -> list[str]:
        result, paths = out
        reports = {name: Path(p).read_bytes() for name, p in paths.items()}
        first_reports = inp.extra.setdefault("first_reports", reports)
        spec = inp.extra["spec"]
        tests = {}
        for r in result.records:
            _, te = data.split(
                inp.d, data.SplitSpec(r.permutation_seed, train_fraction=spec.train_fraction)
            )
            tests[r.config_id] = te
        return checks.grid_problems(result, tests, reports, first_reports)


# --- audit-pool -----------------------------------------------------------------
# A model trained in setup, and the same model retrained without the
# sensitive column, are audited: discrimination on large pools (lam > 0, so
# two companions per seed point, plus one lam = 0 pool), accuracy and
# statistical parity. Pool generation, batched predict and memory dominate;
# the influence layer is never called. The seed picks the loans data and the
# pools; the work depends only on the sizes.

class AuditPool:
    name = "audit-pool"
    ROWS, FLIP_RATE = 2000, 0.35
    HP = model.Hyperparameters(hidden1=16, hidden2=8, batch_size=256, epochs=40, learning_rate=0.3)
    POOL_MULTIPLIER = 100
    # (key, model, lam, call index) of each discrimination estimate
    ESTIMATES = (
        ("full@0.1/0", "full", 0.1, 0),
        ("full@0.1/1", "full", 0.1, 1),
        ("full@0.1/2", "full", 0.1, 2),
        ("full@0.0/0", "full", 0.0, 0),
        ("sr@0.0/0", "sr", 0.0, 0),
    )

    def setup(self, seed: int, workdir: Path) -> Inputs:
        d, flipped = _loans(workdir, self.ROWS, seed, self.FLIP_RATE)
        full = model.train(d, self.HP)
        sr = model.mask_sensitive(model.train(data.drop_sensitive(d), self.HP), d)
        sims = {
            lam: fairness.SimilarityConfig(lam=lam, pool_multiplier=self.POOL_MULTIPLIER, rng_seed=seed)
            for lam in {e[2] for e in self.ESTIMATES}
        }
        return Inputs(d, flipped, {"models": {"full": full, "sr": sr}, "sims": sims})

    def run(self, inp: Inputs) -> dict:
        models, sims = inp.extra["models"], inp.extra["sims"]
        out = {"discrimination": {}, "accuracy": {}, "parity": {}}
        for key, name, lam, call in self.ESTIMATES:
            out["discrimination"][key] = fairness.estimate_discrim(
                models[name], inp.d, sims[lam], call_index=call
            )
        for name, m in models.items():
            out["accuracy"][name] = fairness.accuracy(m, inp.d)
            out["parity"][name] = fairness.statistical_parity_difference(m, inp.d)
        return out

    def check(self, inp: Inputs, out, first) -> list[str]:
        if first is not None:
            return [] if out == first else ["output differs from the run's first repetition"]
        models, sims = inp.extra["models"], inp.extra["sims"]
        problems = []
        # one pool at a time, so the check never holds more than the operation
        for key, name, lam, call in self.ESTIMATES:
            pool = fairness.generate_similar_pairs(inp.d, sims[lam], call_index=call)
            problems += checks.estimate_problems(
                key, out["discrimination"][key], models[name], pool, inp.d, lam
            )
        return problems + checks.scoring_problems(out, inp.d, models)


WORKLOADS = {w.name: w for w in (DebiasRank(), Grid4Cfg(), AuditPool())}
