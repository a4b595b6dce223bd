"""Benchmark of fairtrim's pipeline: one workload per process, or all of them.

    python3 bench/run.py --workload debias-rank --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --trace 1
    python3 bench/run.py --write-spec

Run it from the repository root. One workload run sets up its inputs from
the seed for at least a second and at least five times (the median is
``setup_s``), then repeats the operation for ``--seconds`` seconds and
checks every output. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. ``--all`` runs every workload in a fresh process and prints a
table. ``--write-spec`` writes ``BENCHMARK.json``, the benchmark's
description, from ``SPEC`` below.

BLAS is pinned to one thread before numpy is imported: on two cores the
default thread count made identical runs differ by 15 % (see README.md).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "fairtrim" / "__init__.py").is_file():
    # measure the checkout's own code, never an installed copy
    sys.exit(f"{ROOT / 'src'} holds no fairtrim package")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the paths above)
from spans import Tracer, layer_metrics  # noqa: E402

# set-ups of 5 ms varied by 30 % between runs when timed 5 times, so set up
# for at least SETUP_SECONDS and at least SETUP_REPEATS times
SETUP_SECONDS, SETUP_REPEATS = 1.0, 5
OUT_DIR = Path(".bench_out")  # relative to the working directory

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "debias-rank", "why": "one debias_data call: the influence ranking is most of the run, the grid code is never called"},
        {"name": "grid-4cfg", "why": "the demo grid with one worker: experiment and repeated model.train carry much of the run"},
        {"name": "audit-pool", "why": "discrimination audit on 400k-pair pools: pool generation, batched predict and memory; no influence"},
    ],
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [],  # filled below
}

_HIGHER = {"influence.solves_converged", "debias.flips_removed"}
_PER_LAYER = (
    "influence.rank_s", "influence.solves", "influence.cg_iterations",
    "influence.solves_converged", "model.hvp_calls", "model.hvp_s",
    "model.per_example_grads_s", "model.train_s", "model.train_calls",
    "model.predict_s", "model.predict_rows", "debias.retrain_s", "debias.chunks",
    "debias.rows_removed", "debias.flips_removed", "experiment.phase_one_s",
    "experiment.report_s", "fairness.pool_s", "fairness.pool_pairs",
    "fairness.pool_bytes", "fairness.estimate_s", "fairness.estimate_calls",
    "fairness.discm_pairs", "data.load_s",
    "self.data_s", "self.model_s", "self.fairness_s", "self.influence_s",
    "self.debias_s", "self.experiment_s", "self.outside_s",
    "trace.run_s", "trace.overhead_s", "trace.spans",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_bytes") else "count"


SPEC["per_layer"] = [
    {"name": n, "unit": _unit(n), "better": "higher" if n in _HIGHER else "lower"}
    for n in _PER_LAYER
]


def _metrics(values: dict, spec_key: str) -> dict:
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[spec_key]
    }


class Operations:
    """Counts attempted and failed operations and checks each output."""

    def __init__(self, wl, inp):
        self.wl, self.inp = wl, inp
        self.attempted = self.failed = 0
        self.first = None

    def op(self, tracer: Tracer | None = None) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.run(self.inp)
            else:
                with tracer:
                    out = self.wl.run(self.inp)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        problems = self.wl.check(self.inp, out, self.first)
        if problems:
            self.failed += 1
            print(f"{self.wl.name}: check failed: " + "; ".join(problems), file=sys.stderr)
        if self.first is None:
            self.first = out
        return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    workdir = OUT_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _traced(wl, seed, seconds, workdir)
        return _untraced(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir)


def _untraced(wl, seed, seconds, workdir) -> dict:
    setup_times = []
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        inp = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    s = Operations(wl, inp)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(s.op())
    values = {
        "run_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    return _result(s, _metrics(values, "end_to_end"))


def _traced(wl, seed, seconds, workdir) -> dict:
    wl.setup(seed, workdir)  # the first set-up in a process pays one-time costs
    with Tracer() as setup_tracer:
        inp = wl.setup(seed, workdir)
    s = Operations(wl, inp)
    plain, traced, per_op = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(s.op())
        tracer = Tracer()
        traced.append(s.op(tracer))
        m = layer_metrics(tracer.spans, inp.flipped)
        top = sum(sp.duration for sp in tracer.spans if sp.parent is None)
        m["self.outside_s"] = traced[-1] - top
        per_op.append((m, tracer.spans))
    _write_spans(OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl", [sp for _, sp in per_op])
    values = {k: statistics.median(m[k] for m, _ in per_op) for k in per_op[0][0]}
    values["data.load_s"] = sum(
        sp.duration for sp in setup_tracer.spans if sp.name == "data.load_dataset"
    )
    values["trace.run_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return _result(s, _metrics(values, "per_layer"))


def _write_spans(path: Path, ops: list) -> None:
    """One JSON line per span; ``op`` numbers the traced operations."""
    with open(path, "w") as fh:
        for op, spans in enumerate(ops, start=1):
            for i, sp in enumerate(spans):
                attrs = {k: v for k, v in sp.attrs.items() if k != "removed"}
                fh.write(json.dumps({
                    "op": op, "id": i, "name": sp.name, "parent": sp.parent,
                    "start": sp.start, "end": sp.end, **attrs,
                }) + "\n")


def _result(s: Operations, metrics: dict) -> dict:
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process, then one table of the metrics."""
    code = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        code |= not res["correct"]
        status = f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"
        rows.append((name, "-", status, ""))
        for metric, v in res["metrics"].items():
            rows.append((name, metric, f"{v['value']:.6g}", v["unit"]))
    widths = [max(len(r[i]) for r in rows) for i in range(4)] if rows else [0] * 4
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(SPEC, fh, indent=2)
            fh.write("\n")
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        ap.error("give --workload, --all or --write-spec")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
