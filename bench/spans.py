"""Spans around the public functions of each fairtrim layer.

The tracer replaces a function with a timing wrapper in every ``fairtrim``
module that binds it, because modules such as ``fairtrim.debias`` import
``train`` by name and look it up in their own namespace. Each call becomes a
span (name, start, end, parent, attributes). Spans stay in memory; the
benchmark turns them into per-layer metrics and writes them out at the end
of the run. Nothing inside ``src/`` is changed, and ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


def _pool_attrs(args, kwargs, pool):
    return {"pairs": len(pool), "bytes": pool.first.nbytes + pool.second.nbytes}


def _rank_attrs(args, kwargs, ranking):
    return {
        "solves": len(ranking.solves),
        "converged": sum(s.converged for s in ranking.solves),
        "iterations": sum(s.iterations for s in ranking.solves),
    }


def _debias_attrs(args, kwargs, result):
    _, report = result
    return {
        "removed": list(report.removed_row_ids),
        "chunks": max(len(report.trace) - 1, 0),
    }


# module -> (function name, attribute extractor or None); span names are
# "<module>.<function>", and the module name is the span's layer.
TRACED = {
    "data": (("load_dataset", None), ("split", None), ("drop_sensitive", None)),
    "model": (
        ("train", None),
        ("hvp", None),
        ("grad_loss", None),
        ("per_example_grads", None),
        ("predict_batch", lambda a, k, r: {"rows": int(a[1].shape[0])}),
        ("mask_sensitive", None),
    ),
    "fairness": (
        ("generate_similar_pairs", _pool_attrs),
        ("discriminatory_pairs", lambda a, k, r: {"pairs": len(r)}),
        ("build_influence_set", None),
        ("estimate_discrim", None),
        ("accuracy", None),
        ("statistical_parity_difference", None),
    ),
    "influence": (("rank_by_influence", _rank_attrs), ("inverse_hvp_detailed", None)),
    "debias": (("debias_data", _debias_attrs), ("sort_dataset", None), ("drop_first", None)),
    "experiment": (("run_grid", None), ("_phase_one", None), ("emit_reports", None)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers; ``spans`` holds every finished call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attr_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attr_fn is not None:
                span.attrs = attr_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "fairtrim"]
        for short, funcs in TRACED.items():
            home = sys.modules[f"fairtrim.{short}"]
            for fname, attr_fn in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, attr_fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - c
    return out


def layer_metrics(spans: list[Span], flipped: frozenset[int] = frozenset()) -> dict:
    """Per-layer figures of one traced operation (times in s, bytes in MiB)."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key):  # a call that raised has no attributes
        return sum(s.attrs.get(key, 0) for s in named(name))

    runs = named("debias.debias_data")
    pools = named("fairness.generate_similar_pairs")
    # the first training inside a debias run is the full model, later ones
    # are the removal loop's retrains
    retrain = 0.0
    for i, s in enumerate(spans):
        if s.name == "debias.debias_data":
            trains = [t for t in spans if t.name == "model.train" and t.parent == i]
            retrain += sum(t.duration for t in trains[1:])
    removed = [rid for s in runs for rid in s.attrs.get("removed", ())]
    m = {
        "influence.rank_s": total("influence.rank_by_influence"),
        "influence.solves": attr_sum("influence.rank_by_influence", "solves"),
        "influence.cg_iterations": attr_sum("influence.rank_by_influence", "iterations"),
        "influence.solves_converged": attr_sum("influence.rank_by_influence", "converged"),
        "model.hvp_calls": len(named("model.hvp")),
        "model.hvp_s": total("model.hvp"),
        "model.per_example_grads_s": total("model.per_example_grads"),
        "model.train_s": total("model.train"),
        "model.train_calls": len(named("model.train")),
        "model.predict_s": total("model.predict_batch"),
        "model.predict_rows": attr_sum("model.predict_batch", "rows"),
        "debias.retrain_s": retrain,
        "debias.chunks": attr_sum("debias.debias_data", "chunks"),
        "debias.rows_removed": len(removed),
        "debias.flips_removed": sum(rid in flipped for rid in removed),
        "experiment.phase_one_s": total("experiment._phase_one"),
        "experiment.report_s": total("experiment.emit_reports"),
        "fairness.pool_s": total("fairness.generate_similar_pairs"),
        "fairness.pool_pairs": attr_sum("fairness.generate_similar_pairs", "pairs"),
        "fairness.pool_bytes": max((s.attrs.get("bytes", 0) for s in pools), default=0) / 2**20,
        "fairness.estimate_s": total("fairness.estimate_discrim"),
        "fairness.estimate_calls": len(named("fairness.estimate_discrim")),
        "fairness.discm_pairs": attr_sum("fairness.discriminatory_pairs", "pairs"),
        "trace.spans": len(spans),
    }
    selfs = self_times(spans)
    for layer in TRACED:
        m[f"self.{layer}_s"] = selfs.get(layer, 0.0)
    return m
