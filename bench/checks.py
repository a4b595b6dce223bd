"""Correctness checks on each workload's output.

Every check returns a list of problems (empty when the output is right). The
checks test properties the method must have, or recompute a figure with code
of the benchmark's own, such as the forward pass below; none compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# the flat parameter layout of fairtrim.model: W1, b1, W2, b2, W3, b3
N_CLASSES = 2
BLOCK_ROWS = 65536  # rows per forward-pass block, so checks stay small in memory


def _layers(theta, d, h1, h2):
    sizes = (d * h1, h1, h1 * h2, h2, h2 * N_CLASSES, N_CLASSES)
    parts = np.split(np.asarray(theta), np.cumsum(sizes)[:-1])
    W1, b1, W2, b2, W3, b3 = parts
    return W1.reshape(d, h1), b1, W2.reshape(h1, h2), b2, W3.reshape(h2, N_CLASSES), b3


def forward_labels(model, X: np.ndarray) -> np.ndarray:
    """Predicted class of each row, from the model's parameters alone.

    Works for a plain model and for one that sees only the columns ``keep``
    of full-width vectors. The class is the larger logit; softmax does not
    change which one that is.
    """
    if hasattr(model, "keep"):
        return forward_labels(model.inner, np.asarray(X)[:, model.keep])
    W1, b1, W2, b2, W3, b3 = _layers(model.theta, model.input_dim, model.hidden1, model.hidden2)
    out = np.empty(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], BLOCK_ROWS):
        a1 = np.tanh(X[lo : lo + BLOCK_ROWS] @ W1 + b1)
        a2 = np.tanh(a1 @ W2 + b2)
        z = a2 @ W3 + b3
        out[lo : lo + BLOCK_ROWS] = (z[:, 1] > z[:, 0]).astype(np.int64)
    return out


def flip_rate(model, pool) -> float:
    """Share of the pool's pairs whose two members get different labels."""
    flips = int(np.count_nonzero(forward_labels(model, pool.first) != forward_labels(model, pool.second)))
    return flips / len(pool)


def pool_problems(pool, d, lam: float) -> list[str]:
    """The pair contract: sensitive block swapped, numerics within +-lam in [0, 1]."""
    out = []
    sens = d.sensitive_block
    first, second = pool.first, pool.second
    if not np.array_equal(second[:, sens], first[:, sens][:, ::-1]):
        out.append("second member's sensitive block is not the first's swapped")
    for codec in d.encoding.codecs:
        a, b = first[:, codec.start : codec.stop], second[:, codec.start : codec.stop]
        if codec.name == d.schema.sensitive:
            continue
        if codec.kind != "numeric" or lam == 0.0:
            if not np.array_equal(a, b):
                out.append(f"column {codec.name} differs between the members of a pair")
        # a rounding step of slack: (v + lam) - v can exceed lam by an ulp
        elif np.any(np.abs(b - a) > lam + 1e-12) or np.any(b < 0.0) or np.any(b > 1.0):
            out.append(f"column {codec.name} drifts beyond +-{lam} or leaves [0, 1]")
    return out


def parity(labels: np.ndarray, groups, categories) -> float:
    g = np.asarray(groups)
    rates = [float(labels[g == c].mean()) for c in categories]
    return abs(rates[0] - rates[1])


# --- audit-pool ---------------------------------------------------------------

def estimate_problems(key: str, value: float, m, pool, d, lam: float) -> list[str]:
    """One discrimination estimate: its pool's contract and its value."""
    problems = [f"{key}: {p}" for p in pool_problems(pool, d, lam)]
    own = flip_rate(m, pool)
    if own != value:
        problems.append(f"{key}: discrimination {value!r}, the benchmark's forward pass gives {own!r}")
    if hasattr(m, "keep") and lam == 0.0 and value != 0.0:
        problems.append(f"{key}: a model without the sensitive column discriminates ({value!r})")
    return problems


def scoring_problems(out: dict, d, models: dict) -> list[str]:
    """Accuracy and parity of each model, recomputed from its predictions."""
    problems = []
    for name, m in models.items():
        labels = forward_labels(m, d.encoded)
        acc = float(np.mean(labels == d.labels))
        spd = parity(labels, d.group_values, d.sensitive_categories)
        if acc != out["accuracy"][name]:
            problems.append(f"{name}: accuracy {out['accuracy'][name]!r}, recomputed {acc!r}")
        if spd != out["parity"][name]:
            problems.append(f"{name}: parity {out['parity'][name]!r}, recomputed {spd!r}")
    return problems


# --- debias-rank --------------------------------------------------------------

def removal_count(i: int, chunk_percent: float, n: int) -> int:
    return int(math.ceil(i * chunk_percent / 100.0 * n))


def debias_problems(d, debiased, report, chunk_percent: float, flipped, retrained_discm) -> list[str]:
    """``retrained_discm`` is the discrimination of a fresh model trained on
    ``debiased``, measured on the pool of the trace's stop entry."""
    problems = []
    ranking = report.ranking
    if ranking is None:
        return ["no ranking: the input model was already fair"]
    n = len(d)
    ids = [e.row_id for e in ranking.entries]
    scores = [e.score for e in ranking.entries]
    if sorted(ids) != sorted(int(r) for r in d.row_ids) or len(set(ids)) != n:
        problems.append("ranking is not a permutation of the input row ids")
    for (s0, r0), (s1, r1) in zip(zip(scores, ids), zip(scores[1:], ids[1:])):
        if s1 < s0 or (s1 == s0 and r1 < r0):
            problems.append(f"ranking out of order at row {r0} -> {r1}")
            break

    stop = report.stop_index
    prefix = tuple(ids[: removal_count(stop, chunk_percent, n)])
    if tuple(report.removed_row_ids) != prefix:
        problems.append("removed_row_ids is not the ranking prefix for the stop index")
    removed = set(report.removed_row_ids)
    keep = [i for i, r in enumerate(d.row_ids) if int(r) not in removed]
    if (
        debiased.row_ids.tolist() != d.row_ids[keep].tolist()
        or not np.array_equal(debiased.encoded, d.encoded[keep])
        or not np.array_equal(debiased.labels, d.labels[keep])
    ):
        problems.append("returned dataset is not the input minus exactly the removed rows")

    trace = [t.discrimination for t in report.trace]
    if [t.chunk_index for t in report.trace] != list(range(len(trace))):
        problems.append("trace chunk indices are not 0, 1, 2, ...")
    if [t.rows_removed for t in report.trace] != [
        removal_count(t.chunk_index, chunk_percent, n) for t in report.trace
    ]:
        problems.append("trace rows_removed disagrees with the chunk sizes")
    if stop >= len(trace):
        problems.append(f"stop index {stop} lies outside a {len(trace)}-entry trace")
        return problems
    if any(b >= a for a, b in zip(trace[: stop + 1], trace[1 : stop + 1])):
        problems.append("trace does not fall strictly up to the stop")
    if not report.loop_exhausted:
        if stop + 1 >= len(trace) or trace[stop + 1] < min(trace[: stop + 1]):
            problems.append("the entry that ended the loop is lower than the minimum before it")
    if retrained_discm != trace[stop]:
        problems.append(
            f"retraining on the returned dataset gives {retrained_discm!r}, "
            f"the trace says {trace[stop]!r}"
        )
    if removed:
        flips = set(flipped)
        share_removed = len(removed & flips) / len(removed)
        share_data = sum(int(r) in flips for r in d.row_ids) / n
        if not share_removed > share_data:
            problems.append(
                f"planted flips are {share_removed:.3f} of the removed rows "
                f"but {share_data:.3f} of the data"
            )
    return problems


# --- grid-4cfg ----------------------------------------------------------------

def grid_problems(result, test_sets: dict, reports: dict, first_reports: dict) -> list[str]:
    """``test_sets`` maps config_id to its test split, recomputed by the
    benchmark; ``reports`` and ``first_reports`` map report names to the
    bytes of this repetition's files and of the run's first repetition's."""
    problems = []
    union = set()
    for r in result.records:
        union.update(r.removed_row_ids)
    if tuple(result.unfair_union) != tuple(sorted(union)):
        problems.append("unfair_union is not the sorted union of the removed ids")
    for r in result.records:
        test = test_sets[r.config_id]
        if r.test_rows != len(test):
            problems.append(f"{r.config_id}: test_rows {r.test_rows}, split gives {len(test)}")
        left = sum(int(x) not in union for x in test.row_ids)
        if r.debiased_test_rows != (left or None):
            problems.append(
                f"{r.config_id}: debiased_test_rows {r.debiased_test_rows}, recomputed {left}"
            )
        if r.metrics["sr"].discrimination != 0.0:
            problems.append(
                f"{r.config_id}: sensitive-dropped model discriminates "
                f"({r.metrics['sr'].discrimination!r}) at lam = 0"
            )
    for name, data in reports.items():
        if data != first_reports[name]:
            problems.append(f"report {name} differs from the run's first repetition")
    return problems
