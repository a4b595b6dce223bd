"""Two-hidden-layer tanh classifier with exact differential primitives.

Everything is float64 numpy, trained with plain mini-batch gradient descent.
Determinism contract: the parameter vector after training is a pure function
of (dataset bytes, hyperparameters); both the init stream and the per-epoch
shuffle stream are derived from ``weight_init_seed``.

There is one training loop, ``train_many``: it trains P models whose
datasets share a row count as one (P, n_params) stack, since they share the
hyperparameters, the shuffle and the batch boundaries, and each starts from
the init of its width: only the rows (and the width) differ. Each step is
one stacked forward pass, one backward pass and one in-place update, so
numpy's per-call cost is paid once for all P members, and each member is
bitwise what training it alone gives. ``train`` is P = 1.

That per-call cost is nearly all a step costs on such small arrays, so a
step allocates no array either: a ``_Workspace`` holds the parameter views
that stay fixed through a call and, per batch length (the full batch and a
short last one), the buffers every operation writes with ``out=``. The
2-class max and sum of the softmax are written out as one elementwise call
each, since an axis reduction pays that cost several times; they give the
bits of the reductions they replace.

The flat parameter layout (W1,b1,W2,b2,W3,b3) has one owner, the shape
table ``_shapes``: ``param_count`` sums it and ``_unpack`` cuts a vector
along it. Everything that reads or writes a parameter-sized vector, a row
of per-example gradients or a member of a training stack goes through
``_unpack`` views of it.

The Hessian-vector product uses the forward-over-reverse (Pearlmutter)
construction and never materializes the Hessian. The logit-gap Jacobian J is the one
per-example pass; a row's loss gradient is J's row times p1 - y. Gradients, HVPs and J
are checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .data import Dataset, kept_columns_after_drop, read_json, write_json
from .errors import DimensionMismatch, EmptyDataset, RangeError, is_integer, require_integers

N_CLASSES = 2
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1
MODEL_FORMAT = "fairtrim-model"
MODEL_FORMAT_VERSION = 1
# rows per forward pass in predict_proba: scoring memory beyond its input and
# output is set by this, not by the number of rows. At 16/8 hidden units one
# block's activations take about 0.9 MB, so they stay in a core's L2 cache
# from one elementwise pass (bias add, tanh, softmax) to the next; a larger
# block streams them from memory on every pass, a smaller one pays numpy's
# per-call cost more often
PREDICT_BLOCK_ROWS = 4096
# bytes of shuffled feature rows train_many gathers at a time, over all members:
# a small input's epoch is one gather, a large one's training memory stays
# bounded by this
GATHER_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class Hyperparameters:
    hidden1: int
    hidden2: int
    batch_size: int
    epochs: int = 1000
    learning_rate: float = 0.01
    weight_init_seed: int = 0

    def __post_init__(self):
        require_integers(self, "hidden1", "hidden2", "batch_size", "epochs", "weight_init_seed")
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise RangeError("hidden layer sizes must be >= 1")
        if self.batch_size < 1:
            raise RangeError("batch_size must be >= 1")
        if self.epochs < 0:
            raise RangeError("epochs must be >= 0")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise RangeError("learning_rate must be positive and finite")
        if self.weight_init_seed < 0:
            raise RangeError(f"weight_init_seed must be >= 0, got {self.weight_init_seed}")


def _shapes(d: int, h1: int, h2: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of W1, b1, W2, b2, W3, b3, in their order in the flat vector."""
    return (d, h1), (h1,), (h1, h2), (h2,), (h2, N_CLASSES), (N_CLASSES,)


def param_count(input_dim: int, hidden1: int, hidden2: int) -> int:
    return sum(math.prod(shape) for shape in _shapes(input_dim, hidden1, hidden2))


def _unpack(theta: np.ndarray, d: int, h1: int, h2: int):
    """Views into the flat parameter vector, layout W1,b1,W2,b2,W3,b3.

    A stack of vectors, shape (P, n_params), gives stacked views: W1 is then
    (P, d, h1) and b1 (P, h1), one slice per member.
    """
    lead, views, o = theta.shape[:-1], [], 0
    for shape in _shapes(d, h1, h2):
        size = math.prod(shape)
        views.append(theta[..., o : o + size].reshape(*lead, *shape))
        o += size
    return tuple(views)


@dataclass(frozen=True, eq=False)
class Model:
    input_dim: int
    hidden1: int
    hidden2: int
    theta: np.ndarray  # flat float64, see _unpack for layout
    final_train_loss: float | None = None

    def __post_init__(self):
        expected = param_count(self.input_dim, self.hidden1, self.hidden2)
        if self.theta.shape != (expected,):
            raise DimensionMismatch(
                f"theta has shape {self.theta.shape}, expected ({expected},)"
            )
        self.theta.setflags(write=False)

    @property
    def n_params(self) -> int:
        return self.theta.size

    def unpack(self):
        return _unpack(self.theta, self.input_dim, self.hidden1, self.hidden2)


def mask_sensitive(inner: Model, original: Dataset) -> Model:
    """A model trained after drop_sensitive(original), widened to original's columns.

    Its first-layer weight rows at the kept columns are ``inner``'s and its
    rows at the sensitive one-hot are zero; every other layer and the final
    loss are ``inner``'s. A sensitive column then adds exactly 0 to every
    unit, so flipping the one-hot changes no probability bit, and the model
    scores the same full-width pools as unmasked models.
    """
    keep = kept_columns_after_drop(original)
    if inner.input_dim != keep.size:
        raise DimensionMismatch(
            f"mask keeps {keep.size} columns but inner model expects {inner.input_dim}"
        )
    h1, h2 = inner.hidden1, inner.hidden2
    theta = np.zeros(param_count(original.width, h1, h2))
    W1, *rest = _unpack(theta, original.width, h1, h2)
    V1, *inner_rest = inner.unpack()
    W1[keep] = V1
    for W, V in zip(rest, inner_rest):
        W[...] = V
    return Model(original.width, h1, h2, theta, final_train_loss=inner.final_train_loss)


def _check_features(m: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"feature matrix has shape {X.shape}, model expects (*, {m.input_dim})"
        )
    return X


# --- forward / loss ---------------------------------------------------------

_CLASSES = np.arange(N_CLASSES)


class _Activations:
    """Forward-pass outputs over one batch; ``rows`` is its shape, stack axis included.

    ``a1_parts`` are the views of a1 at each of ``members``, the workspace's parts.
    """

    def __init__(self, rows: tuple[int, ...], h1: int, h2: int, members: list):
        self.a1 = np.empty((*rows, h1))
        self.a1_parts = [self.a1[m] for m in members]
        self.a2 = np.empty((*rows, h2))
        self.logp = np.empty((*rows, N_CLASSES))  # holds the logits until the softmax
        self.exp = np.empty((*rows, N_CLASSES))
        self.top = np.empty(rows)  # the larger logit, then the log of the exp sum
        self.a1T, self.a2T = self.a1.swapaxes(-1, -2), self.a2.swapaxes(-1, -2)
        self.logp_cols = self.logp[..., 0], self.logp[..., 1]
        self.exp_cols = self.exp[..., 0], self.exp[..., 1]
        self.top_col = self.top[..., None]


class _Deltas:
    """Backward-pass deltas over one batch: dz3 of the logits, then da2, dz2, da1, dz1.

    ``dz1_parts`` are the views of dz1 at each of ``members``, as in ``_Activations``.
    """

    def __init__(self, rows: tuple[int, ...], h1: int, h2: int, members: list):
        self.dz3 = np.empty((*rows, N_CLASSES))
        self.da2, self.dz2 = np.empty((*rows, h2)), np.empty((*rows, h2))
        self.da1, self.dz1 = np.empty((*rows, h1)), np.empty((*rows, h1))
        self.dz1_parts = [self.dz1[m] for m in members]


class _Workspace:
    """Reused memory of the forward and backward passes over one parameter stack.

    It holds the views that stay fixed while ``theta`` changes in place: the
    ``_unpack`` views of the parameters and of the gradient buffer, the
    broadcast biases and the transposed weights. Per batch length it holds
    the buffers each pass writes with ``out=``, so after the first step of a
    length no pass allocates an array. Every buffer is C-ordered like the
    fresh array it replaces, because the bits depend on the layout. Deltas
    are built only for a caller that backpropagates.

    ``parts`` lists each run of one width in a stack as (members, width),
    the members a slice of the stack (see ``train_many``); the default is
    one part, every member at width d. Per part the workspace keeps views of the
    members' first ``width`` rows of first-layer weights and of their
    gradient, and its buffers keep views of the members' a1 and dz1.
    """

    def __init__(
        self, theta: np.ndarray, d: int, h1: int, h2: int, grads: np.ndarray | None, parts=None
    ):
        self.params = _unpack(theta, d, h1, h2)
        W1, b1, W2, b2, W3, b3 = self.params
        self.biases = b1[..., None, :], b2[..., None, :], b3[..., None, :]
        self.W2T, self.W3T = W2.swapaxes(-1, -2), W3.swapaxes(-1, -2)
        self.grads = None if grads is None else _unpack(grads, d, h1, h2)
        parts = parts or [(..., d)]
        self._members = [members for members, _ in parts]
        # [..., :w, :] is a member's first w weight rows, stacked or not
        self.W1_parts = [W1[members][..., :w, :] for members, w in parts]
        if grads is not None:
            self.gW1_parts = [self.grads[0][members][..., :w, :] for members, w in parts]
        self._lead, self._h1, self._h2 = theta.shape[:-1], h1, h2
        self._activations, self._deltas = {}, {}

    def activations(self, rows: int) -> _Activations:
        if rows not in self._activations:
            self._activations[rows] = _Activations(
                (*self._lead, rows), self._h1, self._h2, self._members
            )
        return self._activations[rows]

    def deltas(self, rows: int) -> _Deltas:
        if rows not in self._deltas:
            self._deltas[rows] = _Deltas((*self._lead, rows), self._h1, self._h2, self._members)
        return self._deltas[rows]


def _workspace(m: Model, grads: np.ndarray | None = None) -> _Workspace:
    return _Workspace(m.theta, m.input_dim, m.hidden1, m.hidden2, grads)


def _forward(ws: _Workspace, X) -> _Activations:
    """Activations a1, a2 and class log-probabilities of the rows of X.

    X holds one array of rows per part of the workspace: (rows, d) for one
    model, (members, rows, width) with stacked parameters, where every output
    gains the leading (P,) axis. The outputs are ``ws`` buffers, which the
    next pass over as many rows overwrites. Each operation writes into them
    with ``out=``, and the 2-class max and sum are one elementwise call each
    instead of an axis reduction: on a training step's tiny arrays numpy's
    per-call cost is nearly the whole cost, and a reduction pays it several
    times. Both give the bits of ``z.max(axis=-1)`` and ``e.sum(axis=-1)``.
    """
    _, _, W2, _, W3, _ = ws.params
    c1, c2, c3 = ws.biases
    f = ws.activations(X[0].shape[-2])
    for X_part, W1_part, a1_part in zip(X, ws.W1_parts, f.a1_parts):  # a part's own shapes
        np.matmul(X_part, W1_part, out=a1_part)
    f.a1 += c1
    np.tanh(f.a1, out=f.a1)
    np.matmul(f.a1, W2, out=f.a2)
    f.a2 += c2
    np.tanh(f.a2, out=f.a2)
    z3 = f.logp
    np.matmul(f.a2, W3, out=z3)
    z3 += c3
    np.maximum(*f.logp_cols, out=f.top)
    z3 -= f.top_col  # the shifted logits
    np.exp(z3, out=f.exp)
    np.add(*f.exp_cols, out=f.top)
    np.log(f.top, out=f.top)
    z3 -= f.top_col
    return f


def _logp_blocks(m: Model, X: np.ndarray):
    """(rows, class log-probabilities) of checked X, PREDICT_BLOCK_ROWS rows at a time.

    One workspace serves every block of the call, so its buffers (one set for
    full blocks, one for a short last block) are allocated once; a block's
    log-probabilities are valid until the next block is made.
    """
    ws = _workspace(m)
    for start in range(0, X.shape[0], PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        yield rows, _forward(ws, (X[rows],)).logp


def predict_proba(m: Model, X: np.ndarray) -> np.ndarray:
    """(n, 2) class probabilities, computed PREDICT_BLOCK_ROWS rows at a time."""
    X = _check_features(m, X)
    p = np.empty((X.shape[0], N_CLASSES))
    for rows, logp in _logp_blocks(m, X):
        np.exp(logp, out=p[rows])
    return p


def predict_batch(m: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and winning-class probabilities (confidence >= 0.5).

    With two classes the label is one comparison, class 1 only where it
    beats class 0, and the confidence one elementwise maximum: the bits of
    ``argmax`` (ties go to class 0) and ``max`` over the class axis, without
    their axis reductions.
    """
    p = predict_proba(m, X)
    return (p[:, 1] > p[:, 0]).astype(np.int64), np.maximum(p[:, 0], p[:, 1])


def _batch(m: Model, X: np.ndarray, y: np.ndarray | None = None):
    """Checked float features and int labels of a non-empty batch for ``m``."""
    X = _check_features(m, X)
    if y is not None:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (X.shape[0],):
            raise DimensionMismatch(f"labels shape {y.shape} does not match {X.shape[0]} rows")
    if X.shape[0] == 0:
        raise EmptyDataset("losses and derivatives over an empty batch are undefined")
    return X, y


def mean_loss(m: Model, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the batch: each row's log-probability of its label,
    gathered block by block into one vector and summed once, over n. The sum
    sees the whole vector, so the loss does not depend on PREDICT_BLOCK_ROWS."""
    X, y = _batch(m, X, y)
    picked = np.empty(X.shape[0])
    for rows, logp in _logp_blocks(m, X):
        picked[rows] = logp[np.arange(logp.shape[0]), y[rows]]
    return float(-picked.sum() / X.shape[0])


# --- gradients --------------------------------------------------------------

def _onehot(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Float one-hot rows of the labels y, shape (*y.shape, 2)."""
    if out is None:
        out = np.empty((*y.shape, N_CLASSES))
    return np.equal(y[..., None], _CLASSES, out=out)


def _loss_delta(f: _Activations, onehot, b: _Deltas) -> np.ndarray:
    """Gradient of each row's cross-entropy in its logits, p - onehot(y), into b.dz3."""
    np.exp(f.logp, out=b.dz3)
    b.dz3 -= onehot
    return b.dz3


def _hidden_deltas(ws: _Workspace, f: _Activations, b: _Deltas) -> None:
    """Backpropagate b.dz3 through both tanh layers into b.da2, b.dz2, b.da1, b.dz1."""
    for dz_out, WT, da, a, dz in (
        (b.dz3, ws.W3T, b.da2, f.a2, b.dz2), (b.dz2, ws.W2T, b.da1, f.a1, b.dz1)
    ):
        np.matmul(dz_out, WT, out=da)
        np.multiply(a, a, out=dz)
        np.subtract(1.0, dz, out=dz)  # tanh'
        np.multiply(da, dz, out=dz)


def _backward(ws: _Workspace, X, onehot) -> None:
    """Gradient of the mean loss over the rows of X, written into ``ws.grads``.

    X is per part of the workspace, as in ``_forward``; ``onehot`` is
    ``_onehot`` of the rows' labels, (P, rows, 2) with stacked parameters.
    """
    f = _forward(ws, X)
    rows = f.a1.shape[-2]
    b = ws.deltas(rows)
    dz3 = _loss_delta(f, onehot, b)
    dz3 *= 1.0 / rows  # times 1/n, not / n: trained weights depend on the rounding
    _hidden_deltas(ws, f, b)
    _, gb1, gW2, gb2, gW3, gb3 = ws.grads
    for X_part, dz1_part, gW1_part in zip(X, b.dz1_parts, ws.gW1_parts):
        np.matmul(X_part.swapaxes(-1, -2), dz1_part, out=gW1_part)
    np.add.reduce(b.dz1, axis=-2, out=gb1)
    for aT, dz, gW, gb in ((f.a1T, b.dz2, gW2, gb2), (f.a2T, dz3, gW3, gb3)):
        np.matmul(aT, dz, out=gW)
        np.add.reduce(dz, axis=-2, out=gb)


def mean_grad(m: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy over the batch, shape (n_params,)."""
    X, y = _batch(m, X, y)
    g = np.empty(m.n_params)
    _backward(_workspace(m, g), (X,), _onehot(y))
    return g


def grad_loss(m: Model, x: np.ndarray, y: int) -> np.ndarray:
    """Gradient of one example's cross-entropy, shape (n_params,)."""
    X = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return mean_grad(m, X, np.asarray([y], dtype=np.int64))


def loss_residual(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss / d(z1 - z0) of each row, p1 - y; -p0 where y = 1, so no digits cancel."""
    return np.where(y == 1, -p[:, 0], p[:, 1])


def per_example_grads(m: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row i is grad_theta of example i's own loss, r_i * J[i]; shape (n, n_params)."""
    X, y = _batch(m, X, y)
    J, p = logit_gap_jacobian(m, X)
    return np.multiply(J, loss_residual(p, y)[:, None], out=J)  # in place: no second n x p array


def logit_gap_jacobian(m: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i of J is grad_theta (z1 - z0) of example i's logits.

    Returns J, shape (n, n_params), and the (n, 2) class probabilities. It is the one
    per-example backward pass: example i's loss gradient is loss_residual(p, y)[i] * J[i].
    """
    X, _ = _batch(m, X)
    ws = _workspace(m)
    f, b = _forward(ws, (X,)), ws.deltas(X.shape[0])
    b.dz3[:] = (-1.0, 1.0)
    _hidden_deltas(ws, f, b)
    J = np.empty((X.shape[0], m.n_params))
    gW1, gb1, gW2, gb2, gW3, gb3 = _unpack(J, m.input_dim, m.hidden1, m.hidden2)
    for a, dz, gW, gb in (
        (X, b.dz1, gW1, gb1), (f.a1, b.dz2, gW2, gb2), (f.a2, b.dz3, gW3, gb3)
    ):
        np.multiply(a[:, :, None], dz[:, None, :], out=gW)
        gb[...] = dz
    return J, np.exp(f.logp)


# --- Hessian-vector product -------------------------------------------------

def hvp(m: Model, v: np.ndarray, batch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """H @ v for the mean-loss Hessian over ``batch``, without forming H.

    Forward-over-reverse: propagate the directional tangent of every forward
    intermediate, then the tangent of every backward intermediate. Exact up
    to float64 rounding.
    """
    X, y = _batch(m, *batch)
    n = X.shape[0]
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n_params,):
        raise DimensionMismatch(f"v has shape {v.shape}, expected ({m.n_params},)")

    d, h1, h2 = m.input_dim, m.hidden1, m.hidden2
    W1, b1, W2, b2, W3, b3 = m.unpack()
    V1, c1, V2, c2, V3, c3 = _unpack(v, d, h1, h2)

    # forward pass and its tangent
    ws = _workspace(m)
    f = _forward(ws, (X,))
    a1, a2 = f.a1, f.a2
    p = np.exp(f.logp)
    s1 = 1.0 - a1 * a1  # tanh'
    s2 = 1.0 - a2 * a2
    Rz1 = X @ V1 + c1
    Ra1 = s1 * Rz1
    Rz2 = Ra1 @ W2 + a1 @ V2 + c2
    Ra2 = s2 * Rz2
    Rz3 = Ra2 @ W3 + a2 @ V3 + c3
    Rp = p * (Rz3 - (p * Rz3).sum(axis=1, keepdims=True))

    # backward pass and its tangent (mean loss: 1/n on the top delta)
    b = ws.deltas(n)
    dz3 = _loss_delta(f, _onehot(y), b)
    dz3 /= n
    _hidden_deltas(ws, f, b)
    da2, dz2, da1 = b.da2, b.dz2, b.da1

    out = np.empty(m.n_params)
    RgW1, Rgb1, RgW2, Rgb2, RgW3, Rgb3 = _unpack(out, d, h1, h2)
    Rdz3 = Rp / n
    RgW3[...] = Ra2.T @ dz3 + a2.T @ Rdz3
    Rgb3[...] = Rdz3.sum(axis=0)
    Rda2 = Rdz3 @ W3.T + dz3 @ V3.T
    Rdz2 = Rda2 * s2 - 2.0 * da2 * a2 * Ra2
    RgW2[...] = Ra1.T @ dz2 + a1.T @ Rdz2
    Rgb2[...] = Rdz2.sum(axis=0)
    Rda1 = Rdz2 @ W2.T + dz2 @ V2.T
    Rdz1 = Rda1 * s1 - 2.0 * da1 * a1 * Ra1
    RgW1[...] = X.T @ Rdz1
    Rgb1[...] = Rdz1.sum(axis=0)
    return out


# --- training ---------------------------------------------------------------

def _init_theta(input_dim: int, h1: int, h2: int, seed: int) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) for each layer's W and b."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    theta = np.empty(param_count(input_dim, h1, h2))
    W1, b1, W2, b2, W3, b3 = _unpack(theta, input_dim, h1, h2)
    for W, b in ((W1, b1), (W2, b2), (W3, b3)):
        bound = 1.0 / np.sqrt(W.shape[0])  # fan_in
        W[...] = rng.uniform(-bound, bound, size=W.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return theta


def _member_views(stack, j: int, member):
    """(member j's corner of a stack's wide view, its own ``member`` view), per parameter."""
    return [(W[j][tuple(map(slice, V.shape))], V) for W, V in zip(stack, member)]


def train_many(datasets: Sequence[Dataset], hp: Hyperparameters) -> list[Model]:
    """Train one model per dataset in a single stacked loop.

    The P members must have the same row count. They share ``hp``, the
    shuffle stream and the init of their width, so every step is one stacked
    forward pass, one backward pass and one in-place update over a
    (P, n_params) parameter stack, and member j comes out bitwise equal to
    ``train(datasets[j], hp)``.

    Members may differ in width, as a grid config's ``full`` and ``sr``
    trainings do (``sr`` lacks the sensitive one-hot columns). The stack then
    takes the widest layout, members in the caller's order, and a narrower
    member's first-layer weight rows past its width stay zero. Each run of
    consecutive members of one width is a part: its rows gather into a
    buffer of the part, and only the first-layer products, in the forward
    pass and in the weight gradient, run once per part, each on the shapes
    of the member's own ``train``: how BLAS sums a product depends on its
    shapes, so zero columns would change the last bits. Every other
    operation of a step stays one stacked call.

    A member whose weights or final loss come out non-finite (training
    diverged) raises RangeError.
    """
    if not datasets:
        raise EmptyDataset("no datasets to train")
    n = len(datasets[0])
    if any(len(d) != n for d in datasets):
        raise DimensionMismatch(
            f"stacked members need one row count, got {sorted({len(d) for d in datasets})}"
        )
    if n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    h1, h2 = hp.hidden1, hp.hidden2
    dim = max(d.width for d in datasets)
    parts, top = [], 0  # (stack slice, width) of each run of one width
    for w, run in groupby(d.width for d in datasets):
        count = len(list(run))
        parts.append((slice(top, top + count), w))
        top += count
    theta = np.zeros((len(datasets), param_count(dim, h1, h2)))
    stack = _unpack(theta, dim, h1, h2)
    for j, d in enumerate(datasets):
        init = _init_theta(d.width, h1, h2, hp.weight_init_seed)
        for W, V in _member_views(stack, j, _unpack(init, d.width, h1, h2)):
            W[...] = V
    g = np.zeros_like(theta)  # a narrow member's extra rows are never written
    ws = _Workspace(theta, dim, h1, h2, grads=g, parts=parts)

    # rows per gather: whole batches, as many as fit in GATHER_BLOCK_BYTES
    row_bytes = sum(d.width for d in datasets) * 8  # one float64 row of every member
    block = hp.batch_size * max(1, GATHER_BLOCK_BYTES // (hp.batch_size * row_bytes))
    # one gather's rows of every member (a buffer per part), their labels and
    # the labels' one-hot rows
    held = min(block, n)
    X_blocks = [np.empty((members.stop - members.start, held, w)) for members, w in parts]
    y_block = np.empty((len(datasets), held), dtype=np.int64)
    hot_block = np.empty((len(datasets), held, N_CLASSES))
    shuffle = np.random.default_rng([hp.weight_init_seed, _SHUFFLE_STREAM])
    # a diverging step overflows: the finite checks below decide, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            perm = shuffle.permutation(n)
            for first in range(0, n, block):
                rows = perm[first : first + block]
                k = rows.size
                X_rows = [X[:, :k] for X in X_blocks]
                y_rows, hot = y_block[:, :k], hot_block[:, :k]
                for d, X_j, y_j in zip(datasets, chain.from_iterable(X_rows), y_rows):
                    # rows come from a permutation, so always in range; "clip" writes
                    # straight into out where "raise" would gather into a temporary
                    d.encoded.take(rows, axis=0, out=X_j, mode="clip")
                    d.labels.take(rows, out=y_j, mode="clip")
                _onehot(y_rows, out=hot)
                for start in range(0, k, hp.batch_size):
                    batch = slice(start, start + hp.batch_size)
                    _backward(ws, [X[:, batch] for X in X_rows], hot[:, batch])
                    g *= hp.learning_rate
                    theta -= g

    out = []
    for j, d in enumerate(datasets):
        theta_j = np.empty(param_count(d.width, h1, h2))
        for W, V in _member_views(stack, j, _unpack(theta_j, d.width, h1, h2)):
            V[...] = W
        m = Model(d.width, h1, h2, theta=theta_j)
        if not np.isfinite(m.theta).all():
            # a nan model predicts class 0 everywhere, so it would read as perfectly fair
            raise RangeError(
                f"training diverged: member {j} has non-finite weights "
                f"(learning_rate {hp.learning_rate})"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            loss = mean_loss(m, d.encoded, d.labels)
        if not np.isfinite(loss):
            raise RangeError(f"training diverged: member {j} has final loss {loss}")
        out.append(replace(m, final_train_loss=loss))
    return out


def train(d: Dataset, hp: Hyperparameters) -> Model:
    """Mini-batch gradient descent on mean cross-entropy: ``train_many`` of one.

    Training starts from the init of ``d``'s width. One epoch = one fresh
    permutation of the rows split into consecutive batches (last batch may
    be short). Both streams are derived from weight_init_seed, so retraining
    is bit-reproducible.
    """
    return train_many([d], hp)[0]


# --- persistence ------------------------------------------------------------

def save_model(m: Model, path: str | Path) -> None:
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "input_dim": m.input_dim,
        "hidden1": m.hidden1,
        "hidden2": m.hidden2,
        "activation": "tanh",
        "final_train_loss": m.final_train_loss,
        "theta": m.theta.tolist(),  # repr-exact floats, round-trips bitwise
    }
    write_json(path, obj)


def _is_json_number(value) -> bool:
    """A JSON number float64 holds: not true or "0.123", which numpy would read
    as numbers, nor an integer past float64's range, which it cannot read."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def load_model(path: str | Path) -> Model:
    obj = read_json(path, DimensionMismatch)
    if not (
        isinstance(obj, dict)
        and obj.get("format") == MODEL_FORMAT
        and obj.get("version") == MODEL_FORMAT_VERSION
    ):
        raise DimensionMismatch(
            f"{path} is not a version-{MODEL_FORMAT_VERSION} {MODEL_FORMAT} file"
        )
    if obj.get("activation") != "tanh":
        raise RangeError(f"unsupported activation {obj.get('activation')!r}")
    names = ("input_dim", "hidden1", "hidden2")
    sizes = [obj.get(name) for name in names]
    if not all(is_integer(size) for size in sizes):  # not 3.9, true or "4"
        raise DimensionMismatch(f"{path} has layer sizes {sizes}, not JSON integers")
    for name, size in zip(names, sizes):
        if size < 1:
            raise DimensionMismatch(f"{path} has {name} {size}, not a layer size >= 1")
    theta = obj.get("theta")
    if not (isinstance(theta, list) and all(_is_json_number(v) for v in theta)):
        raise DimensionMismatch(
            f"{path} has a theta that is not a list of JSON numbers in float64's range"
        )
    try:
        m = Model(
            *sizes,
            theta=np.asarray(theta, dtype=np.float64),
            final_train_loss=obj["final_train_loss"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{path} has a missing or malformed field: {exc}") from exc
    loss = m.final_train_loss
    if loss is not None and not (_is_json_number(loss) and np.isfinite(loss)):
        raise DimensionMismatch(f"{path} has final_train_loss {loss!r}, not null or finite")
    if not np.isfinite(m.theta).all():
        # a nan model predicts class 0 everywhere, so it would read as perfectly fair
        raise RangeError(f"{path} has non-finite weights")
    return m
