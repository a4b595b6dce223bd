"""Training determinism plus gradient/HVP correctness against finite differences.

The finite-difference helpers here are the independent oracles for the
analytic backward pass and the forward-over-reverse Hessian-vector product;
they recompute everything from the loss alone. The ``ref_*`` functions are
the allocate-per-step forward, backward and training loop that the model's
reused workspace replaced; the model must give their bits exactly.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrim.data import SplitSpec, load_dataset, split
from fairtrim.errors import DimensionMismatch, EmptyDataset, RangeError
from fairtrim.model import (
    _SHUFFLE_STREAM,
    Hyperparameters,
    Model,
    _init_theta,
    _unpack,
    grad_loss,
    hvp,
    load_model,
    logit_gap_jacobian,
    loss_residual,
    mask_sensitive,
    mean_grad,
    mean_loss,
    param_count,
    per_example_grads,
    predict_batch,
    predict_proba,
    save_model,
    train,
    train_many,
)
from fairtrim.synthetic import loans_schema, write_loans


def random_problem(seed, n=6, dim=5, h1=4, h2=3):
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 0.6, size=param_count(dim, h1, h2))
    m = Model(input_dim=dim, hidden1=h1, hidden2=h2, theta=theta)
    X = rng.random((n, dim))
    y = rng.integers(0, 2, size=n)
    return m, X, y


def fd_hvp(m, v, X, y, h=1e-5):
    """Central finite differences of the gradient along direction v."""
    base = m.theta.copy()
    gp = mean_grad(replace(m, theta=base + h * v), X, y)
    gm = mean_grad(replace(m, theta=base - h * v), X, y)
    return (gp - gm) / (2 * h)


# --- reference passes -------------------------------------------------------
# Fresh arrays on every call, axis reductions and a boolean-mask loss delta:
# the arithmetic the workspace must reproduce bit for bit.

def ref_forward(params, X):
    W1, b1, W2, b2, W3, b3 = params
    z1 = X @ W1 + b1[..., None, :]
    a1 = np.tanh(z1)
    z2 = a1 @ W2 + b2[..., None, :]
    a2 = np.tanh(z2)
    z3 = a2 @ W3 + b3[..., None, :]
    shift = z3 - z3.max(axis=-1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    return a1, a2, logp


def ref_loss_delta(logp, y):
    dz3 = np.exp(logp)
    dz3[y[..., None] == np.arange(2)] -= 1.0
    return dz3


def ref_hidden_deltas(dz3, a1, a2, W2, W3):
    dz2 = (dz3 @ W3.swapaxes(-1, -2)) * (1.0 - a2 * a2)
    dz1 = (dz2 @ W2.swapaxes(-1, -2)) * (1.0 - a1 * a1)
    return dz2, dz1


def ref_backward(params, X, y, grads):
    W1, b1, W2, b2, W3, b3 = params
    a1, a2, logp = ref_forward(params, X)
    dz3 = ref_loss_delta(logp, y)
    dz3 *= 1.0 / X.shape[-2]
    dz2, dz1 = ref_hidden_deltas(dz3, a1, a2, W2, W3)
    gW1, gb1, gW2, gb2, gW3, gb3 = grads
    for a, dz, gW, gb in ((X, dz1, gW1, gb1), (a1, dz2, gW2, gb2), (a2, dz3, gW3, gb3)):
        np.matmul(a.swapaxes(-1, -2), dz, out=gW)
        dz.sum(axis=-2, out=gb)


def ref_per_example(m, X, dz3):
    params = m.unpack()
    a1, a2, _ = ref_forward(params, X)
    dz2, dz1 = ref_hidden_deltas(dz3, a1, a2, params[2], params[4])
    out = np.empty((X.shape[0], m.n_params))
    gW1, gb1, gW2, gb2, gW3, gb3 = _unpack(out, m.input_dim, m.hidden1, m.hidden2)
    for a, dz, gW, gb in ((X, dz1, gW1, gb1), (a1, dz2, gW2, gb2), (a2, dz3, gW3, gb3)):
        gW[...] = a[:, :, None] * dz[:, None, :]
        gb[...] = dz
    return out


def ref_train_many(datasets, hp, inits=None):
    """Parameter vectors and final mean losses of the stacked loop, one epoch per gather."""
    n, dim, h1, h2 = len(datasets[0]), datasets[0].width, hp.hidden1, hp.hidden2
    if inits is None:
        theta = np.tile(_init_theta(dim, h1, h2, hp.weight_init_seed), (len(datasets), 1))
    else:
        theta = np.stack([init.theta for init in inits])
    g = np.empty_like(theta)
    params, grads = _unpack(theta, dim, h1, h2), _unpack(g, dim, h1, h2)
    shuffle = np.random.default_rng([hp.weight_init_seed, _SHUFFLE_STREAM])
    for _ in range(hp.epochs):
        perm = shuffle.permutation(n)
        X_rows = np.stack([d.encoded[perm] for d in datasets])
        y_rows = np.stack([d.labels[perm] for d in datasets])
        for start in range(0, n, hp.batch_size):
            batch = slice(start, start + hp.batch_size)
            ref_backward(params, X_rows[:, batch], y_rows[:, batch], grads)
            g *= hp.learning_rate
            theta -= g
    losses = []
    for theta_j, d in zip(theta, datasets):
        _, _, logp = ref_forward(_unpack(theta_j, dim, h1, h2), d.encoded)
        losses.append(float(-logp[np.arange(n), d.labels].mean()))
    return theta, losses


# --- shapes and validation --------------------------------------------------

def test_param_count_matches_layout():
    m, _, _ = random_problem(0)
    W1, b1, W2, b2, W3, b3 = m.unpack()
    total = sum(a.size for a in (W1, b1, W2, b2, W3, b3))
    assert total == m.n_params == param_count(5, 4, 3)


def test_model_rejects_wrong_theta_size():
    with pytest.raises(DimensionMismatch):
        Model(input_dim=5, hidden1=4, hidden2=3, theta=np.zeros(7))


def test_hyperparameters_validation():
    with pytest.raises(RangeError):
        Hyperparameters(0, 8, 4)
    with pytest.raises(RangeError):
        Hyperparameters(16, 8, 0)
    with pytest.raises(RangeError):
        Hyperparameters(16, 8, 4, learning_rate=0.0)


@pytest.mark.parametrize(
    "field", ["hidden1", "hidden2", "batch_size", "epochs", "weight_init_seed"]
)
def test_hyperparameters_reject_non_integral_sizes(field):
    base = dict(hidden1=16, hidden2=8, batch_size=4, epochs=3, weight_init_seed=0)
    Hyperparameters(**dict(base, **{field: np.int64(2)}))  # numpy ints pass
    for bad in (2.5, True):
        with pytest.raises(RangeError):
            Hyperparameters(**dict(base, **{field: bad}))


def test_predict_rejects_wrong_width():
    m, X, _ = random_problem(1)
    with pytest.raises(DimensionMismatch):
        predict_batch(m, X[:, :3])


def test_loss_rejects_empty_batch():
    m, X, y = random_problem(2)
    with pytest.raises(EmptyDataset):
        mean_loss(m, X[:0], y[:0])


@pytest.mark.parametrize(
    "fn",
    [
        mean_loss,
        mean_grad,
        per_example_grads,
        lambda m, X, y: hvp(m, np.zeros(m.n_params), (X, y)),
    ],
    ids=["mean_loss", "mean_grad", "per_example_grads", "hvp"],
)
def test_label_count_must_match_rows(fn):
    m, X, y = random_problem(2)
    with pytest.raises(DimensionMismatch):
        fn(m, X, y[:-1])


# --- prediction basics ------------------------------------------------------

def test_probabilities_sum_to_one_and_confidence_majority():
    m, X, _ = random_problem(3, n=40)
    p = predict_proba(m, X)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    labels, conf = predict_batch(m, X)
    assert np.all(conf >= 0.5)
    assert np.all((labels == 0) | (labels == 1))
    np.testing.assert_array_equal(conf, p[np.arange(len(X)), labels])
    lab0, conf0 = predict_batch(m, X[:1])  # a one-row batch agrees with the full one
    assert lab0[0] == labels[0] and conf0[0] == pytest.approx(conf[0])


def test_extreme_logits_are_stable():
    # logits around (-10, 10): probability of the winner ~ 1 - 2e-9
    dim, h1, h2 = 2, 2, 2
    theta = np.zeros(param_count(dim, h1, h2))
    m = Model(dim, h1, h2, theta=theta)
    W1, b1, W2, b2, W3, b3 = m.unpack()
    t = m.theta.copy()
    t[-2:] = [-10.0, 10.0]  # b3
    m = replace(m, theta=t)
    p = predict_proba(m, np.zeros((1, dim)))
    assert p[0, 1] == pytest.approx(1.0 - 2.061153622438558e-09, rel=1e-6)
    assert np.isfinite(p).all()


# --- gradient oracle --------------------------------------------------------

def test_grad_matches_finite_differences_many_models(fd_grad):
    worst = 0.0
    for seed in range(10):
        m, X, y = random_problem(seed)
        g = mean_grad(m, X, y)
        fd = fd_grad(m, X, y)
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(g - fd) / denom)
    assert worst < 1e-6


def test_grad_loss_is_single_row_mean_grad():
    m, X, y = random_problem(4)
    np.testing.assert_allclose(
        grad_loss(m, X[0], int(y[0])), mean_grad(m, X[:1], y[:1]), atol=1e-15
    )


def test_per_example_grads_average_to_mean_grad():
    m, X, y = random_problem(5, n=9)
    G = per_example_grads(m, X, y)
    assert G.shape == (9, m.n_params)
    np.testing.assert_allclose(G.mean(axis=0), mean_grad(m, X, y), atol=1e-12)


def test_per_example_grads_rows_are_single_row_mean_grads():
    # mean_grad backpropagates p - onehot(y) through the mean-loss pass, not the Jacobian
    m, X, y = random_problem(6, n=9)
    G = per_example_grads(m, X, y)
    for i in range(len(X)):
        np.testing.assert_allclose(G[i], mean_grad(m, X[i : i + 1], y[i : i + 1]), atol=1e-15)


def test_loss_residual_keeps_the_digits_of_a_confident_positive():
    p = np.array([[0.25, 0.75], [0.6, 0.4], [1e-20, 1.0]])
    y = np.array([1, 0, 1])
    # p1 - y would round the last row to 0 and drop its gradient
    np.testing.assert_array_equal(loss_residual(p, y), [-0.25, 0.4, -1e-20])


# (rows, input width, hidden1, hidden2)
SHAPES = [(1, 1, 1, 1), (7, 5, 4, 3), (40, 12, 16, 8)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_one_shot_passes_are_the_reference_bits(shape):
    n, dim, h1, h2 = shape
    m, X, y = random_problem(sum(shape), n=n, dim=dim, h1=h1, h2=h2)
    _, _, logp = ref_forward(m.unpack(), X)
    assert predict_proba(m, X).tobytes() == np.exp(logp).tobytes()
    g = np.empty(m.n_params)
    ref_backward(m.unpack(), X, y, _unpack(g, dim, h1, h2))
    assert mean_grad(m, X, y).tobytes() == g.tobytes()
    J, p = logit_gap_jacobian(m, X)
    J_ref = ref_per_example(m, X, np.tile([-1.0, 1.0], (n, 1)))
    assert J.tobytes() == J_ref.tobytes()
    assert p.tobytes() == np.exp(logp).tobytes()
    G = loss_residual(np.exp(logp), y)[:, None] * J_ref
    assert per_example_grads(m, X, y).tobytes() == G.tobytes()


@pytest.mark.parametrize("fn", [
    lambda m, X, y: predict_proba(m, X),
    mean_grad,
    per_example_grads,
], ids=["predict_proba", "mean_grad", "per_example_grads"])
def test_results_own_their_memory(fn):
    # a result that viewed a reused buffer would change under the next call
    m, X, y = random_problem(8, n=5)
    first = fn(m, X, y)
    kept = first.copy()
    second = fn(m, X[::-1] * 2.0, 1 - y)
    assert first.tobytes() == kept.tobytes()
    assert not np.array_equal(first, second)
    assert not np.shares_memory(first, second)


# --- HVP oracle -------------------------------------------------------------

def test_hvp_matches_finite_differenced_gradients():
    worst = 0.0
    for seed in range(8):
        m, X, y = random_problem(seed)
        rng = np.random.default_rng(seed + 1000)
        v = rng.standard_normal(m.n_params)
        hv = hvp(m, v, (X, y))
        fd = fd_hvp(m, v, X, y)
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(hv - fd) / denom)
    assert worst < 1e-5


def test_hvp_linearity():
    m, X, y = random_problem(6)
    rng = np.random.default_rng(42)
    v, w = rng.standard_normal((2, m.n_params))
    a, b = 0.7, -2.3
    lhs = hvp(m, a * v + b * w, (X, y))
    rhs = a * hvp(m, v, (X, y)) + b * hvp(m, w, (X, y))
    scale = max(np.linalg.norm(rhs), 1e-12)
    assert np.linalg.norm(lhs - rhs) / scale < 1e-12


def test_hvp_symmetry():
    m, X, y = random_problem(7)
    rng = np.random.default_rng(43)
    v, w = rng.standard_normal((2, m.n_params))
    lhs = float(w @ hvp(m, v, (X, y)))
    rhs = float(v @ hvp(m, w, (X, y)))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hvp_matches_fd_property(seed):
    m, X, y = random_problem(seed, n=4, dim=3, h1=3, h2=2)
    v = np.random.default_rng(seed + 1).standard_normal(m.n_params)
    hv = hvp(m, v, (X, y))
    fd = fd_hvp(m, v, X, y)
    assert np.linalg.norm(hv - fd) / max(np.linalg.norm(fd), 1e-9) < 1e-4


# --- training ---------------------------------------------------------------

def test_training_is_deterministic(toy):
    hp = Hyperparameters(6, 4, 4, epochs=50, learning_rate=0.1, weight_init_seed=5)
    a = train(toy, hp)
    b = train(toy, hp)
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.final_train_loss == b.final_train_loss


def test_training_seed_changes_weights(toy):
    hp0 = Hyperparameters(6, 4, 4, epochs=10, weight_init_seed=0)
    hp1 = Hyperparameters(6, 4, 4, epochs=10, weight_init_seed=1)
    assert train(toy, hp0).theta.tobytes() != train(toy, hp1).theta.tobytes()


def test_training_reduces_loss(toy):
    hp = Hyperparameters(8, 4, 7, epochs=300, learning_rate=0.5, weight_init_seed=0)
    m0 = Model(toy.width, 8, 4, _init_theta(toy.width, 8, 4, 0))
    m = train(toy, hp)
    assert m.final_train_loss < mean_loss(m0, toy.encoded, toy.labels)


def test_init_bounds_follow_fan_in():
    theta = _init_theta(9, 4, 3, 0)
    m = Model(9, 4, 3, theta)
    W1, b1, W2, b2, W3, b3 = m.unpack()
    assert np.abs(W1).max() <= 1 / 3  # 1/sqrt(9)
    assert np.abs(W2).max() <= 1 / 2  # 1/sqrt(4)
    assert np.abs(W3).max() <= 1 / np.sqrt(3)


def test_warm_start_width_mismatch(toy):
    hp = Hyperparameters(6, 4, 4, epochs=1)
    m = train(toy, hp)
    narrower = Model(2, 6, 4, _init_theta(2, 6, 4, 0))
    with pytest.raises(DimensionMismatch):
        train(toy, hp, init=narrower)


def test_batch_size_larger_than_dataset_is_full_batch(toy):
    hp_big = Hyperparameters(6, 4, 100, epochs=20, weight_init_seed=2)
    hp_full = Hyperparameters(6, 4, 7, epochs=20, weight_init_seed=2)
    assert train(toy, hp_big).theta.tobytes() == train(toy, hp_full).theta.tobytes()


def test_zero_epochs_returns_init(toy):
    hp = Hyperparameters(6, 4, 4, epochs=0, weight_init_seed=11)
    m = train(toy, hp)
    np.testing.assert_array_equal(m.theta, _init_theta(toy.width, 6, 4, 11))


# sha256 of train(...).theta.tobytes() on the toy fixture, recorded from the
# per-model training loop that train_many replaced: the stacked loop must
# take the very same floating-point steps
TRAINING_PINS = {
    "short_last_batch": "97775bed6d3e28949922b116dcea0aba3edce78b2bf79d7fa508e38a0a90a3b5",
    "batch_above_n": "e101e26038a16f4ac4a6567bec2c63d5dc8d7b9d55b95dbe0508fd0c1c0923c6",
    "zero_epochs": "5e3ddd4da25e9876390160b2ccf3f6dce5cc0005a6b2f0f9276e8639473af9ec",
    "warm_start": "3017e182e57c1c88e19058163aebcc1d579fe3170ce020954839c90aad47453e",
}


@pytest.mark.parametrize("case", sorted(TRAINING_PINS))
def test_training_bits_are_pinned(toy, case):
    hp = Hyperparameters(6, 3, 4, learning_rate=0.3, weight_init_seed=4)
    m = {
        "short_last_batch": lambda: train(toy, replace(hp, batch_size=3, epochs=20)),  # 3+3+1
        "batch_above_n": lambda: train(toy, replace(hp, batch_size=16, epochs=20)),
        "zero_epochs": lambda: train(toy, replace(hp, epochs=0)),
        "warm_start": lambda: train(
            toy, replace(hp, batch_size=2, epochs=7, weight_init_seed=5),
            init=train(toy, replace(hp, epochs=5)),
        ),
    }[case]()
    assert hashlib.sha256(m.theta.tobytes()).hexdigest() == TRAINING_PINS[case]


def random_dataset(template, rng, n, width):
    """``template`` with n random rows of the given width; training reads only these."""
    return replace(
        template,
        row_ids=np.arange(1, n + 1),
        encoded=rng.random((n, width)),
        labels=rng.integers(0, 2, size=n),
    )


@settings(max_examples=30, deadline=None)
@given(
    members=st.integers(1, 4),
    n=st.integers(1, 12),
    width=st.integers(1, 5),
    batch_size=st.integers(1, 14),
    epochs=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    warm=st.booleans(),
)
# one feature and full batches: a stack gathered with the member axis innermost
# sent these rows to BLAS strided and changed the gradient's last bits
@example(members=2, n=4, width=1, batch_size=4, epochs=1, seed=73, warm=False)
def test_train_many_member_is_its_own_train(
    toy, members, n, width, batch_size, epochs, seed, warm
):
    rng = np.random.default_rng(seed)
    datasets = [random_dataset(toy, rng, n, width) for _ in range(members)]
    hp = Hyperparameters(3, 2, batch_size, epochs=epochs, learning_rate=0.5, weight_init_seed=seed)
    inits = None
    if warm:
        inits = [Model(width, 3, 2, rng.normal(size=param_count(width, 3, 2))) for _ in datasets]
    stacked = train_many(datasets, hp, inits)
    for j, d in enumerate(datasets):
        alone = train(d, hp, None if inits is None else inits[j])
        assert stacked[j].theta.tobytes() == alone.theta.tobytes()
        assert stacked[j].final_train_loss == alone.final_train_loss


@settings(max_examples=30, deadline=None)
@given(
    members=st.integers(1, 4),
    n=st.integers(1, 12),
    width=st.integers(1, 5),
    batch_size=st.integers(1, 14),
    epochs=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    warm=st.booleans(),
    extra=st.integers(0, 3),
    wide=st.integers(0, 15),
)
# member j is extra columns wider than the others where bit j of wide is set
@example(members=3, n=7, width=2, batch_size=3, epochs=2, seed=1, warm=False, extra=0, wide=0)
@example(members=2, n=5, width=3, batch_size=9, epochs=2, seed=2, warm=True, extra=0, wide=0)
@example(members=4, n=6, width=2, batch_size=4, epochs=0, seed=3, warm=True, extra=0, wide=0)
# mixed widths, 3+3+1 batches: the narrow member last, then first
@example(members=3, n=7, width=2, batch_size=3, epochs=2, seed=4, warm=False, extra=2, wide=0b011)
@example(members=3, n=7, width=2, batch_size=3, epochs=2, seed=5, warm=False, extra=2, wide=0b110)
# mixed widths with batch > n, 0 epochs, and warm starts of each width
@example(members=2, n=5, width=3, batch_size=9, epochs=2, seed=6, warm=True, extra=1, wide=0b01)
@example(members=4, n=6, width=1, batch_size=4, epochs=0, seed=7, warm=True, extra=3, wide=0b0101)
@example(members=4, n=6, width=2, batch_size=4, epochs=0, seed=8, warm=False, extra=1, wide=0b1010)
@example(members=2, n=9, width=1, batch_size=2, epochs=3, seed=9, warm=True, extra=3, wide=0b10)
def test_train_many_is_the_reference_loop(
    toy, members, n, width, batch_size, epochs, seed, warm, extra, wide
):
    rng = np.random.default_rng(seed)
    widths = [width + extra * (wide >> j & 1) for j in range(members)]
    datasets = [random_dataset(toy, rng, n, w) for w in widths]
    hp = Hyperparameters(3, 2, batch_size, epochs=epochs, learning_rate=0.5, weight_init_seed=seed)
    inits = None
    if warm:
        inits = [Model(w, 3, 2, rng.normal(size=param_count(w, 3, 2))) for w in widths]
    # the reference trains each width's members in a stack of their own
    thetas, losses = [None] * members, [None] * members
    for w in set(widths):
        js = [j for j in range(members) if widths[j] == w]
        ref = ref_train_many(
            [datasets[j] for j in js], hp, None if inits is None else [inits[j] for j in js]
        )
        for j, theta, loss in zip(js, *ref):
            thetas[j], losses[j] = theta, loss
    trained = train_many(datasets, hp, inits)
    assert [m.input_dim for m in trained] == widths
    assert [m.theta.tobytes() for m in trained] == [t.tobytes() for t in thetas]
    assert [m.final_train_loss for m in trained] == losses


# shapes on which BLAS sums a zero-padded first-layer product in another order
# than the member's own: one-row batches, hidden1 = 1, one feature, and widths
# on both sides of 16
@pytest.mark.parametrize("n, batch_size, h1, width, extra", [
    (1, 1, 16, 3, 2), (5, 2, 1, 2, 2), (17, 4, 3, 12, 7), (6, 3, 8, 1, 1),
])
def test_mixed_widths_train_their_own_bits_on_any_shape(toy, n, batch_size, h1, width, extra):
    rng = np.random.default_rng(n)
    datasets = [random_dataset(toy, rng, n, w) for w in (width + extra, width, width + extra)]
    hp = Hyperparameters(h1, 2, batch_size, epochs=2, learning_rate=0.5, weight_init_seed=3)
    for m, d in zip(train_many(datasets, hp), datasets):
        assert m.theta.tobytes() == train(d, hp).theta.tobytes()


@pytest.mark.parametrize("batches_per_gather", [1, 2])
def test_epoch_gathered_in_blocks_trains_the_same_bits(toy, monkeypatch, batches_per_gather):
    import fairtrim.model

    rng = np.random.default_rng(0)
    datasets = [random_dataset(toy, rng, 10, 3) for _ in range(2)]
    hp = Hyperparameters(3, 2, 3, epochs=4, learning_rate=0.5)
    whole = train_many(datasets, hp)  # 10 rows: one gather per epoch
    row_bytes = len(datasets) * 3 * 8
    # room for one row more than whole batches: a gather still ends on a batch boundary
    block_bytes = (batches_per_gather * hp.batch_size + 1) * row_bytes
    monkeypatch.setattr(fairtrim.model, "GATHER_BLOCK_BYTES", block_bytes)
    blocks = train_many(datasets, hp)
    assert [m.theta.tobytes() for m in blocks] == [m.theta.tobytes() for m in whole]


def test_train_many_holds_no_stacked_copy_of_the_members(tmp_path, monkeypatch):
    import fairtrim.model

    write_loans(tmp_path / "d.csv", tmp_path / "s.json", n=6000, seed=0)
    d = load_dataset(tmp_path / "d.csv", loans_schema())
    datasets = [split(d, SplitSpec(s))[0] for s in range(4)]
    monkeypatch.setattr(fairtrim.model, "GATHER_BLOCK_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        train_many(datasets, Hyperparameters(2, 2, 64, epochs=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (P, n, w) copy of every member's rows alone would reach this
    stacked = sum(member.encoded.nbytes for member in datasets)
    assert peak < stacked, (peak, stacked)


def test_final_loss_is_scored_in_blocks(toy):
    rng = np.random.default_rng(0)
    d = random_dataset(toy, rng, 300_000, 10)
    tracemalloc.start()
    try:
        [m] = train_many([d], Hyperparameters(16, 8, 64, epochs=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one forward pass over every row would hold activations larger than the features
    assert peak < d.encoded.nbytes, (peak, d.encoded.nbytes)
    _, _, logp = ref_forward(m.unpack(), d.encoded)
    whole = -logp[np.arange(len(d)), d.labels].mean()
    assert m.final_train_loss == pytest.approx(whole, rel=1e-12)  # summed in another order


def test_train_many_rejects_members_of_different_shapes(toy):
    rng = np.random.default_rng(0)
    hp = Hyperparameters(3, 2, 4, epochs=1)
    d = random_dataset(toy, rng, 6, 3)
    with pytest.raises(DimensionMismatch):  # rows
        train_many([d, random_dataset(toy, rng, 5, 3)], hp)
    with pytest.raises(DimensionMismatch):  # width of a warm start against its own member
        wider = random_dataset(toy, rng, 6, 4)
        train_many([d, wider], hp, inits=[Model(3, 3, 2, _init_theta(3, 3, 2, 0))] * 2)
    with pytest.raises(DimensionMismatch):  # hidden sizes of a warm start
        wide = Model(3, 4, 2, _init_theta(3, 4, 2, 0))
        train_many([d, d], hp, inits=[Model(3, 3, 2, _init_theta(3, 3, 2, 0)), wide])
    with pytest.raises(EmptyDataset):
        train_many([], hp)


# --- persistence ------------------------------------------------------------

def test_save_load_round_trips_exactly(toy, tmp_path):
    hp = Hyperparameters(6, 4, 4, epochs=30, weight_init_seed=3)
    m = train(toy, hp)
    p = tmp_path / "model.json"
    save_model(m, p)
    m2 = load_model(p)
    assert m2.theta.tobytes() == m.theta.tobytes()
    assert m2.final_train_loss == m.final_train_loss
    assert (m2.input_dim, m2.hidden1, m2.hidden2) == (m.input_dim, m.hidden1, m.hidden2)


def test_load_rejects_foreign_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"hello": 1}')
    with pytest.raises(DimensionMismatch):
        load_model(p)


# --- feature masking --------------------------------------------------------

def test_masked_model_ignores_masked_columns(toy):
    from fairtrim.data import drop_sensitive

    hp = Hyperparameters(6, 4, 4, epochs=40, weight_init_seed=1)
    inner = train(drop_sensitive(toy), hp)
    wrapped = mask_sensitive(inner, toy)
    X = toy.encoded.copy()
    labels_a, conf_a = predict_batch(wrapped, X)
    X2 = X.copy()
    X2[:, toy.sensitive_block] = X2[:, toy.sensitive_block][:, ::-1]  # flip group
    labels_b, conf_b = predict_batch(wrapped, X2)
    np.testing.assert_array_equal(labels_a, labels_b)
    np.testing.assert_array_equal(conf_a, conf_b)


def test_masked_model_width_check(toy):
    from fairtrim.data import drop_sensitive

    hp = Hyperparameters(6, 4, 4, epochs=1)
    inner = train(drop_sensitive(toy), hp)
    wrapped = mask_sensitive(inner, toy)
    with pytest.raises(DimensionMismatch):
        predict_batch(wrapped, toy.encoded[:, :3])
