"""Solver correctness (closed forms first) and ranking contracts."""

import numpy as np
import pytest

from fairtrim.data import load_dataset
from fairtrim.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyInfluenceSet,
    NotPositiveDefinite,
    RangeError,
)
from fairtrim.debias import sort_dataset
from fairtrim.fairness import SimilarityConfig
import fairtrim.influence
import fairtrim.model
from fairtrim.influence import (
    InfluenceSet,
    SolverConfig,
    conjugate_gradient,
    inverse_hvp_detailed,
    rank_by_influence,
)
from fairtrim.model import (
    Hyperparameters,
    grad_loss,
    hvp,
    logit_gap_jacobian,
    mean_grad,
    per_example_grads,
    predict_proba,
    train,
)
from fairtrim.synthetic import loans_schema, write_loans


@pytest.fixture(scope="module")
def trained(toy):
    hp = Hyperparameters(8, 4, 7, epochs=3000, learning_rate=0.3, weight_init_seed=1)
    return train(toy, hp)


def damped_gn(m, d, damping):
    """u -> (G + damping*I) u, G the Gauss-Newton matrix of the mean loss over d."""
    J, p = logit_gap_jacobian(m, d.encoded)
    w = p[:, 0] * p[:, 1] / len(d)
    return lambda u: J.T @ (w * (J @ u)) + damping * u


# --- conjugate gradients against closed forms -------------------------------

def test_cg_matches_direct_solve_2x2():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    damping = 0.05
    v = np.array([1.0, -2.0])
    expected = np.linalg.solve(A + damping * np.eye(2), v)
    x, iters, resid, ok = conjugate_gradient(
        lambda w: A @ w + damping * w, v, tol=1e-12, max_iter=50
    )
    assert ok and iters <= 2  # CG on a 2x2 SPD system finishes in 2 steps
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12)


def test_cg_residual_contract_random_spd():
    rng = np.random.default_rng(0)
    for k in range(5):
        B = rng.standard_normal((8, 8))
        A = B @ B.T + 0.5 * np.eye(8)
        b = rng.standard_normal(8)
        tol = 1e-8
        x, iters, resid, ok = conjugate_gradient(lambda w: A @ w, b, tol, 100)
        assert ok
        assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b) * (1 + 1e-9)


def test_cg_zero_rhs_short_circuits():
    x, iters, resid, ok = conjugate_gradient(lambda w: w, np.zeros(4), 1e-10, 10)
    assert ok and iters == 0 and resid == 0.0
    np.testing.assert_array_equal(x, np.zeros(4))


def test_cg_reports_nonconvergence_on_indefinite_matrix():
    A = np.diag([1.0, -1.0])
    b = np.array([0.3, 1.0])
    with pytest.raises(NotPositiveDefinite):  # negative curvature direction met
        conjugate_gradient(lambda w: A @ w, b, 1e-12, 50)


def test_cg_iteration_cap_reported():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((30, 30))
    A = B @ B.T + 1e-6 * np.eye(30)  # ill-conditioned
    b = rng.standard_normal(30)
    x, iters, resid, ok = conjugate_gradient(lambda w: A @ w, b, 1e-14, 3)
    assert iters == 3 and not ok


# --- inverse HVP on a real model --------------------------------------------

def test_inverse_hvp_residual_bound(trained, toy):
    g = grad_loss(trained, toy.encoded[1], int(toy.labels[1]))
    cfg = SolverConfig(damping=0.01, cg_tol=1e-8, cg_max_iter=500)
    x, info = inverse_hvp_detailed(trained, g, toy, cfg)
    assert info.converged
    lhs = damped_gn(trained, toy, cfg.damping)(x)
    assert np.linalg.norm(lhs - g) <= cfg.cg_tol * np.linalg.norm(g) * (1 + 1e-9)


def test_inverse_hvp_rejects_bad_width(trained, toy):
    with pytest.raises(DimensionMismatch):
        inverse_hvp_detailed(trained, np.zeros(3), toy, SolverConfig())


def test_solver_config_needs_positive_damping_and_cg():
    for damping in (0.0, -0.01, float("nan")):
        with pytest.raises(RangeError):
            SolverConfig(damping=damping)
    with pytest.raises(RangeError):
        SolverConfig(method="lissa")


@pytest.mark.parametrize("field", ["damping", "cg_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_solver_config_rejects_non_finite(field, value):
    # a nan tolerance never converges, an infinite one converges at once,
    # and infinite damping scores every row zero
    with pytest.raises(RangeError):
        SolverConfig(**{field: value})


def test_ranking_solve_converges_where_damped_hessian_is_indefinite(tmp_path):
    write_loans(tmp_path / "l.csv", tmp_path / "l.json", n=60, seed=0, flip_rate=0.45)
    d = load_dataset(tmp_path / "l.csv", loans_schema())
    m = train(d, Hyperparameters(8, 4, 16, epochs=150, learning_rate=0.3))
    cfg = SolverConfig()
    batch = (d.encoded, d.labels)
    H = np.column_stack([hvp(m, e, batch) for e in np.eye(m.n_params)])
    # H + damping*I is indefinite: CG on the Hessian breaks down here
    assert np.linalg.eigvalsh((H + H.T) / 2).min() < -cfg.damping

    iset = make_iset(m, d, multiplier=20, seed=1)
    assert rank_by_influence(iset, d, m, cfg).solves[0].converged
    v = mean_grad(m, iset.features, iset.labels)
    x, _ = inverse_hvp_detailed(m, v, d, cfg)
    assert np.linalg.norm(damped_gn(m, d, cfg.damping)(x) - v) <= cfg.cg_tol * np.linalg.norm(v)


# --- influence scores -------------------------------------------------------

def test_self_influence_is_negative(trained, toy):
    # a point identical to the test point can only help it: removal raises
    # its loss, so the score -g^T (G+dI)^{-1} g must be negative (G + dI is PD)
    cfg = SolverConfig(damping=0.1, cg_tol=1e-10)
    for g in per_example_grads(trained, toy.encoded, toy.labels):
        if np.linalg.norm(g) < 1e-12:
            continue
        s, _ = inverse_hvp_detailed(trained, g, toy, cfg)
        assert -float(s @ g) < 0


# --- ranking ----------------------------------------------------------------

def make_iset(trained, toy, multiplier=20, seed=0):
    sim = SimilarityConfig(lam=0.0, pool_multiplier=multiplier, rng_seed=seed)
    return sort_dataset(toy, trained, sim, SolverConfig()).influence_set


def test_ranking_sorted_ascending_with_diagnostics(trained, toy):
    iset = make_iset(trained, toy)
    assert len(iset) > 0
    rk = rank_by_influence(iset, toy, trained, SolverConfig())
    scores = [e.score for e in rk.entries]
    assert scores == sorted(scores)
    assert sorted(rk.row_ids) == toy.row_ids.tolist()
    assert len(rk.solves) == 1  # one solve against the mean set gradient
    assert rk.solves[0].converged


def test_ranking_mean_aggregation_against_manual(trained, toy):
    iset = make_iset(trained, toy, multiplier=2)
    cfg = SolverConfig(cg_tol=1e-10, cg_max_iter=500)
    rk = rank_by_influence(iset, toy, trained, cfg)
    # recompute the aggregate for one row by the one-solve-per-entry definition
    rid = rk.entries[0].row_id
    i = int(np.flatnonzero(toy.row_ids == rid)[0])
    # gradients through the mean-loss backward pass, not the Jacobian under test
    g_z = grad_loss(trained, toy.encoded[i], int(toy.labels[i]))
    scores = []
    for x, y in zip(iset.features, iset.labels):
        s, _ = inverse_hvp_detailed(trained, grad_loss(trained, x, int(y)), toy, cfg)
        scores.append(-float(s @ g_z))
    assert rk.entries[0].score == pytest.approx(float(np.mean(scores)), rel=1e-6)


def test_ranking_tie_breaks_by_row_id(trained, toy):
    # duplicate rows produce identical gradients, hence identical scores
    dup = toy.subset(np.array([1, 1, 3]))
    iset = make_iset(trained, toy, multiplier=5)
    rk = rank_by_influence(iset, dup, trained, SolverConfig())
    assert len(rk.entries) == 3
    twins = [e for e in rk.entries if e.row_id == 2]
    assert len(twins) == 2 and twins[0].score == twins[1].score
    pos = [i for i, e in enumerate(rk.entries) if e.row_id == 2]
    assert pos[1] == pos[0] + 1  # equal scores sit adjacent, ordered by row id


def test_empty_influence_set_raises(trained, toy):
    empty = InfluenceSet(
        features=np.zeros((0, toy.width)), labels=np.zeros(0, dtype=np.int64), pool_pairs=0
    )
    with pytest.raises(EmptyInfluenceSet):
        rank_by_influence(empty, toy, trained, SolverConfig())


def test_ranking_width_mismatch(trained, toy):
    iset = InfluenceSet(
        features=np.zeros((2, 3)), labels=np.zeros(2, dtype=np.int64), pool_pairs=2
    )
    with pytest.raises(DimensionMismatch):
        rank_by_influence(iset, toy, trained, SolverConfig())


def test_ranking_csv_and_diagnostics(tmp_path, trained, toy):
    iset = make_iset(trained, toy, multiplier=3)
    rk = rank_by_influence(iset, toy, trained, SolverConfig())
    rk.to_csv(tmp_path / "r.csv")
    rk.save_diagnostics(tmp_path / "d.json")
    import csv as csvmod
    import json

    with open(tmp_path / "r.csv", newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0] == ["rank", "row_id", "score"]
    assert len(rows) == len(toy) + 1
    assert float(rows[1][2]) == rk.entries[0].score  # repr round-trips
    diag = json.loads((tmp_path / "d.json").read_text())
    assert diag == {"method": "cg", "damping": 0.01, **rk.solve_health()}
    assert diag["converged"] is True


def test_ranking_matches_dense_exact_solve(trained, toy, fd_logit_gap_jacobian):
    # assemble G + dI from a finite-difference Jacobian; the toy model is
    # small (p = 86)
    J = fd_logit_gap_jacobian(trained, toy.encoded)
    prob = predict_proba(trained, toy.encoded)
    w = prob[:, 0] * prob[:, 1] / len(toy)
    cfg = SolverConfig(cg_tol=1e-10, cg_max_iter=500)
    A = J.T @ (w[:, None] * J) + cfg.damping * np.eye(trained.n_params)

    iset = make_iset(trained, toy)
    grads = np.stack([
        grad_loss(trained, iset.features[k], int(iset.labels[k])) for k in range(len(iset))
    ])
    G = np.stack([grad_loss(trained, x, int(y)) for x, y in zip(toy.encoded, toy.labels)])
    exact = -(G @ np.linalg.solve(A, grads.T)).mean(axis=1)  # mean of per-pair scores

    rk = rank_by_influence(iset, toy, trained, cfg)
    by_row = {e.row_id: e.score for e in rk.entries}
    got = np.array([by_row[int(r)] for r in toy.row_ids])
    # the finite-difference Jacobian is off by O(h^2) + O(eps/h), about 1e-10
    # relative, and the solve amplifies that by cond(A), about 20 here
    assert np.linalg.norm(got - exact) <= 1e-8 * np.linalg.norm(exact)
    expected_order = toy.row_ids[np.lexsort((toy.row_ids, exact))].tolist()
    assert list(rk.row_ids) == expected_order


def test_ranking_solves_once_whatever_the_set_size(monkeypatch, trained, toy):
    calls = {"logit_gap_jacobian": 0, "conjugate_gradient": 0, "per_example_grads": 0}

    def counted(module, name):
        fn = getattr(module, name, None)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper, raising=False)

    counted(fairtrim.influence, "logit_gap_jacobian")
    counted(fairtrim.influence, "conjugate_gradient")
    # a call by either name counts, whether or not influence imports the function
    counted(fairtrim.influence, "per_example_grads")
    counted(fairtrim.model, "per_example_grads")
    sizes = set()
    for multiplier in (2, 20):
        iset = make_iset(trained, toy, multiplier=multiplier)
        sizes.add(len(iset))
        calls.update(dict.fromkeys(calls, 0))
        rank_by_influence(iset, toy, trained, SolverConfig())
        # the solve and the scores read one Jacobian; no gradient matrix is built
        assert calls == {
            "logit_gap_jacobian": 1, "conjugate_gradient": 1, "per_example_grads": 0
        }
    assert len(sizes) == 2  # the two sets really differ in size


# --- typed errors -----------------------------------------------------------

# each raise that no other test reaches, as (call on the toy and its model, error)
INFLUENCE_ERRORS = {
    "cg-max-iter-zero": (lambda toy, m: SolverConfig(cg_max_iter=0), RangeError),
    "empty-training-set": (
        lambda toy, m: rank_by_influence(
            InfluenceSet(toy.encoded[:1], toy.labels[:1], 1), toy.subset([]), m, SolverConfig()),
        EmptyDataset),
    "influence-set-shapes": (
        lambda toy, m: InfluenceSet(toy.encoded[:2], toy.labels[:1], 2), DimensionMismatch),
}


@pytest.mark.parametrize("case", sorted(INFLUENCE_ERRORS))
def test_typed_errors(toy, trained, case):
    call, error = INFLUENCE_ERRORS[case]
    with pytest.raises(error):
        call(toy, trained)
