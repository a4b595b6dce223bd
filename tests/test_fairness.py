"""Pair-pool contracts, discrimination estimates, and group metrics."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtrim import debias, fairness, model
from fairtrim.data import drop_sensitive, load_dataset
from fairtrim.errors import (
    AlreadyFair,
    DimensionMismatch,
    EmptyDataset,
    MissingGroup,
    RangeError,
    SensitiveAbsent,
)
from fairtrim.fairness import (
    PairPool,
    SimilarityConfig,
    accuracy,
    accuracy_and_parity,
    build_influence_set,
    discriminatory_pairs,
    estimate_discrim,
    generate_similar_pairs,
    metrics_report,
    statistical_parity_difference,
)
from fairtrim.influence import SolverConfig
from fairtrim.model import (
    Hyperparameters,
    Model,
    mask_sensitive,
    param_count,
    predict_batch,
    predict_proba,
    train,
)
from fairtrim.synthetic import loans_schema, write_loans


@pytest.fixture(scope="module")
def loans(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loans")
    write_loans(tmp / "d.csv", tmp / "s.json", n=100, seed=3)
    return load_dataset(tmp / "d.csv", loans_schema())


# --- pool contracts ----------------------------------------------------------

def _sort_pool(d, cfg):
    """The library's sort pool, whole, as (first, second): generate_similar_pairs
    draws estimate pools only, so its blocks are stacked here."""
    blocks = [
        (np.repeat(seeds, k, axis=0), second.copy())  # the block buffers are reused
        for seeds, k, second in fairness._pool_blocks(d, cfg, fairness._SORT_POOL)
    ]
    return tuple(np.vstack(member) for member in zip(*blocks))


def test_pool_size_lambda_zero(toy, pair_invariants):
    pool = generate_similar_pairs(toy, SimilarityConfig(lam=0.0, pool_multiplier=100), 0)
    assert len(pool) == 100 * len(toy)  # one companion per seed
    pair_invariants(toy, pool, 0.0)


def test_pool_size_lambda_positive(toy, pair_invariants):
    pool = generate_similar_pairs(toy, SimilarityConfig(lam=0.05, pool_multiplier=100), 0)
    assert len(pool) == 200 * len(toy)  # two companions per seed
    pair_invariants(toy, pool, 0.05)


def test_lambda_zero_companions_copy_numerics_bitwise(toy):
    pool = generate_similar_pairs(toy, SimilarityConfig(lam=0.0, pool_multiplier=50), 0)
    assert pool.first[:, 0].tobytes() == pool.second[:, 0].tobytes()
    assert pool.first[:, 1].tobytes() == pool.second[:, 1].tobytes()


def test_pool_deterministic_per_call_index(toy):
    cfg = SimilarityConfig(lam=0.0, pool_multiplier=5, rng_seed=3)
    a = generate_similar_pairs(toy, cfg, call_index=2)
    b = generate_similar_pairs(toy, cfg, call_index=2)
    c = generate_similar_pairs(toy, cfg, call_index=3)
    assert a.first.tobytes() == b.first.tobytes()
    assert a.first.tobytes() != c.first.tobytes()
    assert _sort_pool(toy, cfg)[0].tobytes() != a.first.tobytes()


# sha256 of (first, second) for pool_multiplier=5, rng_seed=7: any change to
# the draw order changes them
POOL_DIGESTS = {
    ("toy", 0.0, None): ("8b4da7adea7dd18602e3930c0f1b94f1522843582e7ec94d9a2755cfc345be8f",
                         "b11a2ad915ee131f2ce9ecf935ce8fbda2da27e912c8dede17996a5f607b196d"),
    ("toy", 0.0, 0): ("423d283f1e2e91ed40c0c6c186e54efa2a355d11f7ce932912545b8574b7d0b4",
                      "c5a3f6c584d31d059c642f0ced0600553bace86748858c9751eb9d1a127acbaf"),
    ("toy", 0.3, None): ("4756d0033ed9c5f2279c4b11a35001e41b84259fed8ff766b281158d5d915939",
                         "6640de42407b47b19ecb6534ff79623a2b6ee755c67cff771c1b04df1bc22806"),
    ("toy", 0.3, 0): ("bf3d5879c654bb769719996410ec6b28c80befc72292f0fe8546e6de1b63a2f1",
                      "764290f9590ea0541f1aa37e0cf5c39225e25352b4e0f20eb5e1292fc9006484"),
    ("loans", 0.0, None): ("2d3efba67ad2e0acc2f91ffe5408f530f9e456de250c04f93330f04b3abeacdf",
                           "92f24643a721df85ac6cda7c36923a24259747f352dba1f1495e70743e72894a"),
    ("loans", 0.0, 0): ("3eda996a782a3bc05a557e576913ad29eeef7b2f49ca2ff81a3b1791030153da",
                        "9edd2ea335ab7de40a0069fb632bde1d73e0d715b3fd33026d8b36c8d01314f0"),
    ("loans", 0.3, None): ("7a36ee4c3d6cd5583a06c9b2f56416d71c1c017c7e03cba4b11980f27c455904",
                           "9c065c4be9b8409b33731864c941132c85da9ad57506bc7fcd16ff6b901aef4d"),
    ("loans", 0.3, 0): ("172649bb09460aa24582ffcf8176a02fbc5f3baca9e8500c7a55f19936ef2650",
                        "6d075fb9a8809cb68d43935d62d8518aa1bd63951a3be7e282905b80e48a50d4"),
}


@pytest.mark.parametrize("block", [None, 7])
def test_pool_bytes_are_pinned(toy, loans, dense_pool, monkeypatch, block):
    if block is not None:  # drift drawn in blocks that do not divide the pool
        monkeypatch.setattr(model, "PREDICT_BLOCK_ROWS", block)
    sets = {"toy": toy, "loans": loans}
    for (name, lam, call), expected in POOL_DIGESTS.items():
        cfg = SimilarityConfig(lam=lam, pool_multiplier=5, rng_seed=7)
        reference = dense_pool(sets[name], cfg, call)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in reference)
        assert digests == expected, (name, lam, call)
        if call is None:
            first, second = _sort_pool(sets[name], cfg)
        else:
            pool = generate_similar_pairs(sets[name], cfg, call_index=call)
            first, second = pool.first, pool.second
        assert first.tobytes() == reference[0].tobytes(), (name, lam, call)
        assert second.tobytes() == reference[1].tobytes(), (name, lam, call)


def test_pool_requires_sensitive(toy):
    with pytest.raises(SensitiveAbsent):
        generate_similar_pairs(drop_sensitive(toy), SimilarityConfig(), 0)


# before, numpy's SeedSequence raised an untyped ValueError for a negative index,
# and None, the sort pool's key, measured on the pairs a ranking was built from
@pytest.mark.parametrize("call_index", [-1, 1.0, "0", True, None])
def test_bad_call_index_is_range_error(toy, trained, call_index):
    cfg = SimilarityConfig(pool_multiplier=2)
    for measure in (estimate_discrim, metrics_report):
        with pytest.raises(RangeError, match="call_index"):
            measure(trained, toy, cfg, call_index=call_index)
    with pytest.raises(RangeError, match="call_index"):
        generate_similar_pairs(toy, cfg, call_index=call_index)
    assert estimate_discrim(trained, toy, cfg, call_index=np.int64(3)) == estimate_discrim(
        trained, toy, cfg, call_index=3
    )


def test_similarity_config_validation():
    with pytest.raises(RangeError):
        SimilarityConfig(lam=-0.1)
    with pytest.raises(RangeError):
        SimilarityConfig(lam=1.5)
    with pytest.raises(RangeError):
        SimilarityConfig(pool_multiplier=0)


@settings(max_examples=12, deadline=None)
@given(
    lam=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
    seed=st.integers(0, 2**31 - 1),
)
def test_pair_invariants_property(toy, pair_invariants, lam, seed):
    cfg = SimilarityConfig(lam=lam, pool_multiplier=3, rng_seed=seed)
    pool = generate_similar_pairs(toy, cfg, 0)
    expected = 3 * len(toy) * (1 if lam == 0.0 else 2)
    assert len(pool) == expected
    pair_invariants(toy, pool, lam)


# --- discrimination ----------------------------------------------------------

def test_discriminatory_pairs_subset_semantics(toy, trained):
    pool = generate_similar_pairs(toy, SimilarityConfig(pool_multiplier=20), 0)
    discm = discriminatory_pairs(trained, pool)
    l1, _ = predict_batch(trained, discm.first)
    l2, _ = predict_batch(trained, discm.second)
    assert np.all(l1 != l2)


def test_estimate_discrim_matches_manual_count(toy, trained):
    cfg = SimilarityConfig(pool_multiplier=10, rng_seed=5)
    pool = generate_similar_pairs(toy, cfg, call_index=4)
    l1, _ = predict_batch(trained, pool.first)
    l2, _ = predict_batch(trained, pool.second)
    assert discriminatory_pairs(trained, pool).first.tobytes() == pool.first[l1 != l2].tobytes()
    assert estimate_discrim(trained, toy, cfg, call_index=4) == pytest.approx(
        float(np.mean(l1 != l2))
    )


def test_influence_set_members_are_lower_confidence(toy, trained):
    pool = generate_similar_pairs(toy, SimilarityConfig(pool_multiplier=30), 0)
    discm = discriminatory_pairs(trained, pool)
    iset = build_influence_set(trained, pool)
    assert len(iset) == len(discm)
    assert iset.pool_pairs == len(pool)
    _, c1 = predict_batch(trained, discm.first)
    _, c2 = predict_batch(trained, discm.second)
    _, c_sel = predict_batch(trained, iset.features)
    np.testing.assert_allclose(c_sel, np.minimum(c1, c2))
    # chosen labels are the model's own predictions on the chosen member
    l_sel, _ = predict_batch(trained, iset.features)
    np.testing.assert_array_equal(l_sel, iset.labels)


def test_masked_model_never_discriminates_lambda_zero(toy):
    # hard guarantee: identical numerics + masked sensitive block
    # means bit-identical inputs to the inner model across each pair
    hp = Hyperparameters(8, 4, 7, epochs=500, learning_rate=0.3, weight_init_seed=0)
    inner = train(drop_sensitive(toy), hp)
    wrapped = mask_sensitive(inner, toy)
    for seed in range(5):
        rate = estimate_discrim(
            wrapped, toy, SimilarityConfig(lam=0.0, pool_multiplier=100, rng_seed=seed)
        )
        assert rate == 0.0


# --- accuracy and parity -----------------------------------------------------

def test_accuracy_range_and_value(toy, trained):
    acc = accuracy(trained, toy)
    labels, _ = predict_batch(trained, toy.encoded)
    assert acc == pytest.approx(float(np.mean(labels == toy.labels)))


def test_parity_oracle_on_ground_truth_labels(toy, monkeypatch):
    # a model that predicts the true labels; hand count: whites approve 2/3, blacks 1/4
    monkeypatch.setattr(
        fairness, "predict_batch", lambda m, X: (toy.labels, np.ones(len(toy)))
    )
    gap = statistical_parity_difference(None, toy)
    assert gap == pytest.approx(abs(2 / 3 - 1 / 4), abs=1e-12)
    assert gap == pytest.approx(0.416667, abs=1e-6)
    assert accuracy_and_parity(None, toy) == (1.0, gap)


def _constant_model(d):
    """All-zero weights tie the two logits, so every row is predicted class 0."""
    return Model(d.width, 2, 2, theta=np.zeros(param_count(d.width, 2, 2)))


def test_parity_of_constant_predictor_is_zero(toy):
    assert statistical_parity_difference(_constant_model(toy), toy) == 0.0


def test_parity_missing_group_raises(toy):
    whites_only = toy.subset(np.array([0, 2, 4]))
    m = _constant_model(toy)
    with pytest.raises(MissingGroup):
        statistical_parity_difference(m, whites_only)
    assert accuracy_and_parity(m, whites_only) == (accuracy(m, whites_only), None)


def test_metrics_report_keys(toy, trained):
    rep = metrics_report(trained, toy, SimilarityConfig(pool_multiplier=5))
    assert set(rep) == {
        "individual_discrimination", "pool_pairs", "discriminatory_pairs",
        "accuracy", "statistical_parity_difference",
    }
    assert rep["pool_pairs"] == 5 * len(toy)
    assert rep["statistical_parity_difference"] is not None


# --- blocked scoring ---------------------------------------------------------

def _scores(m, pool):
    """Every pool score, as bytes: probabilities, flips and the influence set."""
    iset = build_influence_set(m, pool)
    discm = discriminatory_pairs(m, pool)
    out = [predict_proba(m, pool.first), predict_proba(m, pool.second), discm.first, discm.second]
    return [a.tobytes() for a in out + [iset.features, iset.labels]]


def test_blocked_scoring_is_bitwise_one_block_scoring(loans, monkeypatch):
    hp = Hyperparameters(8, 4, 32, epochs=100, learning_rate=0.3, weight_init_seed=2)
    plain = train(loans, hp)
    masked = mask_sensitive(train(drop_sensitive(loans), hp), loans)
    pool = generate_similar_pairs(loans, SimilarityConfig(lam=0.1, pool_multiplier=5), 0)
    assert len(pool) % 7 != 0
    empty = PairPool(pool.first[:0], pool.second[:0])
    for m in (plain, masked):
        assert len(discriminatory_pairs(m, pool))
        scores = {}
        for block in (7, len(pool) + 1):
            monkeypatch.setattr(model, "PREDICT_BLOCK_ROWS", block)
            scores[block] = _scores(m, pool), _scores(m, empty)
        assert scores[7] == scores[len(pool) + 1]
        assert len(build_influence_set(m, empty)) == 0
        assert predict_proba(m, empty.first).shape == (0, 2)


# --- scoring from the draws --------------------------------------------------

def _odd_model(d):
    """First-layer weights +w and -w on the two sensitive columns, zero on the
    others, and no biases: reversing the sensitive one-hot negates every
    logit, so a pair's members get swapped probabilities. Every pair flips,
    each with a confidence tie."""
    theta = np.zeros(param_count(d.width, 4, 3))
    W1, _, W2, _, W3, _ = model._unpack(theta, d.width, 4, 3)
    rng = np.random.default_rng(5)
    w = rng.normal(size=4)
    W1[d.sensitive_block] = w, -w
    W2[...] = rng.normal(size=W2.shape)
    W3[...] = rng.normal(size=W3.shape)
    return Model(d.width, 4, 3, theta=theta)


@pytest.fixture(scope="module")
def loans_models(loans):
    """A plain model, one without the sensitive column, one whose two logits
    tie on every row (all-zero weights), and one whose confidences tie on
    every pair (``_odd_model``)."""
    hp = Hyperparameters(8, 4, 32, epochs=100, learning_rate=0.3, weight_init_seed=2)
    masked = mask_sensitive(train(drop_sensitive(loans), hp), loans)
    return {
        "plain": train(loans, hp), "masked": masked, "ties": _constant_model(loans),
        "odd": _odd_model(loans),
    }


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("name", ["plain", "masked", "ties", "odd"])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_draws_path_equals_the_dense_reference(
    loans, loans_models, dense_pool, dense_scores, monkeypatch, lam, name, block
):
    if block is not None:  # a block of 1 holds fewer pairs than one seed's 2 companions
        monkeypatch.setattr(model, "PREDICT_BLOCK_ROWS", block)
    m = loans_models[name]
    sim = SimilarityConfig(lam=lam, pool_multiplier=3, rng_seed=4)
    pool = dense_pool(loans, sim, 2)
    flips = dense_scores(m, *pool)[0]
    assert estimate_discrim(m, loans, sim, call_index=2) == np.mean(flips)
    report = metrics_report(m, loans, sim, call_index=2)
    assert (report["pool_pairs"], report["discriminatory_pairs"]) == (len(flips), flips.sum())
    if name == "odd":  # every pair flips on a confidence tie: the tie rule picks each member
        c1, c2 = (predict_batch(m, X)[1] for X in pool)
        assert flips.all() and c1.tobytes() == c2.tobytes()
    sort_flips, ref_features, ref_labels = dense_scores(m, *dense_pool(loans, sim, None))
    assert sort_flips.any() == (name in ("plain", "odd") or (name == "masked" and lam > 0))
    # the set sort_dataset ranks against, without ranking it
    monkeypatch.setattr(debias, "rank_by_influence", lambda iset, d, m, solver: iset)
    if not sort_flips.any():
        with pytest.raises(AlreadyFair):
            debias.sort_dataset(loans, m, sim, SolverConfig())
    else:
        iset = debias.sort_dataset(loans, m, sim, SolverConfig())
        assert iset.features.tobytes() == ref_features.tobytes()
        assert iset.labels.tobytes() == ref_labels.tobytes()
        assert iset.pool_pairs == len(sort_flips) == len(flips)
    # the label rule is argmax's (ties go to class 0), the confidence max's
    X = np.vstack(pool)
    p = predict_proba(m, X)
    labels, confidence = predict_batch(m, X)
    assert labels.dtype == np.int64
    assert labels.tobytes() == np.argmax(p, axis=1).tobytes()
    assert confidence.tobytes() == p.max(axis=1).tobytes()


def _peak_and_draw_bytes(m, d, cfg) -> tuple[int, int]:
    """Peak bytes numpy allocates in one estimate_discrim, and the bytes of
    its pool's stored draws: one 8-byte draw per column per seed."""
    tracemalloc.start()
    try:
        estimate_discrim(m, d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, cfg.pool_multiplier * len(d) * len(d.encoding.codecs) * 8


def test_pool_memory_is_bounded_by_the_block(tmp_path):
    write_loans(tmp_path / "d.csv", tmp_path / "s.json", n=2000, seed=0)
    d = load_dataset(tmp_path / "d.csv", loans_schema())
    theta = np.random.default_rng(0).normal(0.0, 1.0, param_count(d.width, 16, 8))
    m = Model(input_dim=d.width, hidden1=16, hidden2=8, theta=theta)
    cfg = SimilarityConfig(lam=0.1, rng_seed=1)
    small, large = d.subset(np.arange(500)), d  # 100k and 400k pairs
    (peak_s, draws_s), (peak_l, draws_l) = (_peak_and_draw_bytes(m, sub, cfg) for sub in (small, large))
    over_s, over_l = peak_s - draws_s, peak_l - draws_l
    # beyond the draws: one block's buffers and activations, and the per-pair
    # flips; 1.8 and 2.1 MB here at 4,096 rows, 16/8 hidden units and width 10
    bound = model.PREDICT_BLOCK_ROWS * 1024
    assert over_s < bound and over_l < bound, (over_s, over_l)
    dense_s, dense_l = (
        2 * cfg.pool_multiplier * cfg.companions * len(sub) * d.width * 8 for sub in (small, large)
    )
    # no dense pool is built: the 400k-pair estimate stays well under its 64 MB
    assert peak_l < 0.6 * dense_l, (peak_l, dense_l)
    assert over_l - over_s < (dense_l - dense_s) / 16, (over_s, over_l)


# --- typed errors -----------------------------------------------------------

# each raise that no other test reaches, as (call on the toy and its model, error)
FAIRNESS_ERRORS = {
    "pair-pool-shapes": (
        lambda toy, m: PairPool(toy.encoded[:2], toy.encoded[:1]), DimensionMismatch),
    "parity-without-groups": (
        lambda toy, m: statistical_parity_difference(m, drop_sensitive(toy)),
        SensitiveAbsent),
    "parity-empty": (
        lambda toy, m: statistical_parity_difference(m, toy.subset([])), EmptyDataset),
    "accuracy-empty": (lambda toy, m: accuracy(m, toy.subset([])), EmptyDataset),
    "pool-from-empty-dataset": (
        lambda toy, m: estimate_discrim(m, toy.subset([]), SimilarityConfig()), EmptyDataset),
}


@pytest.mark.parametrize("case", sorted(FAIRNESS_ERRORS))
def test_typed_errors(toy, trained, case):
    call, error = FAIRNESS_ERRORS[case]
    with pytest.raises(error):
        call(toy, trained)
