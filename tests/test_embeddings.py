"""Class-embedding learning: losses vs loop oracles, EMA, gates, determinism."""

import math

import numpy as np
import pytest

from rare_lens import embeddings as E
from rare_lens import world as w
from rare_lens.autodiff import Tensor, grad_check
from rare_lens.errors import ConfigError, ContractError, GateError

RNG = np.random.default_rng(424)


def loop_align_loss(hv, ht, positives, tau=1.0):
    """Scalar-loop reference for the multi-positive contrastive loss."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for i in range(len(hv)):
        num = sum(math.exp(cos(hv[i], ht[j]) / tau) for j in range(len(ht)) if positives[i, j])
        den = sum(math.exp(cos(hv[i], ht[o]) / tau) for o in range(len(ht)))
        total += -math.log(num / den)
    return total / len(hv)


def loop_class_loss(x, y, w_, tau=1.0):
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for i in range(len(x)):
        sims = [math.exp(cos(x[i], w_[j]) / tau) for j in range(len(w_))]
        total += -math.log(sims[y[i]] / sum(sims))
    return total / len(x)


def test_align_loss_single_class_is_zero():
    hv = Tensor(RNG.normal(size=(3, 5)))
    ht = Tensor(RNG.normal(size=(4, 5)))
    loss = E.align_loss(hv, ht, np.ones((3, 4), dtype=bool))
    assert abs(loss.item()) < 1e-12


def test_align_loss_equal_cosines_analytic():
    # Identical text vectors: every cosine equals the same value per row.
    hv = Tensor(RNG.normal(size=(2, 4)))
    base = RNG.normal(size=4)
    ht = Tensor(np.stack([base] * 6))
    positives = np.zeros((2, 6), dtype=bool)
    positives[:, :2] = True  # p = 2 of t = 6
    loss = E.align_loss(hv, ht, positives)
    assert abs(loss.item() - (-math.log(2 / 6))) < 1e-12


def test_align_loss_matches_loop_oracle_and_gradient():
    hv_arr = RNG.normal(size=(4, 6))
    ht_arr = RNG.normal(size=(6, 6))
    yv = RNG.integers(0, 3, size=4)
    yt = RNG.integers(0, 3, size=6)
    yt[:3] = [0, 1, 2]  # every class covered
    positives = yt[None, :] == yv[:, None]
    loss = E.align_loss(Tensor(hv_arr), Tensor(ht_arr), positives)
    assert abs(loss.item() - loop_align_loss(hv_arr, ht_arr, positives)) < 1e-10

    hv = Tensor(hv_arr, requires_grad=True)
    ht = Tensor(ht_arr, requires_grad=True)
    err = grad_check(lambda p: E.align_loss(p[0], p[1], positives), [hv, ht])
    assert err < 1e-4


def test_align_loss_empty_positive_set_rejected():
    hv = Tensor(RNG.normal(size=(2, 4)))
    ht = Tensor(RNG.normal(size=(3, 4)))
    positives = np.array([[True, False, False], [False, False, False]])
    with pytest.raises(ContractError):
        E.align_loss(hv, ht, positives)


def table_of(w_, kappa=0.95):
    return E.ClassEmbeddingTable(Tensor(w_), [f"c{i}" for i in range(len(w_))], kappa)


def test_class_loss_single_class_is_zero():
    x = Tensor(RNG.normal(size=(3, 4)))
    loss = E.class_loss(x, [0, 0, 0], table_of(RNG.normal(size=(1, 4))))
    assert abs(loss.item()) < 1e-12


def test_class_loss_uniform_cosines_is_log_c():
    # Identical prototypes give a uniform softmax over C classes.
    base = RNG.normal(size=4)
    table = table_of(np.stack([base] * 5))
    x = Tensor(RNG.normal(size=(3, 4)))
    loss = E.class_loss(x, [0, 3, 2], table)
    assert abs(loss.item() - math.log(5)) < 1e-12


def test_class_loss_matches_loop_oracle_and_gradient():
    x_arr = RNG.normal(size=(5, 6))
    w_arr = RNG.normal(size=(3, 6))
    y = RNG.integers(0, 3, size=5)
    loss = E.class_loss(Tensor(x_arr), y, table_of(w_arr))
    assert abs(loss.item() - loop_class_loss(x_arr, y, w_arr)) < 1e-10

    x = Tensor(x_arr, requires_grad=True)
    err = grad_check(lambda p: E.class_loss(p[0], y, table_of(w_arr)), [x])
    assert err < 1e-4


def test_class_loss_gradient_skips_frozen_table():
    from rare_lens.autodiff import GradTape, backward

    table = table_of(RNG.normal(size=(3, 6)))
    x = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
    with GradTape() as tape:
        loss = E.class_loss(x, [0, 1, 2, 0], table)
    grads = backward(loss, tape)
    assert x.id in grads and table.w.id not in grads


def test_init_single_sample_per_class_copies_sample():
    samples = {0: RNG.normal(size=(1, 4)), 1: RNG.normal(size=(1, 4))}
    table = E.init_class_embeddings(samples, ["a", "b"], kappa=0.9)
    assert np.array_equal(table.w.array[0], samples[0][0])


def test_init_antipodal_samples_flagged_and_nudged():
    v = RNG.normal(size=4)
    table = E.init_class_embeddings({0: np.stack([v, -v])}, ["a"], kappa=0.9, seed=1)
    assert 0 < np.linalg.norm(table.w.array[0]) < 1e-5


def test_init_matches_per_class_mean_oracle():
    samples = {c: RNG.normal(size=(3 + c, 5)) for c in range(3)}
    table = E.init_class_embeddings(samples, ["a", "b", "c"], kappa=0.5)
    for c in range(3):
        mean = sum(samples[c][i] for i in range(len(samples[c]))) / len(samples[c])
        assert np.abs(table.w.array[c] - mean).max() < 1e-12


def test_init_missing_class_rejected():
    with pytest.raises(ContractError):
        E.init_class_embeddings({0: RNG.normal(size=(2, 4))}, ["a", "b"], kappa=0.9)


def test_ema_kappa_one_is_fixpoint():
    table = table_of(RNG.normal(size=(3, 4)), kappa=1.0)
    updated = E.ema_update(table, {0: RNG.normal(size=4), 2: RNG.normal(size=4)})
    assert np.array_equal(updated.w.array, table.w.array)


def test_ema_kappa_zero_replaces():
    table = table_of(RNG.normal(size=(2, 4)), kappa=0.0)
    mean = RNG.normal(size=4)
    updated = E.ema_update(table, {1: mean})
    assert np.array_equal(updated.w.array[1], mean)
    assert np.array_equal(updated.w.array[0], table.w.array[0])


def test_ema_default_kappa_scalar_case():
    table = table_of(np.zeros((1, 1)), kappa=0.95)
    updated = E.ema_update(table, {0: np.ones(1)})
    assert abs(updated.w.array[0, 0] - 0.05) < 1e-15


def test_ema_convex_segment_invariant_1000_updates():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        kappa = float(rng.uniform())
        w0 = rng.normal(size=(1, 3))
        mean = rng.normal(size=3)
        updated = E.ema_update(table_of(w0, kappa=kappa), {0: mean})
        lo = np.minimum(w0[0], mean)
        hi = np.maximum(w0[0], mean)
        assert np.all(updated.w.array[0] >= lo - 1e-12)
        assert np.all(updated.w.array[0] <= hi + 1e-12)


def test_ema_rejects_bad_kappa():
    with pytest.raises(ContractError):
        table_of(RNG.normal(size=(2, 2)), kappa=1.5)


def blobs(n_per, centers, spread, rng):
    xs, ys = [], []
    for cid, center in enumerate(centers):
        xs.append(center + spread * rng.normal(size=(n_per, len(center))))
        ys.extend([cid] * n_per)
    return np.vstack(xs), np.array(ys)


TWO_BLOB_CFG = E.EmbeddingConfig(dim=16, epochs_align=5, epochs_joint=5, lr=1e-3)


@pytest.fixture(scope="module")
def fitted_learner():
    rng = np.random.default_rng(0)
    centers_v = [np.r_[4.0, np.zeros(7)], np.r_[np.zeros(7), 4.0]]
    centers_t = [np.r_[3.0, np.zeros(5)], np.r_[np.zeros(5), 3.0]]
    zv, yv = blobs(20, centers_v, 0.5, rng)
    zt, yt = blobs(8, centers_t, 0.5, rng)
    learner = E.ClassEmbeddingLearner(TWO_BLOB_CFG, seed=0)
    return learner.fit(zv, yv, zt, yt, ["left", "right"]), (zv, yv, zt, yt)


def test_learner_two_blob_prototypes_classify(fitted_learner):
    learner, (zv, yv, _, _) = fitted_learner
    assert np.mean(learner.predict(zv) == yv) == 1.0


def test_learner_phase_losses_nonincreasing(fitted_learner):
    learner, _ = fitted_learner
    for phase in (1, 2):
        rows = [r for r in learner.history_ if r["phase"] == phase]
        vals = [r["align"] if phase == 1 else r["align"] + r["class"] for r in rows]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


def test_learner_deterministic_pair_token(fitted_learner):
    learner, (zv, yv, zt, yt) = fitted_learner
    again = E.ClassEmbeddingLearner(TWO_BLOB_CFG, seed=0).fit(zv, yv, zt, yt, ["left", "right"])
    assert again.table_.pair_token == learner.table_.pair_token
    assert np.array_equal(again.table_.w.array, learner.table_.w.array)


def test_projection_zero_output_layer_gives_zeros():
    heads = E.init_heads(4, 4, 8, seed=0)
    heads.weights["gv.w2"].assign_(np.zeros((8, 8)))
    heads.weights["gv.b2"].assign_(np.zeros(8))
    out = heads.project_visual(RNG.normal(size=(3, 4)))
    assert np.array_equal(out.array, np.zeros((3, 8)))


def test_projection_matches_layer_by_layer_oracle():
    heads = E.init_heads(4, 3, 8, seed=1)
    z = RNG.normal(size=(2, 4))
    w = {k: t.array for k, t in heads.weights.items()}
    h = np.logaddexp(0.0, z @ w["gv.w1"] + w["gv.b1"])
    expect = h @ w["gv.w2"] + w["gv.b2"]
    assert np.abs(heads.project_visual(z).array - expect).max() < 1e-12


def test_projection_gradients_pass_grad_check():
    heads = E.init_heads(4, 3, 6, seed=2)
    z = RNG.normal(size=(3, 4))
    target = Tensor(RNG.normal(size=(3, 6)))

    def f(params):
        from rare_lens import autodiff as ad

        diff = ad.sub(heads.project_visual(z), target)
        return ad.mean_all(ad.mul(diff, diff))

    assert grad_check(f, heads.parameters()) < 1e-4


@pytest.fixture(scope="module")
def gate_world():
    cfg = w.DatasetConfig(n_classes=3, grid=4, d_v=16, d_t=16, rare_count=1, rare_n=5,
                          common_n=100, test_per_class=10, alpha=4.0)
    return w.generate_dataset(cfg, seed=21)


def test_train_class_embeddings_passes_gate(gate_world):
    cfg = E.EmbeddingConfig(dim=16, epochs_align=5, epochs_joint=5)
    learner, report = E.train_class_embeddings(gate_world, cfg, seed=1)
    assert report["accuracy"] >= cfg.gate_accuracy
    assert report["rare_recall"] >= cfg.gate_rare_recall
    assert learner.table_.pair_token == report["pair_token"]


def test_train_class_embeddings_budget_too_small(gate_world):
    cfg = E.EmbeddingConfig(dim=16, budget_per_class=1)
    with pytest.raises((ConfigError, GateError)):
        E.train_class_embeddings(gate_world, cfg, seed=1)


def test_align_loss_zero_norm_embedding_rejected():
    from rare_lens.errors import DegenerateVectorError

    hv = Tensor(np.vstack([np.zeros(4), RNG.normal(size=4)]))
    ht = Tensor(RNG.normal(size=(3, 4)))
    with pytest.raises(DegenerateVectorError):
        E.align_loss(hv, ht, np.ones((2, 3), dtype=bool))


def test_class_loss_zero_norm_prototype_rejected():
    from rare_lens.errors import DegenerateVectorError

    table = table_of(np.vstack([np.zeros(4), RNG.normal(size=4)]))
    with pytest.raises(DegenerateVectorError):
        E.class_loss(Tensor(RNG.normal(size=(2, 4))), [0, 1], table)
