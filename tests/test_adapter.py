"""Adapter: identity at init, attention oracle, loss contracts, frozen decoder."""

import numpy as np
import pytest

from rare_lens import adapter as A
from rare_lens import vlm as V
from rare_lens import world as w
from rare_lens.autodiff import GradTape, Tensor, backward, grad_check
from rare_lens.embeddings import ClassEmbeddingTable
from rare_lens.errors import ShapeError

RNG = np.random.default_rng(99)


def table_of(w_, kappa=0.95):
    return ClassEmbeddingTable(Tensor(w_), [f"c{i}" for i in range(len(w_))], kappa)


def test_adapt_identity_at_init_bit_exact():
    params = A.init_adapter(dim=8, heads=2, seed=0)
    v = RNG.normal(size=(5, 8))
    table = table_of(RNG.normal(size=(3, 8)))
    refined, weights = A.adapt(v, table.w, params, heads=2)
    assert np.array_equal(refined.array, v)
    assert np.abs(weights.sum(axis=2) - 1.0).max() < 1e-10


def test_adapt_single_class_attention_is_constant():
    params = A.init_adapter(dim=8, heads=2, seed=1)
    params["wo"].assign_(RNG.normal(size=(8, 8)))
    v = RNG.normal(size=(4, 8))
    table = table_of(RNG.normal(size=(1, 8)))
    refined, weights = A.adapt(v, table.w, params, heads=2)
    assert np.abs(weights - 1.0).max() < 1e-12
    # Every token receives the same single-row value projection.
    delta = refined.array - v
    assert np.abs(delta - delta[0]).max() < 1e-12


def test_adapt_matches_hand_rolled_single_head_oracle():
    params = A.init_adapter(dim=6, heads=1, seed=2)
    for name in params:
        params[name].assign_(RNG.normal(size=(6, 6)))
    v = RNG.normal(size=(4, 6))
    w_ = RNG.normal(size=(3, 6))
    refined, _ = A.adapt(v, Tensor(w_), params, heads=1)

    q = v @ params["wq"].array
    k = w_ @ params["wk"].array
    val = w_ @ params["wv"].array
    scores = q @ k.T / np.sqrt(6)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    expect = v + (attn @ val) @ params["wo"].array
    assert np.abs(refined.array - expect).max() < 1e-10


def test_adapt_shape_mismatch_raises():
    params = A.init_adapter(dim=8, heads=2, seed=0)
    with pytest.raises(ShapeError):
        A.adapt(RNG.normal(size=(4, 6)), Tensor(RNG.normal(size=(3, 8))), params, 2)
    with pytest.raises(ShapeError):
        A.init_adapter(dim=8, heads=3, seed=0)


def test_rec_loss_zero_and_analytic():
    v = Tensor(RNG.normal(size=(3, 4)))
    assert A.rec_loss(v, v).item() == 0.0
    shifted = Tensor(v.array + 1.0)
    assert abs(A.rec_loss(v, shifted).item() - 12.0) < 1e-12


def test_rec_loss_gradient_wrt_adapter_params():
    params = A.init_adapter(dim=6, heads=2, seed=3)
    v_arr = RNG.normal(size=(3, 6))
    w_ = Tensor(RNG.normal(size=(2, 6)))
    # Give the output projection mass so the gradient is informative.
    params["wo"].assign_(0.3 * RNG.normal(size=(6, 6)))

    def f(plist):
        v = Tensor(v_arr)
        refined, _ = A.adapt(v, w_, params, heads=2)
        return A.rec_loss(v, refined)

    assert grad_check(f, list(params.values())) < 1e-4


def make_tiny_vlm(vocab=9, dim=8, d_v=8):
    cfg = V.VLMConfig(layers=1, heads=2, dim=dim, ffn_hidden=16, context=32, d_v=d_v)
    model = V.init_vlm(cfg, vocab, seed=4)
    rng = np.random.default_rng(5)
    for name, t in model.weights.items():
        if name.endswith(("wo", "w2")):
            t.assign_(rng.normal(scale=0.1, size=t.shape))
    return model.freeze()


def seq_of(ids, n_visual, n_answer):
    roles = (
        [V.Role.VISUAL] * n_visual
        + [V.Role.PROMPT] * (len(ids) - n_visual - n_answer)
        + [V.Role.ANSWER] * n_answer
    )
    return V.TokenSequence(list(ids), roles)


def test_autoreg_loss_uniform_logits_analytic():
    cfg = V.VLMConfig(layers=1, heads=1, dim=8, ffn_hidden=16, context=32, d_v=8)
    model = V.init_vlm(cfg, vocab_size=2, seed=0)
    for t in model.weights.values():
        t.assign_(np.zeros(t.shape))
    model = model.freeze()
    seq = seq_of([0, 0, 1, 1, 1], n_visual=2, n_answer=2)
    refined = Tensor(RNG.normal(size=(2, 8)))
    loss = A.autoreg_loss(refined, seq, model)
    assert abs(loss.item() - 2 * np.log(2)) < 1e-12


def test_autoreg_loss_frozen_vlm_gets_no_gradient():
    model = make_tiny_vlm()
    seq = seq_of([1, 2, 3, 4], n_visual=1, n_answer=2)
    refined = Tensor(RNG.normal(size=(1, 8)), requires_grad=True)
    with GradTape() as tape:
        loss = A.autoreg_loss(refined, seq, model)
    grads = backward(loss, tape)
    assert refined.id in grads
    for t in model.weights.values():
        assert t.id not in grads


def test_full_adapter_objective_gradient():
    model = make_tiny_vlm()
    params = A.init_adapter(dim=8, heads=2, seed=6)
    v_arr = RNG.normal(size=(2, 8))
    table = table_of(RNG.normal(size=(3, 8)))
    seq = seq_of([0, 0, 1, 2, 3], n_visual=2, n_answer=2)

    def f(plist):
        from rare_lens import autodiff as ad

        v = Tensor(v_arr)
        refined, _ = A.adapt(v, table.w, params, heads=2)
        return ad.add(A.rec_loss(v, refined), A.autoreg_loss(refined, seq, model))

    assert grad_check(f, list(params.values())) < 1e-4


ONE_EPOCH = A.AdapterConfig(heads=2, epochs=1, per_class_cap=4)


@pytest.fixture(scope="module")
def small_setup(mini_world, mini_fixture):
    model, tokenizer, _ = mini_fixture
    table = table_of(RNG.normal(size=(2, 32)))
    table.pair_token = 12345
    return mini_world, model, tokenizer, table


def test_adapter_fit_preserves_frozen_decoder(small_setup):
    world, model, tokenizer, table = small_setup
    before = model.checksum()
    adapter = A.VisualTokenAdapter(ONE_EPOCH, seed=0)
    adapter.fit(world, table, model, tokenizer)
    assert model.checksum() == before
    assert adapter.table_crc_ == 12345
    assert sum(t.array.size for t in adapter.params_.values()) == 4 * 32 * 32


def test_adapter_fit_epoch0_identity_consequences(small_setup):
    world, model, tokenizer, table = small_setup
    adapter = A.VisualTokenAdapter(ONE_EPOCH, seed=0)
    adapter.fit(world, table, model, tokenizer)
    # At init the refinement is the identity, so the first recorded rec loss
    # reflects a near-zero departure after only within-epoch updates.
    assert adapter.history_[0]["rec"] >= 0.0

    params = A.init_adapter(32, 2, seed=0)
    from rare_lens.world import VisionEncoder

    enc = VisionEncoder.for_world(world)
    meta = world.scenes("train")[0]
    v = V.connector(model, enc.encode(world.grid(meta.scene_id)))
    refined, _ = A.adapt(v, table.w, params, heads=2)
    seq = V.build_qa(tokenizer, v.shape[0], meta.question, meta.answer)
    base = V.sequence_nll(model, v, seq).item()
    with_adapter = A.autoreg_loss(refined, seq, model).item()
    assert with_adapter == base
    assert A.rec_loss(v, refined).item() == 0.0


def test_adapter_fit_deterministic(small_setup):
    world, model, tokenizer, table = small_setup
    a1 = A.VisualTokenAdapter(ONE_EPOCH, seed=0)
    a2 = A.VisualTokenAdapter(ONE_EPOCH, seed=0)
    a1.fit(world, table, model, tokenizer)
    a2.fit(world, table, model, tokenizer)
    assert a1.checksum() == a2.checksum()


def test_adapter_transform_shape_preserving(small_setup):
    world, model, tokenizer, table = small_setup
    adapter = A.VisualTokenAdapter(ONE_EPOCH, seed=0)
    adapter.fit(world, table, model, tokenizer)
    v = RNG.normal(size=(16, 32))
    out = adapter.transform(v, table)
    assert out.shape == v.shape
    assert np.isfinite(out).all()
