"""Frozen toy VLM: tokenizer, causal forward, generation, probes, fixture."""

import functools
import gc
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rare_lens
from rare_lens import autodiff as ad
from rare_lens import optim
from rare_lens import vlm as V
from rare_lens import world as w
from rare_lens.autodiff import Tensor
from rare_lens.errors import ContractError, GateError
from rare_lens.optim import AdamW, ForkedWorkers, mean_gradient

RNG = np.random.default_rng(11)


def make_vlm(layers=1, heads=1, dim=8, ffn=16, vocab=11, d_v=8, seed=5):
    cfg = V.VLMConfig(layers=layers, heads=heads, dim=dim, ffn_hidden=ffn, context=64, d_v=d_v)
    model = V.init_vlm(cfg, vocab, seed)
    # Give zero-initialized projections real values so the net is generic.
    rng = np.random.default_rng(seed + 1)
    for name, t in model.weights.items():
        if name.endswith(("wo", "w2")):
            t.assign_(rng.normal(scale=0.1, size=t.shape))
    return model


def seq_of(ids, n_visual=0, n_answer=0):
    n = len(ids)
    roles = (
        [V.Role.VISUAL] * n_visual
        + [V.Role.PROMPT] * (n - n_visual - n_answer)
        + [V.Role.ANSWER] * n_answer
    )
    return V.TokenSequence(list(ids), roles)


from conftest import MINI_FIXTURE_CFG, MINI_FIXTURE_SEED


def test_token_sequence_counts_its_visual_prefix():
    assert seq_of([0, 0, 5, 6], n_visual=2, n_answer=1).n_visual == 2
    assert seq_of([5, 6]).n_visual == 0
    assert V.TokenSequence([0, 0], [V.Role.VISUAL] * 2).n_visual == 2
    for roles in ([1, 0], [0, 1, 0], [0, 2, 0, 1]):
        with pytest.raises(ContractError, match="contiguous prefix"):
            V.TokenSequence([0] * len(roles), roles)
    with pytest.raises(ContractError, match="equal length"):
        V.TokenSequence([0], [])


def test_tokenizer_round_trip(mini_world):
    tok = V.Tokenizer.build(mini_world)
    text = "what object is in the marked region ?"
    assert tok.decode(tok.encode(text)) == text
    hint = "[ detected : cone , cube ]"
    ids = tok.encode(hint)
    assert tok.unk not in ids[:3] and tok.unk not in ids[-1:]


def test_tokenizer_ids_stable(mini_world):
    t1, t2 = V.Tokenizer.build(mini_world), V.Tokenizer.build(mini_world)
    assert t1.vocab == t2.vocab


def test_tokenizer_save_load(tmp_path, mini_world):
    tok = V.Tokenizer.build(mini_world)
    tok.save(tmp_path / "vocab.json")
    assert V.Tokenizer.load(tmp_path / "vocab.json").vocab == tok.vocab


def test_connector_identity_square():
    model = make_vlm(dim=8, d_v=8)
    model.weights["connector"].assign_(np.eye(8))
    u = RNG.normal(size=(3, 8))
    assert np.array_equal(V.connector(model, u).array, u)


def test_connector_frozen_and_matches_matmul_oracle():
    model = make_vlm(dim=8, d_v=8)
    u = RNG.normal(size=(4, 8))
    v1, v2 = V.connector(model, u).array, V.connector(model, u).array
    assert np.array_equal(v1, v2)
    assert np.abs(v1 - u @ model.weights["connector"].array).max() < 1e-12


def test_forward_is_strictly_causal():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11)
    ids = [1, 4, 7, 2, 9, 5]
    base = V.forward(model, None, seq_of(ids)).logits.array
    for j in range(len(ids)):
        mutated = list(ids)
        mutated[j] = (mutated[j] + 3) % 11
        out = V.forward(model, None, seq_of(mutated)).logits.array
        assert np.array_equal(out[:j], base[:j])
        if j < len(ids):
            assert not np.array_equal(out[j:], base[j:])


def test_forward_matches_hand_rolled_single_head_oracle():
    model = make_vlm(layers=1, heads=1, dim=8, ffn=16, vocab=11, d_v=8)
    ids = [3, 1, 4, 1, 5]
    visual = RNG.normal(size=(2, 8))
    seq = seq_of([0, 0] + ids, n_visual=2)
    got = V.forward(model, Tensor(visual), seq).logits.array

    w_ = {k: t.array for k, t in model.weights.items()}
    x = np.vstack([visual, w_["wte"][ids]])
    n = x.shape[0]
    x = x + w_["wpe"][:n]

    def rms(a):
        return a / np.sqrt((a * a).mean(axis=1, keepdims=True) + 1e-8)

    h = rms(x)
    q, k, v = h @ w_["layer0.wq"], h @ w_["layer0.wk"], h @ w_["layer0.wv"]
    scores = q @ k.T / np.sqrt(8)
    scores[np.triu_indices(n, k=1)] = -np.inf
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    x = x + (attn @ v) @ w_["layer0.wo"]
    f = rms(x) @ w_["layer0.w1"]
    t = np.tanh(np.sqrt(2 / np.pi) * (f + 0.044715 * f**3))
    x = x + (0.5 * f * (1 + t)) @ w_["layer0.w2"]
    expect = x @ model.head_array()
    assert np.abs(got - expect).max() < 1e-10


def test_forward_zero_visual_tokens_is_pure_lm():
    model = make_vlm()
    ids = [2, 5, 8]
    out = V.forward(model, None, seq_of(ids))
    assert out.n_visual == 0 and out.logits.shape == (3, 11)


def test_attention_rows_sum_to_one():
    model = make_vlm(layers=2, heads=2, dim=8)
    out = V.forward(model, Tensor(RNG.normal(size=(3, 8))), seq_of([0] * 3 + [1, 2, 3], n_visual=3))
    for attn in out.attentions:
        assert np.abs(attn.sum(axis=2) - 1.0).max() < 1e-10


def stepwise_generate(model, visual, prompt, max_len, on_forward=None):
    """Uncached greedy oracle: one full forward over the whole sequence per token."""
    ids, roles = list(prompt.ids), list(prompt.roles)
    out = []
    for _ in range(max_len):
        logits = V.forward(model, visual, V.TokenSequence(ids, roles)).logits.array[-1]
        if on_forward is not None:
            on_forward()
        tok = int(np.argmax(logits))
        out.append(tok)
        ids.append(tok)
        roles.append(V.Role.ANSWER)
        if tok == V.EOS_ID:
            break
    return out


def generate_one(model, visual, prompt, max_len):
    return V.generate(model, [V.DecodeRequest(visual, prompt)], max_len)[0]


def test_generate_deterministic_and_matches_stepwise_oracle():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11)
    prompt = seq_of([4, 2, 7])
    first = generate_one(model, None, prompt, max_len=5)
    assert first == generate_one(model, None, prompt, max_len=5)
    assert first == stepwise_generate(model, None, prompt, max_len=5)


def test_generate_with_visual_and_a_shared_prefix_matches_stepwise_oracle():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11, d_v=8)
    visual = Tensor(RNG.normal(size=(3, 8)))
    for seed in range(8):
        tail = list(np.random.default_rng(seed).integers(2, 11, size=4))
        prompt = seq_of([0] * 3 + tail, n_visual=3)
        expect = stepwise_generate(model, visual, prompt, max_len=6)
        assert generate_one(model, visual, prompt, max_len=6) == expect
        for cut in (4, 5, len(prompt.ids) - 1):
            # The prompt, one that stops at the cut (an inner trie row) and one
            # that branches off there, all on one visual Tensor.
            head = seq_of(prompt.ids[:cut], n_visual=3)
            branch = seq_of(prompt.ids[:cut] + [(prompt.ids[cut] + 1) % 11], n_visual=3)
            batch = [V.DecodeRequest(visual, p) for p in (head, prompt, branch)]
            assert V.generate(model, batch, max_len=6) == [
                stepwise_generate(model, visual, head, max_len=6), expect,
                stepwise_generate(model, visual, branch, max_len=6)]


def random_prompt(seed):
    """(visual or None, prompt): 0-3 visual rows, then 1-5 text tokens."""
    rng = np.random.default_rng(seed)
    n_visual = int(rng.integers(0, 4))
    tail = list(rng.integers(2, 11, size=int(rng.integers(1, 6))))
    visual = Tensor(rng.normal(size=(n_visual, 8))) if n_visual else None
    return visual, seq_of([0] * n_visual + tail, n_visual=n_visual)


def trie_rows(requests) -> int:
    """Distinct prefixes of a batch: what one trie prefill runs."""
    return len({(id(r.visual), tuple(r.prompt.ids[: i + 1]))
                for r in requests for i in range(len(r.prompt.ids))})


@pytest.fixture(scope="module")
def mixed_batch():
    """A batch mixing every kind of request, with the per-prompt oracle answers.

    From a fixed pool of random prompts it takes ones that stop at <eos> on
    the first and on the second step and ones that never stop, with and
    without a visual block (text-only prompts), at different lengths. To
    them it adds a prompt that is a strict prefix of another on the same
    visual Tensor (its last trie row is an inner one), a branch off that
    prefix, a repeated request and an equal copy of one, and the same
    prompt on an equal-valued but distinct Tensor. Returns (model,
    requests, oracle answers, max_len).
    """
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11, d_v=8)
    max_len = 6
    by_stop: dict = {}
    for seed in range(400):
        visual, prompt = random_prompt(seed)
        out = stepwise_generate(model, visual, prompt, max_len)
        stop = len(out) if out[-1] == V.EOS_ID else None
        by_stop.setdefault((stop, visual is None, len(prompt.ids) > 4), []).append((visual, prompt))
    assert {stop for stop, _, _ in by_stop} >= {1, 2, None}
    requests = [V.DecodeRequest(visual, prompt) for visual, prompt in
                (pairs[0] for pairs in by_stop.values())]
    r = next(r for r in requests if r.visual is not None and len(r.prompt.text_ids) > 1)
    ids, roles = r.prompt.ids, r.prompt.roles
    requests += [
        V.DecodeRequest(r.visual, V.TokenSequence(ids[:-1], roles[:-1])),
        V.DecodeRequest(r.visual, V.TokenSequence(ids[:-1] + [(ids[-1] + 1) % 11], roles)),
        r, V.DecodeRequest(r.visual, V.TokenSequence(list(ids), list(roles))),
        V.DecodeRequest(Tensor(r.visual.array.copy()), r.prompt),
    ]
    assert any(r.visual is None for r in requests)
    expect = [stepwise_generate(model, r.visual, r.prompt, max_len) for r in requests]
    assert len({len(out) for out in expect}) > 1
    assert trie_rows(requests) < sum(len(r.prompt.ids) for r in requests)
    return model, requests, expect, max_len


def test_batched_generate_equals_the_per_prompt_oracle(mixed_batch):
    model, requests, expect, max_len = mixed_batch
    assert V.generate(model, requests, max_len) == expect
    for r, out in zip(requests, expect):
        assert V.generate(model, [r], max_len) == [out]


def test_batched_generate_step_logits_match_per_prompt_forwards(mixed_batch, monkeypatch):
    model, requests, expect, max_len = mixed_batch
    steps = []
    real = V._decode_step

    def recorded(*args, **kwargs):
        steps.append((len(args[3]), real(*args, **kwargs)))
        return steps[-1][1]

    monkeypatch.setattr(V, "_decode_step", recorded)
    V.generate(model, requests, max_len)
    # The prefill runs each distinct prefix once, and requests that end on one
    # row decode once: rows come in order of each one's first request.
    assert steps[0][0] == trie_rows(requests)
    first = {}
    for r, out in zip(requests, expect):
        first.setdefault((id(r.visual), tuple(r.prompt.ids)), (r, out))
    assert len(first) < len(requests)
    assert len(steps) == max(len(out) for out in expect)
    for s, (n_rows, logits) in enumerate(steps):
        live = [(r, out) for r, out in first.values() if len(out) > s]
        assert logits.shape == (len(live), 11)
        assert s == 0 or n_rows == len(live)
        for row, (r, out) in zip(logits, live):
            seq = V.TokenSequence(r.prompt.ids + out[:s], r.prompt.roles + [V.Role.ANSWER] * s)
            want = V.forward(model, r.visual, seq).logits.array[-1]
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


def dense_decode_step(vlm, kv, visuals, segments, seen, rows=None, blocks=None):
    """The dense-mask pass generate ran before its rows were cut into blocks.

    Every new row's queries run against every key row in one attention call,
    with seen turned into an additive mask; `blocks` is ignored.
    """
    cfg, w = vlm.config, vlm.weights
    n_new, n = seen.shape
    mask = np.where(seen, 0.0, -np.inf)
    last = cfg.layers - 1

    def attend(i, q, k, v):
        keys, values = kv[i]
        keys[n - n_new : n], values[n - n_new : n] = k.array, v.array
        pruned = mask if rows is None or i < last else mask[rows]
        return ad.multihead_attention(q, Tensor(keys[:n]), Tensor(values[:n]), cfg.heads,
                                      pruned)[0]

    x = V._embed(w, visuals, segments)
    for i in range(cfg.layers):
        x = V._decoder_layer(w, i, x, attend, rows if i == last else None)
    return ad.matmul(x, vlm.head_tensor()).array


def on(visual, tail):
    """A request with `visual` (or None) and text tokens `tail`."""
    m = 0 if visual is None else visual.shape[0]
    return V.DecodeRequest(visual, seq_of([0] * m + tail, n_visual=m))


def multi_root_batch():
    """Four roots: two visual Tensors whose requests interleave, and text-only
    prompts on two first tokens, with shared prefixes and a repeat."""
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11, d_v=8)
    rng = np.random.default_rng(3)
    a, b = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(2, 8)))
    requests = [on(a, [4, 5, 6]), on(b, [4, 5]), on(None, [3, 6, 2]), on(a, [4, 5, 7, 8]),
                on(None, [5, 2]), on(b, [4, 9]), on(None, [3, 6]), on(a, [4, 5, 6]),
                on(None, [5, 2, 7, 7])]
    return model, requests, 6


def sweep_shaped_batch():
    """A bench sweep scene in miniature: 14 arms over plain and refined visual
    Tensors, 6 classes, hint suffixes of the ranked names (k 1 to 9)."""
    model = make_vlm(layers=2, heads=2, dim=8, vocab=24, d_v=8)
    rng = np.random.default_rng(4)
    plain, refined = Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(5, 8)))
    names, ranked = list(range(12, 18)), [14, 12, 17, 13, 16, 15]
    question = [0, 4, 5, 6, 7, 8, 9]  # <bos> first

    def hinted(hints):
        commas = [t for name in hints for t in (21, name)][1:]
        return question + ([18, 19, 20, *commas, 22] if hints else [])

    arms = [(plain, []), (refined, []), (plain, ranked[:3]), (plain, names), (refined, ranked[:3])]
    arms += [(plain, ranked[:k]) for k in range(1, 10)]
    return model, [on(visual, hinted(hints)) for visual, hints in arms], 3


def root_ranges(requests) -> list:
    """(start, stop) trie rows of each root, roots in order of first request."""
    roots: dict = {}
    for r in requests:
        roots.setdefault(id(r.visual) if r.prompt.n_visual else r.prompt.ids[0], []).append(r)
    stops = np.cumsum([trie_rows(group) for group in roots.values()]).tolist()
    return list(zip([0] + stops[:-1], stops))


@pytest.mark.parametrize("batch", [multi_root_batch, sweep_shaped_batch])
def test_per_root_prefill_matches_the_dense_mask_oracle(batch, monkeypatch):
    model, requests, max_len = batch()
    assert len(root_ranges(requests)) >= 2
    runs = {}
    for name, step in (("blocks", V._decode_step), ("dense", dense_decode_step)):
        logits = []

        def recorded(*args, step=step, logits=logits, **kwargs):
            logits.append(step(*args, **kwargs))
            return logits[-1]

        monkeypatch.setattr(V, "_decode_step", recorded)
        runs[name] = V.generate(model, requests, max_len), logits
    (answers, logits), (dense_answers, dense_logits) = runs["blocks"], runs["dense"]
    assert answers == dense_answers
    assert answers == [stepwise_generate(model, r.visual, r.prompt, max_len) for r in requests]
    assert len(logits) == len(dense_logits)
    for got, want in zip(logits, dense_logits):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("batch", [multi_root_batch, sweep_shaped_batch])
def test_prefill_attention_never_mixes_roots(batch, monkeypatch):
    model, requests, max_len = batch()
    ranges = root_ranges(requests)
    calls, kv_of_pass = [], []
    real_step, real_attention = V._decode_step, ad.multihead_attention

    def step(vlm, kv, *args, **kwargs):
        kv_of_pass.append(kv)
        return real_step(vlm, kv, *args, **kwargs)

    def attention(q, k, v, *args, **kwargs):
        if len(kv_of_pass) == 1:  # the prefill
            layer = next(i for i, (keys, _) in enumerate(kv_of_pass[0])
                         if np.shares_memory(k.array, keys))
            keys = kv_of_pass[0][layer][0]
            start = (k.array.ctypes.data - keys.ctypes.data) // keys.strides[0]
            calls.append((layer, start, start + k.shape[0]))
        return real_attention(q, k, v, *args, **kwargs)

    monkeypatch.setattr(V, "_decode_step", step)
    monkeypatch.setattr(ad, "multihead_attention", attention)
    V.generate(model, requests, max_len)
    assert len(kv_of_pass) > 1
    # One call per root and layer, each over exactly that root's rows.
    assert calls == [(layer, *span) for layer in range(model.config.layers) for span in ranges]
    assert max(stop - start for _, start, stop in calls) == max(b - a for a, b in ranges)
    assert max(b - a for a, b in ranges) < trie_rows(requests)


def test_generate_context_overflow_raises_at_the_uncached_step(monkeypatch):
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11)
    prompt = seq_of([4, 2, 7] * 21)  # context - 1 = 63 tokens
    assert len(prompt.ids) == model.config.context - 1
    done = {"oracle": 0, "cached": 0}

    def oracle_step():
        done["oracle"] += 1

    with pytest.raises(ContractError, match="exceeds context"):
        stepwise_generate(model, None, prompt, max_len=3, on_forward=oracle_step)
    assert done["oracle"] == 2  # lengths 63 and 64 run; 65 does not

    real = V._decode_step

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        done["cached"] += 1
        return out

    monkeypatch.setattr(V, "_decode_step", counted)
    with pytest.raises(ContractError, match="exceeds context"):
        generate_one(model, None, prompt, max_len=3)
    assert done["cached"] == done["oracle"]
    # In a batch with a prompt on its trie path, the longest prompt
    # overflows at its own step.
    done["cached"] = 0
    with pytest.raises(ContractError, match="exceeds context"):
        V.generate(model, [V.DecodeRequest(None, seq_of([4, 2])),
                           V.DecodeRequest(None, prompt)], max_len=3)
    assert done["cached"] == done["oracle"]
    with pytest.raises(ContractError, match="exceeds context"):  # at the prefill
        generate_one(model, None, seq_of([4, 2, 7] * 22), max_len=1)


def test_generate_max_len_zero_is_empty(mixed_batch, monkeypatch):
    model = make_vlm()
    batch_model, requests, _, _ = mixed_batch

    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran")

    monkeypatch.setattr(V, "forward", no_forward)
    monkeypatch.setattr(V, "_decode_step", no_forward)
    assert generate_one(model, None, seq_of([1, 2]), max_len=0) == []
    assert V.generate(batch_model, requests, max_len=0) == [[] for _ in requests]
    assert V.generate(batch_model, [], max_len=3) == []


def test_generate_needs_a_text_token_in_every_prompt():
    model = make_vlm(d_v=8)
    visual = Tensor(RNG.normal(size=(2, 8)))
    fine = V.DecodeRequest(None, seq_of([1, 2]))
    for empty in (V.DecodeRequest(None, seq_of([])),
                  V.DecodeRequest(visual, seq_of([0, 0], n_visual=2))):
        with pytest.raises(ContractError, match="nonempty"):
            V.generate(model, [fine, empty], max_len=2)


def test_generate_rejects_a_visual_block_of_another_size():
    model = make_vlm(d_v=8)
    visual = Tensor(RNG.normal(size=(2, 8)))
    for block, prompt in ((visual, seq_of([0, 0, 0, 3], n_visual=3)),
                          (Tensor(visual.array[:1]), seq_of([0, 0, 3], n_visual=2)),
                          (visual, seq_of([3, 4])),
                          (None, seq_of([0, 0, 3], n_visual=2))):
        with pytest.raises(ContractError, match="visual positions"):
            generate_one(model, block, prompt, max_len=2)


def test_sequence_nll_uniform_logits_analytic():
    model = make_vlm(layers=1, heads=1, dim=8, vocab=2)
    for t in model.weights.values():
        t.assign_(np.zeros(t.shape))
    seq = seq_of([1, 0, 1, 1], n_answer=2)
    loss = V.sequence_nll(model, None, seq)
    assert abs(loss.item() - 2 * np.log(2)) < 1e-12


def test_sequence_nll_modes_and_empty_supervision():
    model = make_vlm()
    seq = seq_of([1, 2, 3, 4], n_answer=1)
    assert V.sequence_nll(model, None, seq).item() > 0
    with pytest.raises(ContractError):
        V.sequence_nll(model, None, seq_of([1, 2]))


def random_batch(rng, shapes, vocab=11, d_v=8):
    """(visual rows per sequence, sequences) for (length, n_visual, n_answer) shapes."""
    seqs = [seq_of(rng.integers(0, vocab, size=n).tolist(), nv, na) for n, nv, na in shapes]
    visuals = [Tensor(rng.normal(size=(nv, d_v)), requires_grad=True) for _, nv, _ in shapes]
    return visuals, seqs


def batch_and_oracle(model, visuals, seqs):
    params = model.parameters() + visuals
    with ad.GradTape() as tape:
        stacked = [v for v in visuals if v.shape[0]]
        batched = V.batch_nll(model, ad.concat_rows(stacked) if stacked else None, seqs)
    got = ad.backward(batched, tape)
    with ad.GradTape() as tape:
        parts = [V._unpruned_nll(model, v if v.shape[0] else None, s)
                 for v, s in zip(visuals, seqs)]
        summed = functools.reduce(ad.add, parts)
    want = ad.backward(summed, tape)
    zero = np.zeros(())
    grad_err = max(
        np.abs(got.get(p.id, zero) - want.get(p.id, zero)).max()
        / max(1.0, np.abs(want.get(p.id, zero)).max())
        for p in params
    )
    return batched.item(), summed.item(), grad_err


@pytest.mark.parametrize("shapes", [
    [(9, 3, 2), (14, 3, 1), (6, 0, 2), (11, 4, 3), (7, 2, 2)],  # mixed lengths
    [(12, 4, 2)],  # a batch of one
    [(8, 3, 2)] * 4,  # equal lengths
    [(7, 2, 2), (9, 3, 1), (16, 4, 3)],  # the longest sequence last
    [(10, 3, 2), (2, 1, 1), (8, 0, 2)],  # a 2-row sequence: one visual row, one answer
])
def test_batch_nll_matches_per_sequence_oracle(shapes):
    rng = np.random.default_rng(len(shapes))
    model = make_vlm(layers=3, heads=2, dim=8, ffn=16, seed=len(shapes))
    visuals, seqs = random_batch(rng, shapes)
    batched, summed, grad_err = batch_and_oracle(model, visuals, seqs)
    assert abs(batched - summed) <= 1e-12 * abs(summed)
    assert grad_err <= 1e-10
    with pytest.raises(ContractError):  # every batch here has visual rows
        V.batch_nll(model, None, seqs)
    with pytest.raises(ContractError):
        V.batch_nll(model, None, [])
    with pytest.raises(ContractError):
        V.batch_nll(model, None, [seq_of([1, 2, 3], n_answer=1), seq_of([4, 5], n_answer=2)])


# Central differences through every decoder weight, the tied wte included,
# against the tape. Weights drawn at scale 0.3, so attention is far from
# uniform and each key gradient is large enough to show a fault: the clean
# errors measure 3.5e-10 and 9.8e-10; attention's key gradient scaled by
# 1 + 1e-6 reads 7.2e-7 and 1.5e-6. The bound sits 10x above the clean ones.
DECODER_GRAD_BOUND = 1e-8


@pytest.mark.parametrize("batched", [False, True], ids=["unpruned_nll", "batch_nll"])
def test_decoder_weight_gradients_pass_grad_check(batched):
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)
    rng = np.random.default_rng(3)
    for t in model.weights.values():
        t.assign_(rng.normal(scale=0.3, size=t.shape))
    features, seqs = fixture_batch([(9, 3, 2), (12, 2, 3), (7, 3, 1)], seed=7)
    if batched:
        def loss(_):
            return V.batch_nll(model, V.connector(model, np.concatenate(features)), seqs)
    else:
        def loss(_):  # the fixture's training loss of one sequence
            return V._unpruned_nll(model, V.connector(model, features[0]), seqs[0])
    assert ad.grad_check(loss, model.parameters()) < DECODER_GRAD_BOUND


def test_pruned_last_layer_gives_forward_target_logprobs():
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)
    m = 3
    ids = [0] * m + [4, 2, 7, 1, 9, 3]
    visual = Tensor(RNG.normal(size=(m, 8)))
    logprobs = ad.log_softmax_rows(V.forward(model, visual, seq_of(ids, n_visual=m)).logits).array
    for p in range(m + 1, len(ids)):
        roles = [V.Role.VISUAL] * m + [V.Role.PROMPT] * (len(ids) - m)
        roles[p] = V.Role.ANSWER
        nll = V.sequence_nll(model, visual, V.TokenSequence(ids, roles)).item()
        assert abs(-nll - logprobs[p - 1, ids[p]]) < 1e-12


def test_batched_training_steps_match_the_per_sequence_loop():
    """Two AdamW steps on batch_nll land where the old one-forward-per-sequence loop does."""
    rng = np.random.default_rng(4)
    shapes = [(9, 3, 2), (13, 3, 2), (10, 3, 1)]
    features = [rng.normal(size=(nv, 8)) for _, nv, _ in shapes]
    _, seqs = random_batch(rng, shapes)
    trained = []
    for batched in (True, False):
        model = make_vlm(layers=2, heads=2, dim=8, ffn=16)
        optimizer = AdamW(model.parameters(), lr=2e-3)
        for _ in range(2):
            with ad.GradTape() as tape:
                if batched:
                    loss = V.batch_nll(model, V.connector(model, np.concatenate(features)), seqs)
                else:
                    losses = [V._unpruned_nll(model, V.connector(model, f), s)
                              for f, s in zip(features, seqs)]
                    loss = functools.reduce(ad.add, losses)
                loss = ad.scale(loss, 1.0 / len(seqs))
            optimizer.step(ad.backward(loss, tape))
        trained.append(model.weights)
    for name, t in trained[0].items():
        assert np.abs(t.array - trained[1][name].array).max() < 1e-10, name


def fixture_batch(shapes, seed=4):
    """Visual features and sequences of mixed lengths, as the fixture trains on."""
    rng = np.random.default_rng(seed)
    features = [rng.normal(size=(nv, 8)) for _, nv, _ in shapes]
    _, seqs = random_batch(rng, shapes)
    return features, seqs


FIXTURE_SHAPES = [(9, 3, 2), (13, 3, 2), (10, 3, 1), (12, 3, 3), (8, 3, 1), (15, 3, 2), (11, 3, 2)]
# Three steps, the middle one on a short last chunk.
FIXTURE_CHUNKS = [[3, 0, 5, 1], [6, 2, 4], [2, 5, 1, 0]]


def serial_step(model, features, seqs, chunk):
    """The fixture's serial step: one tape over the chunk, then backward."""
    with ad.GradTape() as tape:
        losses = [V._unpruned_nll(model, V.connector(model, features[j]), seqs[j]) for j in chunk]
        loss = ad.scale(functools.reduce(ad.add, losses), 1.0 / len(chunk))
    return ad.backward(loss, tape)


def forked_step(model, features, seqs, processes):
    """An AdamW on the model and ForkedWorkers, built on it, running the fixture's step."""
    task = mean_gradient(lambda j: V._unpruned_nll(model, V.connector(model, features[j]), seqs[j]))
    optimizer = AdamW(model.parameters(), lr=2e-3)
    workers = ForkedWorkers({"step": task}, V._result_floats(model, 4), optimizer, processes=processes)
    return optimizer, workers


def optimizer_state(opt):
    return [p.array for p in opt.params] + opt._m + opt._v


# Three processes give every process a share and the chunks of four a middle
# block; the chunk of three gives every process one item.
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_pooled_fixture_step_equals_one_tape_over_the_chunk(processes):
    """The sharded step lands where one tape over the chunk and a serial AdamW step do."""
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    serial, forked = [make_vlm(layers=2, heads=2, dim=8, ffn=16) for _ in range(2)]
    serial_optimizer = AdamW(serial.parameters(), lr=2e-3)
    optimizer, workers = forked_step(forked, features, seqs, processes)
    with workers:
        assert len(workers._children) == processes - 1 and all(workers._shares)
        arrays = optimizer_state(optimizer)
        for chunk in FIXTURE_CHUNKS:
            serial_optimizer.step(serial_step(serial, features, seqs, chunk))
            optimizer.step(workers.gradient("step", chunk))
            assert optimizer.t == serial_optimizer.t
            for got, want in zip(optimizer_state(optimizer), optimizer_state(serial_optimizer)):
                assert np.array_equal(got, want)
        # Every step wrote the arrays in place: nothing was rebound or refilled.
        assert all(a is b for a, b in zip(arrays, optimizer_state(optimizer)))


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_pooled_guard_pass_equals_the_serial_chunk_sum(processes):
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)
    pairs = list(zip(features, seqs))
    total = 0.0
    for s in range(0, len(pairs), 3):  # 3, 3 and a short chunk of 1
        part = pairs[s : s + 3]
        visual = V.connector(model, np.concatenate([f for f, _ in part]))
        total += V.batch_nll(model, visual, [q for _, q in part]).item()
    tasks = V._fixture_tasks(model, pairs, 3)
    with ForkedWorkers(tasks, V._result_floats(model, 3), AdamW(model.parameters()),
                       processes=processes) as workers:
        assert V._mean_nll(workers, len(pairs), 3) == total / len(pairs)


def test_fanning_out_records_nothing_on_the_callers_tape_and_frees_worker_tapes():
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)
    want = serial_step(model, features, seqs, FIXTURE_CHUNKS[1])
    pairs = list(zip(features, seqs))

    def live_tapes():
        return sum(isinstance(o, ad.GradTape) for o in gc.get_objects())

    def open_tapes(items, lo, hi):
        return [(0, np.array([len(ad._TAPE_STACK.get()) for _ in items[lo:hi]]))]

    tasks = {**V._fixture_tasks(model, pairs, 3), "open_tapes": open_tapes}
    with ForkedWorkers(tasks, V._result_floats(model, 4), AdamW(model.parameters()),
                       processes=2) as workers:
        before = live_tapes()
        with ad.GradTape() as outer:
            got = workers.gradient("step", FIXTURE_CHUNKS[1])
            nll = V._mean_nll(workers, len(pairs), 3)
            depths = workers.run("open_tapes", range(4))
        assert outer.entries == []
        assert live_tapes() == before + 1  # the caller's own tape, and no block's
        assert [d.tolist() for block in depths for _, d in block] == [[0, 0], [0, 0]]
        share = [model.parameters()[i] for i in workers._shares[0]]
    assert np.isfinite(nll)
    assert 0 < len(got) == len(share) < len(model.parameters())  # the caller's share only
    for p in share:
        assert np.array_equal(want[p.id], got[p.id])


def test_a_fixture_step_holds_no_chunk_of_unsummed_gradients(mini_world):
    """One step's peak traced memory stays under 8x the parameter bytes.

    numpy reports its allocations to tracemalloc. On these shapes at one
    process, a step that kept the chunk's 8 per-sequence gradients unsummed
    until the block ended peaked at 12.0-13.0x over the chunks of an epoch;
    summing each contribution as backward makes it peaks at 4.7-5.7x (one
    sequence's tape and the running sums).
    """
    cfg = MINI_FIXTURE_CFG
    tokenizer = V.Tokenizer.build(mini_world)
    model = V.init_vlm(replace(cfg.vlm, d_v=mini_world.manifest.config.d_v), len(tokenizer), 0)
    encoder = w.VisionEncoder.for_world(mini_world)
    examples = V._fixture_examples(mini_world, encoder, cfg, np.random.default_rng(0))
    pairs = [(ex.features, V.build_qa(tokenizer, ex.features.shape[0], ex.prompt, ex.answer))
             for ex in examples]
    optimizer = AdamW(model.parameters(), lr=cfg.lr)
    param_bytes = sum(p.array.nbytes for p in model.parameters())
    with ForkedWorkers(V._fixture_tasks(model, pairs, 8), V._result_floats(model, 8), optimizer,
                       processes=1) as workers:
        optimizer.step(workers.gradient("step", range(8)))  # warm-up
        tracemalloc.start()
        try:
            grads = workers.gradient("step", range(8, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(grads) == len(model.parameters())
    assert peak < 8 * param_bytes, peak / param_bytes


def record_forks(monkeypatch) -> list:
    """Wrap os.fork so the caller's list receives the pid of every child made."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    """Each pid is gone, not even a zombie: a zombie still answers signal 0."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def broken_step_workers(model, features, seqs):
    """ForkedWorkers at 2 processes on a step whose sequence 5 raises."""

    def item_loss(j):
        if j == 5:
            raise ContractError("sequence 5 is broken")
        return V._unpruned_nll(model, V.connector(model, features[j]), seqs[j])

    return ForkedWorkers({"step": mean_gradient(item_loss)}, V._result_floats(model, 4),
                         AdamW(model.parameters()), processes=2)


def test_an_error_in_a_worker_process_is_raised_in_the_caller():
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)

    with broken_step_workers(model, features, seqs) as workers:
        pids = [pid for pid, _ in workers._children]
        assert len(pids) == 1
        with pytest.raises(ContractError, match="sequence 5") as info:
            workers.gradient("step", [5, 1, 0, 2])  # the child holds [5, 1], the caller [0, 2]
        assert any(f"worker process {pids[0]}" in note for note in info.value.__notes__)
        assert_reaped(pids)
        # A closed group runs every block in the caller and owns every share,
        # to the same bits.
        want = serial_step(model, features, seqs, [0, 1, 6, 2])
        got = workers.gradient("step", [0, 1, 6, 2])
    for p in model.parameters():
        assert np.array_equal(want[p.id], got[p.id])


def test_an_error_in_the_callers_block_is_raised_with_no_worker_note():
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)
    with broken_step_workers(model, features, seqs) as workers:
        pids = [pid for pid, _ in workers._children]
        with pytest.raises(ContractError, match="sequence 5") as info:
            workers.gradient("step", [0, 1, 5, 2])  # the caller holds [5, 2]
        assert not any("worker process" in note for note in getattr(info.value, "__notes__", []))
        assert len(pids) == 1 and workers.processes == 1
        assert_reaped(pids)


def test_no_worker_process_outlives_an_interrupted_fixture(mini_world, monkeypatch):
    steps, real_step = [], AdamW.step

    def step(self, grads):
        steps.append(self.t)
        if len(steps) == 3:
            raise KeyboardInterrupt
        real_step(self, grads)

    monkeypatch.setattr(optim, "worker_processes", lambda: 2)
    pids = record_forks(monkeypatch)
    monkeypatch.setattr(AdamW, "step", step)
    with pytest.raises(KeyboardInterrupt):
        V.pretrain_fixture(mini_world, MINI_FIXTURE_CFG, seed=MINI_FIXTURE_SEED)
    assert len(pids) == 1 and len(steps) == 3
    assert_reaped(pids)


def test_fixture_trains_to_the_same_bits_at_one_two_and_three_processes(mini_world, monkeypatch):
    """Whole fixture trainings agree at every process count, a rejected epoch included.

    At this lr the guard rolls back the third epoch: a rollback that rebound
    the arrays instead of writing them in place would leave each child's
    share at the rejected values, and the fourth epoch would differ.
    """
    cfg = replace(MINI_FIXTURE_CFG, epochs=4, lr=3e-2, gate_common=0.0, gate_rare=1.0)
    decisions, real_accept = [], optim.MonotoneGuard.accept

    def accept(self, loss):
        decisions.append(real_accept(self, loss))
        return decisions[-1]

    monkeypatch.setattr(optim.MonotoneGuard, "accept", accept)
    runs = []
    for processes in (1, 2, 3):
        monkeypatch.setattr(optim, "worker_processes", lambda: processes)
        pids = record_forks(monkeypatch)
        decisions.clear()
        model, _, log = V.pretrain_fixture(mini_world, cfg, seed=MINI_FIXTURE_SEED)
        assert len(pids) == 2 * (processes - 1)  # the training's children, then the gate's
        assert_reaped(pids)
        assert False in decisions[:-1], decisions
        runs.append((model.checksum(), log["epoch_losses"]))
    assert runs[0] == runs[1] == runs[2]


def test_worker_processes_never_flush_the_callers_stdout(tmp_path):
    # Text left in the stdout buffer when the children fork must be written
    # once, by the caller: a child that flushed its copy would write it again.
    script = """if True:
        import os, sys
        from rare_lens import optim, vlm as V, world as w
        forks = []
        real_fork = os.fork
        def fork():
            pid = real_fork()
            forks.append(pid)
            return pid
        os.fork = fork
        optim.worker_processes = lambda: 2
        world = w.generate_dataset(w.DatasetConfig(
            n_classes=2, grid=4, d_v=16, d_t=16, rare_count=0, rare_n=5, common_n=100,
            test_per_class=2, alpha=4.0), seed=13)
        sys.stdout.write("written before the fixture, not flushed")
        cfg = V.FixtureConfig(epochs=1, gate_common=0.0, vlm=V.VLMConfig(
            layers=1, heads=2, dim=8, ffn_hidden=16, context=64, d_v=16))
        V.pretrain_fixture(world, cfg, seed=0)
        sys.stderr.write(f"forks {len(forks)}")
    """
    src = str(Path(rare_lens.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # keep it buffered
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "forks 2"  # one child for training, one for the gate
    assert proc.stdout == "written before the fixture, not flushed"


def test_vlm_config_needs_a_layer():
    with pytest.raises(ContractError):
        V.VLMConfig(layers=0)


def test_attention_probe_zero_visual():
    model = make_vlm(layers=2, heads=2, dim=8)
    seq = seq_of([1, 2, 3], n_answer=1)
    out = V.forward(model, None, seq)
    assert np.array_equal(V.attention_probe(out, seq, 2), np.zeros(2))


def test_attention_probe_uniform_case_analytic():
    model = make_vlm(layers=1, heads=1, dim=8, d_v=8)
    model.weights["layer0.wq"].assign_(np.zeros((8, 8)))
    model.weights["layer0.wk"].assign_(np.zeros((8, 8)))
    m = 3
    seq = seq_of([0] * m + [1, 2, 4], n_visual=m, n_answer=1)
    out = V.forward(model, Tensor(RNG.normal(size=(m, 8))), seq)
    obj = len(seq.ids) - 1
    probe = V.attention_probe(out, seq, obj)
    assert abs(probe[0] - m / (obj + 1)) < 1e-12


def test_attention_probe_matches_summation_oracle():
    model = make_vlm(layers=2, heads=2, dim=8, d_v=8)
    m = 4
    seq = seq_of([0] * m + [1, 2, 4, 5], n_visual=m, n_answer=2)
    out = V.forward(model, Tensor(RNG.normal(size=(m, 8))), seq)
    obj = len(seq.ids) - 2
    probe = V.attention_probe(out, seq, obj)
    for ell, attn in enumerate(out.attentions):
        expect = np.mean([attn[h, obj, :m].sum() for h in range(attn.shape[0])])
        assert abs(probe[ell] - expect) < 1e-12
    assert np.all(probe >= 0) and np.all(probe <= 1)


def test_attention_probe_requires_answer_position():
    model = make_vlm()
    seq = seq_of([1, 2, 3], n_answer=1)
    out = V.forward(model, None, seq)
    with pytest.raises(ContractError):
        V.attention_probe(out, seq, 0)
    with pytest.raises(ContractError):
        V.attention_probe(out, seq, 9)


def test_logit_lens_last_layer_consistent_with_generation():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11)
    seq = seq_of([4, 2, 7, 1], n_answer=1)
    out = V.forward(model, None, seq)
    lens = V.logit_lens(model, out, [len(seq.ids) - 1])
    # Final-layer lens argmax at the last position equals the next greedy token.
    assert int(np.argmax(lens[-1, 0])) == int(np.argmax(out.logits.array[-1]))


def test_logit_lens_rank_bounds_and_per_cell_oracle():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11, d_v=8)
    m = 4
    seq = seq_of([0] * m + [1, 2], n_visual=m)
    out = V.forward(model, Tensor(RNG.normal(size=(m, 8))), seq)
    positions = [0, 1, 3]
    lens = V.logit_lens(model, out, positions)
    head = model.head_array()
    for ell in range(2):
        for pi, p in enumerate(positions):
            logits = out.hiddens[ell + 1].array[p] @ head
            e = np.exp(logits - logits.max())
            expect = e / e.sum()
            assert np.abs(lens[ell, pi] - expect).max() < 1e-12
            rank = V.token_rank(lens[ell, pi], 7)
            assert 0 <= rank < 11


def test_token_rank_tie_breaks_by_id():
    row = np.array([0.2, 0.4, 0.4])
    assert V.token_rank(row, 1) == 0
    assert V.token_rank(row, 2) == 1
    assert V.token_rank(row, 0) == 2


def test_context_overflow_raises():
    model = make_vlm()
    ids = [1] * 70
    with pytest.raises(ContractError):
        V.forward(model, None, seq_of(ids))


@pytest.fixture(scope="module")
def fixture_run(mini_fixture):
    return MINI_FIXTURE_CFG, mini_fixture


def test_fixture_gate_and_loss_curve(fixture_run, mini_world):
    cfg, (model, tokenizer, log) = fixture_run
    assert model.frozen
    assert log["gate"]["common_accuracy"] >= cfg.gate_common
    losses = log["epoch_losses"]
    assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))


def test_fixture_deterministic_checksum(fixture_run, mini_world):
    cfg, (model, _, log) = fixture_run
    model2, _, log2 = V.pretrain_fixture(mini_world, cfg, seed=MINI_FIXTURE_SEED)
    assert model.checksum() == model2.checksum() == log2["checksum"]


def test_fixture_gate_error_when_untrained(mini_world):
    cfg = V.FixtureConfig(
        epochs=0,
        vlm=V.VLMConfig(layers=1, heads=1, dim=16, ffn_hidden=16, context=64, d_v=16),
    )
    with pytest.raises(GateError):
        V.pretrain_fixture(mini_world, cfg, seed=0)


def test_connector_dimension_mismatch():
    from rare_lens.errors import ShapeError

    model = make_vlm(dim=8, d_v=8)
    with pytest.raises(ShapeError):
        V.connector(model, RNG.normal(size=(3, 5)))
