"""Frozen toy VLM: tokenizer, causal forward, generation, probes, fixture."""

import functools
import gc
import os
import subprocess
import sys
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
from rare_lens.optim import AdamW, ForkedWorkers, fold, mean_gradient

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


def test_generate_deterministic_and_matches_stepwise_oracle():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11)
    prompt = seq_of([4, 2, 7])
    first = V.generate(model, None, prompt, max_len=5)
    assert first == V.generate(model, None, prompt, max_len=5)
    assert first == stepwise_generate(model, None, prompt, max_len=5)


def test_generate_with_visual_and_past_matches_stepwise_oracle():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11, d_v=8)
    visual = Tensor(RNG.normal(size=(3, 8)))
    for seed in range(8):
        tail = list(np.random.default_rng(seed).integers(2, 11, size=4))
        prompt = seq_of([0] * 3 + tail, n_visual=3)
        expect = stepwise_generate(model, visual, prompt, max_len=6)
        assert V.generate(model, visual, prompt, max_len=6) == expect
        for cut in (3, 4, len(prompt.ids) - 1):
            head = V.TokenSequence(prompt.ids[:cut], prompt.roles[:cut])
            past = V.forward(model, visual, head).kv
            assert V.generate(model, None, prompt, max_len=6, past=past) == expect


def test_forward_with_past_matches_full_forward_rows():
    model = make_vlm(layers=2, heads=2, dim=8, vocab=11, d_v=8)
    visual = Tensor(RNG.normal(size=(3, 8)))
    seq = seq_of([0] * 3 + [4, 2, 7, 9, 5], n_visual=3, n_answer=2)
    full = V.forward(model, visual, seq)
    for cut in (3, 5, 7):
        head = V.forward(model, visual, V.TokenSequence(seq.ids[:cut], seq.roles[:cut]))
        tail = V.forward(
            model, None, V.TokenSequence(seq.ids[cut:], seq.roles[cut:]), past=head.kv
        )
        expect = full.logits.array[cut:]
        assert np.abs(tail.logits.array - expect).max() <= 1e-12 * np.abs(expect).max()
        for (k, v), (fk, fv) in zip(tail.kv, full.kv):
            assert k.shape == fk.shape and v.shape == fv.shape
        assert tail.attentions[0].shape == (2, len(seq.ids) - cut, len(seq.ids))


def test_forward_with_past_rejects_visual_block():
    model = make_vlm(d_v=8)
    visual = Tensor(RNG.normal(size=(2, 8)))
    past = V.forward(model, visual, seq_of([0, 0, 3], n_visual=2)).kv
    with pytest.raises(ContractError):
        V.forward(model, visual, seq_of([0, 0, 4], n_visual=2), past=past)


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

    real = V.forward

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        done["cached"] += 1
        return out

    monkeypatch.setattr(V, "forward", counted)
    with pytest.raises(ContractError, match="exceeds context"):
        V.generate(model, None, prompt, max_len=3)
    assert done["cached"] == done["oracle"]


def test_generate_max_len_zero_is_empty(monkeypatch):
    model = make_vlm()
    past = V.forward(model, None, seq_of([1])).kv

    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran")

    monkeypatch.setattr(V, "forward", no_forward)
    assert V.generate(model, None, seq_of([1, 2]), max_len=0) == []
    assert V.generate(model, None, seq_of([1, 2]), max_len=0, past=past) == []


def test_generate_past_must_leave_a_prompt_position():
    model = make_vlm()
    past = V.forward(model, None, seq_of([1, 2])).kv
    with pytest.raises(ContractError):
        V.generate(model, None, seq_of([1, 2]), max_len=2, past=past)


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
    [(8, 3, 2)] * 4,  # equal lengths: no padding
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
    """ForkedWorkers running the fixture's step on the given sequences."""
    task = mean_gradient(lambda j: V._unpruned_nll(model, V.connector(model, features[j]), seqs[j]))
    return ForkedWorkers(model.parameters(), {"step": task}, V._result_floats(model, 4),
                         processes=processes)


# Three processes give the chunks of four a middle block, which ships its
# contributions unsummed; the chunk of three gives every process one item.
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_pooled_fixture_step_equals_one_tape_over_the_chunk(processes):
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    models = [make_vlm(layers=2, heads=2, dim=8, ffn=16) for _ in range(2)]
    optimizers = [AdamW(m.parameters(), lr=2e-3) for m in models]
    serial, forked = models
    with forked_step(forked, features, seqs, processes) as workers:
        assert len(workers._children) == processes - 1
        for chunk in FIXTURE_CHUNKS:
            want = serial_step(serial, features, seqs, chunk)
            got = fold(workers.run("step", chunk))
            for p, q in zip(serial.parameters(), forked.parameters()):
                assert np.array_equal(want[p.id], got[q.id])
            assert len(got) == len(forked.parameters())
            optimizers[0].step(want)
            optimizers[1].step(got)
    for name, t in serial.weights.items():
        assert np.array_equal(t.array, forked.weights[name].array), name


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
    with ForkedWorkers(model.parameters(), tasks, V._result_floats(model, 3), processes=processes) as workers:
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
    with ForkedWorkers(model.parameters(), tasks, V._result_floats(model, 4), processes=2) as workers:
        before = live_tapes()
        with ad.GradTape() as outer:
            got = fold(workers.run("step", FIXTURE_CHUNKS[1]))
            nll = V._mean_nll(workers, len(pairs), 3)
            depths = workers.run("open_tapes", range(4))
        assert outer.entries == []
        assert live_tapes() == before + 1  # the caller's own tape, and no block's
        assert [d.tolist() for block in depths for _, d in block] == [[0, 0], [0, 0]]
    assert np.isfinite(nll)
    for p in model.parameters():
        assert np.array_equal(want[p.id], got[p.id])


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


def test_an_error_in_a_worker_process_is_raised_in_the_caller():
    features, seqs = fixture_batch(FIXTURE_SHAPES)
    model = make_vlm(layers=2, heads=2, dim=8, ffn=16)

    def item_loss(j):
        if j == 5:
            raise ContractError("sequence 5 is broken")
        return V._unpruned_nll(model, V.connector(model, features[j]), seqs[j])

    task = mean_gradient(item_loss)
    with ForkedWorkers(model.parameters(), {"step": task}, V._result_floats(model, 4), processes=2) as workers:
        pids = [pid for pid, _, _ in workers._children]
        assert len(pids) == 1
        with pytest.raises(ContractError, match="sequence 5") as info:
            workers.run("step", [0, 1, 5, 2])  # the child holds [5, 2]
        assert any(f"worker process {pids[0]}" in note for note in info.value.__notes__)
        assert_reaped(pids)
        # A closed group runs every block in the caller, to the same bits.
        want = serial_step(model, features, seqs, [0, 1, 6, 2])
        got = fold(workers.run("step", [0, 1, 6, 2]))
    for p in model.parameters():
        assert np.array_equal(want[p.id], got[p.id])


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
