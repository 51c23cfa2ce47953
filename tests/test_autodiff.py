"""Numerics: op semantics, tape gradients vs finite differences, invariants."""

import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare_lens import autodiff as ad
from rare_lens.autodiff import GradTape, Tensor, backward, grad_check
from rare_lens.errors import ContractError, ShapeError

RNG = np.random.default_rng(20240817)


def test_matmul_identity():
    a = Tensor(RNG.normal(size=(2, 2)))
    eye = Tensor(np.eye(2))
    assert np.array_equal(ad.matmul(eye, a).array, a.array)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).array, [[2.0], [4.0]])


def test_matmul_matches_triple_loop_oracle():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    got = ad.matmul(Tensor(a), Tensor(b)).array
    assert np.abs(got - expect).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softmax_uniform_row():
    out = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]])).array
    assert np.abs(out - 1.0 / 3.0).max() < 1e-15


def test_softmax_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 0.0]])).array
    assert abs(out[0, 0] - 1.0) < 1e-12
    assert abs(out[0, 1]) < 1e-12


def test_softmax_matches_high_precision_oracle():
    row = [1.0, 2.0, 3.0]
    with mpmath.workdps(40):
        exps = [mpmath.exp(v) for v in row]
        total = mpmath.fsum(exps)
        expect = np.array([float(e / total) for e in exps])
    got = ad.softmax_rows(Tensor([row])).array[0]
    assert np.abs(got - expect).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one(rows):
    out = ad.softmax_rows(Tensor(rows)).array
    assert np.all(out >= 0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_backward_sum_gives_ones():
    x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum_all(x)
    grads = backward(loss, tape)
    assert np.array_equal(grads[x.id], np.ones((3, 2)))


def test_backward_squared_norm_gives_2x():
    x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
    grads = backward(loss, tape)
    assert np.abs(grads[x.id] - 2 * x.array).max() < 1e-12


def test_backward_requires_scalar_loss():
    x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with GradTape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_composite_matches_finite_differences():
    w = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=3), requires_grad=True)
    x = Tensor(RNG.normal(size=(5, 3)))

    def f(params):
        h = ad.gelu(ad.add_bias(ad.matmul(x, params[0]), params[1]))
        p = ad.softmax_rows(h)
        return ad.mean_all(ad.mul(p, p))

    assert grad_check(f, [w, b], eps=1e-5) < 1e-4


def test_grad_check_quadratic_is_exact():
    a = RNG.normal(size=(4, 4))
    q = a @ a.T + 4 * np.eye(4)
    x = Tensor(RNG.normal(size=(4, 1)), requires_grad=True)

    def f(params):
        return ad.sum_all(ad.mul(params[0], ad.matmul(Tensor(q), params[0])))

    assert grad_check(f, [x], eps=1e-5) < 1e-9


@pytest.mark.parametrize(
    "name,make",
    [
        ("add", lambda p: ad.add(p[0], p[1])),
        ("sub", lambda p: ad.sub(p[0], p[1])),
        ("mul", lambda p: ad.mul(p[0], p[1])),
        ("matmul", lambda p: ad.matmul(p[0], ad.transpose(p[1]))),
        ("softmax", lambda p: ad.mul(ad.softmax_rows(p[0]), p[1])),
        ("log_softmax", lambda p: ad.mul(ad.log_softmax_rows(p[0]), p[1])),
        ("rmsnorm", lambda p: ad.mul(ad.rmsnorm_rows(p[0]), p[1])),
        ("softplus", lambda p: ad.mul(ad.softplus(p[0]), p[1])),
        ("gelu", lambda p: ad.mul(ad.gelu(p[0]), p[1])),
        ("exp", lambda p: ad.mul(ad.exp(p[0]), p[1])),
        ("cosine_matrix", lambda p: ad.mul(ad.cosine_matrix(p[0], p[1]), ad.cosine_matrix(p[0], p[1]))),
        ("gather", lambda p: ad.mul(ad.gather_rows(p[0], [2, 0, 2]), ad.gather_rows(p[1], [1, 1, 0]))),
        ("concat", lambda p: ad.matmul(ad.transpose(ad.concat_rows([p[0], p[1]])), ad.concat_rows([p[1], p[0]]))),
    ],
)
def test_op_gradients_match_finite_differences(name, make):
    rng = np.random.default_rng(hash(name) % 2**32)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def f(params):
        return ad.mean_all(make(params))

    assert grad_check(f, [a, b], eps=1e-5) < 1e-4, name


def test_multihead_attention_matches_per_head_composition():
    rng = np.random.default_rng(5)
    q, k, v = (Tensor(rng.normal(size=(5, 6))) for _ in range(3))
    causal = np.tril(np.ones((5, 5), dtype=bool))
    tree = causal.copy()  # a trie: rows 3 and 4 branch off after row 0
    tree[3:, 1:3] = False
    for seen in (causal, tree):
        mask = ad._causal_mask(5, 5) if seen is causal else np.where(seen, 0.0, -np.inf)
        fused, weights = ad.multihead_attention(q, k, v, n_heads=2, mask=mask)
        dh = 3
        parts = []
        for h in range(2):
            qh, kh, vh = (t.array[:, h * dh : (h + 1) * dh] for t in (q, k, v))
            scores = qh @ kh.T / np.sqrt(dh)
            scores[~seen] = -np.inf
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            assert np.abs(weights[h] - p).max() < 1e-12
            parts.append(p @ vh)
        assert np.abs(fused.array - np.hstack(parts)).max() < 1e-12
        assert np.abs(weights.sum(axis=2) - 1.0).max() < 1e-12
        assert (weights[:, ~seen] == 0).all()


@pytest.mark.parametrize("causal", [True, False])
def test_multihead_attention_gradients(causal):
    rng = np.random.default_rng(6)
    q = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    v = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 6)))

    def f(params):
        mask = ad._causal_mask(4, 4) if causal else None
        out, _ = ad.multihead_attention(params[0], params[1], params[2], 2, mask)
        return ad.mean_all(ad.mul(out, c))

    assert grad_check(f, [q, k, v], eps=1e-5) < 1e-4


def test_causal_attention_over_a_longer_key_block_gradients():
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    v = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 6)))

    def f(params):
        out, _ = ad.multihead_attention(params[0], params[1], params[2], 2, ad._causal_mask(2, 5))
        return ad.mean_all(ad.mul(out, c))

    assert grad_check(f, [q, k, v], eps=1e-5) < 1e-4


def test_causal_attention_queries_are_the_last_rows_of_full_attention():
    rng = np.random.default_rng(8)
    q, k, v = (Tensor(rng.normal(size=(5, 6))) for _ in range(3))
    full, full_w = ad.multihead_attention(q, k, v, n_heads=2, mask=ad._causal_mask(5, 5))
    for n in (1, 2, 5):
        tail, tail_w = ad.multihead_attention(Tensor(q.array[-n:]), k, v, 2, ad._causal_mask(n, 5))
        assert np.abs(tail.array - full.array[-n:]).max() < 1e-12
        assert np.abs(tail_w - full_w[:, -n:]).max() < 1e-12
    mask = ad._causal_mask(2, 5)
    assert mask is ad._causal_mask(2, 5) and not mask.flags.writeable
    with pytest.raises(ShapeError):
        ad._causal_mask(5, 3)
    with pytest.raises(ShapeError):
        ad.multihead_attention(q, Tensor(k.array[:3]), Tensor(v.array[:3]), 2, mask)


def test_gelu_in_place_matches_the_plain_formula_bit_for_bit():
    c = 0.7978845608028654
    for scale in (0.1, 1.0, 4.0, 40.0):
        x = RNG.normal(scale=scale, size=(37, 19))
        g = RNG.normal(size=x.shape)
        x2 = x * x
        t = np.tanh(c * x * (1.0 + 0.044715 * x2))
        plain = 0.5 * x * (1.0 + t)
        plain_vjp = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 0.134145 * x2)))
        a = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            y = ad.gelu(a)
            loss = ad.sum_all(ad.mul(y, Tensor(g)))
        assert np.array_equal(y.array, plain)
        assert np.array_equal(backward(loss, tape)[a.id], plain_vjp)


def _serial_gradient(x0: np.ndarray, w0: np.ndarray) -> dict:
    x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum_all(ad.gelu(ad.matmul(x, w)))
    grads = backward(loss, tape)
    return {"x": grads[x.id], "w": grads[w.id]}


def test_each_thread_records_on_its_own_tapes():
    inputs = [(RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))) for _ in range(4)]
    expected = [_serial_gradient(*pair) for pair in inputs]
    barrier = threading.Barrier(len(inputs))
    results: list = [None] * len(inputs)

    def work(i):
        x, w = (Tensor(a, requires_grad=True) for a in inputs[i])
        with GradTape() as tape:
            barrier.wait()  # every thread holds an open tape at once
            loss = ad.sum_all(ad.gelu(ad.matmul(x, w)))
            barrier.wait()
        grads = backward(loss, tape)
        results[i] = {"x": grads[x.id], "w": grads[w.id]}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(results, expected):
        assert np.array_equal(got["x"], want["x"]) and np.array_equal(got["w"], want["w"])


def test_inference_in_another_thread_leaves_an_open_tape_alone():
    trainable = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    opened, inferred = threading.Event(), threading.Event()
    recorded = []

    def train():
        with GradTape() as tape:
            ad.sum_all(ad.matmul(trainable, trainable))
            before = len(tape.entries)
            opened.set()
            inferred.wait()
            recorded.append(len(tape.entries) - before)

    def infer():
        opened.wait()
        ad.softmax_rows(ad.matmul(trainable, trainable))  # a fitted, grad-flagged param
        inferred.set()

    threads = [threading.Thread(target=train), threading.Thread(target=infer)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert recorded == [0]


def test_operations_are_deterministic():
    a = RNG.normal(size=(6, 6))
    b = RNG.normal(size=(6, 6))
    r1 = ad.softmax_rows(ad.matmul(Tensor(a), Tensor(b))).array
    r2 = ad.softmax_rows(ad.matmul(Tensor(a), Tensor(b))).array
    assert np.array_equal(r1, r2)


def test_frozen_tensor_has_no_tape_entry():
    frozen = Tensor(RNG.normal(size=(3, 3)), requires_grad=False)
    live = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum_all(ad.matmul(frozen, live))
    grads = backward(loss, tape)
    assert frozen.id not in grads
    assert live.id in grads


def test_tensor_rejects_non_finite():
    with pytest.raises(ContractError):
        Tensor([np.inf, 1.0])
