"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Values are numpy arrays (0-d scalars, vectors, matrices); every operation is a
pure function that optionally records a vector-Jacobian-product closure on the
innermost active GradTape. With no tape active, operations are plain numpy
calls. Gradients never live on tensors: `backward` returns a map from tensor
id to gradient array, so finished parameter sets can be shared freely across
threads and copied between processes. The stack of active tapes is a context
variable, so each thread (and each asyncio task) records only onto the tapes
it opened itself, and a new thread starts with an empty stack. Fixture
training splits a step's sequences into blocks that run in the calling
process and in forked worker processes (optim.ForkedWorkers), each block in
a fresh context, so it records nothing on a tape the caller holds open. A
block opens one tape per sequence and runs `backward(..., leaves=sink)` on
it, which hands each leaf contribution to the sink as it is made; the tape
dies with the sequence. The sinks and each process's fold of its share of
the parameters (optim.fold) add the contributions in the order one shared
tape would have summed them, which gives the same gradient bit for bit.

Design choices: 64-bit floats everywhere (finite-difference checks need the
headroom), 2-d is the largest supported rank, and tensors without
requires_grad never receive a tape entry, which makes "frozen" a structural
property rather than a runtime check.
"""

from __future__ import annotations

import functools
import itertools
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateVectorError, ShapeError

_ids = itertools.count()

# Innermost-last stack of the tapes active in the current context; a tuple,
# so a new thread's empty default is never shared.
_TAPE_STACK: ContextVar[tuple["GradTape", ...]] = ContextVar("tape_stack", default=())


class Tensor:
    """Immutable-by-convention dense array with a requires_grad flag.

    Training loops may overwrite the values between tape scopes via
    `assign_` (never while a tape that saw the tensor is alive).
    """

    __slots__ = ("array", "requires_grad", "id")

    def __init__(self, array, requires_grad: bool = False):
        # np.ascontiguousarray would promote 0-d scalars to 1-d; keep rank.
        arr = np.asarray(array, dtype=np.float64, order="C")
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-d, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractError("tensor values must be finite")
        self.array = arr
        self.requires_grad = bool(requires_grad)
        self.id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() needs a single value, got shape {self.shape}")
        return float(self.array.reshape(()))

    def assign_(self, array: np.ndarray) -> None:
        """Overwrite the stored values in place (optimizer use only, off-tape).

        The array object stays, so every view of it sees the new values: a
        parameter in ForkedWorkers' shared mapping stays shared.
        """
        arr = np.asarray(array, dtype=np.float64)
        if arr.shape != self.array.shape:
            raise ShapeError(f"assign_ shape {arr.shape} != {self.array.shape}")
        self.array[...] = arr

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _out(arr: np.ndarray) -> Tensor:
    """Fast constructor for operation results.

    Inputs were validated on entry and every op keeps finite values finite
    (log/exp/norms guard themselves), so results skip the finite scan.
    """
    t = Tensor.__new__(Tensor)
    t.array = arr if isinstance(arr, np.ndarray) else np.asarray(arr, dtype=np.float64)
    t.requires_grad = False
    t.id = next(_ids)
    return t


class GradTape:
    """Ordered record of operations for one reverse pass.

    Each entry is (output_id, input_ids, vjps) where vjps[i] maps the output
    gradient to input i's gradient, or is None when that input does not
    require a gradient.
    """

    def __init__(self):
        self.entries: list[tuple[int, tuple[int, ...], tuple]] = []

    def __enter__(self) -> "GradTape":
        self._token = _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert _TAPE_STACK.get()[-1] is self, "GradTape scopes must nest"
        _TAPE_STACK.reset(self._token)


def _record(out: Tensor, inputs: Sequence[Tensor], vjps: Sequence) -> Tensor:
    stack = _TAPE_STACK.get()
    if stack:
        keep = tuple(v if t.requires_grad else None for t, v in zip(inputs, vjps))
        if any(v is not None for v in keep):
            out.requires_grad = True
            stack[-1].entries.append((out.id, tuple(t.id for t in inputs), keep))
    return out


def backward(
    loss: Tensor, tape: GradTape, leaves=None
) -> dict[int, np.ndarray]:
    """Walk the tape in reverse from a scalar loss; return id -> gradient.

    Only tensors reachable from the loss appear; frozen (requires_grad=False)
    tensors are structurally absent. With `leaves`, any sink with an append
    method (a list, or a sink of optim.ForkedWorkers that sums or ships what
    it gets), each contribution to a tensor this tape did not produce (a
    parameter or an input) is appended to it as (id, gradient) the moment it
    is made, unsummed and in walk order, instead of entering the returned
    map. One tape holding several subgraphs that share only leaves walks the
    last one first, so adding their separate tapes' contributions up last
    first (optim.fold) gives its leaf gradients bit for bit.
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = {out_id for out_id, _, _ in tape.entries}
    if loss.id not in produced:
        raise ContractError("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {loss.id: np.ones((), dtype=np.float64)}
    for out_id, input_ids, vjps in reversed(tape.entries):
        g_out = grads.get(out_id)
        if g_out is None:
            continue
        for inp_id, vjp in zip(input_ids, vjps):
            if vjp is None:
                continue
            g = vjp(g_out)
            if leaves is not None and inp_id not in produced:
                leaves.append((inp_id, g))
                continue
            acc = grads.get(inp_id)
            grads[inp_id] = g if acc is None else acc + g
    return grads


def gradient(loss_fn: Callable[..., Tensor]) -> Callable[..., dict[int, np.ndarray]]:
    """Wrap loss_fn so each call records it on a fresh tape and returns backward's map."""

    def grads(*args):
        with GradTape() as tape:
            loss = loss_fn(*args)
        return backward(loss, tape)

    return grads


# ---------------------------------------------------------------------------
# elementwise and structural operations
# ---------------------------------------------------------------------------


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = _out(a.array + b.array)
    return _record(out, (a, b), (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = _out(a.array - b.array)
    return _record(out, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = _out(a.array * b.array)
    return _record(out, (a, b), (lambda g: g * b.array, lambda g: g * a.array))


def scale(a: Tensor, c: float) -> Tensor:
    out = _out(a.array * c)
    return _record(out, (a,), (lambda g: g * c,))


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast add: a is [m, n], b is [n]."""
    if a.array.ndim != 2 or b.array.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {a.shape} and {b.shape} do not broadcast")
    out = _out(a.array + b.array[None, :])
    return _record(out, (a, b), (lambda g: g, lambda g: g.sum(axis=0)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = _out(a.array @ b.array)
    return _record(
        out, (a, b), (lambda g: g @ b.array.T, lambda g: a.array.T @ g)
    )


def transpose(a: Tensor) -> Tensor:
    out = _out(a.array.T)
    return _record(out, (a,), (lambda g: g.T,))


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.array)
        np.add.at(out, idx, g)
        return out

    out = _out(a.array[idx])
    return _record(out, (a,), (vjp,))


def gather_elements(a: Tensor, rows, cols) -> Tensor:
    """Pick a [k] vector of elements a[rows[i], cols[i]]."""
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.array)
        np.add.at(out, (r, c), g)
        return out

    out = _out(a.array[r, c])
    return _record(out, (a,), (vjp,))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_rows needs at least one part")
    offsets = list(itertools.accumulate((p.shape[0] for p in parts), initial=0))
    vjps = [
        (lambda lo, hi: (lambda g: g[lo:hi, :]))(offsets[i], offsets[i + 1])
        for i in range(len(parts))
    ]
    out = _out(np.concatenate([p.array for p in parts], axis=0))
    return _record(out, tuple(parts), tuple(vjps))


# ---------------------------------------------------------------------------
# reductions and nonlinearities
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = _out(np.asarray(a.array.sum()))
    return _record(out, (a,), (lambda g: np.full_like(a.array, g),))


def mean_all(a: Tensor) -> Tensor:
    n = a.array.size
    out = _out(np.asarray(a.array.mean()))
    return _record(out, (a,), (lambda g: np.full_like(a.array, g / n),))


def log(a: Tensor) -> Tensor:
    if (a.array <= 0).any():
        raise ContractError("log needs strictly positive input")
    out = _out(np.log(a.array))
    return _record(out, (a,), (lambda g: g / a.array,))


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.array)
    if not np.isfinite(val).all():
        raise ContractError("exp overflowed; rescale the input")
    out = _out(val)
    return _record(out, (a,), (lambda g: g * out.array,))


def softplus(a: Tensor) -> Tensor:
    """Smooth ramp log(1 + e^x), computed overflow-free."""
    out = _out(np.logaddexp(0.0, a.array))

    def vjp(g):
        return g / (1.0 + np.exp(-a.array))

    return _record(out, (a,), (vjp,))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-form GELU; smooth everywhere, so finite differences stay clean.

    Written with in-place ufuncs to spare temporaries; every product and sum
    keeps the operand grouping of 0.5 x (1 + tanh(c x (1 + 0.044715 x^2))),
    so the bits match the plain expression.
    """
    x = a.array
    x2 = x * x
    t = np.multiply(x2, 0.044715)
    t += 1.0
    half_x = np.multiply(x, _GELU_C)  # c x here, 0.5 x once tanh is taken
    t *= half_x
    np.tanh(t, out=t)
    np.multiply(x, 0.5, out=half_x)
    y = t + 1.0
    y *= half_x
    out = _out(y)

    def vjp(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 0.134145 x^2))
        d_inner = np.multiply(x2, 0.134145)
        d_inner += 1.0
        d_inner *= _GELU_C
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= half_x
        slope *= d_inner
        r = t + 1.0
        r *= 0.5
        r += slope
        r *= g
        return r

    return _record(out, (a,), (vjp,))


def rmsnorm_rows(a: Tensor, eps: float = 1e-8) -> Tensor:
    """Scale each row to unit RMS (no learned gain)."""
    if a.array.ndim != 2:
        raise ShapeError(f"rmsnorm_rows needs a matrix, got {a.shape}")
    x = a.array
    n = x.shape[1]
    ms = np.add.reduce(x * x, axis=1, keepdims=True) / n + eps  # mean's bits, without its wrapper
    s = ms**-0.5
    out = _out(x * s)

    def vjp(g):
        dot = (x * g).sum(axis=1, keepdims=True)
        return s * (g - (s * s / n) * x * dot)

    return _record(out, (a,), (vjp,))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1 within 1e-12."""
    if x.array.ndim != 2:
        raise ShapeError(f"softmax_rows needs a matrix, got {x.shape}")
    z = x.array - x.array.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = _out(p)

    def vjp(g):
        dot = (p * g).sum(axis=1, keepdims=True)
        return p * (g - dot)

    return _record(out, (x,), (vjp,))


def log_softmax_rows(x: Tensor) -> Tensor:
    if x.array.ndim != 2:
        raise ShapeError(f"log_softmax_rows needs a matrix, got {x.shape}")
    z = x.array - x.array.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = _out(z - lse)
    p = np.exp(out.array)

    def vjp(g):
        return g - p * g.sum(axis=1, keepdims=True)

    return _record(out, (x,), (vjp,))


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine: a [n, d] x b [t, d] -> [n, t], differentiable."""
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_matrix: shapes {a.shape} and {b.shape} differ in d")
    na = np.linalg.norm(a.array, axis=1, keepdims=True)
    nb = np.linalg.norm(b.array, axis=1, keepdims=True)
    if (na == 0).any() or (nb == 0).any():
        raise DegenerateVectorError("cosine_matrix: zero-norm row")
    ah = a.array / na
    bh = b.array / nb
    c = np.clip(ah @ bh.T, -1.0, 1.0)
    out = _out(c)

    def vjp_a(g):
        return (g @ bh - (g * c).sum(axis=1, keepdims=True) * ah) / na

    def vjp_b(g):
        return (g.T @ ah - (g * c).sum(axis=0)[:, None] * bh) / nb

    return _record(out, (a, b), (vjp_a, vjp_b))


@functools.lru_cache(maxsize=256)
def _causal_mask(n: int, m: int) -> np.ndarray:
    """Additive [n, m] mask: query row i sits at key position m - n + i."""
    if n > m:
        raise ShapeError(f"causal attention needs no more queries than keys, got {n} > {m}")
    mask = np.triu(np.full((n, m), -np.inf), k=m - n + 1)
    mask.flags.writeable = False
    return mask


def multihead_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray | None
) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over n_heads column blocks.

    q is [n, d]; k and v are [m, d]; the result is [n, d] plus the attention
    weights [n_heads, n, m] (plain array, for probing). Scale is
    1/sqrt(d / n_heads). `mask`, an additive [n, m] array or None, is added
    to every head's scores: 0 where a query sees a key, -inf where it does
    not, and each query must see at least one key; rows always sum to 1.
    _causal_mask(n, m) makes the n queries the last n of the m key
    positions, each seeing the keys at or before its own. Every attention
    of the decoder is one call per sequence: vlm.batch_nll calls it once per
    sequence of a batch, over that sequence's rows only, and a decoding trie
    (vlm._decode_step) once per block of rows that share a root, over that
    block's keys only, each row seeing its ancestors and itself.
    """
    n, d = q.shape
    m = k.shape[0]
    if d % n_heads:
        raise ShapeError(f"head count {n_heads} must divide width {d}")
    if k.shape[1] != d or v.shape != k.shape:
        raise ShapeError(f"attention shapes differ: q {q.shape}, k {k.shape}, v {v.shape}")
    if mask is not None and mask.shape != (n, m):
        raise ShapeError(f"attention mask {mask.shape} does not fit {n} queries over {m} keys")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def split(rows):  # [r, d] -> [heads, r, dh]; batched matmul beats einsum here
        return rows.reshape(len(rows), n_heads, dh).transpose(1, 0, 2)

    def merge(heads):  # [heads, r, dh] -> [r, d]
        return heads.transpose(1, 0, 2).reshape(-1, d)

    qh, kh, vh = split(q.array), split(k.array), split(v.array)
    # The softmax runs in place on one scores array, with the same
    # operations (so the same bits) as the plain expression.
    weights = qh @ kh.swapaxes(-1, -2)
    weights *= scale
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = _out(merge(weights @ vh))
    memo: list = [None, None]  # backward hands vjp_q and vjp_k the same g

    def grad_scores(g):
        if memo[0] is not g:
            gw = split(g) @ vh.swapaxes(-1, -2)
            memo[:] = g, weights * (gw - (weights * gw).sum(axis=-1, keepdims=True))
        return memo[1]

    def vjp_q(g):
        return merge(scale * (grad_scores(g) @ kh))

    def vjp_k(g):
        return merge(scale * (grad_scores(g).swapaxes(-1, -2) @ qh))

    def vjp_v(g):
        return merge(weights.swapaxes(-1, -2) @ split(g))

    return _record(out, (q, k, v), (vjp_q, vjp_k, vjp_v)), weights


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    Error per coordinate is |analytic - fd| / max(1, |fd|); f must evaluate
    finite at every probe point.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    grads = gradient(f)(params)

    def evaluate() -> float:
        value = f(params).item()
        if not np.isfinite(value):
            raise ContractError("f is not finite at a probe point")
        return value

    worst = 0.0
    for p in params:
        analytic = grads.get(p.id, np.zeros_like(p.array)).reshape(-1)
        flat = p.array.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = evaluate()
            flat[i] = orig - eps
            f_minus = evaluate()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(analytic[i] - fd) / max(1.0, abs(fd)))
    return worst
