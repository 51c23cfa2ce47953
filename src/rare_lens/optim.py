"""AdamW, the bold-driver epoch guard and the one epoch loop that drives them."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, accumulate, backward

# Imported where the pool is made, so a run that only loads a trained model
# does not pay for concurrent.futures (5 ms and 0.6 MB, with logging).
if TYPE_CHECKING:
    from concurrent.futures import Executor, ThreadPoolExecutor


class AdamW:
    """Deterministic AdamW over a fixed list of parameter tensors.

    Decay is decoupled from the adaptive step, applied as p -= lr * wd * p.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.array) for p in self.params]
        self._v = [np.zeros_like(p.array) for p in self.params]

    def step(self, grads: dict[int, np.ndarray]) -> None:
        """Apply one update from a backward() gradient map; missing grads are 0."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = grads.get(p.id)
            if g is None:
                g = np.zeros_like(p.array)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            new = p.array - self.lr * self.weight_decay * p.array
            new = new - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.assign_(new)


class MonotoneGuard:
    """Bold-driver epoch schedule wrapped around an optimizer.

    Build it with the loss before the first epoch and call accept(loss) after
    each one; it snapshots the optimizer on construction and after every
    accept. An epoch that raised the loss is rolled back (parameters, moments
    and step count) and the learning rate is halved; any other epoch, a tie
    included, grows the rate by 1.2, capped at twice the starting rate. The
    recorded end-of-epoch curve therefore never increases: rejected epochs
    show up as plateaus.
    """

    def __init__(self, optimizer: AdamW, best: float):
        self.optimizer = optimizer
        self.best = best
        self.lr_cap = 2.0 * optimizer.lr
        self._snapshot()

    def _snapshot(self) -> None:
        opt = self.optimizer
        self._saved = (
            [p.array.copy() for p in opt.params],
            [m.copy() for m in opt._m],
            [v.copy() for v in opt._v],
            opt.t,
        )

    def accept(self, loss: float) -> bool:
        """Keep the epoch if the loss did not increase; else roll back."""
        opt = self.optimizer
        kept = loss <= self.best
        if kept:
            self.best = loss
            opt.lr = min(opt.lr * 1.2, self.lr_cap)
        else:
            params, opt._m, opt._v, opt.t = self._saved
            for p, arr in zip(opt.params, params):
                p.assign_(arr)
            opt.lr /= 2.0
        self._snapshot()
        return kept


def train_epochs(optimizer: AdamW, rng: np.random.Generator, n: int, batch_size: int,
                 epochs: int, batch_grads: Callable[[np.ndarray], dict]) -> Iterator[int]:
    """The training loop of every trained piece; yields each finished epoch.

    Each epoch draws one permutation of range(n) from the caller's rng and
    takes one optimizer step per chunk of batch_size indices (the last chunk
    may be short), on the gradient map batch_grads(chunk) returns: usually
    autodiff.gradient(batch_loss), else pooled_mean_gradient. The caller's
    loop body runs after the epoch's last step and before the next
    permutation: it is the end-of-epoch hook.
    """
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            optimizer.step(batch_grads(order[start : start + batch_size]))
        yield epoch


def worker_pool() -> ThreadPoolExecutor:
    """A thread pool that splits this process's CPUs with the BLAS threads.

    One worker per CPU the process may run on, divided by the threads one
    BLAS call may use, which OpenBLAS reads from these variables (the first
    one set) when numpy loads, else taking every usable CPU. Workers whose
    BLAS calls each run multi-threaded fight over the cores: the fixture at
    the bench config took 41 s on 2 workers against 28 s on 1, with 2 BLAS
    threads on a 2-CPU machine.
    """
    from concurrent.futures import ThreadPoolExecutor

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return ThreadPoolExecutor(max_workers=max(1, cpus // blas), thread_name_prefix="rare-lens")


def pooled_mean_gradient(
    pool: Executor, item_loss: Callable[[int], Tensor]
) -> Callable[[np.ndarray], dict]:
    """The gradient of mean(item_loss(i) for i in chunk), one item per pool task.

    A task tapes scale(item_loss(i), 1/len(chunk)) on its own tape, runs
    backward there and returns only the leaf contributions; the caller folds
    them last item first. That is the order in which one tape over the
    chunk, scale(add(...add(l0, l1)..., l_last), 1/len(chunk)), sums them,
    because the items' subgraphs share nothing but leaves: the result equals
    that tape's gradient bit for bit, whatever the pool size. The items'
    activations live only as long as their own task.
    """

    def grads(chunk):
        scale = 1.0 / len(chunk)

        def item(i):
            with GradTape() as tape:
                loss = ad.scale(item_loss(i), scale)
            leaves: list = []
            backward(loss, tape, leaves)
            return leaves

        out: dict = {}
        for leaves in reversed(list(pool.map(item, chunk))):
            accumulate(out, leaves)
        return out

    return grads
