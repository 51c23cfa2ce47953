"""AdamW, the bold-driver epoch guard, the one epoch loop that drives them,
and ForkedWorkers: the calling process plus forked children, across which
fixture training splits its steps and guard passes, and map_rows splits the
test-split passes (the eval stage, the ablation sweep, the fixture gate)
scene by scene. Processes share no interpreter lock, so the blocks run side
by side, where threads take turns.
"""

from __future__ import annotations

import contextvars
import math
import os
import pickle
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, accumulate, backward
from .errors import ContractError

# A task maps (items, lo, hi) to the result of the block items[lo:hi]: a list
# of (key, array) pairs.
Task = Callable[[list, int, int], list]


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
        """Apply one update from a backward() gradient map; missing grads are 0.

        The moments update in place and each new parameter array is built
        with in-place ufuncs, in the operations and order of
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        p - lr wd p - lr (m / bc1) / (sqrt(v / bc2) + eps), so the bits match.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = grads.get(p.id)
            if g is None:
                g = np.zeros_like(p.array)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            g2 = (1.0 - self.beta2) * g
            g2 *= g
            v *= self.beta2
            v += g2
            denom = np.divide(v, bc2, out=g2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = m / bc1
            update *= self.lr
            update /= denom
            new = p.array * (self.lr * self.weight_decay)
            np.subtract(p.array, new, out=new)
            new -= update
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
    autodiff.gradient(batch_loss); the fixture folds mean_gradient's blocks
    from its ForkedWorkers. The caller's
    loop body runs after the epoch's last step and before the next
    permutation: it is the end-of-epoch hook.
    """
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            optimizer.step(batch_grads(order[start : start + batch_size]))
        yield epoch


def worker_processes() -> int:
    """How many processes split this one's CPUs with the BLAS threads.

    One per CPU the process may run on, divided by the threads one BLAS call
    may use, which OpenBLAS reads from these variables (the first one set)
    when numpy loads, else taking every usable CPU. Workers whose BLAS calls
    each run multi-threaded fight over the cores: the fixture at the bench
    config took 41 s on 2 workers against 28 s on 1, with 2 BLAS threads on
    a 2-CPU machine.
    """
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
    return max(1, cpus // blas)


class ForkedWorkers:
    """The calling process plus forked children, each running one block of items.

    Fixture training (vlm.pretrain_fixture) runs its steps and guard passes
    on one, with the model's tensors as params; map_rows runs a pass over
    independent items on one, with no params.

    tasks maps a name to a Task; run(name, items) cuts items into one
    contiguous block per process, runs the first block in the caller while
    the children run the others, and returns the blocks' results in block
    order. The constructor forks the children, so they inherit whatever the
    tasks read and the heap policy the package sets at import (see
    base.keep_large_temporaries_in_the_heap); only the items and the
    results cross the pipes. params are the tensors the tasks read and the
    caller updates: each child's copies are views of one shared mapping,
    which run() fills with the caller's current arrays before it dispatches
    (AdamW and the guard's rollback rebind them). Each child has its own
    shared region of result_floats floats, room for the largest result one
    block returns: it copies its result there while the caller may still be
    running its own block, and answers on its pipe with where each array
    lies. A child's result that does not fit raises ContractError.
    Untouched pages take no memory. Every block runs in a fresh context, so
    a task records nothing on a tape the caller holds open, in the caller
    or in a child.

    No child is made, and every block runs in the caller, when `processes`
    (default worker_processes()) is 1, when the platform has no os.fork, or
    when other threads are alive, since a forked child would inherit the
    locks they hold. A child leaves only through os._exit, so it never
    runs exit handlers or flushes the stdio buffers it inherited. An error
    raised in a child is raised again by run() in the caller, and a child
    that dies mid-task raises ChildProcessError there. Closing (on leaving
    the with block, or when run() raises) closes the pipes: the children
    read EOF and exit, and the caller reaps them.
    """

    def __init__(self, params: Sequence[Tensor], tasks: dict[str, Task], result_floats: int,
                 processes: int | None = None):
        self.params = list(params)
        self.tasks = tasks
        self.processes = worker_processes() if processes is None else processes
        self._children: list = []  # (pid, the caller's end of its pipe, its region)
        if self.processes < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
            self.processes = 1
            return
        # Imported here: a run that makes no child does not pay for them.
        import mmap
        from multiprocessing.connection import Pipe

        floats = sum(p.array.size for p in self.params)
        self._shared = np.frombuffer(mmap.mmap(-1, 8 * max(1, floats)), dtype=np.float64)
        try:
            for _ in range(self.processes - 1):
                region = np.frombuffer(mmap.mmap(-1, 8 * max(1, result_floats)), dtype=np.float64)
                mine, theirs = Pipe()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        mine.close()
                        for _, conn, _ in self._children:
                            conn.close()
                        self._serve(theirs, region)
                        code = 0
                    finally:
                        os._exit(code)
                theirs.close()
                self._children.append((pid, mine, region))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ForkedWorkers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the pipes and reap the children; later runs stay in the caller."""
        children, self._children, self.processes = self._children, [], 1
        for _, conn, _ in children:
            conn.close()
        for pid, _, _ in children:
            os.waitpid(pid, 0)

    def run(self, name: str, items: Sequence) -> list[list]:
        """The results of tasks[name] on each block of items, in block order."""
        items = list(items)
        bounds = [len(items) * k // self.processes for k in range(self.processes + 1)]
        try:
            busy = []
            if self._children:
                offset = 0
                for p in self.params:
                    self._shared[offset : offset + p.array.size] = p.array.ravel()
                    offset += p.array.size
                for child, lo, hi in zip(self._children, bounds[1:], bounds[2:]):
                    if lo < hi:
                        child[1].send((name, items, lo, hi))
                        busy.append(child)
            results = [_detached(self.tasks[name], items, bounds[0], bounds[1])]
            return results + [self._receive(child) for child in busy]
        except BaseException:
            self.close()
            raise

    def _serve(self, conn, region: np.ndarray) -> None:
        """A child's loop: run each block the caller sends until its pipe closes."""
        import traceback

        offset = 0
        for p in self.params:
            p.array = self._shared[offset : offset + p.array.size].reshape(p.array.shape)
            p.array.flags.writeable = False
            offset += p.array.size
        while True:
            try:
                name, items, lo, hi = conn.recv()
            except EOFError:
                return
            try:
                reply = ("ok", _pack(_detached(self.tasks[name], items, lo, hi), region))
            except Exception as exc:
                text = traceback.format_exc()
                try:
                    pickle.dumps(exc)
                except Exception:
                    exc = RuntimeError(text)
                reply = ("error", exc, text)
            conn.send(reply)

    @staticmethod
    def _receive(child) -> list:
        pid, conn, region = child
        try:
            reply = conn.recv()
        except EOFError:
            raise ChildProcessError(f"worker process {pid} exited mid-task") from None
        if reply[0] == "error":
            _, exc, text = reply
            exc.add_note(f"raised in worker process {pid}:\n{text}")
            raise exc
        return _unpack(reply[1], region)


def map_rows(row: Callable[[int], Sequence[float]], n: int, width: int) -> np.ndarray:
    """The [n, width] floats whose i-th row is row(i), computed on ForkedWorkers.

    For a pass over n independent items that updates nothing: the children
    fork here, so row and whatever it reads are inherited, and only item
    indices and float rows cross between processes. Each block returns its
    rows as one array and the blocks are stacked in block order, so the
    result is the same at any process count.
    """

    def block(items: list, lo: int, hi: int) -> list:
        rows = np.array([row(i) for i in items[lo:hi]], dtype=np.float64)
        return [(0, rows.reshape(hi - lo, width))]

    with ForkedWorkers([], {"rows": block}, n * width) as workers:
        blocks = workers.run("rows", range(n))
    return np.concatenate([rows for pairs in blocks for _, rows in pairs])


def _detached(task: Task, items: list, lo: int, hi: int) -> list:
    """Run a task outside every tape its caller holds open, in any process."""
    return contextvars.Context().run(task, items, lo, hi)


def _pack(pairs: list, region: np.ndarray) -> list:
    """Copy (key, array) pairs into region; the layout says where each one went."""
    layout, offset = [], 0
    for key, arr in pairs:
        arr = np.asarray(arr, dtype=np.float64)
        if offset + arr.size > region.size:
            raise ContractError(f"a block's result does not fit its region of {region.size} floats")
        region[offset : offset + arr.size] = arr.ravel()
        layout.append((key, arr.shape, offset))
        offset += arr.size
    return layout


def _unpack(layout: list, region: np.ndarray) -> list:
    """The (key, array) pairs _pack laid out, copied out of region."""
    return [(key, region[start : start + math.prod(shape)].reshape(shape).copy())
            for key, shape, start in layout]


def mean_gradient(item_loss: Callable[[int], Tensor]) -> Task:
    """A task giving, per block, the gradient of mean(item_loss(i) for i in items).

    Each item's loss, scaled by 1/len(items), is recorded on its own tape,
    and backward returns its leaf contributions unsummed, in walk order. A
    block lists them last item first; the block that ends the chunk adds
    them up itself with accumulate, since the fold starts there. fold()
    adds the blocks into one map, last block first. That is the order in
    which one tape over the chunk, scale(add(...add(l0, l1)..., l_last),
    1/len(items)), sums them, because the items' subgraphs share nothing but
    leaves: the result equals that tape's gradient bit for bit, whatever the
    blocks are.
    """

    def block(items: list, lo: int, hi: int) -> list:
        scale = 1.0 / len(items)
        last = hi == len(items)
        folded: dict = {}
        pairs: list = []
        for i in reversed(items[lo:hi]):
            with GradTape() as tape:
                loss = ad.scale(item_loss(i), scale)
            leaves: list = []
            backward(loss, tape, leaves)
            if last:
                accumulate(folded, leaves)
            else:
                pairs.extend(leaves)
        return list(folded.items()) if last else pairs

    return block


def fold(blocks: list[list]) -> dict:
    """One gradient map from mean_gradient's blocks, added last block first."""
    grads: dict = {}
    for pairs in reversed(blocks):
        accumulate(grads, pairs)
    return grads
