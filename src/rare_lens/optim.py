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
from .autodiff import GradTape, Tensor, backward
from .errors import ContractError

# A task maps (items, lo, hi) to the result of the block items[lo:hi]: a list
# of (key, array) pairs. A gradient task (mean_gradient) takes a fourth
# argument instead, the sink it appends its (key, array) pairs to.
Task = Callable[[list, int, int], list]


class AdamW:
    """Deterministic AdamW over a fixed list of parameter tensors.

    Decay is decoupled from the adaptive step, applied as p -= lr * wd * p.
    A ForkedWorkers built on this optimizer sets `workers` while it is open:
    its step is then split across the processes, each updating its own share
    of the parameters.
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
        self.workers: ForkedWorkers | None = None

    def step(self, grads: dict[int, np.ndarray]) -> None:
        """Apply one update from a backward() gradient map; missing grads are 0.

        With workers, grads is this process's share of the chunk's gradient
        (ForkedWorkers.gradient): each process updates its own share, and
        step returns once every share is updated.
        """
        self.t += 1
        if self.workers is None:
            self.update(range(len(self.params)), grads)
        else:
            self.workers.update(grads)

    def update(self, indices, grads: dict[int, np.ndarray]) -> None:
        """Update the parameters at these indices at the current step count and lr.

        Parameters and moments are written in place, so an array that lives
        in ForkedWorkers' shared mapping stays there, with in-place ufuncs
        in the operations and order of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2) g g and
        p - lr wd p - lr (m / bc1) / (sqrt(v / bc2) + eps), so the bits match.
        """
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i in indices:
            p, m, v = self.params[i].array, self._m[i], self._v[i]
            g = grads.get(self.params[i].id)
            if g is None:
                g = np.zeros_like(p)
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
            p -= p * (self.lr * self.weight_decay)
            p -= update


class MonotoneGuard:
    """Bold-driver epoch schedule wrapped around an optimizer.

    Build it with the loss before the first epoch and call accept(loss) after
    each one; it snapshots the optimizer on construction and after every
    accept. An epoch that raised the loss is rolled back (parameters, moments
    and step count, the arrays written in place) and the learning rate is
    halved; any other epoch, a tie included, grows the rate by 1.2, capped
    at twice the starting rate. The recorded end-of-epoch curve therefore
    never increases: rejected epochs show up as plateaus.
    """

    def __init__(self, optimizer: AdamW, best: float):
        self.optimizer = optimizer
        self.best = best
        self.lr_cap = 2.0 * optimizer.lr
        self._snapshot()

    def _arrays(self) -> list[np.ndarray]:
        opt = self.optimizer
        return [p.array for p in opt.params] + opt._m + opt._v

    def _snapshot(self) -> None:
        self._saved = [a.copy() for a in self._arrays()], self.optimizer.t

    def accept(self, loss: float) -> bool:
        """Keep the epoch if the loss did not increase; else roll back."""
        opt = self.optimizer
        kept = loss <= self.best
        if kept:
            self.best = loss
            opt.lr = min(opt.lr * 1.2, self.lr_cap)
            self._snapshot()
        else:
            saved, opt.t = self._saved
            for live, old in zip(self._arrays(), saved):
                live[...] = old
            opt.lr /= 2.0
        return kept


def train_epochs(optimizer: AdamW, rng: np.random.Generator, n: int, batch_size: int,
                 epochs: int, batch_grads: Callable[[np.ndarray], dict]) -> Iterator[int]:
    """The training loop of every trained piece; yields each finished epoch.

    Each epoch draws one permutation of range(n) from the caller's rng and
    takes one optimizer step per chunk of batch_size indices (the last chunk
    may be short), on the gradient map batch_grads(chunk) returns: usually
    autodiff.gradient(batch_loss); for the fixture, this process's share
    of it from ForkedWorkers.gradient. The caller's loop body runs after
    the epoch's last step and before the next permutation: it is the
    end-of-epoch hook.
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
    on one built on its AdamW; map_rows runs a pass over independent items
    on one with no optimizer.

    tasks maps a name to a Task. run(name, items) cuts items into one
    contiguous block per process, runs the first block in the caller while
    the children run the others, and returns the blocks' results in block
    order. The constructor forks the children, so they inherit whatever the
    tasks read and the heap policy the package sets at import (see
    base.keep_large_temporaries_in_the_heap); only items, result layouts and
    the optimizer's lr and step count cross the pipes. Each process has its
    own shared region of result_floats floats, room for the largest result
    one block sends: a child copies its result there while the caller may
    still be running its own block, and answers on its pipe with where each
    array lies. A result that does not fit raises ContractError. Untouched
    pages take no memory. Every block runs in a fresh context, so a task
    records nothing on a tape the caller holds open, in the caller or in a
    child.

    With an optimizer, its parameters and both moments move into one shared
    mapping before the fork, once, and every process reads and writes them
    there: AdamW, Tensor.assign_ and the guard's rollback write in place.
    Each process owns a fixed share of the parameter tensors, balanced by
    size, and the optimizer's step is sharded (as in ZeRO, Rajbhandari et
    al. 2020). gradient(name, items) runs a mean_gradient task block by
    block, the caller taking the last block, where fold starts, and the
    children the others. Contributions are handled as backward makes them:
    the caller adds each one to a running sum per tensor, keeping the sums
    of the other processes' tensors in its region; a child writes each of
    its contributions to the other processes' tensors into its region,
    unsummed, and keeps those to its own tensors. No process holds its block's
    unsummed gradients of the whole model. Each process then folds every
    block's contributions to its own tensors in fold's order, so the bits
    do not depend on the process count, and AdamW.step has each process
    update its own share, returning once all have. Through the same code a
    lone process owns every tensor and sums its whole chunk as it goes.

    No child is made, and every block runs in the caller, when `processes`
    (default worker_processes()) is 1, when the platform has no os.fork, or
    when other threads are alive, since a forked child would inherit the
    locks they hold. A child leaves only through os._exit, so it never
    runs exit handlers or flushes the stdio buffers it inherited. An error
    raised in a child is raised again in the caller at its next wait on
    that child, and a child that dies mid-task raises ChildProcessError
    there. Every wait is on a pipe, and closing (on leaving the with block,
    or when a call here raises) closes the pipes: the children read EOF and
    exit, and the caller reaps them.
    """

    def __init__(self, tasks: dict[str, Task], result_floats: int,
                 optimizer: AdamW | None = None, processes: int | None = None):
        self.tasks = tasks
        self.optimizer = optimizer
        self.params = optimizer.params if optimizer is not None else []
        self.processes = worker_processes() if processes is None else processes
        self._children: list = []  # (pid, the caller's end of its pipe) of process 1, 2, ...
        self._regions = [np.empty(0)]  # a lone process ships nothing
        if self.processes < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
            self.processes = 1
        else:
            # Imported here: a run that makes no child does not pay for them.
            import mmap
            from multiprocessing.connection import Pipe

            if optimizer is not None:
                _share_arrays(optimizer)
            self._regions = [np.frombuffer(mmap.mmap(-1, 8 * max(1, result_floats)), dtype=np.float64)
                             for _ in range(self.processes)]
        self._assign_shares()
        if optimizer is not None:
            optimizer.workers = self
        try:
            for me in range(1, self.processes):
                mine, theirs = Pipe()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        mine.close()
                        for _, conn in self._children:
                            conn.close()
                        self._serve(theirs, me)
                        code = 0
                    finally:
                        os._exit(code)
                theirs.close()
                self._children.append((pid, mine))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ForkedWorkers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the pipes and reap the children; later calls run in the caller."""
        children, self._children, self.processes = self._children, [], 1
        self._assign_shares()
        if self.optimizer is not None and self.optimizer.workers is self:
            self.optimizer.workers = None
        for _, conn in children:
            conn.close()
        for pid, _ in children:
            os.waitpid(pid, 0)

    def _assign_shares(self) -> None:
        """Give each parameter tensor, largest first, to the least loaded process."""
        self._shares: list[list[int]] = [[] for _ in range(self.processes)]
        loads = [0] * self.processes
        for i in sorted(range(len(self.params)), key=lambda i: -self.params[i].array.size):
            me = loads.index(min(loads))
            self._shares[me].append(i)
            loads[me] += self.params[i].array.size
        self._owner = {self.params[i].id: me for me, share in enumerate(self._shares) for i in share}

    def _bounds(self, n: int) -> list[int]:
        return [n * k // self.processes for k in range(self.processes + 1)]

    def run(self, name: str, items: Sequence) -> list[list]:
        """The results of tasks[name] on each block of items, in block order."""
        items = list(items)
        bounds = self._bounds(len(items))
        try:
            busy = []
            for me, (_, conn) in enumerate(self._children, 1):
                if bounds[me] < bounds[me + 1]:
                    conn.send(("run", name, items, bounds[me], bounds[me + 1]))
                    busy.append(me)
            results = [_detached(self.tasks[name], items, bounds[0], bounds[1])]
            return results + [_unpack(self._receive(me), self._regions[me]) for me in busy]
        except BaseException:
            self.close()
            raise

    def gradient(self, name: str, items: Sequence) -> dict:
        """This process's share of the gradient the mean_gradient task tasks[name] gives.

        The caller runs the chunk's last block, the one fold starts with,
        and the children run the others in order. The values may be views
        into another process's region, valid until the next call. Each child
        keeps its own share, which the next update() applies.
        """
        items = list(items)
        bounds = self._bounds(len(items))
        last = self.processes - 1
        try:
            for me, (_, conn) in enumerate(self._children, 1):
                conn.send(("gradient", name, items, bounds[me - 1], bounds[me]))
            sink = _BlockSink(self, 0, summed=True)
            _detached(self.tasks[name], items, bounds[last], bounds[last + 1], sink)
            layouts = [self._receive(me) for me in range(1, self.processes)] + [sink.layout]
            for _, conn in self._children:
                conn.send(("fold", layouts))
            return self._fold_share(0, sink, layouts)
        except BaseException:
            self.close()
            raise

    def update(self, grads: dict) -> None:
        """Update every share at the optimizer's lr and step count.

        This process's share takes grads; each child's takes the gradient its
        last fold made.
        """
        opt = self.optimizer
        try:
            for _, conn in self._children:
                conn.send(("update", opt.lr, opt.t))
            opt.update(self._shares[0], grads)
            for me in range(1, self.processes):
                self._receive(me)
        except BaseException:
            self.close()
            raise

    def _fold_share(self, me: int, sink: _BlockSink, layouts: list) -> dict:
        """Fold every block's contributions to the share of process me.

        layouts lists the blocks in block order; process (k + 1) mod the
        process count ran block k, and process me's own block is its sink.
        """
        owner = self._owner
        blocks = []
        for k, layout in enumerate(layouts):
            runner = (k + 1) % self.processes
            if runner == me:
                blocks.append(sink.pairs)
            else:
                region = self._regions[runner]
                blocks.append([(key, region[start : start + math.prod(shape)].reshape(shape))
                               for key, shape, start in layout if owner.get(key, 0) == me])
        return fold(blocks, sink.sums)

    def _serve(self, conn, me: int) -> None:
        """A child's loop: answer each message the caller sends until its pipe closes.

        A "fold" gets no answer of its own: the "update" that follows it
        answers for both, with the fold's error if it raised one.
        """
        sink = None  # the sink of the last "gradient" block
        share: dict = {}  # the gradient of this process's share, from the last fold
        failed = None  # the error reply of the last fold, if it raised
        while True:
            try:
                kind, *args = conn.recv()
            except EOFError:
                return
            try:
                if kind == "run":
                    name, items, lo, hi = args
                    reply = ("ok", _pack(_detached(self.tasks[name], items, lo, hi), self._regions[me]))
                elif kind == "gradient":
                    name, items, lo, hi = args
                    sink = _BlockSink(self, me, summed=False)
                    _detached(self.tasks[name], items, lo, hi, sink)
                    reply = ("ok", sink.layout)
                elif kind == "fold":
                    share, sink, failed = self._fold_share(me, sink, *args), None, None
                    continue
                elif failed is None:
                    self.optimizer.lr, self.optimizer.t = args
                    self.optimizer.update(self._shares[me], share)
                    reply = ("ok", None)
                else:
                    reply = failed
            except Exception as exc:
                reply = _error_reply(exc)
                if kind == "fold":
                    failed = reply
                    continue
            if kind == "update":
                share, failed = {}, None
            conn.send(reply)

    def _receive(self, me: int):
        pid, conn = self._children[me - 1]
        try:
            reply = conn.recv()
        except EOFError:
            raise ChildProcessError(f"worker process {pid} exited mid-task") from None
        if reply[0] == "error":
            _, exc, text = reply
            exc.add_note(f"raised in worker process {pid}:\n{text}")
            raise exc
        return reply[1]


def _error_reply(exc: Exception) -> tuple:
    """What a child sends for an error: the exception, picklable, and its traceback."""
    import traceback

    text = traceback.format_exc()
    try:
        pickle.dumps(exc)
    except Exception:
        exc = RuntimeError(text)
    return "error", exc, text


def _share_arrays(optimizer: AdamW) -> None:
    """Move the optimizer's parameters and moments into one shared mapping."""
    import mmap

    arrays = [p.array for p in optimizer.params] + optimizer._m + optimizer._v
    shared = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(a.size for a in arrays))), dtype=np.float64)
    views, offset = [], 0
    for a in arrays:
        views.append(shared[offset : offset + a.size].reshape(a.shape))
        views[-1][...] = a
        offset += a.size
    n = len(optimizer.params)
    for p, view in zip(optimizer.params, views):
        p.array = view
    optimizer._m[:], optimizer._v[:] = views[n : 2 * n], views[2 * n :]


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

    with ForkedWorkers({"rows": block}, n * width) as workers:
        blocks = workers.run("rows", range(n))
    return np.concatenate([rows for pairs in blocks for _, rows in pairs])


def _detached(task: Callable, items: list, lo: int, hi: int, *sink) -> list:
    """Run a task outside every tape its caller holds open, in any process."""
    return contextvars.Context().run(task, items, lo, hi, *sink)


class _BlockSink:
    """Where one block of ForkedWorkers.gradient puts backward's leaf contributions.

    Those to the share of process me stay here; those to the other shares go
    into its region, and layout says where. The block fold starts with
    (summed) adds each contribution to a running sum as it comes, the same
    additions in the same order as fold, the other shares' sums living in
    the region from their first contribution on. Any other block writes its
    contributions to the other shares into the region one by one and keeps
    those to its own unsummed: a fold can take only its first block summed,
    since (acc + a) + b and acc + (a + b) round differently.
    """

    def __init__(self, workers: ForkedWorkers, me: int, summed: bool):
        self.owner, self.me = workers._owner, me
        self.region, self.layout = workers._regions[me], []
        self.sums = _Sums() if summed else None  # this share's running sums
        self.pairs: list = []  # this share's contributions, unsummed, if not summed
        self._slots: dict = {}  # key -> the running sum of another share's tensor, if summed

    def append(self, pair: tuple) -> None:
        key, g = pair
        if self.owner.get(key, 0) == self.me:
            if self.sums is None:
                self.pairs.append(pair)
            else:
                self.sums.add(key, g)
        elif key in self._slots:
            self._slots[key] += g  # the bits of acc + g
        else:
            view = _put(self.region, self.layout, key, g)
            if self.sums is not None:
                self._slots[key] = view


def _put(region: np.ndarray, layout: list, key, arr) -> np.ndarray:
    """Copy arr into region after the arrays layout lists; list it and return its view."""
    arr = np.asarray(arr, dtype=np.float64)
    start = layout[-1][2] + math.prod(layout[-1][1]) if layout else 0
    if start + arr.size > region.size:
        raise ContractError(f"a block's result does not fit its region of {region.size} floats")
    view = region[start : start + arr.size].reshape(arr.shape)
    view[...] = arr
    layout.append((key, arr.shape, start))
    return view


def _pack(pairs: list, region: np.ndarray) -> list:
    """Copy (key, array) pairs into region; the layout says where each one went."""
    layout: list = []
    for key, arr in pairs:
        _put(region, layout, key, arr)
    return layout


def _unpack(layout: list, region: np.ndarray) -> list:
    """The (key, array) pairs _pack laid out, copied out of region."""
    return [(key, region[start : start + math.prod(shape)].reshape(shape).copy())
            for key, shape, start in layout]


def mean_gradient(item_loss: Callable[[int], Tensor]) -> Callable:
    """A gradient task: per block, its part of the gradient of mean(item_loss(i) for i in items).

    Each item's loss, scaled by 1/len(items), is recorded on its own tape,
    and backward appends its leaf contributions to the sink one by one, in
    walk order, as it makes them. A block goes last item first, whichever
    process runs it. ForkedWorkers.gradient gives each block the sink
    (_BlockSink) that adds up or ships its contributions, and has each
    process fold its own share of the parameters, the one it updates.
    """

    def block(items: list, lo: int, hi: int, sink) -> None:
        scale = 1.0 / len(items)
        for i in reversed(items[lo:hi]):
            with GradTape() as tape:
                loss = ad.scale(item_loss(i), scale)
            backward(loss, tape, sink)

    return block


class _Sums(dict):
    """key -> a running sum of gradient contributions, each added as it comes.

    The first contribution is kept as given; the second makes an array of
    the sum's own, to which the others are added in place, with the bits of
    acc + g.
    """

    def __init__(self):
        super().__init__()
        self._fresh: set = set()  # keys whose sum is an array made here

    def add(self, key, g: np.ndarray) -> None:
        if key in self._fresh:
            self[key] += g
        elif key in self:
            self[key] = self[key] + g
            self._fresh.add(key)
        else:
            self[key] = g


def fold(blocks: list[list], sums: _Sums | None = None) -> dict:
    """One gradient map from mean_gradient's blocks, added last block first.

    That is the order in which one tape over the chunk, scale(add(...add(l0,
    l1)..., l_last), 1/len(items)), sums the contributions, because the
    items' subgraphs share nothing but leaves: the map equals that tape's
    gradient bit for bit, whatever the blocks are, and so does each share's
    part of it when the blocks hold only the contributions to that share.
    The last block, where the fold starts, may come already summed, as the
    running sums it was added into as backward made them (sums, which the
    fold goes on adding into); no later one may, since (acc + a) + b and
    acc + (a + b) round differently.
    """
    sums = _Sums() if sums is None else sums
    for pairs in reversed(blocks):
        for key, g in pairs:
            sums.add(key, g)
    return sums
