"""The bold-driver guard and the one epoch loop every trained piece runs."""

import ctypes
import os
import resource
import signal
import threading

import numpy as np
import pytest

from rare_lens import autodiff as ad
from rare_lens import optim
from rare_lens.autodiff import GradTape, Tensor, backward
from rare_lens.errors import ContractError
from rare_lens.optim import AdamW, ForkedWorkers, MonotoneGuard, train_epochs, worker_processes


def stepped_optimizer(lr=0.1, steps=3):
    """An AdamW over two parameters that has already taken a few steps."""
    rng = np.random.default_rng(0)
    params = [Tensor(rng.normal(size=(2, 3)), requires_grad=True),
              Tensor(rng.normal(size=(1, 4)), requires_grad=True)]
    opt = AdamW(params, lr=lr)
    for _ in range(steps):
        take_step(opt)
    return opt


def take_step(opt):
    with GradTape() as tape:
        loss = ad.add(*(ad.sum_all(ad.mul(p, p)) for p in opt.params))
    opt.step(backward(loss, tape))


def state(opt):
    return ([p.array.copy() for p in opt.params], [m.copy() for m in opt._m],
            [v.copy() for v in opt._v], opt.t)


def assert_same_state(a, b):
    for got, want in zip(a[:3], b[:3]):
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert a[3] == b[3]


def test_adamw_step_matches_the_plain_update_bit_for_bit():
    """The in-place step equals the plain expression, also for a missing gradient."""
    rng = np.random.default_rng(3)
    shapes = [(5, 7), (7,), (3, 4)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = AdamW(params, lr=2e-3, weight_decay=0.01)
    ps = [p.array.copy() for p in params]
    ms = [np.zeros_like(p) for p in ps]
    vs = [np.zeros_like(p) for p in ps]
    b1, b2 = opt.beta1, opt.beta2
    for t in range(1, 6):
        grads = {p.id: rng.normal(scale=10.0 ** -t, size=p.shape) for p in params}
        if t == 3:
            del grads[params[1].id]
        opt.step(grads)
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for i, p in enumerate(params):
            g = grads.get(p.id, np.zeros_like(ps[i]))
            ms[i] = b1 * ms[i] + (1.0 - b1) * g
            vs[i] = b2 * vs[i] + (1.0 - b2) * g * g
            new = ps[i] - opt.lr * opt.weight_decay * ps[i]
            ps[i] = new - opt.lr * (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + opt.eps)
        for p, want, m, v, m_want, v_want in zip(params, ps, opt._m, opt._v, ms, vs):
            assert np.array_equal(p.array, want)
            assert np.array_equal(m, m_want) and np.array_equal(v, v_want)


def test_rejected_epoch_restores_parameters_moments_and_step_and_halves_lr():
    opt = stepped_optimizer()
    guard = MonotoneGuard(opt, best=1.0)
    before = state(opt)
    for _ in range(2):
        take_step(opt)
    assert opt.t == before[3] + 2
    assert guard.accept(1.5) is False
    assert_same_state(state(opt), before)
    assert opt.lr == 0.05
    assert guard.best == 1.0


def test_accepted_epoch_grows_lr_by_1_2_up_to_twice_the_start():
    opt = stepped_optimizer(lr=0.1)
    guard = MonotoneGuard(opt, best=10.0)
    lrs = []
    for loss in (9.0, 8.0, 7.0, 6.0, 5.0):
        take_step(opt)
        assert guard.accept(loss) is True
        lrs.append(opt.lr)
    assert lrs[:3] == [0.1 * 1.2, 0.1 * 1.2 * 1.2, 0.1 * 1.2 * 1.2 * 1.2]
    assert lrs[3:] == [0.2, 0.2]
    assert guard.best == 5.0


def test_tie_is_accepted_and_keeps_the_epoch():
    opt = stepped_optimizer()
    guard = MonotoneGuard(opt, best=2.0)
    take_step(opt)
    after = state(opt)
    assert guard.accept(2.0) is True
    assert_same_state(state(opt), after)


def test_rollback_returns_to_the_last_accepted_epoch():
    opt = stepped_optimizer()
    guard = MonotoneGuard(opt, best=3.0)
    take_step(opt)
    assert guard.accept(2.0)
    accepted = state(opt)
    take_step(opt)
    assert not guard.accept(2.5)
    assert_same_state(state(opt), accepted)


def recording_run(n, batch_size, epochs, rng):
    """Run train_epochs on a one-parameter loss; log each batch and each epoch end."""
    p = Tensor(np.ones((1, 1)), requires_grad=True)
    opt = AdamW([p], lr=0.01)
    log = []

    def batch_loss(idx):
        log.append(("batch", idx.tolist()))
        return ad.scale(ad.sum_all(p), float(len(idx)))

    for epoch in train_epochs(opt, rng, n, batch_size, epochs, ad.gradient(batch_loss)):
        log.append(("end", epoch))
    return opt, log


def test_train_epochs_draws_one_permutation_per_epoch_from_the_callers_rng():
    rng = np.random.default_rng(5)
    rng.uniform(size=3)  # an earlier draw on the same stream
    _, log = recording_run(7, 3, 2, rng)
    ref = np.random.default_rng(5)
    ref.uniform(size=3)
    want = []
    for epoch in range(2):
        order = ref.permutation(7).tolist()
        want += [("batch", order[0:3]), ("batch", order[3:6]), ("batch", order[6:7])]
        want.append(("end", epoch))
    assert log == want


def test_train_epochs_takes_ceil_n_over_batch_steps_with_a_short_last_chunk():
    opt, log = recording_run(10, 4, 3, np.random.default_rng(0))
    sizes = [len(idx) for kind, idx in log if kind == "batch"]
    assert sizes == [4, 4, 2] * 3
    assert opt.t == 9


def test_train_epochs_batch_larger_than_n_is_one_full_batch():
    opt, log = recording_run(5, 128, 2, np.random.default_rng(1))
    batches = [idx for kind, idx in log if kind == "batch"]
    assert [sorted(b) for b in batches] == [list(range(5))] * 2
    assert opt.t == 2


def test_worker_processes_leave_the_cpus_to_multithreaded_blas(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    want = {None: 1, "1": cpus, "0": 1, str(cpus + 1): 1}  # unset and 0 mean every CPU
    for value, processes in want.items():
        if value is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert worker_processes() == processes, value
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert worker_processes() == cpus


def echo(items, lo, hi):
    return [(i, np.full(2, float(i))) for i in items[lo:hi]]


def test_forked_workers_make_no_child_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with ForkedWorkers({"echo": echo}, 10, processes=2) as workers:
            assert workers.processes == 1 and workers._children == []
            assert [key for block in workers.run("echo", range(5)) for key, _ in block] == [0, 1, 2, 3, 4]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_forked_workers_cut_contiguous_blocks_and_read_the_callers_parameters():
    # Each block sees the parameter's value at the time of its run(): the
    # parameter lives in the shared mapping, where assign_ writes. A region
    # of 16 floats holds a block of four items of 4 floats, not one of five.
    param = Tensor(np.zeros((2, 2)), requires_grad=True)

    def shifted(items, lo, hi):
        return [(i, param.array.reshape(2, 2) + i) for i in items[lo:hi]]

    with ForkedWorkers({"shifted": shifted}, 16, AdamW([param]), processes=3) as workers:
        for value in (1.0, 2.0):
            param.assign_(np.full((2, 2), value))
            blocks = workers.run("shifted", range(10))
            assert [[key for key, _ in block] for block in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
            for block in blocks:
                for key, arr in block:
                    assert np.array_equal(arr, np.full((2, 2), value + key))
        with pytest.raises(ContractError, match="does not fit its region of 16 floats"):
            workers.run("shifted", range(14))  # the last child's block has five items


def test_a_worker_process_killed_mid_task_raises_instead_of_hanging():
    def die(items, lo, hi):
        if lo > 0:  # in the child
            os.kill(os.getpid(), signal.SIGKILL)
        return echo(items, lo, hi)

    with ForkedWorkers({"die": die}, 10, processes=2) as workers:
        [(pid, _)] = workers._children
        with pytest.raises(ChildProcessError, match=f"worker process {pid} exited mid-task"):
            workers.run("die", range(4))
        assert workers._children == [] and workers.processes == 1
        with pytest.raises(ProcessLookupError):  # reaped, not even a zombie
            os.kill(pid, 0)


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not libc_has_mallopt(), reason="the heap policy needs glibc's mallopt")
def test_large_temporaries_stop_faulting_in_the_caller_and_in_a_forked_child(monkeypatch):
    # A [110, 512] float64 temporary is 440 KiB: without the heap policy set
    # at import, each of the 20 passes faults about 400 pages back in.
    x = Tensor(np.random.default_rng(0).normal(size=(110, 512)))

    def faults(i):
        ad.gelu(x)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            ad.gelu(x)
        return [resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, os.getpid()]

    monkeypatch.setattr(optim, "worker_processes", lambda: 2)
    (caller, caller_pid), (child, child_pid) = optim.map_rows(faults, 2, 2)
    assert caller_pid == os.getpid() and child_pid != caller_pid  # block 1 ran in a child
    assert caller < 50 and child < 50, (caller, child)
