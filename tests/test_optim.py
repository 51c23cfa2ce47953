"""The bold-driver guard and the one epoch loop every trained piece runs."""

import os

import numpy as np

from rare_lens import autodiff as ad
from rare_lens.autodiff import GradTape, Tensor, backward
from rare_lens.optim import AdamW, MonotoneGuard, train_epochs, worker_pool


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


def test_worker_pool_leaves_the_cpus_to_multithreaded_blas(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    want = {None: 1, "1": cpus, "0": 1, str(cpus + 1): 1}  # unset and 0 mean every CPU
    for value, workers in want.items():
        if value is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        with worker_pool() as pool:
            assert pool._max_workers == workers, value
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    with worker_pool() as pool:
        assert pool._max_workers == cpus
