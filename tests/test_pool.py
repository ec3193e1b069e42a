import os
import signal
import time
from functools import partial

import pytest

from spanmine.errors import DataError
from spanmine.pool import map_shared


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("work items must reach workers without pickling")


def _value(scale, item):
    return scale * item.value


class _BadItem(DataError):
    pass


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _raise_at(bad, exc_type, item):
    if item == bad:
        raise exc_type(f"bad item {item}")
    return item


def _exit_at(bad, item):
    if item == bad:
        os._exit(1)
    return item


def _affine_padded(scale, offset, pad_bytes, item):
    return scale * item + offset, bytes(pad_bytes)


@pytest.mark.parametrize("n_items", [0, 1, 2, 65, 130])
@pytest.mark.parametrize("result_kib", [1, 64])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_matches_the_serial_list_in_order(workers, result_kib, n_items):
    # 64 KiB results fill a child's pipe, so it blocks writing until the parent reads.
    items = list(range(n_items))
    pad_bytes = 1024 * result_kib
    expected = [(3 * item + 1, bytes(pad_bytes)) for item in items]
    assert map_shared(partial(_affine_padded, 3, 1, pad_bytes), items, workers) == expected


def test_items_are_inherited_not_pickled():
    items = [_Unpicklable(value) for value in range(10)]
    assert map_shared(partial(_value, 2), items, workers=2) == [2 * value for value in range(10)]


def test_a_closure_is_inherited_not_pickled():
    scale = _Unpicklable(3)
    assert map_shared(lambda item: scale.value * item, range(10), workers=2) == [3 * item for item in range(10)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_without_fork_maps_every_item_here(monkeypatch, workers):
    monkeypatch.delattr(os, "fork")
    items = list(range(10))
    assert map_shared(partial(_affine_padded, 3, 1, 1), items, workers) == [(3 * item + 1, bytes(1)) for item in items]
    with pytest.raises(_BadItem, match="bad item 9"):
        map_shared(partial(_raise_at, 9, _BadItem), items, workers)


@pytest.mark.parametrize("bad", [0, 9], ids=["parent-block", "child-block"])
def test_data_error_keeps_its_type(bad):
    with pytest.raises(_BadItem, match=f"bad item {bad}"):
        map_shared(partial(_raise_at, bad, _BadItem), range(10), workers=2)


def test_child_error_carries_its_traceback():
    with pytest.raises(_BadItem) as info:
        map_shared(partial(_raise_at, 9, _BadItem), range(10), workers=2)
    assert "_raise_at" in str(info.value.__cause__)


def test_unpicklable_exception_still_surfaces():
    with pytest.raises(RuntimeError, match="_UnpicklableError: bad item 9"):
        map_shared(partial(_raise_at, 9, _UnpicklableError), range(10), workers=2)


def test_child_that_exits_without_a_result_raises():
    with pytest.raises(ChildProcessError, match="exited with status 1"):
        map_shared(partial(_exit_at, 9), range(10), workers=2)


class _FakeAffinity:
    """Stands in for the affinity calls: the set is ``cpus`` until changed, and every change is recorded."""

    def __init__(self, cpus):
        self.current = set(cpus)
        self.calls = []  # the masks passed to sched_setaffinity in this process, in order
        self.gets = 0
        self.interrupt_the_move_in = None  # the pid whose one-CPU move raises KeyboardInterrupt

    def get(self, pid):
        assert pid == 0
        self.gets += 1
        return set(self.current)

    def set(self, pid, mask):
        assert pid == 0
        self.calls.append(set(mask))
        self.current = set(mask)
        if len(self.current) == 1 and os.getpid() == self.interrupt_the_move_in:
            raise KeyboardInterrupt


@pytest.fixture
def affinity(monkeypatch):
    fake = _FakeAffinity({3, 5})
    monkeypatch.setattr(os, "sched_getaffinity", fake.get, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", fake.set, raising=False)
    return fake


@pytest.mark.parametrize("workers", [2, 3])
def test_each_block_moves_once_to_its_own_cpu_then_is_left_free(affinity, workers):
    # Each item returns the calls its block's process made; a child's come back with its results.
    # With 3 workers on 2 CPUs, block 2 wraps round to the first CPU.
    items = range(6)
    results = map_shared(lambda item: list(affinity.calls), items, workers)
    cpus = [3, 5]
    assert results == [[{cpus[item * workers // len(items) % 2]}, {3, 5}] for item in items]
    assert affinity.calls == [{3}, {3, 5}]
    assert affinity.gets == 1


@pytest.mark.parametrize(("workers", "n_items"), [(1, 10), (3, 1), (3, 0)])
def test_one_block_makes_no_affinity_call(affinity, workers, n_items):
    assert map_shared(partial(_affine_padded, 3, 1, 1), range(n_items), workers) == [
        (3 * item + 1, bytes(1)) for item in range(n_items)
    ]
    assert affinity.calls == [] and affinity.gets == 0


def _interrupt_at(bad, item):
    if item == bad:
        raise KeyboardInterrupt
    return item


@pytest.mark.parametrize(
    ("fn", "error", "interrupt_the_move"),
    [
        (partial(_affine_padded, 3, 1, 1), None, False),
        (partial(_raise_at, 9, _BadItem), _BadItem, False),
        (partial(_interrupt_at, 0), KeyboardInterrupt, False),
        (partial(_affine_padded, 3, 1, 1), KeyboardInterrupt, True),
    ],
    ids=["normal-return", "child-data-error", "interrupt-in-parent-block", "interrupt-in-parent-move"],
)
def test_parent_affinity_is_restored_on_every_exit_path(affinity, fn, error, interrupt_the_move):
    if interrupt_the_move:
        affinity.interrupt_the_move_in = os.getpid()
    if error is None:
        map_shared(fn, range(10), workers=2)
    else:
        with pytest.raises(error):
            map_shared(fn, range(10), workers=2)
    assert affinity.current == {3, 5}
    assert affinity.calls[-1] == {3, 5}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform has no CPU affinity")
def test_the_real_affinity_is_unchanged():
    before = os.sched_getaffinity(0)
    assert map_shared(partial(_affine_padded, 3, 1, 1), range(10), workers=3) == [
        (3 * item + 1, bytes(1)) for item in range(10)
    ]
    assert os.sched_getaffinity(0) == before


def _refuse(pid, mask):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("platform", ["refuses", "lacks"])
def test_placement_is_a_hint(monkeypatch, platform, workers):
    fake = _FakeAffinity({3, 5})
    monkeypatch.setattr(os, "sched_getaffinity", fake.get, raising=False)
    if platform == "refuses":
        monkeypatch.setattr(os, "sched_setaffinity", _refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    items = list(range(10))
    assert map_shared(partial(_affine_padded, 3, 1, 1), items, workers) == [(3 * item + 1, bytes(1)) for item in items]
    if platform == "lacks":
        assert fake.gets == 0


@pytest.mark.parametrize("call,items", [("fork", [0, 30]), ("waitpid", [0, 0])], ids=["fork", "waitpid"])
def test_an_interrupt_as_a_fork_or_a_reap_returns_still_reaps_the_child(monkeypatch, call, items):
    """SIGTERM, raised as an exception, lands the moment ``os.<call>`` returns in the parent."""

    class Stop(BaseException):
        pass

    def stop(signum, frame):
        raise Stop

    real = getattr(os, call)

    def interrupted(*args):
        result = real(*args)
        if result:  # in the parent
            os.kill(os.getpid(), signal.SIGTERM)
        return result

    monkeypatch.setattr(os, call, interrupted)
    caller = signal.signal(signal.SIGTERM, stop)
    try:
        with pytest.raises(Stop):
            map_shared(time.sleep, items, 2)
    finally:
        signal.signal(signal.SIGTERM, caller)


class _Stop(BaseException):
    """What a SIGTERM handler raises here, as ``cli.run``'s does."""


def _raise_stop(signum, frame):
    raise _Stop


def _reap_left(pids) -> list[int]:
    """Kill and reap each of ``pids`` that is still a child of this process, and return those."""
    left = []
    for pid in pids:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # already reaped
            continue
        left.append(pid)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return left


@pytest.mark.parametrize(
    ("signum", "handler", "error"),
    [(signal.SIGINT, signal.default_int_handler, KeyboardInterrupt), (signal.SIGTERM, _raise_stop, _Stop)],
    ids=["SIGINT", "SIGTERM"],
)
def test_a_second_interrupt_during_the_cleanup_still_reaps_every_child(monkeypatch, signum, handler, error):
    """The parent's block is interrupted while two children block on a pipe; the same signal
    lands again the moment the cleanup's first SIGKILL returns."""
    real_fork, real_kill = os.fork, os.kill
    forked, resent = [], []

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def kill(pid, sig):
        real_kill(pid, sig)
        if sig == signal.SIGKILL and not resent:
            resent.append(pid)
            real_kill(os.getpid(), signum)

    def block_or_interrupt(item):
        return os.read(read_fd, 1) if item else real_kill(os.getpid(), signum)

    read_fd, write_fd = os.pipe()
    caller = signal.signal(signum, handler)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", fork)
            patch.setattr(os, "kill", kill)
            with pytest.raises(error):
                map_shared(block_or_interrupt, range(3), 3)
        assert len(forked) == 2 and resent
    finally:
        signal.signal(signum, caller)
        left = _reap_left(forked)
        os.close(read_fd)
        os.close(write_fd)
    assert left == []
