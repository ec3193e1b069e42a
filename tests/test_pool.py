import os

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
    assert map_shared(_affine_padded, (3, 1, pad_bytes), items, workers) == expected


def test_items_are_inherited_not_pickled():
    items = [_Unpicklable(value) for value in range(10)]
    assert map_shared(_value, (2,), items, workers=2) == [2 * value for value in range(10)]


@pytest.mark.parametrize("bad", [0, 9], ids=["parent-block", "child-block"])
def test_data_error_keeps_its_type(bad):
    with pytest.raises(_BadItem, match=f"bad item {bad}"):
        map_shared(_raise_at, (bad, _BadItem), range(10), workers=2)


def test_child_error_carries_its_traceback():
    with pytest.raises(_BadItem) as info:
        map_shared(_raise_at, (9, _BadItem), range(10), workers=2)
    assert "_raise_at" in str(info.value.__cause__)


def test_unpicklable_exception_still_surfaces():
    with pytest.raises(RuntimeError, match="_UnpicklableError: bad item 9"):
        map_shared(_raise_at, (9, _UnpicklableError), range(10), workers=2)


def test_child_that_exits_without_a_result_raises():
    with pytest.raises(ChildProcessError, match="exited with status 1"):
        map_shared(_exit_at, (9,), range(10), workers=2)
