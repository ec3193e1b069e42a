import multiprocessing

import pytest

from spanmine.pool import map_shared


def _affine(scale, offset, item):
    return scale * item + offset


class _Unpicklable:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("work items must reach workers without pickling")


def _value(scale, item):
    return scale * item.value


@pytest.mark.parametrize("n_items", [0, 1, 65, 130])
@pytest.mark.parametrize("chunksize", [1, 64])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_matches_the_serial_list_in_order(workers, chunksize, n_items):
    items = list(range(n_items))
    expected = [3 * item + 1 for item in items]
    assert map_shared(_affine, (3, 1), items, workers, chunksize=chunksize) == expected


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers inherit items only under fork")
def test_items_are_inherited_not_pickled():
    items = [_Unpicklable(value) for value in range(10)]
    assert map_shared(_value, (2,), items, workers=2, chunksize=3) == [2 * value for value in range(10)]
