"""The one process-pool pattern: read-only arguments reach each worker once,
through the pool initializer (inherited, not pickled, under the fork start
method), and each task carries only its own item."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor

_SHARED: dict = {}


def _init_worker(fn: Callable, shared: tuple) -> None:
    _SHARED["call"] = (fn, shared)


def _run_item(item):
    fn, shared = _SHARED["call"]
    return fn(*shared, item)


def map_shared(fn: Callable, shared: tuple, items: Iterable, workers: int, chunksize: int = 1) -> list:
    """``[fn(*shared, item) for item in items]`` over ``workers`` processes, in order.

    One worker or fewer runs in this process; ``fn`` must be a module-level function.
    """
    if workers <= 1:
        return [fn(*shared, item) for item in items]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(fn, shared)) as pool:
        return list(pool.map(_run_item, items, chunksize=chunksize))
