"""The one process-pool pattern: the read-only arguments and the work list
reach each worker once, through the pool initializer (inherited, not pickled,
under the fork start method), and each task carries only a ``(start, stop)``
range of positions in that list. Only results are pickled back."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

_SHARED: dict = {}


def _init_worker(fn: Callable, shared: tuple, items: Sequence) -> None:
    _SHARED["call"] = (fn, shared, items)


def _run_range(bounds: tuple[int, int]) -> list:
    fn, shared, items = _SHARED["call"]
    start, stop = bounds
    return [fn(*shared, item) for item in items[start:stop]]


def map_shared(fn: Callable, shared: tuple, items: Sequence, workers: int, chunksize: int = 1) -> list:
    """``[fn(*shared, item) for item in items]`` over ``workers`` processes, in order.

    Each task maps ``chunksize`` consecutive items. One worker or fewer runs
    in this process; ``fn`` must be a module-level function.
    """
    if workers <= 1:
        return [fn(*shared, item) for item in items]
    ranges = [(start, min(start + chunksize, len(items))) for start in range(0, len(items), chunksize)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(fn, shared, items)) as pool:
        return [result for part in pool.map(_run_range, ranges) for result in part]
