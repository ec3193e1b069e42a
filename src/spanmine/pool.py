"""The one worker pattern: ``items`` is split into contiguous blocks, one per
worker. The parent forks a child for every block after the first and maps the
first block itself while the children run. A child inherits ``fn`` (any
callable, such as a ``functools.partial`` or a closure) and ``items`` through
``os.fork``, so nothing is pickled on the way in. It maps its block, pickles
the results, or the exception it raised, into its own pipe and leaves with
``os._exit``. The parent reads the pipes in block order and reaps every child,
on every exit path. Where ``os.fork`` does not exist there is one block, which
this process maps. Call ``map_shared`` only from a process without other
threads, as the CLI is.

Before it maps its block, each block's process moves once to its own CPU of
the set this process may run on (block ``b`` to the ``b``-th, wrapping) and is
then left free to run on the whole set again. Linux often starts a freshly
forked child on its parent's CPU, so without the move short blocks run one
after the other. On a 2-CPU box, each half of a 2-worker ``ssr-m`` corruption
call took 43-61 ms unmoved, about as long as the whole serial call, and 21-30
ms moved; each half of a 2-worker mining call took 135-182 ms unmoved and
55-85 ms moved. The move is a one-time migration, not a pin, so the scheduler
can still rebalance when another process keeps one CPU busy; it is a hint, and
a platform that refuses it or lacks ``os.sched_setaffinity`` maps the same
blocks unmoved.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Sequence
from typing import BinaryIO


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the platform has one, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _move_once(block: int, cpus: Sequence[int]) -> None:
    """Migrate this process to ``cpus[block % len(cpus)]``, then let it run on all of ``cpus`` again.

    Nothing is called when ``cpus`` is empty, and an ``OSError`` from either call is ignored.
    """
    if not cpus:
        return
    try:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[block % len(cpus)]})
    finally:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a child, attached as its cause."""


def _map_block(fn: Callable, block: Sequence, write_fd: int, b: int, cpus: Sequence[int]) -> None:
    """Child side: move once as block ``b``, then pickle ``(results, None)`` or
    ``(None, (exception, traceback))`` into the pipe; never returns."""
    status = 1
    try:
        try:
            _move_once(b, cpus)
            payload = pickle.dumps(([fn(item) for item in block], None), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            trace = traceback.format_exc()
            try:
                payload = pickle.dumps((None, (exc, trace)), pickle.HIGHEST_PROTOCOL)
            except Exception:
                stand_in = RuntimeError(f"worker raised an exception that cannot be pickled: {type(exc).__name__}: {exc}")
                payload = pickle.dumps((None, (stand_in, trace)), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _block_result(pid: int, payload: bytes, status: int) -> list:
    """Parent side: the results a reaped child sent, or its exception raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"worker process {pid} {how} without a result")
    results, error = pickle.loads(payload)  # bytes a child of this process wrote
    if error is not None:
        exc, trace = error
        raise exc from _ChildTraceback(trace)
    return results


def map_shared(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` over ``workers`` processes, in order.

    The parent maps the first of ``min(workers, len(items))`` contiguous
    blocks (at least one) and forks one child for each of the others; with
    one block nothing is forked. Only results, or a child's exception, are
    pickled; that exception is re-raised here with its type. With several
    blocks, block ``b``'s process first moves once to ``cpus[b % len(cpus)]``
    of this process's sorted CPU set.
    """
    n_blocks = max(1, min(workers, len(items))) if hasattr(os, "fork") else 1
    bounds = [len(items) * b // n_blocks for b in range(n_blocks + 1)]
    cpus = sorted(os.sched_getaffinity(0)) if n_blocks > 1 and hasattr(os, "sched_setaffinity") else []
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) of children not yet reaped
    try:
        for b, (start, stop) in enumerate(zip(bounds[1:-1], bounds[2:]), start=1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _map_block(fn, items[start:stop], write_fd, b, cpus)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        _move_once(0, cpus)
        results = [fn(item) for item in items[: bounds[1]]]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            results.extend(_block_result(pid, payload, status))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
