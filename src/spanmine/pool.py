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
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from collections.abc import Callable, Sequence
from typing import BinaryIO


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a child, attached as its cause."""


def _map_block(fn: Callable, block: Sequence, write_fd: int) -> None:
    """Child side: pickle ``(results, None)`` or ``(None, (exception, traceback))`` into the pipe; never returns."""
    status = 1
    try:
        try:
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
    pickled; that exception is re-raised here with its type.
    """
    n_blocks = max(1, min(workers, len(items))) if hasattr(os, "fork") else 1
    bounds = [len(items) * b // n_blocks for b in range(n_blocks + 1)]
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) of children not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _map_block(fn, items[start:stop], write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
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
