"""Forked workers, the one way both solvers use a second CPU.

Both solvers follow one rule: run_ensemble's paths and fpe_evolve's rows
of axis 0 are cut into contiguous parts of rows, one per usable CPU at
most and none below the solver's minimum per part (MIN_SHARE_ROWS paths,
MIN_SLAB_CELLS cells; `bounds`), and `parts` runs them: the last in the
caller and each other one in a worker forked with os.fork.  A worker
shares no interpreter lock with its caller, and writes its part of the
result in place into a shared anonymous mmap (`shared`) mapped before
the fork.  Commands and replies pass through two pipes of pickled
objects.  A worker leaves only through os._exit, so none of the caller's
handlers, atexit hooks or buffered output run or flush twice, and on
Linux the kernel kills it when its caller dies first (_die_with).  The
workers make no BLAS call; Python 3.12 and later warn on a fork in a
process with more than one thread, as numpy's OpenBLAS makes it unless
pinned to one.
"""

from __future__ import annotations

import ctypes
import errno
import math
import mmap
import os
import pickle
import signal
from contextlib import contextmanager

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def bounds(n: int, most: int) -> list:
    """The bounds of max(1, min(usable_cpus(), most, n)) contiguous parts
    of [0, n): part i is [i n / parts, (i+1) n / parts), rounded down, so
    the last part is the largest: the caller of `parts` runs it while
    each worker pays for its fork."""
    count = max(1, min(usable_cpus(), most, n))
    return [i * n // count for i in range(count + 1)]


def shared(shape) -> np.ndarray:
    """A zeroed float array of shape in a shared anonymous mmap: a worker
    forked after it is made writes the caller's pages, not copies.  A
    block too large to index or to map is a MemoryError."""
    size = 8 * math.prod(shape)
    if size > np.iinfo(np.intp).max:  # more than numpy can index
        raise MemoryError(f"{size} bytes for a shared array of shape {shape}")
    try:
        block = mmap.mmap(-1, size)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {size} bytes for a shared array of shape {shape}") from exc
    return np.frombuffer(block, dtype=float).reshape(shape)


def _die_with(parent: int) -> None:
    """Have the kernel kill this forked worker with SIGKILL when the thread
    that forked it ends, by any signal included (Linux prctl
    PR_SET_PDEATHSIG), and leave at once if the caller is already gone.
    Where the C library has no prctl this does nothing, and a caller that
    dies by a signal Python does not handle leaves the worker running to
    the end of its work."""
    prctl = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)
    if prctl is None:
        return
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _send(pipe, obj) -> None:
    pickle.dump(obj, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


class Worker:
    """A process forked to reply to each command that the caller sends
    with do(command), until the caller closes its pipe; an exception that
    do raises is its last reply.  It closes the pipes it inherits of the
    Workers in `forked`, so that each worker's command pipe has one
    writer, the caller, and ends when the caller closes it."""

    def __init__(self, do, forked=()):
        parent = os.getpid()
        commands, replies = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in commands + replies:
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                _die_with(parent)
                for worker in forked:
                    worker._close()
                os.close(commands[1])
                os.close(replies[0])
                with open(commands[0], "rb") as inbox, open(replies[1], "wb") as outbox:
                    while True:
                        try:
                            command = pickle.load(inbox)
                        except EOFError:  # the caller is done
                            break
                        try:
                            _send(outbox, (True, do(command)))
                        except BaseException as exc:  # the caller re-raises it
                            _send(outbox, (False, exc))
                            break
                code = 0
            finally:
                os._exit(code)
        os.close(commands[0])
        os.close(replies[1])
        self.pid, self.status = pid, None
        self._commands, self._replies = open(commands[1], "wb"), open(replies[0], "rb")

    def send(self, command, last: bool) -> None:
        """Send a command, and when it is the last, close the command pipe,
        so the worker ends once it has replied."""
        try:
            _send(self._commands, command)
            if last:
                self._commands.close()
        except BrokenPipeError:  # the worker has ended
            self._ended()

    def receive(self):
        """The reply to the last command; the exception that do raised is
        raised here, with its type."""
        try:
            ok, value = pickle.load(self._replies)
        except EOFError:
            self._ended()
        if not ok:
            raise value
        return value

    def _ended(self):
        self.reap(kill=False)
        raise RuntimeError(f"a forked worker ended with wait status {self.status} "
                           "and sent no result")

    def _close(self) -> None:
        for pipe in (self._commands, self._replies):
            try:
                pipe.close()
            except BrokenPipeError:  # a command that the ended worker never read
                pass

    def reap(self, kill: bool) -> None:
        """Close the pipes, which ends an idle worker, and wait for the
        worker to end, killing it first when kill is set; a worker already
        reaped is left alone."""
        if self.status is not None:
            return
        self._close()
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        self.status = os.waitpid(self.pid, 0)[1]


@contextmanager
def parts(bounds, do):
    """Run do(lo, hi, command) on every part [lo, hi) of bounds (`bounds`)
    for each command of the block.  `with parts(bounds, do) as run:` forks
    a Worker for every part but the last, and run(command) sends it the
    command, calls do on the last part in the caller and returns the
    results in part order.  One part forks nothing.  run(command,
    last=True) says that no command follows, so a worker that finishes
    before the caller ends then, not when the block is left.

    An exception that do raises in a worker is raised by run with its
    type, and a worker that ends without replying is a RuntimeError.
    Every worker is reaped when the block is left.  A block that ends
    normally has had every reply, so its idle workers end as their pipes
    close; a block left by an exception or an interrupt, the caller's own
    part's included, kills them first, so none is waited for long."""
    cuts = list(zip(bounds[:-1], bounds[1:]))
    workers: list = []

    def run(command, last: bool = False) -> list:
        for worker in workers:
            worker.send(command, last)
        mine = do(*cuts[-1], command)
        return [worker.receive() for worker in workers] + [mine]

    done = False
    try:
        for lo, hi in cuts[:-1]:
            workers.append(Worker(lambda command, lo=lo, hi=hi: do(lo, hi, command), workers))
        yield run
        done = True
    finally:
        for worker in workers:
            worker.reap(kill=not done)
