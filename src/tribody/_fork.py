"""Forked workers, the one way both solvers use a second CPU.

run_ensemble steps shares of its chunks, and fpe_evolve slabs of its
grid's rows, in workers forked with os.fork: a worker shares no
interpreter lock with its caller, and writes its part of the result in
place into a shared anonymous mmap (`shared`) mapped before the fork.
Commands and replies pass through two pipes of pickled objects.  A
worker leaves only through os._exit, so none of the caller's handlers,
atexit hooks or buffered output run or flush twice, and on Linux the
kernel kills it when its caller dies first (_die_with).  The workers
make no BLAS call; Python 3.12 and later warn on a fork in a process
with more than one thread, as numpy's OpenBLAS makes it unless pinned
to one.
"""

from __future__ import annotations

import ctypes
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


def shared(shape) -> np.ndarray:
    """A zeroed float array of shape in a shared anonymous mmap: a worker
    forked after it is made writes the caller's pages, not copies."""
    size = 8 * math.prod(shape)
    if size > np.iinfo(np.intp).max:  # more than numpy can index
        raise MemoryError(f"{size} bytes for a shared array of shape {shape}")
    return np.frombuffer(mmap.mmap(-1, size), dtype=float).reshape(shape)


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


class Caller:
    """A worker's side of its pipes: the caller's commands in, replies out."""

    def __init__(self, inbox, outbox):
        self._inbox, self._outbox = inbox, outbox

    def receive(self):
        """The caller's next command."""
        return pickle.load(self._inbox)

    def reply(self, value) -> None:
        """Send the caller a value, which its Worker.receive returns."""
        _send(self._outbox, (True, value))


class Worker:
    """A process forked to run work(caller), with caller its Caller; what
    work returns, or the exception it raises, is its last reply."""

    def __init__(self, work):
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
                os.close(commands[1])
                os.close(replies[0])
                outbox = open(replies[1], "wb")
                with open(commands[0], "rb") as inbox:
                    try:
                        result = (True, work(Caller(inbox, outbox)))
                    except BaseException as exc:  # the caller re-raises it
                        result = (False, exc)
                _send(outbox, result)
                code = 0
            finally:
                os._exit(code)
        os.close(commands[0])
        os.close(replies[1])
        self.pid, self.status = pid, None
        self._commands, self._replies = open(commands[1], "wb"), open(replies[0], "rb")

    def send(self, command) -> None:
        """Send the worker a command, which its Caller.receive returns."""
        try:
            _send(self._commands, command)
        except BrokenPipeError:  # the worker has ended
            self._ended()

    def receive(self):
        """The worker's next reply; the exception that its work raised is
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

    def reap(self, kill: bool) -> None:
        """Close the pipes and wait for the worker to end, killing it first
        when kill is set; a worker already reaped is left alone."""
        if self.status is not None:
            return
        for pipe in (self._commands, self._replies):
            try:
                pipe.close()
            except BrokenPipeError:  # a command that the ended worker never read
                pass
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        self.status = os.waitpid(self.pid, 0)[1]


@contextmanager
def reaped():
    """A list for the Workers that the block starts: each is reaped when
    the block is left, and killed first when it is left by an exception
    or an interrupt.  A block that ends normally has received each
    worker's last reply, so none is waited for long."""
    workers: list = []
    done = False
    try:
        yield workers
        done = True
    finally:
        for worker in workers:
            worker.reap(kill=not done)
