"""The fork route that both solvers share: _fork.bounds cuts the work,
_fork.parts runs the parts, and _fork.shared maps their output."""

import errno
import mmap
import os
import signal
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tribody import _fork


class PartError(ValueError):
    """Raised by a part, to be raised again in the caller with its type."""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Turn a block that takes longer than seconds, a hang included, into
    a failure."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def where(lo, hi, command):
    return lo, hi, command, os.getpid()


def alive(pid):
    """Whether process pid runs; a zombie does not (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestBounds:
    @pytest.mark.parametrize("cpus, n, most, expected", [
        (3, 10, 10, [0, 3, 6, 10]),
        (3, 10, 2, [0, 5, 10]),
        (2, 10, 5, [0, 5, 10]),
        (3, 2, 5, [0, 1, 2]),
        (3, 10, 0, [0, 10]),
        (1, 10, 10, [0, 10]),
    ])
    def test_parts_are_capped_by_cpus_most_and_n(self, use_cpus, cpus, n, most, expected):
        use_cpus(cpus)
        assert _fork.bounds(n, most) == expected

    def test_last_part_is_the_largest(self, use_cpus):
        use_cpus(4)
        for n in range(4, 40):
            sizes = np.diff(_fork.bounds(n, n))
            assert sizes.sum() == n and sizes[-1] == sizes.max()


class TestParts:
    def test_results_come_back_in_part_order(self):
        bounds = [0, 2, 5, 9]
        with deadline(20), _fork.parts(bounds, where) as run:
            for command in ("first", ("second", 2)):
                results = run(command)
                assert [r[:3] for r in results] == [(0, 2, command), (2, 5, command),
                                                   (5, 9, command)]
        assert_no_child_left()

    def test_last_part_runs_in_the_caller(self):
        with deadline(20), _fork.parts([0, 1, 2, 3], where) as run:
            pids = [r[3] for r in run(None)]
        assert pids[-1] == os.getpid()
        assert len(set(pids)) == 3
        assert_no_child_left()

    def test_one_part_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked for one part")
        monkeypatch.setattr(os, "fork", no_fork)
        with _fork.parts([0, 4], where) as run:
            assert run("only") == [(0, 4, "only", os.getpid())]

    def test_workers_write_the_shared_block(self):
        out = _fork.shared((6,))

        def fill(lo, hi, value):
            out[lo:hi] = value
        with deadline(20), _fork.parts([0, 2, 4, 6], fill) as run:
            run(1.5)
            assert out.tolist() == [1.5] * 6
            run(-2.0)
        assert out.tolist() == [-2.0] * 6

    def test_worker_exception_is_raised_with_its_type(self):
        caller = os.getpid()

        def fail(lo, hi, command):
            if os.getpid() != caller:
                raise PartError(f"raised in part [{lo}, {hi})")
            return lo
        with deadline(20), pytest.raises(PartError, match=r"part \[0, 1\)"):
            with _fork.parts([0, 1, 2], fail) as run:
                run(None)
        assert_no_child_left()

    def test_worker_that_dies_is_an_error(self):
        caller = os.getpid()

        def die(lo, hi, command):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return lo
        with deadline(20), pytest.raises(RuntimeError, match="no result"):
            with _fork.parts([0, 1, 2, 3], die) as run:
                run(None)
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [PartError, KeyboardInterrupt])
    def test_caller_exception_kills_the_workers(self, exc):
        # the workers stall for 20 s: they are killed, not waited for
        caller = os.getpid()

        def stall(lo, hi, command):
            if os.getpid() == caller:
                raise exc("raised in the caller's part")
            time.sleep(20.0)
        t0 = time.monotonic()
        with pytest.raises(exc):
            with _fork.parts([0, 1, 2, 3], stall) as run:
                run(None)
        assert time.monotonic() - t0 < 10.0
        assert_no_child_left()

    def test_idle_workers_end_with_the_block(self):
        # each worker holds no copy of another's command pipe, so every
        # one sees its own close
        with deadline(20):
            with _fork.parts([0, 1, 2, 3, 4], where) as run:
                run(None)
            assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states in Linux's /proc")
    def test_workers_end_after_the_last_command(self):
        # the caller's part outlasts the workers', which end meanwhile
        caller = os.getpid()

        def slow_in_caller(lo, hi, command):
            if os.getpid() == caller:
                time.sleep(0.2)
            return os.getpid()
        with deadline(20), _fork.parts([0, 1, 2, 3], slow_in_caller) as run:
            pids = run(None, last=True)[:-1]
            t0 = time.monotonic()
            while any(map(alive, pids)) and time.monotonic() - t0 < 10.0:
                time.sleep(0.01)
            assert not any(map(alive, pids))
        assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the descriptors in Linux's /proc/self/fd")
    def test_failed_fork_closes_its_pipes(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to fork")
        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(BlockingIOError, match="no process"):
                with _fork.parts([0, 1, 2], where):
                    raise AssertionError("the block ran without its worker")
        assert len(os.listdir("/proc/self/fd")) == before


class TestShared:
    def test_block_that_cannot_be_mapped_is_out_of_memory(self, monkeypatch):
        # a stand-in for a kernel that refuses the mapping: none is made
        def refused(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        monkeypatch.setattr(mmap, "mmap", refused)
        with pytest.raises(MemoryError, match="cannot map 96 bytes"):
            _fork.shared((4, 3))

    def test_other_mapping_errors_stay_os_errors(self, monkeypatch):
        def denied(*args, **kwargs):
            raise OSError(errno.EACCES, "Permission denied")
        monkeypatch.setattr(mmap, "mmap", denied)
        with pytest.raises(PermissionError):
            _fork.shared((4, 3))
