"""Child processes of the benchmark, timed and measured from outside."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

STOP_GRACE_S = 10.0


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that run_child stops and reaps the
    child it is waiting for before this process ends."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def _stop(proc: subprocess.Popen) -> None:
    """Ask proc to end, force it after a grace period, and reap it."""
    proc.terminate()
    try:
        proc.wait(timeout=STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def run_child(cmd, env, log_path: Path, timeout: float):
    """Run cmd to completion with its output in log_path.

    Returns (exit code, wall seconds, peak resident set in KiB).  The peak
    comes from wait4, so it covers the child and every descendant it
    waited for.  A child still running at the timeout gets SIGTERM, so
    that it can stop its own children in turn, and SIGKILL after a grace
    period.  A wait cut short by an exception stops and reaps the child
    before the exception goes on.
    """
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
    timers = [threading.Timer(timeout, _signal, (proc.pid, signal.SIGTERM)),
              threading.Timer(timeout + STOP_GRACE_S, _signal, (proc.pid, signal.SIGKILL))]
    for timer in timers:
        timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        for timer in timers:
            timer.cancel()
        _stop(proc)
        raise
    finally:
        for timer in timers:
            timer.cancel()
            timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss
