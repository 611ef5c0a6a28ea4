"""Span tracer that times calls into tribody from outside the library.

The library binds its collaborators with ``from .x import f``, so a
function lives under several module namespaces at once (``momentum_rhs``
in ``geodesic`` and ``langevin``, ``drift`` in ``langevin`` and
``fokker_planck``, ...).  ``Tracer.install`` replaces the function in every
loaded module that holds it, and methods on their defining class, with a
wrapper that records a span.  ``remove`` puts the originals back, so
untraced and traced passes can alternate in one process.

A span is (span id, parent span id, pass id, layer name, start, end).
Self time of a layer is its span time minus the time of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# Spans kept per pass; later spans only add to the stats.
SPAN_CAP = 20000

# (defining module, attribute, layer name).  Several functions may share a
# layer name (reading and writing one artifact format).
FUNCTIONS = (
    ("tribody.geodesic", "momentum_rhs", "geodesic.momentum_rhs"),
    ("tribody.geodesic", "integrate", "geodesic.integrate"),
    ("tribody.geodesic", "conservation_report", "geodesic.conservation_report"),
    ("tribody.geodesic", "write_trajectory_csv", "geodesic.trajectory_csv_io"),
    ("tribody.geodesic", "read_trajectory_csv", "geodesic.trajectory_csv_io"),
    ("tribody.metric", "reduced_hamiltonian", "metric.reduced_hamiltonian"),
    ("tribody.kinematics", "pair_distances", "kinematics.pair_distances"),
    ("tribody.langevin", "run_ensemble", "langevin.run_ensemble"),
    ("tribody.langevin", "drift", "langevin.drift"),
    ("tribody.langevin", "diffusion", "langevin.diffusion"),
    ("tribody.fokker_planck", "fpe_evolve", "fokker_planck.fpe_evolve"),
    ("tribody.fokker_planck", "fpe_rhs", "fokker_planck.fpe_rhs"),
    ("tribody.fokker_planck", "_stable_ds", "fokker_planck.stable_ds"),
    ("tribody.fokker_planck", "density_from_ensemble", "fokker_planck.density_from_ensemble"),
    ("tribody.fokker_planck", "write_density", "fokker_planck.density_io"),
    ("tribody.fokker_planck", "read_density", "fokker_planck.density_io"),
    ("tribody.chaos", "kl_divergence", "chaos.kl_divergence"),
    ("tribody.chaos", "chaos_report", "chaos.chaos_report"),
    ("tribody.chaos", "classify_channel", "chaos.classify_channel"),
    ("tribody.cli", "cmd_simulate", "cli.simulate"),
    ("tribody.cli", "cmd_ensemble", "cli.ensemble"),
    ("tribody.cli", "cmd_fpe", "cli.fpe"),
    ("tribody.cli", "cmd_chaos", "cli.chaos"),
    ("tribody.cli", "cmd_channels", "cli.channels"),
)

# (defining module, class, method, layer name); patched on the class, so
# every subclass that inherits the method is covered.
METHODS = (
    ("tribody.langevin", "CoefficientSchedule", "at", "langevin.schedule_at"),
    ("tribody.potentials", "PairwisePotential", "evaluate", "potentials.evaluate"),
    ("tribody.potentials", "PairwisePotential", "gradient", "potentials.gradient"),
    ("tribody.cli", "StageWriter", "finalize", "cli.StageWriter.finalize"),
)


def _count_work(tracer, layer, args, kwargs, result):
    """Work counters read off the arguments and results of a call.  Path
    steps and blow-ups are not among them: every workload counts those
    itself, traced or not."""
    c = tracer.counters
    if layer == "geodesic.momentum_rhs":
        c["geodesic.momentum_rhs.points"] += result.size // 3
    elif layer == "geodesic.integrate":
        c["geodesic.integrate.nfev"] += int(result.meta["nfev"])
    elif layer == "fokker_planck.fpe_evolve":
        grid0 = args[0] if args else kwargs["grid0"]
        c["fokker_planck.fpe_evolve.cells"] += grid0.P.size


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self._patched: list = []
        self.reset(pass_id=0)

    def reset(self, pass_id: int) -> None:
        """Start a new pass: clear stats and spans, keep the patches."""
        self.pass_id = pass_id
        self.stack: list = []
        self.stats: dict = {}          # layer -> [calls, total s, self s]
        self.site_calls: Counter = Counter()   # "layer@module" -> calls
        self.counters: Counter = Counter()
        self.spans: list = []
        self.spans_dropped = 0
        self._next_id = 1

    def _open(self) -> list:
        """Push a span frame: [span id, parent id, start, child time]."""
        sid = self._next_id
        self._next_id += 1
        frame = [sid, self.stack[-1][0] if self.stack else 0, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, layer: str, frame: list) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        sid, parent, t0, child_time = frame
        dur = t1 - t0
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_time
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self.pass_id, layer, t0, t1))
        else:
            self.spans_dropped += 1

    @contextmanager
    def span(self, layer: str):
        """Record one span around benchmark-side work."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(layer, frame)

    def _wrap(self, fn, layer, site):
        tracer = self
        counted = layer in ("geodesic.momentum_rhs", "geodesic.integrate",
                            "fokker_planck.fpe_evolve")
        key = f"{layer}@{site}"

        def traced(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(layer, frame)
                tracer.site_calls[key] += 1
            if counted:
                _count_work(tracer, layer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every loaded module namespace and class listed above."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, layer in FUNCTIONS:
            if mod_name not in sys.modules:
                continue
            original = getattr(sys.modules[mod_name], attr)
            for name, mod in list(sys.modules.items()):
                namespace = getattr(mod, "__dict__", None)
                if namespace is None or namespace.get(attr) is not original:
                    continue
                site = name.rsplit(".", 1)[-1]
                self._patched.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, layer, site))
        for mod_name, cls_name, attr, layer in METHODS:
            if mod_name not in sys.modules:
                continue
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, cls_name))

    def remove(self) -> None:
        """Restore every original the tracer replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Plain-data view of this pass, mergeable across processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "site_calls": dict(self.site_calls),
            "counters": dict(self.counters),
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.spans_dropped,
        }


def merge(snapshots) -> dict:
    """Sum the stats, calls and counters of several snapshots (the stage
    processes of one pipeline pass); spans are concatenated."""
    out = {"stats": {}, "site_calls": Counter(), "counters": Counter(),
           "spans": [], "spans_dropped": 0}
    for snap in snapshots:
        for layer, (calls, total, self_s) in snap["stats"].items():
            st = out["stats"].setdefault(layer, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        out["site_calls"].update(snap["site_calls"])
        out["counters"].update(snap["counters"])
        out["spans"].extend(snap["spans"])
        out["spans_dropped"] += snap["spans_dropped"]
    out["site_calls"] = dict(out["site_calls"])
    out["counters"] = dict(out["counters"])
    return out
