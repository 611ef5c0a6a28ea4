"""One measured benchmark process: set up a workload, run closed-loop
passes for the requested time, write everything it saw as JSON.

Started by run.py, which records the moment it spawned this process and
passes it as --spawn-t; set-up time is counted from there (interpreter
start, imports and input generation) to the end of the workload's
construction.  With --setup-only the process stops there.

With --trace 1 the passes alternate untraced and traced, so the same
process gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from proc import exit_on_sigterm


def run_passes(wl, seconds: float, trace: bool):
    passes = []
    min_passes = max(wl.min_passes, 2 if trace else 1)
    t_start = time.perf_counter()
    while True:
        pass_id = len(passes)
        traced = trace and pass_id % 2 == 1
        p = wl.run_pass(pass_id, traced)
        p["traced"] = traced
        passes.append(p)
        if len(passes) >= min_passes and time.perf_counter() - t_start >= seconds:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--out-dir", required=True, help="scratch directory of this run")
    parser.add_argument("--trace-dir", required=True, help="where the spans are kept")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    exit_on_sigterm()

    import workloads

    out_dir = Path(args.out_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.toy, out_dir)
    result = {"setup_s": time.perf_counter() - args.spawn_t, "seed_free": wl.SEED_FREE}
    if not args.setup_only:
        trace_dir = Path(args.trace_dir)
        passes = run_passes(wl, args.seconds, bool(args.trace))
        traced = [p for p in passes if p["traced"]]
        if traced:
            # spans of the first traced pass; the rest keep only their stats
            name = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}.json"
            (trace_dir / name).write_text(json.dumps({
                "columns": ["span_id", "parent_id", "pass_id", "layer", "start_s", "end_s"],
                "spans": traced[0]["trace"]["spans"],
                "spans_dropped": traced[0]["trace"]["spans_dropped"],
            }))
            for p in traced:
                del p["trace"]["spans"]
        result["passes"] = passes
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
