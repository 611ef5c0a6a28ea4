"""Compare two checkouts with perfbench in alternating pairs and write a
BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --seeds 1301-1310 --out BENCH_13.json \\
        [--workloads acceptance_scale,multiplicative_noise] [--seconds 10] \\
        [--parent-rev REV] [--change-desc TEXT] [--claim TEXT] [--note TEXT]

For every workload and seed it runs ``perfbench/run.py --trace 0`` once in
each checkout, each from its own root, so each side imports its own
``src``.  Which side runs first alternates from seed to seed.  The file it
writes has the machine, the seeds, each metric's per-pair values
``[seed, parent, change]``, the median and inclusive quartiles of each
side, how many pairs the change was lower in, the failed operations of
each side, and the workload's checks (criterion 6's TVs and the like) per
seed.  A run that fails or prints no result stops the comparison.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("pipeline_sample", "acceptance_scale", "multiplicative_noise")


def seed_list(text: str) -> list:
    """'1301-1305' or '1301,1303,1309' as a list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout at root: its printed result, plus
    the machine and checks from its results file."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = json.loads((root / "perfbench" / "out" / "results"
                          / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"failed": result["failed"],
            "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
            "machine": details["machine"], "checks": details["checks"]}


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def compare(roots: dict, workload: str, seeds: list, seconds: float):
    """Alternating pairs of one workload; returns its BENCH entry and the
    machine the runs reported."""
    runs = {side: {} for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side][seed] = run_once(roots[side], workload, seed, seconds)
            r = runs[side][seed]
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{m} {r['metrics'][m]:.4f}" for m in METRICS)
                  + f", failed {r['failed']}", file=sys.stderr)
    entry = {"pairs": len(seeds), "seeds": seeds,
             "failed_operations": {side: sum(r["failed"] for r in runs[side].values())
                                   for side in SIDES}}
    for m in METRICS:
        per_pair = [[seed, round(runs["parent"][seed]["metrics"][m], 4),
                     round(runs["change"][seed]["metrics"][m], 4)] for seed in seeds]
        entry[m] = {"parent": summary([p for _, p, _ in per_pair]),
                    "change": summary([c for _, _, c in per_pair]),
                    "change_lower_in_pairs": sum(c < p for _, p, c in per_pair),
                    "per_pair": per_pair}
    entry["checks"] = {side: {str(seed): runs[side][seed]["checks"] for seed in seeds}
                       for side in SIDES}
    return entry, runs["change"][seeds[0]]["machine"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--parent-rev", default="", help="the parent's revision")
    parser.add_argument("--change-desc", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="the metric the change claims to improve")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    if len(args.seeds) < 2:
        parser.error("quartiles need at least 2 seeds")

    entries, machine = {}, {}
    for workload in workloads:
        entries[workload], machine = compare(roots, workload, args.seeds, args.seconds)
    doc = {
        "what": f"perfbench/run.py --seconds {args.seconds:g}, untraced, alternating "
                "parent/change pairs (which side runs first alternates), written by "
                "tools/bench_pairs.py",
        "date": datetime.date.today().isoformat(),
        "host": f"{machine['nproc']}-vCPU {machine['cpu_model']}, Python {machine['python']}, "
                f"numpy {machine['numpy']}, scipy {machine['scipy']}, BLAS pinned to "
                f"{machine['blas_threads_pinned']} thread",
        "parent": args.parent_rev,
        "change": args.change_desc,
        "claim": args.claim,
        "note": args.note,
        "machine": machine,
        "workloads": entries,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in entries.items():
        wall = entry["wall_s"]
        print(f"{workload}: wall_s {wall['parent']['median']} -> {wall['change']['median']} s, "
              f"change lower in {wall['change_lower_in_pairs']}/{entry['pairs']} pairs, "
              f"parent IQR {wall['parent']['iqr']}; failed operations "
              f"{entry['failed_operations']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
