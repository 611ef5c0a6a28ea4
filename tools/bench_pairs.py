"""Compare two git revisions with perfbench in alternating pairs and write
a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV \\
        --seeds 1301-1310 --out BENCH_13.json \\
        [--workloads acceptance_scale,multiplicative_noise] [--seconds 10] \\
        [--change-desc TEXT] [--claim TEXT] [--note TEXT]

Each revision of this repository is exported with ``git archive`` into a
temporary directory, so both sides are the same kind of tree: no
``.git``, no untracked files, no bytecode cache.  (A working tree left
uncommitted can be passed as the commit ``git stash create`` prints.)
For every workload and seed it runs ``perfbench/run.py --trace 0`` once
in each tree, each from its own root, so each side imports its own
``src``.  Which side runs first alternates from seed to seed.  The file it
writes has the machine, the seeds, each metric's per-pair values
``[seed, parent, change]``, the median and inclusive quartiles of each
side, the relative change of the median, how many pairs the change was
lower in, whether a claim that the metric went down holds (lower in at
least nine tenths of the pairs, ties counting for neither, and a median
gap larger than the parent's interquartile range), the failed operations
of each side, and the workload's checks (criterion 6's TVs and the like)
per seed; it prints the same per workload and metric.  A run that fails
or prints no result stops the comparison.

Before each pair it times a fixed CPU-bound loop alone and then in two
forked processes at once, and records the ratio of the two wall times
per pair (``cpu_ratio``, also printed with each run): about 1 when a
second CPU ran beside the first, about 2 when the two processes shared
one.  A gain or loss of the solvers' forked workers can only be read
beside it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("pipeline_sample", "acceptance_scale", "multiplicative_noise")
REPO = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list:
    """'1301-1305' or '1301,1303,1309' as a list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def export(rev: str, into: Path) -> str:
    """Write the tree of revision rev into the new directory into with git
    archive; returns the revision's short commit id."""
    commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True, text=True)
    if commit.returncode != 0:
        raise SystemExit(f"{rev!r} is not a revision of {REPO}: {commit.stderr.strip()}")
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", commit.stdout.strip()],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} exited {archive.returncode}")
    return commit.stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the tree at root: its printed result, plus
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


def cpu_ratio(loops: int = 5_000_000) -> float:
    """The wall time of a Python loop of loops additions run in two forked
    processes at once over its time in one alone."""
    def timed(processes: int) -> float:
        t0 = time.perf_counter()
        pids = []
        for _ in range(processes):
            pid = os.fork()
            if pid == 0:
                try:
                    total = 0
                    for i in range(loops):
                        total += i
                finally:
                    os._exit(0)
            pids.append(pid)
        for pid in pids:
            os.waitpid(pid, 0)
        return time.perf_counter() - t0

    alone = timed(1)
    return round(timed(2) / alone, 3)


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def compare(roots: dict, workload: str, seeds: list, seconds: float):
    """Alternating pairs of one workload; returns its BENCH entry and the
    machine the runs reported."""
    runs = {side: {} for side in SIDES}
    ratios = {}
    for i, seed in enumerate(seeds):
        ratios[seed] = cpu_ratio()
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side][seed] = run_once(roots[side], workload, seed, seconds)
            r = runs[side][seed]
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{m} {r['metrics'][m]:.4f}" for m in METRICS)
                  + f", failed {r['failed']}, cpu ratio {ratios[seed]}", file=sys.stderr)
    entry = {"pairs": len(seeds), "seeds": seeds,
             "cpu_ratio": [[seed, ratios[seed]] for seed in seeds],
             "failed_operations": {side: sum(r["failed"] for r in runs[side].values())
                                   for side in SIDES}}
    for m in METRICS:
        per_pair = [[seed, round(runs["parent"][seed]["metrics"][m], 4),
                     round(runs["change"][seed]["metrics"][m], 4)] for seed in seeds]
        parent, change = (summary([pair[k] for pair in per_pair]) for k in (1, 2))
        lower = sum(c < p for _, p, c in per_pair)
        gap = parent["median"] - change["median"]
        entry[m] = {"parent": parent, "change": change,
                    "median_rel_change": round(-gap / parent["median"], 4),
                    "change_lower_in_pairs": lower,
                    "claim_holds": 10 * lower >= 9 * len(seeds) and gap > parent["iqr"],
                    "per_pair": per_pair}
    entry["checks"] = {side: {str(seed): runs[side][seed]["checks"] for seed in seeds}
                       for side in SIDES}
    return entry, runs["change"][seeds[0]]["machine"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's git revision")
    parser.add_argument("--change", required=True, help="the change's git revision")
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--change-desc", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="the metric the change claims to improve")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    if len(args.seeds) < 2:
        parser.error("quartiles need at least 2 seeds")

    entries, machine = {}, {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), roots[side]) for side in SIDES}
        for workload in workloads:
            entries[workload], machine = compare(roots, workload, args.seeds, args.seconds)
    doc = {
        "what": f"perfbench/run.py --seconds {args.seconds:g}, untraced, alternating "
                "parent/change pairs (which side runs first alternates) in git archive "
                "exports of both revisions, written by tools/bench_pairs.py",
        "date": datetime.date.today().isoformat(),
        "host": f"{machine['nproc']}-vCPU {machine['cpu_model']}, Python {machine['python']}, "
                f"numpy {machine['numpy']}, scipy {machine['scipy']}, BLAS pinned to "
                f"{machine['blas_threads_pinned']} thread",
        "parent": commits["parent"],
        "change_commit": commits["change"],
        "change": args.change_desc,
        "claim": args.claim,
        "note": args.note,
        "machine": machine,
        "workloads": entries,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in entries.items():
        ratios = [ratio for _, ratio in entry["cpu_ratio"]]
        print(f"{workload}: failed operations {entry['failed_operations']}, cpu ratio "
              f"{min(ratios)}-{max(ratios)} (median {statistics.median(ratios):.3f})")
        for m in METRICS:
            e = entry[m]
            print(f"  {m} {e['parent']['median']} -> {e['change']['median']} "
                  f"({e['median_rel_change']:+.1%}), change lower in "
                  f"{e['change_lower_in_pairs']}/{entry['pairs']} pairs, parent IQR "
                  f"{e['parent']['iqr']}, claim {'holds' if e['claim_holds'] else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
