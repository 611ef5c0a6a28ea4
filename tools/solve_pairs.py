"""Time lone density solves of two git revisions in alternating fresh
processes.

    python3 tools/solve_pairs.py --parent REV --change REV \\
        [--n 64] [--mode additive|multiplicative] \\
        [--schedule constant|trajectory] [--pairs 7]

Both revisions are exported with ``bench_pairs.export`` (``git archive``,
so both sides are the same kind of tree).  Each solve runs in a fresh
Python process of its side's tree, which imports that tree's ``src``,
builds the inputs and times one ``fpe_evolve`` call and nothing else.
The inputs are the CLI's: the config ``configs/sample_morse.json`` with
``grid.n`` set to n, ``sde.mode`` to the mode and ``integrator.s_end``
to 0.5, the trajectory that ``simulate`` integrates from it and the
initial density that ``fpe`` starts from its first momentum.  With
``--schedule trajectory`` the solve steps that trajectory's schedule,
whose coefficients change at every stage; with ``constant`` it holds the
schedule's first coefficients over the span, so it forms its field once.
Which side runs first alternates from pair to pair.  It prints each
solve's time, steps and mass balance residual, then each side's median,
inclusive quartiles and interquartile range (``bench_pairs.summary``) and
the pairs in which the change was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, export, summary

# runs in the tree's root with the tree's src on sys.path; prints one
# JSON line
CHILD = """
import json, sys, time
from tribody import CoefficientSchedule, FpeConfig, cli, fpe_evolve

n, mode, schedule = int(sys.argv[1]), sys.argv[2], sys.argv[3]
s_end = 0.5
with open("configs/sample_morse.json") as f:
    doc = json.load(f)
doc["grid"]["n"], doc["sde"]["mode"], doc["integrator"]["s_end"] = n, mode, s_end
doc["sde"]["snapshots"] = [s_end]
cfg = cli.parse_config(doc)
traj = cli._run_trajectory(cfg)
sched = CoefficientSchedule.from_trajectory(traj)
s0 = float(sched.s[0])
if schedule == "constant":
    sched = CoefficientSchedule.constant(*sched.at(s0), s_span=(s0, s_end))
fpe_cfg = FpeConfig(epsilon=cfg["noise"].epsilon, schedule=sched,
                    multiplicative=mode == "multiplicative")
grid0 = cli._initial_density(cfg, traj.xi[0])
t = time.perf_counter()
diag = fpe_evolve(grid0, (s0, s_end), fpe_cfg).diagnostics
wall = time.perf_counter() - t
print(json.dumps({"solve_s": wall, "steps": diag["steps"],
                  "residual": diag["mass_balance_residual"]}))
"""


def solve_once(root: Path, args) -> dict:
    """One lone solve in a fresh process of the tree at root."""
    cmd = [sys.executable, "-c", CHILD, str(args.n), args.mode, args.schedule]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: solve exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's git revision")
    parser.add_argument("--change", required=True, help="the change's git revision")
    parser.add_argument("--n", type=int, default=64, help="cells per axis")
    parser.add_argument("--mode", choices=("additive", "multiplicative"), default="additive")
    parser.add_argument("--schedule", choices=("constant", "trajectory"), default="constant")
    parser.add_argument("--pairs", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")

    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="solve_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), roots[side]) for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                r = solve_once(roots[side], args)
                times[side].append(r["solve_s"])
                print(f"pair {i} {side} {commits[side]}: {r['solve_s']:.4f} s, "
                      f"{r['steps']} steps, residual {r['residual']:.2g}", flush=True)
    print(f"n {args.n}, {args.mode}, {args.schedule} schedule, {args.pairs} pairs")
    for side in SIDES:
        print(f"  {side} {commits[side]}: {summary(times[side])}")
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"  change faster in {faster}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
