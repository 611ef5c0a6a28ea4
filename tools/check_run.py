"""Check the run directory of the five CLI stages on one config.

    python3 tools/check_run.py RUN_DIR [--summary FILE --title TEXT]

Exits non-zero with a message naming every file the checks read that
RUN_DIR lacks (the manifests of simulate, ensemble, fpe and chaos among
them) and every manifest whose status is not "complete", such as that of
a stage that exited 4.  Otherwise it exits with a message naming the
first of these checks that fails:

- the fpe stage's mass balance residual is above rounding (1e-12);
- the chaos series (tube a) is not taken at the times of the fpe stage's
  densities, fpe_meta.json's snapshot_s;
- ensemble_snapshots.csv writes a (path_id, s) pair twice;
- the ensemble's snapshots are not taken at those times;
- the manifests in RUN_DIR record different configs (every stage of a
  run directory runs from one config file);
- the ensemble's noise power, ensemble_meta.json's epsilon, is not the
  number that the fpe stage ran with, manifest_fpe.json's
  config.noise.epsilon.

With --summary it first appends the fpe solve's step counts (steps,
cfl_limit, negative_undershoot_steps) to FILE as a markdown section
headed TITLE, such as a CI job summary.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

# the files the checks read, besides any manifest_channels.json
NEEDED = ("fpe_meta.json", "chaos_report.json", "ensemble_snapshots.csv", "ensemble_meta.json",
          *(f"manifest_{stage}.json" for stage in ("simulate", "ensemble", "fpe", "chaos")))


def unfinished(run: Path) -> list:
    """What keeps run from being checked: each file of NEEDED that it
    lacks, and each manifest whose status is not 'complete'."""
    found = [f"{name} is missing" for name in NEEDED if not (run / name).is_file()]
    for path in sorted(run.glob("manifest_*.json")):
        try:
            status = json.loads(path.read_text()).get("status")
        except (ValueError, AttributeError):
            status = "unreadable"
        if status != "complete":
            found.append(f"{path.name} has status {status!r}")
    return found


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", type=Path, help="run directory of the five stages")
    parser.add_argument("--summary", type=Path, help="file to append the step counts to")
    parser.add_argument("--title", default="fpe steps", help="heading of that section")
    args = parser.parse_args(argv)
    run = args.run
    problems = unfinished(run)
    if problems:
        sys.exit(f"{run} is not a finished run: " + "; ".join(problems))
    meta = json.loads((run / "fpe_meta.json").read_text())
    diag = meta["diagnostics"]
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(f"### {args.title}\n```\n")
            for key in ("steps", "cfl_limit", "negative_undershoot_steps"):
                f.write(f"{key} = {json.dumps(diag[key])}\n")
            f.write("```\n")
    residual = diag["mass_balance_residual"]
    print(f"mass_balance_residual = {residual:.3g}")
    if not abs(residual) <= 1e-12:
        sys.exit(f"mass balance residual {residual} exceeds 1e-12")
    times = [s for s, _ in json.loads((run / "chaos_report.json").read_text())["series"]]
    if times != meta["snapshot_s"]:
        sys.exit(f"chaos series times {times} are not fpe_meta.json's snapshot_s "
                 f"{meta['snapshot_s']}")
    with open(run / "ensemble_snapshots.csv") as f:
        pairs = [(row["path_id"], float(row["s"])) for row in csv.DictReader(f)]
    if len(set(pairs)) != len(pairs):
        sys.exit("ensemble_snapshots.csv writes a (path_id, s) pair twice")
    times = sorted({s for _, s in pairs})
    if times != meta["snapshot_s"]:
        sys.exit(f"ensemble times {times} are not fpe_meta.json's snapshot_s "
                 f"{meta['snapshot_s']}")
    configs = {p.name: json.loads(p.read_text())["config"] for p in run.glob("manifest_*.json")}
    for name, config in sorted(configs.items()):
        if config != configs["manifest_fpe.json"]:
            sys.exit(f"{name} records another config than manifest_fpe.json")
    eps = json.loads((run / "ensemble_meta.json").read_text())["epsilon"]
    fpe_eps = configs["manifest_fpe.json"]["noise"]["epsilon"]
    if not (isinstance(eps, (int, float)) and eps == fpe_eps):
        sys.exit(f"ensemble_meta.json's epsilon {eps!r} is not manifest_fpe.json's "
                 f"config.noise.epsilon {fpe_eps!r}")
    print(f"{run}: mass balance, chaos and ensemble times, (path_id, s) pairs, "
          f"recorded configs and noise power check")


if __name__ == "__main__":
    main()
