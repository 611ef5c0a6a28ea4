"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py        (from the root of a tribody checkout)

Checks that
* every workload run.py knows, untraced and traced, prints exactly the
  metrics that BENCHMARK.json names, with their units, and no failed
  operation;
* a corrupted pipeline artifact is caught as a failed stage;
* a wrong-sign (``sign_mode="verbatim"``) multiplicative FPE is caught by
  the ensemble-vs-FPE mean check;
* run.py exits non-zero, printing no result, where there is no library
  source.
Takes about a minute and a half on 2 CPUs.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int, toy: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace)] + ["--toy"] * toy
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics_emitted(spec: dict, failures: list):
    import run

    for workload in run.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            r = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if r.returncode != 0:
                failures.append(f"{where}: exit code {r.returncode}: {r.stderr[-500:]}")
                continue
            out = json.loads(r.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(out)}")
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
                failures.append(f"{where}: correct={out['correct']} failed={out['failed']} "
                                f"attempted={out['attempted']}")
            expected = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, "
                                f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
            if trace == 0 and any(v["value"] <= 0 for v in out["metrics"].values()):
                failures.append(f"{where}: an end-to-end metric reads 0")
            print(f"ok   {where}: {len(got)} metrics, {out['attempted']} operations")


def check_corrupted_artifact(workloads, scratch: Path, failures: list):
    wl = workloads.Pipeline(SEED, True, scratch)
    run_dir = scratch / "pipeline"
    stage_failures, *_ = wl.run_stages(run_dir, 0)
    clean: dict = {}
    wl.verify(run_dir, clean)
    if stage_failures or clean:
        failures.append(f"clean pipeline reported failures: {stage_failures} {clean}")
        return
    with open(run_dir / "ensemble_snapshots.csv", "ab") as fh:
        fh.write(b"0")
    caught: dict = {}
    wl.verify(run_dir, caught)
    if "checksum" not in caught.get("ensemble", ""):
        failures.append(f"corrupted ensemble_snapshots.csv not caught: {caught}")
    else:
        print(f"ok   corrupted artifact caught: ensemble: {caught['ensemble']}")


def check_wrong_sign(workloads, scratch: Path, failures: list):
    wl = workloads.MultiplicativeNoise(SEED, True, scratch, sign_mode="verbatim")
    reason = wl.run_pass(0)["failures"].get("fpe", "")
    if "standard errors" not in reason:
        failures.append(f"verbatim-sign FPE not caught by the mean check: {reason!r}")
    else:
        print(f"ok   wrong-sign FPE caught: {reason}")


def check_refuses_without_source(scratch: Path, failures: list):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    r = run_bench(bare, "pipeline_sample", 0, toy=False)
    if r.returncode == 0 or r.stdout.strip():
        failures.append(f"run.py without source: exit {r.returncode}, stdout {r.stdout[-200:]!r}")
    else:
        print(f"ok   without source: exit code {r.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    failures: list = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as d:
        scratch = Path(d)
        check_refuses_without_source(scratch, failures)
        check_corrupted_artifact(workloads, scratch, failures)
        check_wrong_sign(workloads, scratch, failures)
    check_metrics_emitted(spec, failures)
    for line in failures:
        print(f"FAIL {line}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
