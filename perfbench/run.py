"""tribody benchmark: named workloads in fresh processes, end-to-end and
per-layer metrics, correctness checks and work counters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tribody checkout; the library is imported from
./src.  Workloads (see workloads.py for the exact problems):

  pipeline_sample       the five CLI stages as separate processes
  acceptance_scale      criterion 6 at full size (1e5 paths, 64^3 FPE)
  multiplicative_noise  Stratonovich-Heun ensemble + multiplicative FPE

The trajectory layers (integrate, potentials, conservation report) are
traced on pipeline_sample, whose simulate and chaos stages run them.

One closed-loop client: each pass starts when the previous one ends, and
passes repeat until S seconds have gone by.  BLAS threads are pinned to 1.

End-to-end metrics (--trace 0), on every workload:
  setup_s      median over several fresh processes of the time from spawn
               to inputs ready (interpreter start, import, config parse or
               input generation) -- what every CLI stage process pays
  wall_s       median wall time of one full pass, checks included
  peak_rss_mb  peak resident memory of the workload process; for
               pipeline_sample the largest stage process

Per-layer metrics (--trace 1) come from traced passes that alternate with
untraced ones in the same process.  ``.calls`` counts calls, ``.s`` is self
time per pass (span time minus child spans), byte counts are computed from
array sizes.  A layer a workload never calls reads 0.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else (machine, counters, check
outcomes, audit values) goes to perfbench/out/results/, spans to
perfbench/out/trace/.  Work counters are compared exactly between the
passes of a run (a mismatch is a failure: same code, same inputs).  The
ones that do not depend on the seed, and the traced call counts, are also
compared with the last run of the same workload in this checkout; a
mismatch there is reported as an algorithmic change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from proc import exit_on_sigterm, run_child

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("pipeline_sample", "acceptance_scale", "multiplicative_noise")
STAGES = ("simulate", "ensemble", "fpe", "chaos", "channels")
SETUP_SAMPLES = 4
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import.s": "s",
    **{f"cli.{stage}.s": "s" for stage in STAGES},
    "cli.StageWriter.finalize.s": "s",
    "cli.artifact_bytes": "B",
    "geodesic.momentum_rhs.calls": "count",
    "geodesic.momentum_rhs.s": "s",
    "geodesic.momentum_rhs.points": "count",
    "geodesic.momentum_rhs.bytes_computed": "B",
    "geodesic.integrate.calls": "count",
    "geodesic.integrate.s": "s",
    "geodesic.integrate.nfev": "count",
    "geodesic.conservation_report.s": "s",
    "geodesic.trajectory_csv_io.s": "s",
    "potentials.evaluate.calls": "count",
    "potentials.evaluate.s": "s",
    "potentials.gradient.calls": "count",
    "potentials.gradient.s": "s",
    "metric.reduced_hamiltonian.calls": "count",
    "metric.reduced_hamiltonian.s": "s",
    "langevin.run_ensemble.s": "s",
    "langevin.path_steps": "count",
    "langevin.schedule_at.calls": "count",
    "langevin.schedule_at.s": "s",
    "langevin.drift.calls": "count",
    "langevin.blowups": "count",
    "langevin.alive_frac": "ratio",
    "langevin.diffusion.calls": "count",
    "langevin.diffusion.s": "s",
    "fokker_planck.fpe_evolve.s": "s",
    "fokker_planck.fpe_evolve.rk2_steps": "count",
    "fokker_planck.fpe_evolve.cells": "count",
    "fokker_planck.fpe_rhs.calls": "count",
    "fokker_planck.fpe_rhs.s": "s",
    "fokker_planck.stable_ds.calls": "count",
    "fokker_planck.stable_ds.s": "s",
    "fokker_planck.drift_evals_per_step": "evals/step",
    "fokker_planck.density_from_ensemble.s": "s",
    "fokker_planck.density_io.s": "s",
    "fokker_planck.mass_err": "mass",
    "fokker_planck.mass_audit_failed": "count",
    "fokker_planck.negative_undershoot_steps": "count",
    "chaos.kl_divergence.calls": "count",
    "chaos.kl_divergence.s": "s",
    "chaos.chaos_report.s": "s",
    "chaos.classify_channel.calls": "count",
    "chaos.classify_channel.s": "s",
    "kinematics.pair_distances.calls": "count",
    "kinematics.pair_distances.s": "s",
    "ensemble_paths_per_s": "1/s",
    "fpe_solve_s": "s",
    "trace_overhead_frac": "ratio",
}

# momentum_rhs reads xi (3 doubles) and writes the drift (3 doubles) per point
MOMENTUM_RHS_BYTES_PER_POINT = 48


def layer_values(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    trace = p["trace"]
    stats, counters, sites = trace["stats"], trace["counters"], trace["site_calls"]
    v = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s"):
            v[name] = stats.get(layer, [0, 0.0, 0.0])[0 if field == "calls" else 2]
    points = counters.get("geodesic.momentum_rhs.points", 0)
    paths = p["counters"].get("paths", 0)
    blowups = p["counters"].get("blowups", 0)
    rk2_steps = v["fokker_planck.stable_ds.calls"]
    v.update({
        "cli.artifact_bytes": p["counters"].get("artifact_bytes", 0),
        "geodesic.momentum_rhs.points": points,
        "geodesic.momentum_rhs.bytes_computed": points * MOMENTUM_RHS_BYTES_PER_POINT,
        "geodesic.integrate.nfev": counters.get("geodesic.integrate.nfev", 0),
        "langevin.path_steps": p["counters"].get("path_steps", 0),
        "langevin.blowups": blowups,
        "langevin.alive_frac": (paths - blowups) / paths if paths else 0.0,
        "fokker_planck.fpe_evolve.rk2_steps": rk2_steps,
        "fokker_planck.fpe_evolve.cells": counters.get("fokker_planck.fpe_evolve.cells", 0),
        "fokker_planck.drift_evals_per_step":
            sites.get("langevin.drift@fokker_planck", 0) / rk2_steps if rk2_steps else 0.0,
        "fokker_planck.mass_err": p["audit"].get("mass_err", 0.0),
        "fokker_planck.mass_audit_failed": int(p["audit"].get("mass_ok") is False),
        "fokker_planck.negative_undershoot_steps": p["audit"].get("negative_undershoot_steps", 0),
    })
    return v


def work_counts(p: dict) -> dict:
    """Deterministic counts of a traced pass: calls per layer and call
    site, and the work counters read off arguments and results."""
    trace = p["trace"]
    out = {f"{layer}.calls": st[0] for layer, st in trace["stats"].items()
           if layer not in ("bench.pass", "cli.main", "cli.import")}
    out.update({f"{site}.calls": n for site, n in trace["site_calls"].items()})
    out.update(trace["counters"])
    return dict(sorted(out.items()))


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def machine(versions: dict) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "l3_cache": "unknown",
        "blas_threads_pinned": BLAS_THREADS,
        "platform": platform.platform(),
        **versions,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info["l3_cache"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return info


def diff_counts(old: dict, new: dict) -> list:
    return [f"{k}: {old.get(k)!r} -> {new.get(k)!r}"
            for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tribody benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    exit_on_sigterm()

    root = Path.cwd()
    if not (root / "src" / "tribody" / "__init__.py").is_file():
        print("perfbench: no tribody source at ./src/tribody; run from the root "
              "of a tribody checkout", file=sys.stderr)
        return 2

    size = "-toy" if args.toy else ""
    tag = f"{args.workload}-seed{args.seed}{size}"
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        return measure(args, root, tag, f"{args.workload}{size}", run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, root: Path, tag: str, workload_tag: str, tmp: Path) -> int:
    """Spawn the set-up probes and the measured worker; report."""
    for d in (tmp, OUT / "results", OUT / "counters", OUT / "trace"):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    def spawn_worker(setup_only: bool, timeout: float):
        result = tmp / f"{tag}-{os.getpid()}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(tmp),
               "--trace-dir", str(OUT / "trace"), "--result", str(result),
               "--spawn-t", repr(time.perf_counter())]
        cmd += ["--toy"] * args.toy + ["--setup-only"] * setup_only
        code, _, rss_kb = run_child(cmd, env, tmp / f"{tag}.log", timeout)
        if code != 0 or not result.exists():
            log = (tmp / f"{tag}.log").read_text(errors="replace")[-3000:]
            print(f"perfbench: worker exited with code {code}\n{log}", file=sys.stderr)
            return None, rss_kb
        out = json.loads(result.read_text())
        result.unlink()
        return out, rss_kb

    # fill bytecode and file caches once, as an installed CLI would have them
    code, _, _ = run_child([sys.executable, "-c", "import tribody.cli"], env,
                           tmp / f"{tag}.log", 60.0)
    if code != 0:
        print("perfbench: cannot import tribody from ./src:\n"
              + (tmp / f"{tag}.log").read_text(errors="replace")[-3000:], file=sys.stderr)
        return 2

    setup = []
    n_probes = 1 if args.toy else SETUP_SAMPLES - 1
    for _ in range(n_probes):
        probe, _ = spawn_worker(True, 60.0)
        if probe is None:
            return 1
        setup.append(probe["setup_s"])
    res, worker_rss_kb = spawn_worker(False, WORKER_TIMEOUT_S)
    if res is None:
        return 1
    setup.append(res["setup_s"])

    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f"pass {i}: {op}: {why}" for i, p in enumerate(passes)
                for op, why in sorted(p["failures"].items())]

    # work counters: exact repeats within the run; the seed-free ones and
    # the traced call counts also against the last run of this workload
    ref = plain[0]["counters"]
    for i, p in enumerate(passes):
        drift = diff_counts(ref, p["counters"])
        if drift:
            failures.append(f"pass {i}: work counters differ from pass 0: {drift}")
    counts = work_counts(traced[0]) if traced else {}
    for p in traced[1:]:
        drift = diff_counts(counts, work_counts(p))
        if drift:
            failures.append(f"traced pass: call counts differ: {drift}")
    seed_free = {k: ref[k] for k in res["seed_free"] if k in ref}
    store = OUT / "counters" / f"{workload_tag}.json"
    previous = json.loads(store.read_text()) if store.exists() else {}
    algorithmic = diff_counts(previous.get("counters", seed_free), seed_free)
    if counts and previous.get("trace_counts"):
        algorithmic += diff_counts(previous["trace_counts"], counts)
    store.write_text(json.dumps({"counters": seed_free,
                                 "trace_counts": counts or previous.get("trace_counts", {})},
                                indent=1, sort_keys=True))

    if args.workload == "pipeline_sample":
        peak_kb = max(p["peak_rss_kb"] for p in passes)
    else:
        peak_kb = worker_rss_kb
    wall = median_or_zero([p["wall_s"] for p in plain])
    # throughputs of the untraced passes, where the workload has the operation
    throughput = {
        "ensemble_paths_per_s": median_or_zero([p["counters"]["paths"] / p["timings"]["ensemble_s"]
                                                for p in plain if "ensemble_s" in p["timings"]]),
        "fpe_solve_s": median_or_zero([p["timings"]["fpe_s"]
                                       for p in plain if "fpe_s" in p["timings"]]),
    }
    if args.trace:
        per_pass = [layer_values(p) for p in traced]
        metrics = {name: median_or_zero([v[name] for v in per_pass]) for name in per_pass[0]}
        metrics.update(throughput)
        metrics["trace_overhead_frac"] = median_or_zero([p["wall_s"] for p in traced]) / wall - 1.0
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall,
                   "peak_rss_mb": peak_kb / 1024.0}
        units = END_TO_END

    attempted = sum(p["attempted"] for p in passes)
    failed = min(attempted, len(failures))
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "machine": machine(res["versions"]),
        "load": "one process, one closed-loop client",
        "passes": len(passes), "untraced_passes": len(plain), "traced_passes": len(traced),
        "setup_s_samples": setup,
        "pass_wall_s": [[p["wall_s"], p["traced"]] for p in passes],
        "pass_timings": [p["timings"] for p in passes],
        "audit": plain[0]["audit"],
        "checks": plain[0]["checks"],
        "counters": ref,
        "trace_counts": counts,
        "failures": failures,
        "algorithmic_changes_since_last_run": algorithmic,
        "throughput": throughput,
        "byte_counts": "computed from array sizes (cache misses ignored); no roofline ratio",
        "metrics": metrics,
    }
    results_path = OUT / "results" / f"{tag}-trace{args.trace}.json"
    results_path.write_text(json.dumps(summary, indent=1, sort_keys=True))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes ({len(traced)} traced), {attempted} operations, "
          f"{failed} failed")
    m = summary["machine"]
    print(f"machine: {m['nproc']} cpus, {m['cpu_model']}, L3 {m['l3_cache']}, python "
          f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, BLAS threads {BLAS_THREADS}")
    audit = plain[0]["audit"]
    if audit:
        print(f"program audit, as tribody reports it: {json.dumps(audit, sort_keys=True)}")
    if audit.get("mass_ok") is False:
        print("KNOWN DEFECT: the FPE mass audit fails (mass_ok false); it is reported "
              "as fokker_planck.mass_err, not counted as a failed operation")
    for line in failures:
        print(f"FAILED {line}")
    for line in algorithmic:
        print(f"ALGORITHMIC CHANGE since the last run of {workload_tag}: {line}")
    print(f"details: {results_path.relative_to(root) if results_path.is_relative_to(root) else results_path}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
