"""The benchmark workloads: inputs from a seed, one pass, its checks.

A workload object is built once per process (its construction is the
set-up that ``setup_s`` measures) and then runs closed-loop passes with
``run_pass(pass_id, trace)``.  Each pass returns a dict with

* ``wall_s``      -- the whole pass, checks included;
* ``attempted``   -- operations tried (stage processes, ensembles, FPE
                     solves);
* ``failures``    -- operation id -> reason, for every operation that
                     raised, exited non-zero or failed its check;
* ``counters``    -- deterministic work counts (integers and labels),
                     compared exactly between passes and runs;
* ``checks``      -- the floating-point values the checks compared;
* ``timings``     -- sub-pass wall times the metrics are derived from;
* ``audit``       -- the program's own audit values, reported as is;
* ``trace``       -- with ``trace`` set, the tracer's snapshot of the pass.

``SEED_FREE`` names the counters that do not depend on the seed; only
those are compared between runs with different seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import tribody
from tribody import cli
from tribody.geodesic import read_trajectory_csv

import spans
from proc import run_child

HERE = Path(__file__).resolve().parent
SAMPLE_CONFIG = HERE / "sample_morse.json"
STAGES = cli.STAGES

# Criterion 6 bounds, unchanged.
TV_MAX = 0.05
HEAT_KERNEL_VAR_REL_MAX = 0.03
# Ensemble-vs-FPE mean agreement for multiplicative noise, in standard
# errors of the ensemble mean.  Measured at 1e4 paths, span 1.0: the
# conventional-sign FPE sits within ~1 standard error of the ensemble on
# every axis, the verbatim sign ~13 standard errors away.
MEAN_AGREEMENT_SE = 4.5


def philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def sample_cfg() -> dict:
    """The benchmark's own copy of the sample physics, parsed by the CLI."""
    return cli.parse_config(json.loads(SAMPLE_CONFIG.read_text()))


def gaussian_grid(spec, center, sigma):
    """Normalized Gaussian on the grid with pinned (zero) boundary cells."""
    mesh = spec.mesh()
    P = np.exp(-0.5 * np.sum((mesh - np.asarray(center)) ** 2, axis=-1) / sigma**2)
    P[0] = P[-1] = 0.0
    P[:, 0] = P[:, -1] = 0.0
    P[:, :, 0] = P[:, :, -1] = 0.0
    grid = spec.copy_with(P)
    grid.normalize()
    return grid


def grid_moments(grid):
    """Mean and per-axis variance of a density grid."""
    mesh = grid.mesh()
    w = grid.P * grid.cell_volume
    w = w / w.sum()
    mean = np.einsum("abc,abci->i", w, mesh)
    var = np.einsum("abc,abci->i", w, (mesh - mean) ** 2)
    return mean, var


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """The five README stages, each its own ``python -m tribody.cli`` process."""

    name = "pipeline_sample"
    min_passes = 2          # same-seed passes must be checksum-identical
    # the simulate, chaos and channels stages take no seed; the ensemble's
    # size is fixed by the config
    SEED_FREE = ("artifacts", "paths", "path_steps", "chaos_verdict", "channel")

    def __init__(self, seed: int, toy: bool, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        doc = json.loads(SAMPLE_CONFIG.read_text())
        if toy:
            doc["sde"]["n_paths"] = 100
        self.cfg_path = out_dir / f"pipeline-config-{os.getpid()}.json"
        self.cfg_path.write_text(json.dumps(doc, indent=2))
        # what every stage process pays before its own work
        cli.parse_config(doc)
        self.env = dict(os.environ)
        self.reference = None        # checksums of the first pass

    def run_pass(self, pass_id: int, trace: bool = False) -> dict:
        run_dir = self.out_dir / f"pipeline-run-{os.getpid()}-{pass_id}"
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        failures, timings, peak_kb, snapshots = self.run_stages(run_dir, pass_id, trace)
        sums, audit, counters = self.verify(run_dir, failures)
        wall_s = time.perf_counter() - t0
        if self.reference is None and not failures:
            self.reference = sums
        elif self.reference is not None:
            for stage, stage_sums in sums.items():
                if stage_sums != self.reference.get(stage):
                    failures.setdefault(stage, "artifacts differ from the first same-seed pass")
        shutil.rmtree(run_dir, ignore_errors=True)
        out = {"wall_s": wall_s, "attempted": len(STAGES), "failures": failures,
               "counters": counters, "checks": {}, "timings": timings, "audit": audit,
               "peak_rss_kb": peak_kb}
        if trace:
            out["trace"] = spans.merge(snapshots)
        return out

    def run_stages(self, run_dir: Path, pass_id: int, trace: bool = False):
        """Run the five stage processes into run_dir.  Traced stages go
        through the benchmark's stage runner, which writes its spans to
        the benchmark's scratch directory, never into run_dir."""
        failures, timings, snapshots = {}, {}, []
        peak_kb = 0
        for stage in STAGES:
            args = [stage, "--config", str(self.cfg_path), "--out", str(run_dir),
                    "--seed", str(self.seed)]
            if trace:
                snap_path = self.out_dir / f"stage-{os.getpid()}-{pass_id}-{stage}.json"
                cmd = [sys.executable, str(HERE / "stage_runner.py"),
                       "--trace-out", str(snap_path), "--pass-id", str(pass_id), "--", *args]
            else:
                cmd = [sys.executable, "-m", "tribody.cli", *args]
            log = self.out_dir / f"stage-{stage}.log"
            code, wall, rss_kb = run_child(cmd, self.env, log, 170.0)
            timings[f"stage.{stage}"] = wall
            peak_kb = max(peak_kb, rss_kb)
            if code != 0:
                failures[stage] = f"exit code {code}: {log.read_text(errors='replace')[-300:]}"
            if trace and snap_path.exists():
                snapshots.append(json.loads(snap_path.read_text()))
                snap_path.unlink()
        return failures, timings, peak_kb, snapshots

    @staticmethod
    def verify(run_dir: Path, failures: dict):
        """Check that every manifest is complete and its checksums match the
        files; return per-stage checksums, audit values and work counters."""
        sums = {}
        for stage in STAGES:
            manifest = run_dir / f"manifest_{stage}.json"
            doc = _read_json(manifest, stage, failures)
            if doc is None:
                continue
            if doc.get("status") != "complete":
                failures.setdefault(stage, f"manifest status {doc.get('status')!r}")
            actual = {}
            for name, digest in sorted(doc.get("outputs", {}).items()):
                path = run_dir / name
                actual[name] = sha256(path) if path.exists() else None
                if actual[name] != digest:
                    failures.setdefault(stage, f"checksum mismatch for {name}")
            actual[manifest.name] = sha256(manifest)
            sums[stage] = actual
        files = sorted(run_dir.iterdir()) if run_dir.exists() else []
        counters = {
            "artifact_bytes": sum(p.stat().st_size for p in files),
            "artifacts": len(files),
        }
        audit = {}
        meta = _read_json(run_dir / "ensemble_meta.json", "ensemble", failures)
        if meta is not None:
            counters["paths"] = meta["n_paths"]
            counters["blowups"] = len(meta["blowups"])
            # run_ensemble steps over the whole span of the trajectory's
            # schedule at the configured ds
            s = read_trajectory_csv(run_dir / "trajectory.csv")["s"]
            counters["path_steps"] = meta["n_paths"] * int(round((s[-1] - s[0]) / meta["ds"]))
        fpe_meta = _read_json(run_dir / "fpe_meta.json", "fpe", failures)
        if fpe_meta is not None:
            audit = _audit(fpe_meta["diagnostics"])
        chaos = _read_json(run_dir / "chaos_report.json", "chaos", failures)
        if chaos is not None:
            counters["chaos_verdict"] = chaos["verdict"]
        channels = _read_json(run_dir / "channels.json", "channels", failures)
        if channels is not None:
            counters["channel"] = channels["label"]
        return sums, audit, counters


def _read_json(path: Path, stage: str, failures: dict):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        failures.setdefault(stage, f"{path.name} unreadable: {exc}")
        return None


class InProcess:
    """A workload whose pass runs in the benchmark process itself; a traced
    pass patches the tracer into the library around it."""

    min_passes = 1

    def run_pass(self, pass_id: int, trace: bool = False) -> dict:
        if not trace:
            return self.measure()
        tracer = spans.Tracer()
        tracer.reset(pass_id)
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                p = self.measure()
        finally:
            tracer.remove()
        p["trace"] = tracer.snapshot()
        return p

    def ensemble_counters(self, res, counters: dict, failures: dict) -> None:
        counters["paths"] = self.n_paths
        counters["path_steps"] = self.n_paths * res.meta["n_steps"]
        counters["blowups"] = len(res.blowups)
        if res.blowups:
            failures["ensemble"] = f"{len(res.blowups)} blown-up paths"


class AcceptanceScale(InProcess):
    """Criterion 6 at full size: 1e5 additive paths against a 64^3 FPE,
    histogram TV at three checkpoints, plus the 40^3 heat-kernel case."""

    name = "acceptance_scale"
    SEED_FREE = ("paths", "path_steps")

    def __init__(self, seed: int, toy: bool, out_dir: Path):
        self.a = np.array([0.05, -0.03, 0.02])
        self.lam2, self.eps = 0.2, 0.01
        self.xi0c = np.array([0.2, 0.1, -0.1])
        sigma0 = 0.15
        # toy: same sizes, a fifth of the span
        self.span = (0.0, 0.1) if toy else (0.0, 0.5)
        self.checks = tuple(self.span[1] * f for f in (0.4, 0.7, 1.0))
        self.n_paths = 100_000
        self.ds = 0.002
        self.sched = tribody.CoefficientSchedule.constant(self.a, self.lam2, s_span=self.span)
        self.xi0 = self.xi0c + sigma0 * philox(2 * seed).standard_normal((self.n_paths, 3))
        self.noise = tribody.NoiseModel(epsilon=self.eps, seed=2 * seed + 1)
        self.spec = tribody.MomentumGrid(self.xi0c - 3.2, self.xi0c + 3.2, (64, 64, 64))
        self.grid0 = gaussian_grid(self.spec, self.xi0c, sigma0)
        self.hk_sched = tribody.CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        self.hk_grid0 = gaussian_grid(
            tribody.MomentumGrid([-0.8] * 3, [0.8] * 3, (40, 40, 40)), [0.0] * 3, 0.1)

    def measure(self) -> dict:
        failures, timings, counters, checks, audit = {}, {}, {}, {}, {}
        t0 = time.perf_counter()
        try:
            t = time.perf_counter()
            res = tribody.run_ensemble(self.n_paths, self.sched, self.xi0, ds=self.ds,
                                       mode="additive", noise=self.noise,
                                       snapshot_s=list(self.checks))
            timings["ensemble_s"] = time.perf_counter() - t
            self.ensemble_counters(res, counters, failures)
        except Exception as exc:  # an operation that raises is a failure
            failures["ensemble"] = repr(exc)
            res = None
        try:
            t = time.perf_counter()
            fres = tribody.fpe_evolve(self.grid0, self.span,
                                      tribody.FpeConfig(epsilon=self.eps, schedule=self.sched),
                                      snapshot_s=self.checks)
            timings["fpe_s"] = time.perf_counter() - t
            audit = _audit(fres.diagnostics)
            if res is not None:
                tvs = []
                for (_, xi), (_, grid) in zip(res.snapshots, fres.snapshots):
                    est = tribody.density_from_ensemble(xi, self.spec)
                    tvs.append(0.5 * float(np.sum(np.abs(est.P - grid.P))) * self.spec.cell_volume)
                checks["tv"] = tvs
                if not (len(tvs) == len(self.checks) and max(tvs) < TV_MAX):
                    failures["fpe"] = f"TV {tvs} not all < {TV_MAX}"
        except Exception as exc:
            failures["fpe"] = repr(exc)
        try:
            hk = tribody.fpe_evolve(self.hk_grid0, (0.0, 0.5),
                                    tribody.FpeConfig(epsilon=0.005, schedule=self.hk_sched))
            _, var = grid_moments(hk.snapshots[-1][1])
            expect = 0.1**2 + 2 * 0.005 * 0.5
            rel = float(np.max(np.abs(var - expect) / expect))
            checks["heat_kernel_var_rel"] = rel
            if not rel < HEAT_KERNEL_VAR_REL_MAX:
                failures["fpe_heat_kernel"] = f"variance off by {rel:.2%}"
        except Exception as exc:
            failures["fpe_heat_kernel"] = repr(exc)
        return {"wall_s": time.perf_counter() - t0, "attempted": 3, "failures": failures,
                "counters": counters, "checks": checks, "timings": timings, "audit": audit}


class MultiplicativeNoise(InProcess):
    """Stratonovich-Heun ensemble and multiplicative FPE on the trajectory
    schedule of the sample physics."""

    name = "multiplicative_noise"
    SEED_FREE = ("paths", "path_steps")

    def __init__(self, seed: int, toy: bool, out_dir: Path, sign_mode: str = "conventional"):
        cfg = sample_cfg()
        traj = tribody.integrate(
            tribody.GeodesicState(x=cfg["x0"], xi=cfg["xi0"]), cfg["surface"],
            J=cfg["angular_momentum"], s_end=cfg["integrator"]["s_end"],
            tol=cfg["integrator"]["tol"], n_samples=int(cfg["integrator"]["n_samples"]),
            mu0=cfg["mu0"])
        self.sched = tribody.CoefficientSchedule.from_trajectory(traj)
        self.xi0c = cfg["xi0"]
        sigma0 = 0.15
        self.eps = 0.01
        self.span = (0.0, 0.5) if toy else (0.0, 1.0)
        self.n_paths = 10_000
        self.ds = 0.002
        self.sign_mode = sign_mode
        self.xi0 = self.xi0c + sigma0 * philox(2 * seed).standard_normal((self.n_paths, 3))
        self.noise = tribody.NoiseModel(epsilon=self.eps, seed=2 * seed + 1)
        spec = tribody.MomentumGrid(self.xi0c - 1.2, self.xi0c + 1.2, (24, 24, 24))
        self.grid0 = gaussian_grid(spec, self.xi0c, sigma0)

    def measure(self) -> dict:
        failures, timings, counters, checks, audit = {}, {}, {}, {}, {}
        t0 = time.perf_counter()
        ens_mean = ens_se = None
        try:
            t = time.perf_counter()
            res = tribody.run_ensemble(self.n_paths, self.sched, self.xi0, ds=self.ds,
                                       mode="multiplicative", noise=self.noise,
                                       s_span=self.span)
            timings["ensemble_s"] = time.perf_counter() - t
            self.ensemble_counters(res, counters, failures)
            alive = res.xi_final[np.all(np.isfinite(res.xi_final), axis=1)]
            ens_mean = alive.mean(axis=0)
            ens_se = alive.std(axis=0, ddof=1) / np.sqrt(len(alive))
        except Exception as exc:
            failures["ensemble"] = repr(exc)
        try:
            t = time.perf_counter()
            fres = tribody.fpe_evolve(
                self.grid0, self.span,
                tribody.FpeConfig(epsilon=self.eps, schedule=self.sched,
                                  sign_mode=self.sign_mode, multiplicative=True))
            timings["fpe_s"] = time.perf_counter() - t
            audit = _audit(fres.diagnostics)
            problems = []
            if not audit["mass_ok"]:
                problems.append(f"mass audit failed (error {audit['mass_err']:.3g})")
            if ens_mean is not None:
                fpe_mean, _ = grid_moments(fres.snapshots[-1][1])
                gap = np.abs(fpe_mean - ens_mean) / ens_se
                checks["mean_gap_se"] = gap.tolist()
                if not np.all(gap < MEAN_AGREEMENT_SE):
                    problems.append(f"FPE mean {fpe_mean} is {gap.max():.1f} standard "
                                    f"errors from the ensemble mean {ens_mean}")
            if problems:
                failures["fpe"] = "; ".join(problems)
        except Exception as exc:
            failures["fpe"] = repr(exc)
        return {"wall_s": time.perf_counter() - t0, "attempted": 2, "failures": failures,
                "counters": counters, "checks": checks, "timings": timings, "audit": audit}


def _audit(diag: dict) -> dict:
    """The FPE mass and positivity audit, as the program reports it."""
    return {
        "mass_err": abs(diag["mass_final"] - diag["mass_initial"]),
        "mass_final": diag["mass_final"],
        "mass_ok": bool(diag["mass_ok"]),
        "negative_undershoot_steps": int(diag["negative_undershoot_steps"]),
    }


WORKLOADS = {w.name: w for w in (Pipeline, AcceptanceScale, MultiplicativeNoise)}
