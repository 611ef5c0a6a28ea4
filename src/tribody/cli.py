"""Batch pipeline: simulate, ensemble, fpe, chaos, channels.

Each command reads a JSON run config, consumes upstream artifacts from the
output directory where required, and writes its outputs atomically together
with a per-stage manifest carrying checksums.  Same config + seed gives
bit-identical outputs.

Exit codes: 0 success, 2 config error, 3 missing or unverified upstream
artifact, 4 numerical failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chaos import chaos_report, classify_channel, kl_divergence
from .errors import (
    BlowUpError,
    ConfigError,
    DependencyError,
    DomainError,
    EmptyDensityError,
    FitError,
    ForbiddenRegionError,
    ResolutionError,
)
from .fokker_planck import (
    FpeConfig,
    MomentumGrid,
    fpe_evolve,
    pin_boundary,
    quantum_epsilon,
    read_density,
    write_density,
)
from .geodesic import (
    GeodesicState,
    TrajectoryRecord,
    conservation_report,
    external_rates,
    integrate,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .kinematics import Masses, reduced_mass
from .langevin import CoefficientSchedule, NoiseModel, run_ensemble
from .metric import EnergySurface, flow_coefficients
from .potentials import FreePotential, GravityPotential, MorsePotential

STAGES = ("simulate", "ensemble", "fpe", "chaos", "channels")

_SCHEMA = {
    "masses": {"m1", "m2", "m3"},
    "potential": {"name", "G", "softening", "D", "alpha", "d0"},
    "energy": None,
    "u0": None,
    "angular_momentum": None,
    "initial": {"x", "xi"},
    "integrator": {"tol", "s_end", "n_samples"},
    "noise": {"epsilon", "hbar_scale", "omega_sq_mean"},
    "sde": {"mode", "ds", "n_paths", "snapshots"},
    "grid": {"min", "max", "n", "sigma0"},
    "chaos": {"delta", "residual_max", "min_decades", "series_a", "series_b"},
    "channels": {"r_bound", "r_free", "window_frac"},
    "seed": None,
}

_DEFAULTS = {
    "angular_momentum": [0.0, 0.0, 0.0],
    "integrator": {"tol": 1e-9, "s_end": 5.0, "n_samples": 512},
    "sde": {"mode": "additive", "ds": 0.002, "n_paths": 1000, "snapshots": []},
    "grid": {"min": -1.5, "max": 1.5, "n": 32, "sigma0": 0.1},
    "chaos": {"delta": 1e-3, "residual_max": 0.2, "min_decades": 1.0},
    "channels": {"r_bound": 3.0, "r_free": 10.0, "window_frac": 0.2},
    "seed": 0,
}


def parse_config(doc: dict) -> dict:
    """Validate a raw config document; fill defaults; reject unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for key in doc:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    for key, subkeys in _SCHEMA.items():
        if isinstance(subkeys, set) and key in doc:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for sub in doc[key]:
                if sub not in subkeys:
                    raise ConfigError(f"unknown config key {key}.{sub}")

    for key in ("masses", "potential", "energy", "u0", "initial"):
        if key not in doc:
            raise ConfigError(f"missing required config key {key!r}")

    cfg = {}
    try:
        cfg["masses"] = Masses(**{k: float(doc["masses"][k]) for k in ("m1", "m2", "m3")})
    except KeyError as exc:
        raise ConfigError(f"masses: missing {exc}")
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"masses: {exc}")

    pot = dict(doc["potential"])
    name = pot.pop("name", None)
    try:
        if name == "free":
            cfg["potential"] = FreePotential()
        elif name == "gravity":
            cfg["potential"] = GravityPotential(cfg["masses"], **pot)
        elif name == "morse":
            cfg["potential"] = MorsePotential(cfg["masses"], **pot)
        else:
            raise ConfigError(f"potential.name must be free|gravity|morse, got {name!r}")
    except TypeError as exc:
        raise ConfigError(f"potential: {exc}")
    cfg["potential_doc"] = doc["potential"]

    cfg["energy"] = float(doc["energy"])
    cfg["u0"] = float(doc["u0"])
    if cfg["u0"] <= 0.0:
        raise ConfigError(f"u0 must be positive, got {cfg['u0']}")

    J = [float(v) for v in doc.get("angular_momentum", _DEFAULTS["angular_momentum"])]
    if len(J) != 3:
        raise ConfigError("angular_momentum must be a 3-vector")
    cfg["angular_momentum"] = tuple(J)

    init = doc["initial"]
    if "x" not in init or "xi" not in init:
        raise ConfigError("initial must carry both 'x' and 'xi'")
    cfg["x0"] = np.asarray([float(v) for v in init["x"]], dtype=float)
    cfg["xi0"] = np.asarray([float(v) for v in init["xi"]], dtype=float)
    if cfg["x0"].shape != (3,) or cfg["xi0"].shape != (3,):
        raise ConfigError("initial.x and initial.xi must be 3-vectors")

    for key in ("integrator", "sde", "grid", "chaos", "channels"):
        merged = dict(_DEFAULTS[key])
        merged.update(doc.get(key, {}))
        cfg[key] = merged
    if cfg["integrator"]["tol"] <= 0:
        raise ConfigError("integrator.tol must be positive")
    if cfg["sde"]["mode"] not in ("additive", "multiplicative"):
        raise ConfigError("sde.mode must be 'additive' or 'multiplicative'")

    noise = doc.get("noise", {})
    has_eps = "epsilon" in noise
    has_q = "hbar_scale" in noise or "omega_sq_mean" in noise
    if has_eps and has_q:
        raise ConfigError("noise: give either 'epsilon' or (hbar_scale, omega_sq_mean), not both")
    if has_q:
        if not ("hbar_scale" in noise and "omega_sq_mean" in noise):
            raise ConfigError("noise: hbar_scale and omega_sq_mean must come together")
        try:
            cfg["epsilon"] = quantum_epsilon(float(noise["hbar_scale"]), float(noise["omega_sq_mean"]))
        except DomainError as exc:
            raise ConfigError(f"noise: {exc}")
    elif has_eps:
        # kept in JSON form (a float or nested lists); the solvers normalize it
        eps = noise["epsilon"]
        cfg["epsilon"] = np.asarray(eps, dtype=float).tolist() if isinstance(eps, list) else float(eps)
    else:
        cfg["epsilon"] = 0.0

    cfg["seed"] = int(doc.get("seed", _DEFAULTS["seed"]))
    cfg["mu0"] = reduced_mass(cfg["masses"])
    cfg["surface"] = EnergySurface(E=cfg["energy"], U0=cfg["u0"], potential=cfg["potential"])
    cfg["echo"] = doc
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write_text(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class StageWriter:
    """Atomic per-stage outputs plus a manifest written first, finalized last."""

    def __init__(self, stage: str, out_dir: Path, cfg: dict, force: bool):
        self.stage = stage
        self.out = out_dir
        self.cfg = cfg
        self.force = force
        self.files: list[Path] = []
        self.manifest_path = out_dir / f"manifest_{stage}.json"

    def start(self):
        try:
            self.out.mkdir(parents=True, exist_ok=True)
            probe = self.out / f".write_probe_{self.stage}"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            raise OSError(f"output directory not writable: {exc}")
        if self.manifest_path.exists() and not self.force:
            raise FileExistsError(
                f"{self.manifest_path} exists; pass --force to overwrite"
            )
        self.header = {
            "artifact_version": __version__,
            "stage": self.stage,
            "config": self.cfg["echo"],
            "derived": {
                "mu0": self.cfg["mu0"],
                "epsilon": self.cfg["epsilon"],
                "seed": self.cfg["seed"],
            },
            "status": "running",
            "outputs": {},
        }
        _atomic_write_text(self.manifest_path, _json_dump(self.header))

    def path(self, name: str) -> Path:
        p = self.out / name
        if p.exists() and not self.force:
            raise FileExistsError(f"{p} exists; pass --force to overwrite")
        self.files.append(p)
        return p

    def finalize(self):
        self.header["status"] = "complete"
        self.header["outputs"] = {p.name: _sha256(p) for p in self.files}
        _atomic_write_text(self.manifest_path, _json_dump(self.header))


def _load_trajectory(out_dir: Path) -> dict:
    """Read trajectory.csv once the simulate manifest vouches for it:
    complete, and listing the file's checksum."""
    path = out_dir / "trajectory.csv"
    manifest = out_dir / "manifest_simulate.json"
    if not path.exists() or not manifest.exists():
        raise DependencyError(f"missing upstream artifact {path} or {manifest.name}; "
                              "run 'simulate' first")
    try:
        doc = json.loads(manifest.read_text())
    except json.JSONDecodeError as exc:
        raise DependencyError(f"{manifest} is not valid JSON: {exc}")
    if doc.get("status") != "complete":
        raise DependencyError(f"{manifest} status is {doc.get('status')!r}, not 'complete'")
    if doc.get("outputs", {}).get(path.name) != _sha256(path):
        raise DependencyError(f"{path} does not match the checksum in {manifest.name}")
    return read_trajectory_csv(path)


def _schedule_from_csv(data: dict, cfg: dict) -> CoefficientSchedule:
    x = np.stack([data["x1"], data["x2"], data["x3"]], axis=1)
    J = math.sqrt(sum(j * j for j in cfg["angular_momentum"]))
    _, a, lam = flow_coefficients(x, cfg["surface"], J)
    return CoefficientSchedule(s=data["s"], a=a, lam_sq=lam)


def _run_trajectory(cfg: dict, x0=None) -> TrajectoryRecord:
    state0 = GeodesicState(x=cfg["x0"] if x0 is None else x0, xi=cfg["xi0"])
    return integrate(
        state0,
        cfg["surface"],
        J=cfg["angular_momentum"],
        s_end=cfg["integrator"]["s_end"],
        tol=cfg["integrator"]["tol"],
        n_samples=int(cfg["integrator"]["n_samples"]),
        mu0=cfg["mu0"],
    )


def _grid_spec(cfg: dict) -> MomentumGrid:
    gc = cfg["grid"]
    n = int(gc["n"])
    return MomentumGrid(mins=[gc["min"]] * 3, maxs=[gc["max"]] * 3, shape=(n, n, n))


def _initial_density(cfg: dict) -> MomentumGrid:
    grid = _grid_spec(cfg)
    sigma = float(cfg["grid"]["sigma0"])
    mesh = grid.mesh()
    d2 = np.sum((mesh - cfg["xi0"]) ** 2, axis=-1)
    grid.P = np.exp(-0.5 * d2 / sigma**2)
    pin_boundary(grid.P)
    grid.normalize()
    return grid


def cmd_simulate(cfg: dict, writer: StageWriter) -> None:
    traj = _run_trajectory(cfg)
    write_trajectory_csv(traj, cfg["surface"], cfg["mu0"], writer.path("trajectory.csv"))
    report = conservation_report(traj, cfg["surface"], cfg["mu0"])
    # exact-rate identity audit: sum_mu (xdot_mu)^2 vs Lambda^2
    rates = external_rates(traj.g, *traj.J)
    report["external_rate_identity_max_err"] = float(
        np.max(np.abs(np.sum(rates**2, axis=-1) - traj.lam_sq))
    )
    _atomic_write_text(writer.path("conservation.json"), _json_dump(report))


def cmd_ensemble(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    data = _load_trajectory(out_dir)
    schedule = _schedule_from_csv(data, cfg)
    noise = NoiseModel(epsilon=cfg["epsilon"], seed=cfg["seed"])
    sde = cfg["sde"]
    result = run_ensemble(
        n_traj=int(sde["n_paths"]),
        schedule=schedule,
        xi0=cfg["xi0"],
        ds=float(sde["ds"]),
        mode=sde["mode"],
        noise=noise,
        snapshot_s=[float(v) for v in sde["snapshots"]],
    )
    rows = ["path_id,s,xi1,xi2,xi3"]
    for s_val, xi in result.snapshots + [(result.s_final, result.xi_final)]:
        s_txt = repr(float(s_val))
        # tolist() yields Python floats, whose repr is the plain shortest form
        for p, (x1, x2, x3) in enumerate(xi.tolist()):
            rows.append(f"{p},{s_txt},{x1!r},{x2!r},{x3!r}")
    writer.path("ensemble_snapshots.csv").write_text("\n".join(rows) + "\n")
    meta = {
        "seed": cfg["seed"],
        "mode": sde["mode"],
        "ds": sde["ds"],
        "n_paths": int(sde["n_paths"]),
        "epsilon": noise.epsilon.tolist(),
        "schedule_source": "trajectory.csv",
        "blowups": {str(k): v for k, v in result.blowups.items()},
        "n_steps": result.meta["n_steps"],
    }
    _atomic_write_text(writer.path("ensemble_meta.json"), _json_dump(meta))


def _fpe_run(cfg: dict, schedule: CoefficientSchedule, snapshot_s):
    fpe_cfg = FpeConfig(
        epsilon=cfg["epsilon"],
        schedule=schedule,
        sign_mode="conventional",
        multiplicative=cfg["sde"]["mode"] == "multiplicative",
    )
    grid0 = _initial_density(cfg)
    span = (float(schedule.s[0]), float(schedule.s[-1]))
    return fpe_evolve(grid0, span, fpe_cfg, snapshot_s=snapshot_s)


def cmd_fpe(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    data = _load_trajectory(out_dir)
    schedule = _schedule_from_csv(data, cfg)
    snaps = [float(v) for v in cfg["sde"]["snapshots"]]
    result = _fpe_run(cfg, schedule, snaps)
    info = {"sign_mode": "conventional", "epsilon": cfg["epsilon"]}
    for i, (s_val, grid) in enumerate(result.snapshots):
        write_density(grid, s_val, info, writer.path(f"density_{i:04d}.txt"))
    _atomic_write_text(writer.path("fpe_meta.json"), _json_dump({
        "diagnostics": result.diagnostics,
        "mass_series": [[float(a), float(b)] for a, b in result.mass_series],
        "snapshot_s": [float(s) for s, _ in result.snapshots],
    }))


def cmd_chaos(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    cc = cfg["chaos"]
    if cc.get("series_a") and cc.get("series_b"):
        # explicit density series produced by two prior fpe runs
        def load(dirname):
            d = Path(dirname)
            files = sorted(d.glob("density_*.txt"))
            if not files:
                raise DependencyError(f"no density snapshots under {d}")
            return [read_density(f) for f in files]
        series_a, series_b = load(cc["series_a"]), load(cc["series_b"])
        if len(series_a) != len(series_b):
            raise DependencyError("density series differ in length")
        s_vals = [s for _, s in series_a]
        pairs = [(ga, gb) for (ga, _), (gb, _) in zip(series_a, series_b)]
    else:
        # default route: tube b from initial internal coordinates perturbed by delta
        data = _load_trajectory(out_dir)
        schedule_a = _schedule_from_csv(data, cfg)
        traj_b = _run_trajectory(cfg, x0=cfg["x0"] + float(cc["delta"]))
        schedule_b = CoefficientSchedule.from_trajectory(traj_b)
        s_hi = min(schedule_a.s[-1], schedule_b.s[-1])
        s_lo = schedule_a.s[0]
        snaps = [float(v) for v in cfg["sde"]["snapshots"] if s_lo < float(v) <= s_hi]
        if not snaps:
            snaps = list(np.linspace(s_lo + 0.1 * (s_hi - s_lo), s_hi, 8))
        res_a = _fpe_run(cfg, _clip_schedule(schedule_a, s_hi), snaps)
        res_b = _fpe_run(cfg, _clip_schedule(schedule_b, s_hi), snaps)
        s_vals = [s for s, _ in res_a.snapshots]
        pairs = [(ga, gb) for (_, ga), (_, gb) in zip(res_a.snapshots, res_b.snapshots)]

    D = []
    for ga, gb in pairs:
        ga.normalize()
        gb.normalize()
        D.append(kl_divergence(ga, gb))
    report = chaos_report(
        np.asarray(s_vals), np.asarray(D),
        residual_max=float(cc["residual_max"]),
        min_decades=float(cc["min_decades"]),
    )
    _atomic_write_text(writer.path("chaos_report.json"), report.to_json() + "\n")


def _clip_schedule(schedule: CoefficientSchedule, s_hi: float) -> CoefficientSchedule:
    mask = schedule.s <= s_hi + 1e-12
    return CoefficientSchedule(s=schedule.s[mask], a=schedule.a[mask], lam_sq=schedule.lam_sq[mask])


def cmd_channels(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    data = _load_trajectory(out_dir)
    x = np.stack([data["x1"], data["x2"], data["x3"]], axis=1)
    ch = cfg["channels"]
    label = classify_channel(
        data["s"], x, cfg["masses"],
        r_bound=float(ch["r_bound"]),
        r_free=float(ch["r_free"]),
        window_frac=float(ch["window_frac"]),
    )
    _atomic_write_text(writer.path("channels.json"), _json_dump({
        "label": label.value,
        "thresholds": {k: float(v) for k, v in ch.items()},
    }))


def run_command(name: str, cfg: dict, out_dir: Path, force: bool = False) -> None:
    """Execute one pipeline stage; raises on any failure."""
    writer = StageWriter(name, out_dir, cfg, force)
    writer.start()
    if name == "simulate":
        cmd_simulate(cfg, writer)
    elif name == "ensemble":
        cmd_ensemble(cfg, writer, out_dir)
    elif name == "fpe":
        cmd_fpe(cfg, writer, out_dir)
    elif name == "chaos":
        cmd_chaos(cfg, writer, out_dir)
    elif name == "channels":
        cmd_channels(cfg, writer, out_dir)
    else:
        raise ConfigError(f"unknown command {name!r}")
    writer.finalize()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tribody",
        description="Three-body geodesic-flow scattering with quantum-fluctuation noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    args = parser.parse_args(argv)

    try:
        try:
            doc = json.loads(Path(args.config).read_text())
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 5
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        cfg = parse_config(doc)
        if args.seed is not None:
            cfg["seed"] = args.seed
        run_command(args.command, cfg, Path(args.out), force=args.force)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except (BlowUpError, ResolutionError, ForbiddenRegionError, FitError,
            EmptyDensityError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, FileExistsError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
