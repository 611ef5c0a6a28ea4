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
    angular_momentum_norm,
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


def _real(value, where: str) -> float:
    """A finite JSON number as a float (json accepts NaN and Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _reals(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of numbers, got {value!r}")
    return [_real(v, where) for v in value]


def _epsilon(value, where: str):
    """A number, or a 3x3 matrix as a list of 3 rows of 3 numbers."""
    if not isinstance(value, list):
        return _real(value, where)
    rows = [_reals(row, where) for row in value]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ConfigError(f"{where}: expected a number or 3 rows of 3 numbers, got {value!r}")
    return rows


def _integer(value, where: str) -> int:
    if not _real(value, where).is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


# every config key with the converter of its value; a section maps its keys
_SCHEMA = {
    "masses": {"m1": _real, "m2": _real, "m3": _real},
    "potential": {"name": _text, "G": _real, "softening": _real, "D": _real, "alpha": _real,
                  "d0": _real},
    "energy": _real,
    "u0": _real,
    "angular_momentum": _reals,
    "initial": {"x": _reals, "xi": _reals},
    "integrator": {"tol": _real, "s_end": _real, "n_samples": _integer},
    "noise": {"epsilon": _epsilon, "hbar_scale": _real, "omega_sq_mean": _real},
    "sde": {"mode": _text, "ds": _real, "n_paths": _integer, "snapshots": _reals},
    "grid": {"min": _real, "max": _real, "n": _integer, "sigma0": _real},
    "chaos": {"delta": _real, "residual_max": _real, "min_decades": _real, "series_a": _text,
              "series_b": _text},
    "channels": {"r_bound": _real, "r_free": _real, "window_frac": _real},
    "seed": _integer,
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


def _typed(doc: dict) -> dict:
    """The config document with every value converted by its _SCHEMA
    entry: an unknown key or a value of the wrong type is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    typed = {}
    for key, value in doc.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        kinds = _SCHEMA[key]
        if not isinstance(kinds, dict):
            typed[key] = kinds(value, key)
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key!r} must be an object")
        for sub in value:
            if sub not in kinds:
                raise ConfigError(f"unknown config key {key}.{sub}")
        typed[key] = {sub: kinds[sub](v, f"{key}.{sub}") for sub, v in value.items()}
    return typed


def parse_config(doc: dict, seed=None) -> dict:
    """Validate a raw config document; convert its values; fill defaults;
    reject unknown keys.  seed, when given, overrides the config's seed."""
    typed = _typed(doc)
    for key in ("masses", "potential", "energy", "u0", "initial"):
        if key not in typed:
            raise ConfigError(f"missing required config key {key!r}")

    cfg = {}
    try:
        cfg["masses"] = Masses(**typed["masses"])
    except (DomainError, TypeError) as exc:
        raise ConfigError(f"masses: {exc}")

    pot = dict(typed["potential"])
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

    cfg["energy"] = typed["energy"]
    cfg["u0"] = typed["u0"]
    if cfg["u0"] <= 0.0:
        raise ConfigError(f"u0 must be positive, got {cfg['u0']}")

    J = typed.get("angular_momentum", _DEFAULTS["angular_momentum"])
    if len(J) != 3:
        raise ConfigError("angular_momentum must be a 3-vector")
    cfg["angular_momentum"] = tuple(J)

    init = typed["initial"]
    if "x" not in init or "xi" not in init:
        raise ConfigError("initial must carry both 'x' and 'xi'")
    cfg["x0"] = np.asarray(init["x"], dtype=float)
    cfg["xi0"] = np.asarray(init["xi"], dtype=float)
    if cfg["x0"].shape != (3,) or cfg["xi0"].shape != (3,):
        raise ConfigError("initial.x and initial.xi must be 3-vectors")

    for key in ("integrator", "sde", "grid", "chaos", "channels"):
        merged = dict(_DEFAULTS[key])
        merged.update(typed.get(key, {}))
        cfg[key] = merged
    if cfg["integrator"]["tol"] <= 0:
        raise ConfigError("integrator.tol must be positive")
    if cfg["integrator"]["s_end"] <= 0:
        raise ConfigError("integrator.s_end must be positive")
    if cfg["integrator"]["n_samples"] < 2:
        raise ConfigError("integrator.n_samples must be at least 2")
    if cfg["sde"]["mode"] not in ("additive", "multiplicative"):
        raise ConfigError("sde.mode must be 'additive' or 'multiplicative'")
    if cfg["sde"]["ds"] <= 0:
        raise ConfigError("sde.ds must be positive")
    if cfg["sde"]["n_paths"] < 1:
        raise ConfigError("sde.n_paths must be at least 1")
    s_end = cfg["integrator"]["s_end"]
    outside = [v for v in cfg["sde"]["snapshots"] if not 0.0 < v <= s_end]
    if outside:
        raise ConfigError(f"sde.snapshots must lie in (0, integrator.s_end] = (0, {s_end}], "
                          f"got {outside}")
    if cfg["grid"]["sigma0"] <= 0:
        raise ConfigError("grid.sigma0 must be positive")
    try:
        _grid_spec(cfg)
    except (DomainError, MemoryError) as exc:  # MemoryError: a grid too large to hold
        raise ConfigError(f"grid: {exc}")
    if ("series_a" in cfg["chaos"]) != ("series_b" in cfg["chaos"]):
        raise ConfigError("chaos: series_a and series_b must come together")

    noise = typed.get("noise", {})
    has_eps = "epsilon" in noise
    has_q = "hbar_scale" in noise or "omega_sq_mean" in noise
    if has_eps and has_q:
        raise ConfigError("noise: give either 'epsilon' or (hbar_scale, omega_sq_mean), not both")
    if has_q:
        if not ("hbar_scale" in noise and "omega_sq_mean" in noise):
            raise ConfigError("noise: hbar_scale and omega_sq_mean must come together")
        try:
            cfg["epsilon"] = quantum_epsilon(noise["hbar_scale"], noise["omega_sq_mean"])
        except DomainError as exc:
            raise ConfigError(f"noise: {exc}")
    else:
        # kept in JSON form (a float or nested lists); the solvers normalize it
        cfg["epsilon"] = noise.get("epsilon", 0.0)

    cfg["seed"] = typed.get("seed", _DEFAULTS["seed"]) if seed is None else seed
    # every stage runs NoiseModel's checks of the noise power and the seed
    cfg["noise"] = NoiseModel(epsilon=cfg["epsilon"], seed=cfg["seed"])
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


def _verified(out_dir: Path, stage: str) -> dict:
    """The outputs {name: sha256} of a stage's manifest in out_dir, once
    the manifest is complete and every output matches its checksum."""
    manifest = out_dir / f"manifest_{stage}.json"
    try:
        doc = json.loads(manifest.read_text())
    except FileNotFoundError:
        raise DependencyError(f"missing upstream manifest {manifest}; run '{stage}' first")
    except json.JSONDecodeError as exc:
        raise DependencyError(f"{manifest} is not valid JSON: {exc}")
    if doc.get("status") != "complete":
        raise DependencyError(f"{manifest} status is {doc.get('status')!r}, not 'complete'")
    outputs = doc.get("outputs", {})
    for name, digest in outputs.items():
        path = out_dir / name
        if not path.exists() or _sha256(path) != digest:
            raise DependencyError(f"{path} does not match the checksum in {manifest.name}")
    return outputs


def _load_trajectory(out_dir: Path):
    """Samples (s, x) of trajectory.csv once the simulate manifest vouches
    for it."""
    if "trajectory.csv" not in _verified(out_dir, "simulate"):
        raise DependencyError(f"manifest_simulate.json in {out_dir} does not list trajectory.csv")
    data = read_trajectory_csv(out_dir / "trajectory.csv")
    return data["s"], np.stack([data["x1"], data["x2"], data["x3"]], axis=1)


def _load_densities(out_dir: Path) -> list:
    """The (grid, s) snapshots that the fpe manifest in out_dir vouches for."""
    names = sorted(n for n in _verified(out_dir, "fpe") if n.startswith("density_"))
    if not names:
        raise DependencyError(f"no density snapshots under {out_dir}")
    return [read_density(out_dir / n) for n in names]


def _schedule(s, x, cfg: dict) -> CoefficientSchedule:
    """Coefficients (a, Lambda^2) along trajectory samples (s, x)."""
    J = angular_momentum_norm(cfg["angular_momentum"])
    _, a, lam = flow_coefficients(x, cfg["surface"], J)
    return CoefficientSchedule(s=s, a=a, lam_sq=lam)


def _run_trajectory(cfg: dict, x0=None) -> TrajectoryRecord:
    state0 = GeodesicState(x=cfg["x0"] if x0 is None else x0, xi=cfg["xi0"])
    return integrate(
        state0,
        cfg["surface"],
        J=cfg["angular_momentum"],
        s_end=cfg["integrator"]["s_end"],
        tol=cfg["integrator"]["tol"],
        n_samples=cfg["integrator"]["n_samples"],
        mu0=cfg["mu0"],
    )


def _grid_spec(cfg: dict) -> MomentumGrid:
    gc = cfg["grid"]
    return MomentumGrid(mins=[gc["min"]] * 3, maxs=[gc["max"]] * 3, shape=(gc["n"],) * 3)


def _initial_density(cfg: dict) -> MomentumGrid:
    grid = _grid_spec(cfg)
    sigma = cfg["grid"]["sigma0"]
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
    for key in ("nfev", "accepted_steps", "rejected_steps"):
        report[key] = traj.meta[key]
    _atomic_write_text(writer.path("conservation.json"), _json_dump(report))


def cmd_ensemble(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    schedule = _schedule(*_load_trajectory(out_dir), cfg)
    noise = cfg["noise"]
    sde = cfg["sde"]
    result = run_ensemble(
        n_traj=sde["n_paths"],
        schedule=schedule,
        xi0=cfg["xi0"],
        ds=sde["ds"],
        mode=sde["mode"],
        noise=noise,
        snapshot_s=sde["snapshots"],
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
        "n_paths": sde["n_paths"],
        "epsilon": noise.epsilon.tolist(),
        "schedule_source": "trajectory.csv",
        "blowups": {str(k): v for k, v in result.blowups.items()},
        "n_steps": result.meta["n_steps"],
        "noise_stream": result.meta["noise_stream"],
        "chunk": result.meta["chunk"],
    }
    _atomic_write_text(writer.path("ensemble_meta.json"), _json_dump(meta))


def _fpe_run(cfg: dict, schedule: CoefficientSchedule, snapshot_s, s_end: float):
    """Evolve the initial density over the schedule from its start to s_end."""
    fpe_cfg = FpeConfig(
        epsilon=cfg["epsilon"],
        schedule=schedule,
        sign_mode="conventional",
        multiplicative=cfg["sde"]["mode"] == "multiplicative",
    )
    grid0 = _initial_density(cfg)
    return fpe_evolve(grid0, (schedule.s[0], s_end), fpe_cfg, snapshot_s=snapshot_s)


def cmd_fpe(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    schedule = _schedule(*_load_trajectory(out_dir), cfg)
    result = _fpe_run(cfg, schedule, cfg["sde"]["snapshots"], schedule.s[-1])
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
    if "series_a" in cc:
        # explicit density series produced by two prior fpe runs
        series_a = _load_densities(Path(cc["series_a"]))
        series_b = _load_densities(Path(cc["series_b"]))
        if len(series_a) != len(series_b):
            raise DependencyError("density series differ in length")
        s_vals = [s for _, s in series_a]
        pairs = [(ga, gb) for (ga, _), (gb, _) in zip(series_a, series_b)]
    else:
        # default route: tube b from initial internal coordinates perturbed
        # by delta, both tubes up to the end of the shorter trajectory
        s, x = _load_trajectory(out_dir)
        traj_b = _run_trajectory(cfg, x0=cfg["x0"] + cc["delta"])
        s_hi = min(s[-1], traj_b.s[-1])
        snaps = [v for v in cfg["sde"]["snapshots"] if s[0] < v <= s_hi]
        if not snaps:
            snaps = list(np.linspace(s[0] + 0.1 * (s_hi - s[0]), s_hi, 8))
        tubes = (_schedule(s, x, cfg), _schedule(traj_b.s, traj_b.x, cfg))
        res_a, res_b = (_fpe_run(cfg, tube, snaps, s_hi) for tube in tubes)
        s_vals = [s_snap for s_snap, _ in res_a.snapshots]
        pairs = [(ga, gb) for (_, ga), (_, gb) in zip(res_a.snapshots, res_b.snapshots)]

    D = []
    for ga, gb in pairs:
        ga.normalize()
        gb.normalize()
        D.append(kl_divergence(ga, gb))
    report = chaos_report(
        np.asarray(s_vals), np.asarray(D),
        residual_max=cc["residual_max"],
        min_decades=cc["min_decades"],
    )
    _atomic_write_text(writer.path("chaos_report.json"), report.to_json() + "\n")


def cmd_channels(cfg: dict, writer: StageWriter, out_dir: Path) -> None:
    s, x = _load_trajectory(out_dir)
    ch = cfg["channels"]
    label = classify_channel(s, x, cfg["masses"], **ch)
    _atomic_write_text(writer.path("channels.json"), _json_dump({
        "label": label.value,
        "thresholds": ch,
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
        cfg = parse_config(doc, seed=args.seed)
        run_command(args.command, cfg, Path(args.out), force=args.force)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except (ResolutionError, ForbiddenRegionError, FitError, EmptyDensityError,
            DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, FileExistsError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
