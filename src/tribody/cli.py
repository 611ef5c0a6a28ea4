"""Batch pipeline: simulate, ensemble, fpe, chaos, channels.

Each command reads a JSON run config, consumes upstream artifacts from the
output directory where required, and writes its outputs and a per-stage
manifest, which records the config filled in and, once the stage
completes, the outputs' checksums.  A stage trusts an upstream output
only once its manifest is complete and its checksum matches.  ensemble
and fpe read the starting momentum and the coefficient schedule
(a, Lambda^2) from trajectory.csv, not the config, and share their
snapshot times.  chaos compares the fpe stage's densities (tube a) with a
tube b that it solves along a perturbed trajectory.  READS names the
config keys each stage reads and NEEDS the stages whose outputs it reads:
a stage is held to every other complete manifest in the output directory
on the keys both read, and to one that needs it on all it reads, or
refused before it writes anything.
The chaos verdict's gates and the channel window are chaos module
constants, not config keys.  Same config + seed gives bit-identical
outputs.

Exit codes: 0 success, 2 config error, 3 missing or unverified upstream
artifact or a refused run, 4 numerical failure (an arithmetic overflow
included), 5 I/O error (a forked worker that ended without a result
included) or out of memory.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chaos import WINDOW_FRAC, chaos_report, classify_channel, kl_divergence
from .errors import ConfigError, DependencyError, DomainError, TribodyError
from .fokker_planck import (
    FpeConfig,
    MomentumGrid,
    fpe_evolve,
    pin_boundary,
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
from .langevin import CoefficientSchedule, NoiseModel, noise_power, run_ensemble
from .metric import EnergySurface
from .potentials import FreePotential, GravityPotential, MorsePotential

# the config keys each stage reads itself, each a section or one
# "section.key": chaos integrates simulate's physics again for tube b, and
# channels weighs the pair distances by the masses.  ensemble and fpe take
# the starting momentum and the schedule from trajectory.csv, so they read
# none of the physics
_PHYSICS = ("masses", "potential", "energy", "u0", "angular_momentum", "initial", "integrator")
READS = {
    "simulate": _PHYSICS,
    "ensemble": ("noise", "sde", "seed"),
    "fpe": ("noise", "sde.mode", "sde.snapshots", "grid"),
    "chaos": (*_PHYSICS, "noise", "sde.mode", "grid", "chaos"),
    "channels": ("masses", "channels"),
}
STAGES = tuple(READS)
# the stages whose outputs each stage reads
NEEDS = {"simulate": (), "ensemble": ("simulate",), "fpe": ("simulate",),
         "chaos": ("simulate", "fpe"), "channels": ("simulate",)}


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
    "noise": {"epsilon": _real},
    "sde": {"mode": _text, "ds": _real, "n_paths": _integer, "snapshots": _reals},
    "grid": {"min": _real, "max": _real, "n": _integer, "sigma0": _real},
    "chaos": {"delta": _real},
    "channels": {"r_bound": _real, "r_free": _real},
    "seed": _integer,
}

_DEFAULTS = {
    "angular_momentum": [0.0, 0.0, 0.0],
    "integrator": {"tol": 1e-9, "s_end": 5.0, "n_samples": 512},
    "noise": {"epsilon": 0.0},
    "sde": {"mode": "additive", "ds": 0.002, "n_paths": 1000, "snapshots": []},
    "grid": {"min": -1.5, "max": 1.5, "n": 32, "sigma0": 0.1},
    "chaos": {"delta": 1e-3},
    "channels": {"r_bound": 3.0, "r_free": 10.0},
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
    """Validate a raw config document and build the run's config from it:
    under "settings" the document as plain JSON, its values converted,
    defaults filled in, the potential's parameters as its model holds
    them and seed, when given, as its seed, which each stage's manifest
    records; beside it the objects the stages run with."""
    typed = _typed(doc)
    for key in ("masses", "potential", "energy", "u0", "initial"):
        if key not in typed:
            raise ConfigError(f"missing required config key {key!r}")
    settings = copy.deepcopy(_DEFAULTS)
    for key, value in typed.items():
        if key in settings and isinstance(value, dict):
            settings[key].update(value)
        else:
            settings[key] = value
    if seed is not None:
        settings["seed"] = seed

    cfg = {"settings": settings}
    try:
        cfg["masses"] = Masses(**settings["masses"])
    except (DomainError, TypeError) as exc:
        raise ConfigError(f"masses: {exc}")

    pot = dict(settings["potential"])
    name = pot.pop("name", None)
    try:
        if name == "free":
            cfg["potential"] = FreePotential(**pot)
        elif name == "gravity":
            cfg["potential"] = GravityPotential(cfg["masses"], **pot)
        elif name == "morse":
            cfg["potential"] = MorsePotential(cfg["masses"], **pot)
        else:
            raise ConfigError(f"potential.name must be free|gravity|morse, got {name!r}")
    except TypeError as exc:
        raise ConfigError(f"potential: {exc}")
    # the parameters the model was built with, its defaults included
    settings["potential"] = {"name": name, **{k: getattr(cfg["potential"], k)
                                              for k in _SCHEMA["potential"]
                                              if hasattr(cfg["potential"], k)}}

    if settings["u0"] <= 0.0:
        raise ConfigError(f"u0 must be positive, got {settings['u0']}")

    if len(settings["angular_momentum"]) != 3:
        raise ConfigError("angular_momentum must be a 3-vector")
    cfg["angular_momentum"] = tuple(settings["angular_momentum"])

    init = settings["initial"]
    if "x" not in init or "xi" not in init:
        raise ConfigError("initial must carry both 'x' and 'xi'")
    cfg["x0"] = np.asarray(init["x"], dtype=float)
    cfg["xi0"] = np.asarray(init["xi"], dtype=float)
    if cfg["x0"].shape != (3,) or cfg["xi0"].shape != (3,):
        raise ConfigError("initial.x and initial.xi must be 3-vectors")

    for key in ("integrator", "sde", "grid", "chaos", "channels"):
        cfg[key] = settings[key]
    if cfg["integrator"]["tol"] <= 0:
        raise ConfigError("integrator.tol must be positive")
    if cfg["integrator"]["s_end"] <= 0:
        raise ConfigError("integrator.s_end must be positive")
    if not 2 <= cfg["integrator"]["n_samples"] <= np.iinfo(np.intp).max:
        raise ConfigError(f"integrator.n_samples must lie in [2, {np.iinfo(np.intp).max}], "
                          f"got {cfg['integrator']['n_samples']}")
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
    except (ValueError, MemoryError) as exc:  # also a grid too large to index or hold
        raise ConfigError(f"grid: {exc}")

    try:
        noise_power(settings["noise"]["epsilon"])
    except ConfigError as exc:
        raise ConfigError(f"noise.epsilon: {exc}")

    # every stage runs NoiseModel's check of the seed, not only those that draw noise
    cfg["noise"] = NoiseModel(epsilon=settings["noise"]["epsilon"], seed=settings["seed"])
    cfg["mu0"] = reduced_mass(cfg["masses"])
    cfg["surface"] = EnergySurface(settings["energy"], settings["u0"], cfg["potential"])
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
    """Per-stage outputs plus a manifest written first, finalized last.
    Without force, only a failed run's manifest and claims are replaced."""

    def __init__(self, stage: str, out_dir: Path, cfg: dict, force: bool):
        self.stage = stage
        self.out = out_dir
        self.cfg = cfg
        self.force = force
        self.files: list[Path] = []
        self.manifest_path = out_dir / f"manifest_{stage}.json"

    def start(self):
        self.out.mkdir(parents=True, exist_ok=True)
        self.claimed = set()   # outputs a failed run wrote, free to overwrite
        if self.manifest_path.exists() and not self.force:
            try:
                doc = json.loads(self.manifest_path.read_bytes())
            except ValueError:   # not text, or not JSON
                doc = None
            if not isinstance(doc, dict) or doc.get("status") != "failed":
                raise FileExistsError(f"{self.manifest_path} exists; pass --force to overwrite")
            claimed = doc.get("claimed")
            self.claimed = set(map(str, claimed)) if isinstance(claimed, list) else set()
        self.header = {
            "artifact_version": __version__,
            "stage": self.stage,
            "config": self.cfg["settings"],
            "derived": {"mu0": self.cfg["mu0"]},
            "status": "running",
            "outputs": {},
        }
        _atomic_write_text(self.manifest_path, _json_dump(self.header))

    def path(self, name: str) -> Path:
        p = self.out / name
        if p.exists() and not self.force and name not in self.claimed:
            raise FileExistsError(f"{p} exists; pass --force to overwrite")
        self.files.append(p)
        return p

    def finalize(self):
        self.header["status"] = "complete"
        self.header["outputs"] = {p.name: _sha256(p) for p in self.files}
        _atomic_write_text(self.manifest_path, _json_dump(self.header))

    def fail(self):
        """Mark the manifest failed, claiming the outputs written here by
        this run or the failed one before it."""
        self.header["status"] = "failed"
        self.header["claimed"] = sorted(self.claimed | {p.name for p in self.files})
        _atomic_write_text(self.manifest_path, _json_dump(self.header))


def _hold_to_peers(cfg: dict, stage: str, out_dir: Path) -> None:
    """DependencyError unless each config key that stage and another stage
    both read (READS), or that stage reads when the other needs it (NEEDS:
    a new run would replace what the other read), has in cfg's settings
    the value that the other stage's complete manifest in out_dir records
    in its config.  The other stages go in STAGES order, and the error
    names the first key that differs."""

    def values(config, keys) -> dict:
        found = {}
        for key in keys:
            section, _, sub = key.partition(".")
            value = config.get(section) if isinstance(config, dict) else None
            if isinstance(value, dict):
                found.update((f"{section}.{k}", v) for k, v in value.items() if sub in ("", k))
            else:
                found[key] = value
        return found

    for other in STAGES:
        # every key stage reads where other needs it, else each key both
        # name, or the narrower of a section and one of its keys
        keys = READS[stage] if stage in NEEDS[other] else [
            max(k, j, key=len) for k in READS[stage] for j in READS[other]
            if f"{k}.".startswith(f"{j}.") or f"{j}.".startswith(f"{k}.")]
        if other == stage or not keys:
            continue
        try:
            doc = json.loads((out_dir / f"manifest_{other}.json").read_bytes())
        except (FileNotFoundError, ValueError):   # absent, not text or not JSON
            continue
        if not isinstance(doc, dict) or doc.get("status") != "complete":
            continue
        given, recorded = values(cfg["settings"], keys), values(doc.get("config"), keys)
        for key in dict.fromkeys([*given, *recorded]):
            if given.get(key) != recorded.get(key):
                raise DependencyError(f"config key {key} is {given.get(key)!r}, but {other} "
                                      f"ran with {recorded.get(key)!r}")


def _verified(out_dir: Path, stage: str) -> dict:
    """A stage's manifest in out_dir, with its outputs {name: sha256} under
    "outputs", once the manifest is a complete JSON object, every output
    is a file named directly in out_dir and each matches its checksum."""
    manifest = out_dir / f"manifest_{stage}.json"
    try:
        doc = json.loads(manifest.read_bytes().decode("utf-8"))
    except FileNotFoundError:
        raise DependencyError(f"missing upstream manifest {manifest}; run '{stage}' first")
    except ValueError as exc:   # not UTF-8, or not JSON
        raise DependencyError(f"{manifest} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DependencyError(f"{manifest} is not a JSON object")
    if doc.get("status") != "complete":
        raise DependencyError(f"{manifest} status is {doc.get('status')!r}, not 'complete'")
    outputs = doc.setdefault("outputs", {})
    if not isinstance(outputs, dict):
        raise DependencyError(f"{manifest} outputs is not an object")
    for name, digest in outputs.items():
        if name in ("", ".", "..") or Path(name).name != name:
            raise DependencyError(f"{manifest.name} lists {name!r}, not a file name in {out_dir}")
        path = out_dir / name
        if not path.is_file() or _sha256(path) != digest:
            raise DependencyError(f"{path} does not match the checksum in {manifest.name}")
    return doc


def _load_trajectory(out_dir: Path):
    """Samples (s, x, xi) of trajectory.csv and the coefficient schedule
    recorded with them, once the simulate manifest vouches for it."""
    if "trajectory.csv" not in _verified(out_dir, "simulate")["outputs"]:
        raise DependencyError(f"manifest_simulate.json in {out_dir} does not list trajectory.csv")
    data = read_trajectory_csv(out_dir / "trajectory.csv")
    try:
        s, lam_sq = data["s"], data["lam_sq"]
        x = np.stack([data["x1"], data["x2"], data["x3"]], axis=1)
        xi = np.stack([data["xi1"], data["xi2"], data["xi3"]], axis=1)
        a = np.stack([data["a1"], data["a2"], data["a3"]], axis=1)
    except KeyError as exc:   # a file written before the schedule was recorded
        raise DependencyError(f"trajectory.csv in {out_dir} has no column {exc}")
    return s, x, xi, CoefficientSchedule(s=s, a=a, lam_sq=lam_sq)


def _load_densities(out_dir: Path) -> tuple:
    """The snapshot times and density grids of the fpe run in out_dir, once
    its manifest vouches for fpe_meta.json and every density_NNNN.npy, and
    fpe_meta.json gives a grid, whose shape each density has, and the
    times as a list of numbers."""
    outputs = _verified(out_dir, "fpe")["outputs"]
    if "fpe_meta.json" not in outputs:
        raise DependencyError(f"manifest_fpe.json in {out_dir} does not list fpe_meta.json")
    try:
        meta = json.loads((out_dir / "fpe_meta.json").read_bytes().decode("utf-8"))
        times, g = meta["snapshot_s"], meta["grid"]
        if not isinstance(times, list) or not all(type(t) in (int, float) for t in times):
            raise TypeError(f"snapshot_s is {times!r}, not a list of numbers")
        names = [f"density_{i:04d}.npy" for i in range(len(times))]
        missing = [n for n in names if n not in outputs]
        if missing:
            raise DependencyError(
                f"manifest_fpe.json in {out_dir} does not list {', '.join(missing)}")
        spec = MomentumGrid(g["mins"], g["maxs"], g["shape"])
        return times, [read_density(out_dir / n, spec) for n in names]
    except (KeyError, TypeError, ValueError) as exc:   # DomainError is a ValueError
        raise DependencyError(f"fpe_meta.json in {out_dir} does not fit its densities: {exc!r}")


def _snapshot_times(cfg: dict, schedule: CoefficientSchedule) -> list:
    """The times ensemble and fpe take snapshots at, each once, in order:
    sde.snapshots, or 8 evenly spaced from a tenth of the schedule's span
    to its end, and the end of the schedule."""
    s0, s1 = float(schedule.s[0]), float(schedule.s[-1])
    times = cfg["sde"]["snapshots"] or np.linspace(s0 + 0.1 * (s1 - s0), s1, 8).tolist()
    return sorted({*times, s1})


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


def _initial_density(cfg: dict, xi0) -> MomentumGrid:
    grid = _grid_spec(cfg)
    sigma = cfg["grid"]["sigma0"]
    mesh = grid.mesh()
    d2 = np.sum((mesh - xi0) ** 2, axis=-1)
    grid.P = np.exp(-0.5 * d2 / sigma**2)
    pin_boundary(grid.P)
    grid.normalize()
    return grid


def cmd_simulate(cfg: dict, writer: StageWriter) -> None:
    traj = _run_trajectory(cfg)
    write_trajectory_csv(traj, cfg["surface"], writer.path("trajectory.csv"))
    report = conservation_report(traj, cfg["surface"])
    # exact-rate identity audit: sum_mu (xdot_mu)^2 vs Lambda^2
    rates = external_rates(traj.g, *traj.J)
    report["external_rate_identity_max_err"] = float(
        np.max(np.abs(np.sum(rates**2, axis=-1) - traj.lam_sq))
    )
    for key in ("nfev", "accepted_steps", "rejected_steps"):
        report[key] = traj.meta[key]
    _atomic_write_text(writer.path("conservation.json"), _json_dump(report))


def cmd_ensemble(cfg: dict, writer: StageWriter) -> None:
    _, _, xi, schedule = _load_trajectory(writer.out)
    noise = cfg["noise"]
    sde = cfg["sde"]
    result = run_ensemble(
        n_traj=sde["n_paths"],
        schedule=schedule,
        xi0=xi[0],
        ds=sde["ds"],
        mode=sde["mode"],
        noise=noise,
        snapshot_s=_snapshot_times(cfg, schedule),
    )
    rows = ["path_id,s,xi1,xi2,xi3"]
    for s_val, xi in result.snapshots:
        s_txt = repr(float(s_val))
        # tolist() yields Python floats, whose repr is the plain shortest form
        for p, (x1, x2, x3) in enumerate(xi.tolist()):
            rows.append(f"{p},{s_txt},{x1!r},{x2!r},{x3!r}")
    writer.path("ensemble_snapshots.csv").write_text("\n".join(rows) + "\n")
    meta = {
        **result.meta,
        "n_paths": sde["n_paths"],
        "epsilon": noise.epsilon,
        "schedule_source": "trajectory.csv",
        "blowups": {str(k): v for k, v in result.blowups.items()},
    }
    _atomic_write_text(writer.path("ensemble_meta.json"), _json_dump(meta))


def _fpe_run(cfg: dict, xi0, schedule: CoefficientSchedule, snapshot_s, s_end: float):
    """Evolve the initial density about xi0 over the schedule to s_end."""
    fpe_cfg = FpeConfig(epsilon=cfg["noise"].epsilon, schedule=schedule,
                        multiplicative=cfg["sde"]["mode"] == "multiplicative")
    return fpe_evolve(_initial_density(cfg, xi0), (schedule.s[0], s_end), fpe_cfg,
                      snapshot_s=snapshot_s)


def cmd_fpe(cfg: dict, writer: StageWriter) -> None:
    _, _, xi, schedule = _load_trajectory(writer.out)
    result = _fpe_run(cfg, xi[0], schedule, _snapshot_times(cfg, schedule), schedule.s[-1])
    for i, (_, grid) in enumerate(result.snapshots):
        write_density(grid, writer.path(f"density_{i:04d}.npy"))
    spec = _grid_spec(cfg)
    _atomic_write_text(writer.path("fpe_meta.json"), _json_dump({
        "diagnostics": result.diagnostics,
        "grid": {"mins": spec.mins.tolist(), "maxs": spec.maxs.tolist(), "shape": list(spec.shape)},
        "mass_series": [[float(a), float(b)] for a, b in result.mass_series],
        "snapshot_s": [float(s) for s, _ in result.snapshots],
    }))


def cmd_chaos(cfg: dict, writer: StageWriter) -> None:
    # tube a is the fpe stage's densities, on the schedule simulate
    # recorded: tube b is solved under the physics, noise and grid that
    # those two stages' manifests record
    _verified(writer.out, "simulate")
    s_vals, series_a = _load_densities(writer.out)
    # tube b from initial internal coordinates perturbed by delta, solved
    # at tube a's times up to the end of trajectory b (zip stops there)
    traj_b = _run_trajectory(cfg, x0=cfg["x0"] + cfg["chaos"]["delta"])
    s_vals = [v for v in s_vals if v <= traj_b.s[-1]]
    if not s_vals:
        raise DomainError(f"trajectory b ends at s = {traj_b.s[-1]}, before tube a's times")
    res_b = _fpe_run(cfg, traj_b.xi[0], CoefficientSchedule.from_trajectory(traj_b), s_vals,
                     s_vals[-1])
    series_b = [grid for _, grid in res_b.snapshots]

    D, mismatch = [], []
    for ga, gb in zip(series_a, series_b):
        ga.normalize()
        gb.normalize()
        d, cells = kl_divergence(ga, gb)
        D.append(d)
        mismatch.append(cells)
    report = chaos_report(np.asarray(s_vals), np.asarray(D))
    report.support_mismatch_cells = mismatch
    _atomic_write_text(writer.path("chaos_report.json"), report.to_json() + "\n")


def cmd_channels(cfg: dict, writer: StageWriter) -> None:
    s, x, _, _ = _load_trajectory(writer.out)
    ch = cfg["channels"]
    label = classify_channel(s, x, cfg["masses"], ch["r_bound"], ch["r_free"])
    _atomic_write_text(writer.path("channels.json"), _json_dump({
        "label": label.value,
        "thresholds": {**ch, "window_frac": WINDOW_FRAC},
    }))


def run_command(name: str, cfg: dict, out_dir: Path, force: bool = False) -> None:
    """Run stage name, one of STAGES, once _hold_to_peers lets it, as
    cmd_<name>(cfg, writer) between the writer's start and finalize, or its
    fail before raising on.  cmd_<name> is looked up in this module's
    namespace at each call, so a wrapper put there after import (a
    tracer's, a test's) is what runs."""
    if name not in STAGES:
        raise ConfigError(f"unknown command {name!r}")
    _hold_to_peers(cfg, name, out_dir)
    writer = StageWriter(name, out_dir, cfg, force)
    writer.start()
    try:
        globals()[f"cmd_{name}"](cfg, writer)
    except Exception:
        writer.fail()
        raise
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
        raw = Path(args.config).read_bytes()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}")
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
    # a float overflow is one too, and so is numpy's warning of one under -W error
    except (TribodyError, ArithmeticError, RuntimeWarning) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
