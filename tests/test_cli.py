"""Tests for the batch pipeline CLI: config validation, exit codes,
artifacts, manifests, and determinism."""

import errno
import hashlib
import json
import mmap
import shutil
from pathlib import Path

import numpy as np
import pytest

from tribody import chaos, cli
from tribody.chaos import kl_divergence
from tribody.cli import (_grid_spec, _initial_density, _load_trajectory, _snapshot_times, main,
                         parse_config)
from tribody.errors import ConfigError
from tribody.fokker_planck import FpeConfig, fpe_evolve, read_density
from tribody.geodesic import GeodesicState, integrate
from tribody.langevin import CoefficientSchedule, run_ensemble
from tribody.potentials import MorsePotential

REPO = Path(__file__).resolve().parents[1]


def base_config():
    return {
        "masses": {"m1": 1.0, "m2": 1.0, "m3": 1.0},
        "potential": {"name": "morse", "D": 1.0, "alpha": 1.0, "d0": 2.0},
        "energy": 1.0,
        "u0": 3.0,
        "initial": {"x": [2.0, 3.0, 3.5], "xi": [0.1, -0.2, 0.05]},
        "integrator": {"tol": 1e-7, "s_end": 2.0, "n_samples": 128},
        "noise": {"epsilon": 0.01},
        "sde": {"mode": "additive", "ds": 0.01, "n_paths": 50, "snapshots": [1.0, 2.0]},
        "grid": {"min": -1.5, "max": 1.5, "n": 24, "sigma0": 0.25},
        "seed": 11,
    }


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(stage, cfg_path, out_dir, *extra):
    return main([stage, "--config", str(cfg_path), "--out", str(out_dir), *extra])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestParseConfig:
    def test_valid_config(self):
        cfg = parse_config(base_config())
        assert isinstance(cfg["potential"], MorsePotential)
        assert cfg["noise"].seed == 11
        assert cfg["noise"].epsilon == 0.01
        assert cfg["channels"]["r_bound"] == 3.0  # default filled

    def test_unknown_top_level_key(self):
        doc = base_config()
        doc["integratr"] = {}
        with pytest.raises(ConfigError, match="integratr"):
            parse_config(doc)

    def test_unknown_nested_key(self):
        doc = base_config()
        doc["sde"]["stepsize"] = 0.1
        with pytest.raises(ConfigError, match="sde.stepsize"):
            parse_config(doc)

    def test_missing_required_key(self):
        doc = base_config()
        del doc["u0"]
        with pytest.raises(ConfigError, match="u0"):
            parse_config(doc)

    def test_bad_potential_name(self):
        doc = base_config()
        doc["potential"] = {"name": "coulomb"}
        with pytest.raises(ConfigError, match="free|gravity|morse"):
            parse_config(doc)

    @pytest.mark.parametrize("potential, recorded", [
        ({"name": "morse", "D": 1.0, "alpha": 1.0},
         {"name": "morse", "D": 1.0, "alpha": 1.0, "d0": 1.0}),
        ({"name": "gravity"}, {"name": "gravity", "G": 1.0, "softening": 0.0}),
    ], ids=["morse-without-d0", "gravity-without-G-or-softening"])
    def test_potential_defaults_are_recorded(self, potential, recorded):
        # the settings hold the parameters of the model that was built
        doc = base_config()
        doc["potential"] = potential
        assert parse_config(doc)["settings"]["potential"] == recorded

    def test_nonpositive_u0_rejected(self):
        doc = base_config()
        doc["u0"] = 0.0
        with pytest.raises(ConfigError, match="u0"):
            parse_config(doc)

    def test_bad_sde_mode(self):
        doc = base_config()
        doc["sde"]["mode"] = "milstein"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("integrator", "tol", "1e-9"),
        ("sde", "n_paths", "many"),
        ("sde", "snapshots", ["x"]),
        ("grid", "n", "24x"),
        ("noise", "epsilon", [[0.01, 0.0], [0.0, 0.01]]),
        # json reads NaN and Infinity; a NaN s_end used to hang simulate
        ("integrator", "s_end", float("nan")),
        ("integrator", "s_end", float("inf")),
        ("sde", "ds", float("-inf")),
        pytest.param("integrator", "n_samples", 10**400, id="integrator-n_samples-1e400"),
        # more samples than numpy can index
        pytest.param("integrator", "n_samples", 2**63, id="integrator-n_samples-2_pow_63"),
        pytest.param("integrator", "n_samples", 1e30, id="integrator-n_samples-1e30"),
        # out of range for the integrator
        ("integrator", "s_end", 0.0),
        ("integrator", "n_samples", 0),
        ("integrator", "n_samples", 1),
        ("integrator", "tol", 0.0),
        ("integrator", "tol", -1e-9),
        # not an integer, not a string, not a list, not a 3-vector
        ("sde", "n_paths", 50.5),
        ("sde", "mode", 1),
        ("initial", "x", 2.0),
        ("initial", "x", [2.0, 3.0]),
    ])
    def test_wrongly_typed_value_is_2(self, tmp_path, section, key, value):
        doc = base_config()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(doc)
        cfg = write_config(tmp_path, doc)
        for stage in ("simulate", "ensemble", "fpe"):
            assert run(stage, cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda d: [d], "config root", id="root-not-an-object"),
        pytest.param(lambda d: {**d, "masses": 1.0}, "'masses' must be an object",
                     id="section-not-an-object"),
        pytest.param(lambda d: {**d, "masses": {"m1": 1.0, "m2": 1.0}}, "masses: .*'m3'",
                     id="masses-without-m3"),
        pytest.param(lambda d: {**d, "potential": {"name": "gravity", "G": 1.0, "D": 1.0}},
                     "potential: .*'D'", id="gravity-with-D"),
        pytest.param(lambda d: {**d, "potential": {"name": "free", "D": 5.0, "alpha": 2.0}},
                     "potential: FreePotential", id="free-with-parameters"),
        pytest.param(lambda d: {**d, "angular_momentum": [0.1, 0.0]},
                     "angular_momentum must be a 3-vector", id="angular_momentum-of-length-2"),
        pytest.param(lambda d: {**d, "initial": {"x": [2.0, 3.0, 3.5]}}, "both 'x' and 'xi'",
                     id="initial-without-xi"),
        # the noise power is given as noise.epsilon only
        pytest.param(lambda d: {**d, "noise": {"hbar_scale": 0.02, "omega_sq_mean": 1.0}},
                     "unknown config key noise.hbar_scale", id="noise-hbar_scale"),
        pytest.param(lambda d: {**d, "noise": {"epsilon": 0.01, "omega_sq_mean": 1.0}},
                     "unknown config key noise.omega_sq_mean", id="noise-omega_sq_mean"),
    ])
    def test_invalid_document_is_2(self, tmp_path, edit, match):
        doc = edit(base_config())
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)
        out = tmp_path / "out"
        assert run("simulate", write_config(tmp_path, doc), out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        # chaos reads tube a from its own run directory only: a config
        # naming another density series is rejected before any stage
        ("chaos", "series_a", "runs/a"),
        ("chaos", "series_b", "runs/b"),
        # the verdict's gates and the channel window are constants of
        # the chaos module, which no config sets
        ("chaos", "residual_max", 0.2),
        ("chaos", "min_decades", 0.8),
        ("channels", "window_frac", 0.2),
    ], ids=["series_a", "series_b", "residual_max", "min_decades", "window_frac"])
    def test_chaos_series_key_is_unknown_is_2(self, tmp_path, capsys, section, key, value):
        doc = base_config()
        doc[section] = {key: value}
        with pytest.raises(ConfigError, match=f"unknown config key {section}.{key}"):
            parse_config(doc)
        assert run(section, write_config(tmp_path, doc), tmp_path / "out") == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "n", 4),
        ("grid", "max", -1.5),
        ("grid", "max", -2.0),
        ("grid", "sigma0", 0.0),
        ("sde", "ds", 0.0),
        ("sde", "n_paths", 0),
        # a grid of more cells than numpy can index
        ("grid", "n", 10**7),
    ])
    def test_out_of_range_value_is_2(self, tmp_path, section, key, value):
        # values the solvers cannot run with are rejected before any stage
        doc = base_config()
        doc[section][key] = value
        with pytest.raises(ConfigError):
            parse_config(doc)
        assert run("simulate", write_config(tmp_path, doc), tmp_path / "out") == 2

    @pytest.mark.parametrize("snapshots", [[-0.5], [0.0], [100.0]])
    def test_snapshot_outside_the_run_is_2(self, tmp_path, snapshots):
        # integrator.s_end is 2.0: the ensemble and fpe stages could not
        # take these snapshots, so no stage starts
        doc = base_config()
        doc["sde"]["snapshots"] = snapshots
        with pytest.raises(ConfigError, match="sde.snapshots"):
            parse_config(doc)
        assert run("simulate", write_config(tmp_path, doc), tmp_path / "out") == 2

    @pytest.mark.parametrize("key, value, extra, named", [
        ("epsilon", [[0.01, 0.02, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]], (), "noise.epsilon"),
        ("epsilon", -0.01, (), "noise.epsilon"),
        ("epsilon", [[0.01, 0.05, 0.0], [0.05, 0.01, 0.0], [0.0, 0.0, 0.01]], (), "noise.epsilon"),
        # the noise power is one number, so not even a diagonal matrix
        ("epsilon", [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]], (), "noise.epsilon"),
        ("seed", -1, (), "seed"),
        ("seed", 2**64, (), "seed"),
        ("seed", 11, ("--seed", "-3"), "seed"),
    ], ids=["asymmetric_epsilon", "negative_epsilon", "indefinite_epsilon", "diagonal_epsilon",
            "negative_seed", "seed_2_pow_64", "negative_seed_flag"])
    def test_invalid_noise_or_seed_is_2(self, tmp_path, capsys, key, value, extra, named):
        # the ensemble and fpe stages would reject these; every other stage
        # must too, before it writes a manifest
        doc = base_config()
        if key == "epsilon":
            doc["noise"]["epsilon"] = value
        else:
            doc["seed"] = value
        out = tmp_path / "out"
        for stage in cli.STAGES:
            assert run(stage, write_config(tmp_path, doc), out, *extra) == 2
            assert named in capsys.readouterr().err
            assert not (out / f"manifest_{stage}.json").exists()

    def test_defaults_when_sections_absent(self):
        doc = base_config()
        for key in ("integrator", "sde", "grid", "noise", "seed"):
            doc.pop(key, None)
        cfg = parse_config(doc)
        assert cfg["integrator"]["tol"] == 1e-9
        assert cfg["noise"].epsilon == 0.0
        assert cfg["noise"].seed == 0


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = base_config()
        bad["u0"] = -1.0
        assert run("simulate", write_config(tmp_path, bad), tmp_path / "out") == 2

    def test_invalid_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("simulate", path, tmp_path / "out") == 2

    def test_config_that_is_not_utf8_is_2(self, tmp_path):
        # UTF-16 with its byte order mark, as some editors save it
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(base_config()).encode("utf-16-le"))
        assert run("simulate", path, tmp_path / "out") == 2

    def test_missing_config_file_is_5(self, tmp_path):
        assert run("simulate", tmp_path / "absent.json", tmp_path / "out") == 5

    def test_missing_upstream_is_3(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        for stage in ("ensemble", "fpe", "channels"):
            assert run(stage, cfg, tmp_path / stage) == 3

    def test_tampered_trajectory_is_3(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        traj = out / "trajectory.csv"
        lines = traj.read_text().splitlines()
        lines[5] = ",".join(repr(1.01 * float(v)) for v in lines[5].split(","))
        traj.write_text("\n".join(lines) + "\n")
        for stage in ("ensemble", "fpe", "chaos", "channels"):
            assert run(stage, cfg, out) == 3
            manifest = json.loads((out / f"manifest_{stage}.json").read_text())
            assert manifest["status"] == "failed"

    def test_missing_or_incomplete_simulate_manifest_is_3(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        manifest = out / "manifest_simulate.json"
        doc = json.loads(manifest.read_text())
        doc["status"] = "running"
        manifest.write_text(json.dumps(doc))
        assert run("ensemble", cfg, out) == 3
        manifest.unlink()
        for stage in ("ensemble", "fpe", "chaos", "channels"):
            assert run(stage, cfg, out, "--force") == 3

    @pytest.mark.parametrize("damage", ["not-json", "without-trajectory"])
    def test_unusable_simulate_manifest_is_3(self, tmp_path, damage):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        manifest = out / "manifest_simulate.json"
        if damage == "not-json":
            manifest.write_text("{not json")
        else:
            doc = json.loads(manifest.read_text())
            del doc["outputs"]["trajectory.csv"]
            manifest.write_text(json.dumps(doc))
        for stage in ("ensemble", "fpe", "chaos", "channels"):
            assert run(stage, cfg, out) == 3

    @staticmethod
    def simulated(tmp_path):
        """A config, its simulate run directory and that stage's manifest."""
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        return cfg, out, out / "manifest_simulate.json"

    def test_manifest_that_is_not_an_object_is_3(self, tmp_path):
        cfg, out, manifest = self.simulated(tmp_path)
        manifest.write_text("[]")
        assert run("ensemble", cfg, out) == 3

    def test_manifest_that_is_not_utf8_is_3(self, tmp_path):
        cfg, out, manifest = self.simulated(tmp_path)
        manifest.write_bytes(b"\x80" + manifest.read_bytes())
        assert run("ensemble", cfg, out) == 3

    def test_outputs_that_are_not_an_object_is_3(self, tmp_path):
        cfg, out, manifest = self.simulated(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["outputs"] = list(doc["outputs"])
        manifest.write_text(json.dumps(doc))
        assert run("ensemble", cfg, out) == 3

    @pytest.mark.parametrize("name", ["/etc", "../x", "absolute", "."])
    def test_output_outside_the_run_directory_is_3(self, tmp_path, name):
        # x lies beside the run directory and matches its digest, so only
        # the name can fail the manifest
        cfg, out, manifest = self.simulated(tmp_path)
        outside = tmp_path / "x"
        outside.write_text("outside the run directory\n")
        name = str(outside) if name == "absolute" else name
        doc = json.loads(manifest.read_text())
        doc["outputs"][name] = sha256(outside)
        manifest.write_text(json.dumps(doc))
        assert run("ensemble", cfg, out) == 3

    @pytest.fixture(scope="class")
    def fpe_run(self, tmp_path_factory):
        """The base config and a run directory of its simulate and fpe
        stages, run once for the class."""
        base = tmp_path_factory.mktemp("fpe_run")
        cfg, out = write_config(base, base_config()), base / "out"
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        return cfg, out

    @pytest.fixture()
    def after_fpe(self, fpe_run, tmp_path):
        """fpe_run's config and a copy of its run directory for one test."""
        cfg, out = fpe_run
        shutil.copytree(out, tmp_path / "out")
        return cfg, tmp_path / "out"

    # chaos reads tube a from the fpe stage of its own run directory: an
    # fpe output that is missing, altered or unreadable is a missing
    # upstream artifact
    def test_tampered_density_series_is_3(self, after_fpe):
        # a density altered after chaos ran: chaos run again fails, and its
        # manifest no longer vouches for the report
        cfg, out = after_fpe
        assert run("chaos", cfg, out) == 0
        density = out / "density_0001.npy"
        data = bytearray(density.read_bytes())
        # a byte of the 300th value from the end, inside the data section
        data[-8 * 300] ^= 0x01
        density.write_bytes(bytes(data))
        assert run("chaos", cfg, out, "--force") == 3
        assert json.loads((out / "manifest_chaos.json").read_text())["status"] == "failed"

    def test_text_density_series_is_3(self, after_fpe):
        # a series in the text format of earlier versions: its manifest
        # lists density_NNNN.txt, with checksums that match
        cfg, out = after_fpe
        manifest = out / "manifest_fpe.json"
        doc = json.loads(manifest.read_text())
        for name in [n for n in doc["outputs"] if n.endswith(".npy")]:
            (out / name).rename(out / name.replace(".npy", ".txt"))
            doc["outputs"][name.replace(".npy", ".txt")] = doc["outputs"].pop(name)
        manifest.write_text(json.dumps(doc))
        assert "density_0000.txt" in doc["outputs"]
        assert run("chaos", cfg, out) == 3
        assert not (out / "chaos_report.json").exists()

    def test_missing_fpe_manifest_is_3(self, after_fpe):
        cfg, out = after_fpe
        (out / "manifest_fpe.json").unlink()
        assert run("chaos", cfg, out) == 3
        assert not (out / "chaos_report.json").exists()

    def test_chaos_before_fpe_is_3(self, tmp_path):
        cfg, out, _ = self.simulated(tmp_path)
        assert run("chaos", cfg, out) == 3
        assert not (out / "chaos_report.json").exists()

    def test_density_altered_after_fpe_is_3(self, after_fpe):
        cfg, out = after_fpe
        density = out / "density_0001.npy"
        data = bytearray(density.read_bytes())
        data[-8 * 300] ^= 0x01
        density.write_bytes(bytes(data))
        assert run("chaos", cfg, out) == 3
        assert not (out / "chaos_report.json").exists()

    @staticmethod
    def chaos_on_edited(capsys, cfg, out, edit):
        """chaos's exit code in out under the config at cfg edited by
        edit(doc), and what it wrote to stderr."""
        doc = json.loads(cfg.read_text())
        edit(doc)
        capsys.readouterr()
        code = run("chaos", write_config(out.parent, doc, "edited.json"), out)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("key, edit", [
        ("potential.D", lambda doc: doc["potential"].update(D=2.0)),
        ("integrator.n_samples", lambda doc: doc["integrator"].update(n_samples=64)),
        ("angular_momentum", lambda doc: doc.update(angular_momentum=[0.1, 0.0, 0.0])),
        ("masses.m2", lambda doc: doc["masses"].update(m2=2.0)),
        ("energy", lambda doc: doc.update(energy=1.5)),
        ("u0", lambda doc: doc.update(u0=3.5)),
        ("initial.x", lambda doc: doc["initial"].update(x=[2.0, 3.0, 3.6])),
        ("initial.xi", lambda doc: doc["initial"].update(xi=[0.3, 0.0, 0.0])),
        ("integrator.tol", lambda doc: doc["integrator"].update(tol=1e-8)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_physics_edited_after_simulate_is_3(self, after_fpe, capsys, key, edit):
        # tube a rests on the schedule simulate recorded, so chaos must not
        # solve tube b under other physics; the key that differs is named
        code, err = self.chaos_on_edited(capsys, *after_fpe, edit)
        assert code == 3
        assert f"config key {key} " in err and "but simulate ran" in err
        assert not (after_fpe[1] / "chaos_report.json").exists()

    def test_masses_edited_after_simulate_is_3(self, tmp_path, capsys):
        # channels weighs the pair distances by the masses: they must be
        # the ones the trajectory was integrated with
        _, out, _ = self.simulated(tmp_path)
        doc = base_config()
        doc["masses"] = {"m1": 1.0, "m2": 5.0, "m3": 0.2}
        capsys.readouterr()
        assert run("channels", write_config(tmp_path, doc, "edited.json"), out) == 3
        assert "config key masses.m2 " in capsys.readouterr().err
        assert not (out / "channels.json").exists()

    @pytest.mark.parametrize("stage, key, edit", [
        ("simulate", "masses.m1", lambda doc: doc.pop("config")),
        ("simulate", "masses.m1", lambda doc: doc.update(config=list(doc["config"]))),
        ("fpe", "grid.min", lambda doc: doc["config"].update(grid=24)),
        ("fpe", "grid.n", lambda doc: doc["config"]["grid"].update(n="24")),
        ("simulate", "masses.m1", lambda doc: doc["config"].pop("masses")),
    ], ids=["config-deleted", "config-a-list", "grid-a-number", "grid.n-a-string",
            "masses-deleted"])
    def test_tampered_upstream_config_is_3(self, after_fpe, capsys, stage, key, edit):
        # the recorded config is what chaos holds the physics, grid and
        # noise to: one in any other shape names the first key that differs
        cfg, out = after_fpe
        manifest = out / f"manifest_{stage}.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("chaos", cfg, out) == 3
        assert f"config key {key} " in capsys.readouterr().err
        assert not (out / "chaos_report.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(seed=12, angular_momentum=[0.0, 0.0, 0.0]),
        lambda doc: doc["sde"].update(n_paths=7),
        lambda doc: doc["sde"].update(ds=0.02),
        lambda doc: doc.update(channels={"r_bound": 4.0}),
    ], ids=["seed-and-default", "sde.n_paths", "sde.ds", "channels.r_bound"])
    def test_seed_and_defaults_are_not_physics(self, after_fpe, tmp_path, edit):
        # another seed, a default written out and keys that neither
        # simulate nor fpe reads leave the run as simulate and fpe made it
        cfg, out = after_fpe
        doc = json.loads(cfg.read_text())
        edit(doc)
        assert run("chaos", write_config(tmp_path, doc, "reseeded.json"), out, "--seed", "5") == 0

    def test_fpe_on_another_grid_is_3(self, tmp_path):
        cfg, out, _ = self.simulated(tmp_path)
        doc = base_config()
        doc["grid"]["n"] = 12
        assert run("fpe", write_config(tmp_path, doc, "coarse.json"), out) == 0
        assert run("chaos", cfg, out) == 3
        assert not (out / "chaos_report.json").exists()

    @pytest.mark.parametrize("key, edit", [
        ("noise.epsilon", lambda doc: doc["noise"].update(epsilon=0.05)),
        ("sde.mode", lambda doc: doc["sde"].update(mode="multiplicative")),
        ("grid.min", lambda doc: doc["grid"].update(min=-1.4)),
        # the bounds' bits: 1e-6 apart is another grid
        ("grid.max", lambda doc: doc["grid"].update(max=1.500001)),
        ("grid.n", lambda doc: doc["grid"].update(n=16)),
        ("grid.sigma0", lambda doc: doc["grid"].update(sigma0=0.3)),
    ], ids=["noise.epsilon", "sde.mode", "grid.min", "grid.max", "grid.n", "grid.sigma0"])
    def test_grid_edited_after_fpe_is_3(self, after_fpe, capsys, key, edit):
        # tube b is solved from the initial density on the grid, in the mode
        # and with the noise that fpe solved tube a with; the key that
        # differs is named
        cfg, out = after_fpe
        code, err = self.chaos_on_edited(capsys, cfg, out, edit)
        assert code == 3
        assert f"config key {key} " in err and "but fpe ran" in err
        assert not (out / "chaos_report.json").exists()
        assert run("chaos", cfg, out, "--force") == 0

    def test_failed_stage_runs_again_without_force(self, after_fpe, tmp_path):
        # a stage whose run failed runs again once its fault is fixed; a
        # complete manifest, and one still "running" (a live run's, or a
        # killed one's), need --force
        cfg, out = after_fpe
        doc = base_config()
        doc["grid"]["max"] = 1.500001
        assert run("chaos", write_config(tmp_path, doc, "edited.json"), out) == 3
        manifest = out / "manifest_chaos.json"
        assert json.loads(manifest.read_text())["status"] == "failed"
        assert run("chaos", cfg, out) == 0
        assert json.loads(manifest.read_text())["status"] == "complete"
        assert run("chaos", cfg, out) == 5
        doc = json.loads(manifest.read_text())
        doc["status"] = "running"
        manifest.write_text(json.dumps(doc))
        report = (out / "chaos_report.json").read_bytes()
        assert run("chaos", cfg, out) == 5
        assert (out / "chaos_report.json").read_bytes() == report
        assert json.loads(manifest.read_text())["status"] == "running"
        assert run("chaos", cfg, out, "--force") == 0

    def test_failed_stage_overwrites_its_own_outputs(self, tmp_path, monkeypatch):
        # an output written before the stage failed is overwritten too
        cfg, out, _ = self.simulated(tmp_path)
        channels = cli.cmd_channels

        def fails_after_writing(cfg, writer):
            writer.path("channels.json").write_text("partial")
            raise MemoryError("stand-in")

        monkeypatch.setattr(cli, "cmd_channels", fails_after_writing)
        assert run("channels", cfg, out) == 5
        manifest = json.loads((out / "manifest_channels.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["claimed"] == ["channels.json"]
        monkeypatch.setattr(cli, "cmd_channels", channels)
        assert run("channels", cfg, out) == 0
        assert json.loads((out / "channels.json").read_text())["label"]

    @staticmethod
    def vouched(out, name):
        """Set name's digest in out's manifest_fpe.json to the file's, so
        that the checksum passes whatever the file holds."""
        manifest = out / "manifest_fpe.json"
        doc = json.loads(manifest.read_text())
        doc["outputs"][name] = sha256(out / name)
        manifest.write_text(json.dumps(doc))

    def chaos_on_meta(self, after_fpe, change):
        """The chaos stage's exit code on a run whose fpe_meta.json has
        been changed by change(meta) and vouched for."""
        cfg, out = after_fpe
        meta = json.loads((out / "fpe_meta.json").read_text())
        change(meta)
        (out / "fpe_meta.json").write_text(json.dumps(meta))
        self.vouched(out, "fpe_meta.json")
        code = run("chaos", cfg, out)
        assert not (out / "chaos_report.json").exists()
        return code

    @pytest.mark.parametrize("key", ["grid", "snapshot_s"])
    def test_fpe_meta_without_grid_or_times_is_3(self, after_fpe, key):
        assert self.chaos_on_meta(after_fpe, lambda meta: meta.pop(key)) == 3

    @pytest.mark.parametrize("times", ["12", [0.5, "1.0"], [0.5, None], {"0": 0.5, "1": 1.0}])
    def test_fpe_meta_times_that_are_not_numbers_is_3(self, after_fpe, times):
        assert self.chaos_on_meta(after_fpe, lambda meta: meta.update(snapshot_s=times)) == 3

    @pytest.mark.parametrize("shape", [(24 * 24 * 24,), (12, 48, 24), (23, 24, 24)])
    def test_density_that_is_not_the_grids_shape_is_3(self, after_fpe, shape):
        # the first two hold the grid's number of cells, the last fewer
        cfg, out = after_fpe
        density = out / "density_0001.npy"
        P = np.load(density)
        assert P.shape == (24, 24, 24)
        np.save(density, P.reshape(-1)[:int(np.prod(shape))].reshape(shape))
        self.vouched(out, density.name)
        assert run("chaos", cfg, out) == 3
        assert not (out / "chaos_report.json").exists()

    def test_forbidden_start_is_4(self, tmp_path):
        doc = base_config()
        doc["energy"] = -5.0  # E < U everywhere reachable: forbidden region
        cfg = write_config(tmp_path, doc)
        assert run("simulate", cfg, tmp_path / "out") == 4

    def test_default_written_out_after_fpe_is_0(self, tmp_path):
        # potential.d0 left to the model's default, then written out: the
        # same physics, so chaos runs on what simulate and fpe made
        doc = base_config()
        doc["potential"].pop("d0")
        doc["integrator"]["s_end"] = 0.5
        doc["sde"]["snapshots"] = [0.25, 0.5]
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        doc["potential"]["d0"] = 1.0
        assert run("chaos", write_config(tmp_path, doc, "d0.json"), out) == 0

    @pytest.mark.parametrize("stage, edit", [
        # the pair distances weigh x by masses whose products overflow
        ("channels", lambda doc: doc["masses"].update(m1=1e300)),
        # the initial density's sigma0 squared overflows
        ("fpe", lambda doc: doc["grid"].update(sigma0=1e300)),
        # a span shorter than DS_FLOOR, and one whose eight snapshot times
        # each lie less than DS_FLOOR after the one before: no step
        ("fpe", lambda doc: (doc["integrator"].update(s_end=1e-300),
                             doc["sde"].update(snapshots=[]))),
        ("fpe", lambda doc: (doc["integrator"].update(s_end=3e-9),
                             doc["sde"].update(snapshots=[]))),
    ], ids=["masses.m1-1e300", "grid.sigma0-1e300", "s_end-1e-300", "s_end-3e-9"])
    def test_numerical_failure_after_simulate_is_4(self, tmp_path, capsys, stage, edit):
        doc = base_config()
        edit(doc)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        capsys.readouterr()
        assert run(stage, cfg, out) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert json.loads((out / f"manifest_{stage}.json").read_text())["status"] == "failed"

    def test_existing_output_without_force_is_5(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("simulate", cfg, out) == 5
        assert run("simulate", cfg, out, "--force") == 0
        # an output with no manifest beside it stays protected, also when
        # the refused run's failed manifest is there on the next try
        (out / "manifest_simulate.json").unlink()
        traj = (out / "trajectory.csv").read_bytes()
        for _ in range(2):
            assert run("simulate", cfg, out) == 5
            assert (out / "trajectory.csv").read_bytes() == traj
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["status"] == "failed" and manifest["claimed"] == []

    def test_out_that_cannot_be_created_is_5(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run("simulate", cfg, blocker / "out") == 5

    def test_out_of_memory_is_5(self, tmp_path, monkeypatch):
        # a stand-in: a real allocation too large to hold can succeed under
        # memory overcommit and then kill the process as it is touched
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 TiB")

        monkeypatch.setattr(cli, "integrate", exhausted)
        cfg, out = write_config(tmp_path, base_config()), tmp_path / "out"
        assert run("simulate", cfg, out) == 5
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["status"] == "failed"

    def test_ensemble_too_large_to_index_is_5(self, tmp_path, capsys):
        # more paths than numpy can index: out of memory, not a traceback
        doc = base_config()
        doc["sde"]["n_paths"] = 10**18
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("ensemble", cfg, out) == 5
        assert "out of memory" in capsys.readouterr().err
        manifest = json.loads((out / "manifest_ensemble.json").read_text())
        assert manifest["status"] == "failed"

    def test_ensemble_block_that_cannot_be_mapped_is_5(self, tmp_path, monkeypatch, capsys):
        # a stand-in for a kernel that refuses the ensemble's output block
        def refused(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        cfg, out = write_config(tmp_path, base_config()), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        monkeypatch.setattr(mmap, "mmap", refused)
        assert run("ensemble", cfg, out) == 5
        assert "out of memory" in capsys.readouterr().err
        manifest = json.loads((out / "manifest_ensemble.json").read_text())
        assert manifest["status"] == "failed"

    def test_trajectory_without_the_schedule_is_3(self, tmp_path):
        # a trajectory.csv without the coefficient columns, vouched for
        cfg, out, manifest = self.simulated(tmp_path)
        traj = out / "trajectory.csv"
        rows = [line.split(",")[:9] for line in traj.read_text().splitlines()]
        traj.write_text("".join(",".join(row) + "\n" for row in rows))
        doc = json.loads(manifest.read_text())
        doc["outputs"]["trajectory.csv"] = sha256(traj)
        manifest.write_text(json.dumps(doc))
        for stage in ("ensemble", "fpe", "channels"):
            assert run(stage, cfg, out) == 3


class TestRunCommand:
    def test_stage_is_the_module_function_at_call_time(self, tmp_path, monkeypatch):
        # a wrapper put in the module after import is the one that runs,
        # as perfbench's tracer relies on
        calls = []
        monkeypatch.setattr(cli, "cmd_channels", lambda cfg, writer: calls.append((cfg, writer)))
        cfg, out = parse_config(base_config()), tmp_path / "out"
        cli.run_command("channels", cfg, out)
        [(seen, writer)] = calls
        assert seen is cfg and writer.stage == "channels" and writer.out == out
        manifest = json.loads((out / "manifest_channels.json").read_text())
        assert manifest["status"] == "complete" and manifest["outputs"] == {}

    def test_unknown_stage_writes_nothing(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown command"):
            cli.run_command("inspect", parse_config(base_config()), tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestSimulateStage:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert (out / "trajectory.csv").exists()
        report = json.loads((out / "conservation.json").read_text())
        assert report["H_drift"] < 1e-4
        assert report["external_rate_identity_max_err"] < 1e-8
        assert report["termination"] == "s_end"
        assert report["accepted_steps"] > 0 and report["rejected_steps"] >= 0
        assert report["nfev"] == 2 + 6 * (report["accepted_steps"] + report["rejected_steps"])

        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["stage"] == "simulate"
        for name, digest in manifest["outputs"].items():
            assert sha256(out / name) == digest
        assert set(manifest["outputs"]) == {"trajectory.csv", "conservation.json"}

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out, "--seed", "99") == 0
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["config"] == parse_config(base_config(), seed=99)["settings"]
        assert manifest["config"]["seed"] == 99

    @pytest.mark.parametrize("edit, recorded", [
        (lambda doc: [doc.pop(key) for key in ("integrator", "sde", "grid", "noise", "seed")],
         {"integrator": {"tol": 1e-9, "s_end": 5.0, "n_samples": 512},
          "sde": {"mode": "additive", "ds": 0.002, "n_paths": 1000, "snapshots": []},
          "grid": {"min": -1.5, "max": 1.5, "n": 32, "sigma0": 0.1},
          "noise": {"epsilon": 0.0}, "seed": 0}),
    ], ids=["sections_absent"])
    def test_manifest_records_the_filled_in_config(self, tmp_path, edit, recorded):
        # the manifest keeps the config the stage ran under, every default
        # written out
        doc = base_config()
        edit(doc)
        out = tmp_path / "out"
        assert run("simulate", write_config(tmp_path, doc), out) == 0
        config = json.loads((out / "manifest_simulate.json").read_text())["config"]
        assert config == parse_config(doc)["settings"]
        assert config.items() >= recorded.items()
        assert config["angular_momentum"] == [0.0, 0.0, 0.0]
        assert config["chaos"] == {"delta": 1e-3}
        assert config["channels"] == {"r_bound": 3.0, "r_free": 10.0}


class TestPipelineStages:
    @pytest.fixture()
    def prepared(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        return cfg, out

    def test_ensemble(self, prepared):
        cfg, out = prepared
        assert run("ensemble", cfg, out) == 0
        lines = (out / "ensemble_snapshots.csv").read_text().strip().splitlines()
        assert lines[0] == "path_id,s,xi1,xi2,xi3"
        # 2 snapshots, the second at the end of the run, 50 paths each
        assert len(lines) == 1 + 2 * 50
        meta = json.loads((out / "ensemble_meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["n_paths"] == 50
        assert "blowups" in meta
        # span 2, ds 0.01
        assert meta["n_steps"] == 200
        # the noise streams the paths were drawn from
        assert meta["noise_stream"] == "SFC64(SeedSequence((seed, chunk, step)))"
        assert meta["chunk"] == 16384

    @pytest.mark.parametrize("mode, law", [("additive", "two_point"),
                                           ("multiplicative", "two_point")])
    def test_ensemble_records_its_increment_law(self, tmp_path, mode, law):
        doc = base_config()
        doc["sde"].update(mode=mode, n_paths=4, snapshots=[0.2])
        doc["integrator"]["s_end"] = 0.2
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("ensemble", cfg, out) == 0
        assert json.loads((out / "ensemble_meta.json").read_text())["increments"] == law

    def test_ensemble_csv_is_numeric(self, prepared):
        cfg, out = prepared
        assert run("ensemble", cfg, out) == 0
        table = np.genfromtxt(out / "ensemble_snapshots.csv", delimiter=",", names=True)
        parsed = parse_config(json.loads(cfg.read_text()))
        _, _, _, schedule = _load_trajectory(out)
        sde = parsed["sde"]
        res = run_ensemble(sde["n_paths"], schedule, parsed["xi0"], sde["ds"],
                           sde["mode"], parsed["noise"],
                           snapshot_s=_snapshot_times(parsed, schedule))
        states = np.concatenate([xi for _, xi in res.snapshots])
        written = np.column_stack([table[c] for c in ("xi1", "xi2", "xi3")])
        assert np.all(np.isfinite(written)) and np.all(np.isfinite(table["s"]))
        assert np.array_equal(written, states)
        n = sde["n_paths"]
        assert np.array_equal(table["path_id"], np.tile(np.arange(n), len(res.snapshots)))
        assert np.array_equal(table["s"][::n], [s for s, _ in res.snapshots])
        # the last snapshot is the final state, written once
        assert res.snapshots[-1][0] == res.s_final
        assert np.array_equal(res.snapshots[-1][1], res.xi_final)

    def test_ensemble_files_do_not_depend_on_the_cpu_count(self, tmp_path, use_cpus):
        # 20000 paths are two chunks: both stepped in one process on 1
        # CPU, the second in a forked worker on 2; the run directory does
        # not record which
        doc = base_config()
        doc["sde"].update(n_paths=20000, snapshots=[0.05, 0.1])
        doc["integrator"]["s_end"] = 0.1
        cfg = write_config(tmp_path, doc)
        runs = []
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            assert run("simulate", cfg, out) == 0
            use_cpus(cpus)
            assert run("ensemble", cfg, out) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "manifest_ensemble.json" in runs[0] and "ensemble_snapshots.csv" in runs[0]
        assert runs[0] == runs[1]

    def test_ensemble_determinism(self, prepared, tmp_path):
        cfg, out = prepared
        assert run("ensemble", cfg, out) == 0
        first = sha256(out / "ensemble_snapshots.csv")
        assert run("ensemble", cfg, out, "--force") == 0
        assert sha256(out / "ensemble_snapshots.csv") == first
        assert run("ensemble", cfg, out, "--force", "--seed", "12") == 0
        assert sha256(out / "ensemble_snapshots.csv") != first

    def test_fpe(self, prepared):
        cfg, out = prepared
        assert run("fpe", cfg, out) == 0
        meta = json.loads((out / "fpe_meta.json").read_text())
        n_snaps = len(meta["snapshot_s"])
        assert n_snaps >= 2
        for i in range(n_snaps):
            assert (out / f"density_{i:04d}.npy").exists()
        assert meta["grid"] == {"mins": [-1.5] * 3, "maxs": [1.5] * 3, "shape": [24] * 3}
        assert meta["diagnostics"]["mass_initial"] == pytest.approx(1.0)
        assert 0.0 < meta["diagnostics"]["mass_final"] <= 1.0 + 1e-9
        # the step record: how many steps, how long, and what bound each
        diag = meta["diagnostics"]
        assert diag["steps"] == sum(diag["cfl_limit"].values()) > 0
        assert set(diag["cfl_limit"]) == {"drift", "diffusion", "snapshot"}
        assert 0.0 < diag["ds_min"] <= diag["ds_median"] <= diag["ds_max"]
        # a trajectory schedule: new coefficients, so new fields, at every stage
        assert diag["field_evals"] == 2 * diag["steps"]

    def test_fpe_follows_sde_mode(self, tmp_path):
        doc = base_config()
        doc["sde"].update(mode="multiplicative", snapshots=[0.5])
        doc["integrator"]["s_end"] = 0.5
        doc["grid"]["n"] = 12
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        parsed = parse_config(doc)
        written = read_density(out / "density_0000.npy", _grid_spec(parsed))
        _, _, _, schedule = _load_trajectory(out)

        def direct(multiplicative):
            fpe_cfg = FpeConfig(epsilon=parsed["noise"].epsilon, schedule=schedule,
                                multiplicative=multiplicative)
            res = fpe_evolve(_initial_density(parsed, parsed["xi0"]), (0.0, 0.5), fpe_cfg,
                             snapshot_s=[0.5])
            return res.snapshots[0][1].P

        assert np.array_equal(written.P, direct(True))
        assert not np.allclose(written.P, direct(False), rtol=1e-6, atol=1e-9)

    def test_fpe_without_snapshots_takes_eight_times(self, tmp_path):
        # 8 times from a tenth of the span to its end: 0.2 to 2.0 on the sample
        doc = json.loads((REPO / "configs" / "sample_morse.json").read_text())
        del doc["sde"]["snapshots"]
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        times = json.loads((out / "fpe_meta.json").read_text())["snapshot_s"]
        assert times == pytest.approx(np.linspace(0.2, 2.0, 8), rel=0, abs=1e-12)
        manifest = json.loads((out / "manifest_fpe.json").read_text())
        assert sorted(n for n in manifest["outputs"] if n.endswith(".npy")) == [
            f"density_{i:04d}.npy" for i in range(8)]

    def test_chaos_solves_tube_b_only(self, prepared, monkeypatch):
        # tube a is the fpe stage's densities: chaos solves tube b alone, at
        # tube a's times
        cfg, out = prepared
        assert run("fpe", cfg, out) == 0
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return fpe_evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "fpe_evolve", counted)
        assert run("chaos", cfg, out) == 0
        assert len(solves) == 1
        report = json.loads((out / "chaos_report.json").read_text())
        meta = json.loads((out / "fpe_meta.json").read_text())
        assert [s for s, _ in report["series"]] == meta["snapshot_s"]

    def test_chaos_default_route(self, prepared):
        cfg, out = prepared
        assert run("fpe", cfg, out) == 0
        assert run("chaos", cfg, out) == 0
        report = json.loads((out / "chaos_report.json").read_text())
        assert report["verdict"] in ("chaotic", "regular", "inconclusive")
        assert len(report["series"]) >= 2
        assert all(d >= 0.0 for _, d in report["series"])

    def test_chaos_without_snapshots_takes_eight_times(self, tmp_path):
        # with no sde.snapshots the tubes are compared at 8 times, from a
        # tenth of the run to its end: 0.2 to 2.0 on the sample
        doc = json.loads((REPO / "configs" / "sample_morse.json").read_text())
        del doc["sde"]["snapshots"]
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        assert run("chaos", cfg, out) == 0
        report = json.loads((out / "chaos_report.json").read_text())
        times = [s for s, _ in report["series"]]
        assert times == pytest.approx(np.linspace(0.2, 2.0, 8), rel=0, abs=1e-12)
        assert times[-1] == 2.0

    def test_chaos_records_support_mismatch_per_pair(self, tmp_path, monkeypatch):
        # the sample: some of its KL pairs have cells where tube a has mass
        # and tube b is floored
        counts = []

        def recording(pa, pb):
            val, cells = kl_divergence(pa, pb)
            counts.append(cells)
            return val, cells

        monkeypatch.setattr(cli, "kl_divergence", recording)
        cfg, out = REPO / "configs" / "sample_morse.json", tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        assert run("chaos", cfg, out) == 0
        report = json.loads((out / "chaos_report.json").read_text())
        assert len(counts) == len(report["series"])
        assert report["support_mismatch_cells"] == counts
        assert any(counts)

    def test_schedule_is_the_trajectory_schedule(self, prepared):
        # the schedule read back from trajectory.csv is the one integrate records
        cfg, out = prepared
        parsed = parse_config(json.loads(cfg.read_text()))
        integ = parsed["integrator"]
        traj = integrate(GeodesicState(x=parsed["x0"], xi=parsed["xi0"]), parsed["surface"],
                         J=parsed["angular_momentum"], s_end=integ["s_end"], tol=integ["tol"],
                         n_samples=integ["n_samples"], mu0=parsed["mu0"])
        direct = CoefficientSchedule.from_trajectory(traj)
        s, x, xi, via = _load_trajectory(out)
        assert np.array_equal(s, traj.s) and np.array_equal(x, traj.x)
        assert np.array_equal(xi, traj.xi)
        # the first sample is initial.xi, bit for bit
        assert np.array_equal(xi[0], parsed["xi0"])
        assert np.array_equal(via.s, direct.s)
        assert np.array_equal(via.a, direct.a)
        assert np.array_equal(via.lam_sq, direct.lam_sq)

    @staticmethod
    def ensemble_times(out, n_paths):
        """The times of ensemble_snapshots.csv's blocks, in order, after
        checking that no (path_id, s) pair repeats."""
        table = np.genfromtxt(out / "ensemble_snapshots.csv", delimiter=",", names=True)
        pairs = set(zip(table["path_id"].tolist(), table["s"].tolist()))
        assert len(pairs) == len(table)
        return table["s"][::n_paths].tolist()

    @pytest.mark.parametrize("snapshots, taken", [
        ([1.0, 1.0], [1.0, 2.0]),
        # times within rounding of the one before or of the end: the
        # ensemble takes them at its grid point, fpe without a step
        ([0.5, 0.5000000001, 2.0], [0.5, 0.5000000001, 2.0]),
        ([1.9999999999], [1.9999999999, 2.0]),
    ], ids=["repeated", "within-rounding-of-the-one-before", "within-rounding-of-the-end"])
    def test_duplicate_snapshot_times_are_taken_once(self, tmp_path, snapshots, taken):
        doc = base_config()
        doc["sde"]["snapshots"] = snapshots
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        for stage in ("simulate", "ensemble", "fpe"):
            assert run(stage, cfg, out) == 0
        times = self.ensemble_times(out, 50)
        assert times == taken
        assert times == json.loads((out / "fpe_meta.json").read_text())["snapshot_s"]

    def test_ensemble_and_fpe_without_snapshots_take_the_same_eight_times(self, tmp_path):
        doc = base_config()
        del doc["sde"]["snapshots"]
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        for stage in ("simulate", "ensemble", "fpe"):
            assert run(stage, cfg, out) == 0
        times = self.ensemble_times(out, 50)
        assert times == pytest.approx(np.linspace(0.2, 2.0, 8), rel=0, abs=1e-12)
        assert times == json.loads((out / "fpe_meta.json").read_text())["snapshot_s"]

    def test_ensemble_and_fpe_read_the_schedule_from_the_trajectory(self, prepared, tmp_path):
        # the potential or initial.xi edited after simulate: ensemble and
        # fpe start from the momentum and follow the schedule simulate
        # recorded, not from the edited config
        cfg, out = prepared
        potential, xi = base_config(), base_config()
        potential["potential"].update(D=2.0, alpha=0.5)
        xi["initial"]["xi"] = [0.3, 0.0, 0.0]
        runs = []
        for name, stage_cfg in (("same", cfg),
                                ("potential", write_config(tmp_path, potential, "potential.json")),
                                ("xi", write_config(tmp_path, xi, "xi.json"))):
            copy = tmp_path / name
            shutil.copytree(out, copy)
            for stage in ("ensemble", "fpe"):
                assert run(stage, stage_cfg, copy) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(copy.iterdir())
                         if not p.name.startswith("manifest_")})
        assert "ensemble_snapshots.csv" in runs[0] and "density_0000.npy" in runs[0]
        assert runs[0] == runs[1] == runs[2]

    def test_reports_record_the_chaos_module_gates(self, tmp_path):
        # the thresholds that the sample's verdict and label used are the
        # constants of the chaos module
        cfg, out = REPO / "configs" / "sample_morse.json", tmp_path / "out"
        for stage in ("simulate", "fpe", "chaos", "channels"):
            assert run(stage, cfg, out) == 0
        report = json.loads((out / "chaos_report.json").read_text())
        assert report["thresholds"] == {"residual_max": chaos.RESIDUAL_MAX,
                                        "min_decades": chaos.MIN_DECADES}
        channels = json.loads((out / "channels.json").read_text())
        assert channels["thresholds"] == {"r_bound": 6.0, "r_free": 20.0,
                                          "window_frac": chaos.WINDOW_FRAC}

    def test_channels(self, prepared):
        cfg, out = prepared
        assert run("channels", cfg, out) == 0
        doc = json.loads((out / "channels.json").read_text())
        assert doc["label"] in (
            "bound_23_free_1", "bound_12_free_3", "bound_13_free_2",
            "full_breakup", "transient",
        )
        assert doc["thresholds"]["r_bound"] == 3.0
