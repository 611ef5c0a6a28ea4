"""Tests for the batch pipeline CLI: config validation, exit codes,
artifacts, manifests, and determinism."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tribody.cli import _initial_density, _load_trajectory, _schedule, main, parse_config
from tribody.errors import ConfigError
from tribody.fokker_planck import FpeConfig, fpe_evolve, read_density
from tribody.geodesic import GeodesicState, integrate
from tribody.langevin import CoefficientSchedule, NoiseModel, run_ensemble
from tribody.potentials import MorsePotential


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
        assert cfg["seed"] == 11
        assert cfg["epsilon"] == 0.01
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

    def test_noise_forms_are_exclusive(self):
        doc = base_config()
        doc["noise"] = {"epsilon": 0.01, "hbar_scale": 0.1, "omega_sq_mean": 1.0}
        with pytest.raises(ConfigError, match="not both"):
            parse_config(doc)
        doc["noise"] = {"hbar_scale": 0.1}
        with pytest.raises(ConfigError, match="together"):
            parse_config(doc)

    def test_quantum_noise_converted(self):
        doc = base_config()
        doc["noise"] = {"hbar_scale": 0.1, "omega_sq_mean": 4.0}
        cfg = parse_config(doc)
        assert np.isclose(cfg["epsilon"], 0.5 * 0.1 * 2.0)

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
        # out of range for the integrator
        ("integrator", "s_end", 0.0),
        ("integrator", "n_samples", 0),
        ("integrator", "n_samples", 1),
    ])
    def test_wrongly_typed_value_is_2(self, tmp_path, section, key, value):
        doc = base_config()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(doc)
        cfg = write_config(tmp_path, doc)
        for stage in ("simulate", "ensemble", "fpe"):
            assert run(stage, cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize("key", ["series_a", "series_b"])
    def test_one_chaos_series_alone_is_2(self, tmp_path, key):
        doc = base_config()
        doc["chaos"] = {key: str(tmp_path)}
        with pytest.raises(ConfigError, match="series_a and series_b"):
            parse_config(doc)
        assert run("chaos", write_config(tmp_path, doc), tmp_path / "out") == 2

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "n", 4),
        ("grid", "max", -1.5),
        ("grid", "max", -2.0),
        ("grid", "sigma0", 0.0),
        ("sde", "ds", 0.0),
        ("sde", "n_paths", 0),
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

    @pytest.mark.parametrize("key, value, extra", [
        ("epsilon", [[0.01, 0.02, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]], ()),
        ("epsilon", -0.01, ()),
        ("epsilon", [[0.01, 0.05, 0.0], [0.05, 0.01, 0.0], [0.0, 0.0, 0.01]], ()),
        ("seed", -1, ()),
        ("seed", 2**64, ()),
        ("seed", 11, ("--seed", "-3")),
    ], ids=["asymmetric_epsilon", "negative_epsilon", "indefinite_epsilon", "negative_seed",
            "seed_2_pow_64", "negative_seed_flag"])
    def test_invalid_noise_or_seed_is_2(self, tmp_path, key, value, extra):
        # the ensemble and fpe stages would reject these; simulate must too,
        # before it writes a manifest
        doc = base_config()
        if key == "epsilon":
            doc["noise"]["epsilon"] = value
        else:
            doc["seed"] = value
        out = tmp_path / "out"
        assert run("simulate", write_config(tmp_path, doc), out, *extra) == 2
        assert not (out / "manifest_simulate.json").exists()

    def test_defaults_when_sections_absent(self):
        doc = base_config()
        for key in ("integrator", "sde", "grid", "noise", "seed"):
            doc.pop(key, None)
        cfg = parse_config(doc)
        assert cfg["integrator"]["tol"] == 1e-9
        assert cfg["epsilon"] == 0.0
        assert cfg["seed"] == 0


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = base_config()
        bad["u0"] = -1.0
        assert run("simulate", write_config(tmp_path, bad), tmp_path / "out") == 2

    def test_invalid_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
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
            assert manifest["status"] == "running"

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

    @staticmethod
    def series_from_one_fpe_run(tmp_path):
        """An fpe run directory, and a config whose chaos stage reads it as
        both density series."""
        doc = base_config()
        out = tmp_path / "out"
        cfg = write_config(tmp_path, doc)
        assert run("simulate", cfg, out) == 0
        assert run("fpe", cfg, out) == 0
        doc["chaos"] = {"series_a": str(out), "series_b": str(out)}
        return out, write_config(tmp_path, doc, "chaos.json")

    def test_tampered_density_series_is_3(self, tmp_path):
        out, chaos_cfg = self.series_from_one_fpe_run(tmp_path)
        assert run("chaos", chaos_cfg, tmp_path / "clean") == 0
        density = out / "density_0001.txt"
        lines = density.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 300
        lines[row] = " ".join(repr(5.0 * float(v)) for v in lines[row].split())
        density.write_text("\n".join(lines) + "\n")
        assert run("chaos", chaos_cfg, tmp_path / "tampered") == 3
        assert not (tmp_path / "tampered" / "chaos_report.json").exists()

    def test_missing_fpe_manifest_is_3(self, tmp_path):
        out, chaos_cfg = self.series_from_one_fpe_run(tmp_path)
        (out / "manifest_fpe.json").unlink()
        assert run("chaos", chaos_cfg, tmp_path / "chaos") == 3

    def test_forbidden_start_is_4(self, tmp_path):
        doc = base_config()
        doc["energy"] = -5.0  # E < U everywhere reachable: forbidden region
        cfg = write_config(tmp_path, doc)
        assert run("simulate", cfg, tmp_path / "out") == 4

    def test_existing_output_without_force_is_5(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        assert run("simulate", cfg, out) == 5
        assert run("simulate", cfg, out, "--force") == 0


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
        assert manifest["derived"]["seed"] == 99


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
        # 2 snapshots + final state, 50 paths each
        assert len(lines) == 1 + 3 * 50
        meta = json.loads((out / "ensemble_meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["n_paths"] == 50
        assert "blowups" in meta
        # span 2, ds 0.01
        assert meta["n_steps"] == 200
        # the noise streams the paths were drawn from
        assert meta["noise_stream"] == "SFC64(SeedSequence((seed, chunk, step)))"
        assert meta["chunk"] == 16384

    def test_ensemble_csv_is_numeric(self, prepared):
        cfg, out = prepared
        assert run("ensemble", cfg, out) == 0
        table = np.genfromtxt(out / "ensemble_snapshots.csv", delimiter=",", names=True)
        parsed = parse_config(json.loads(cfg.read_text()))
        schedule = _schedule(*_load_trajectory(out), parsed)
        sde = parsed["sde"]
        res = run_ensemble(sde["n_paths"], schedule, parsed["xi0"], sde["ds"],
                           sde["mode"], NoiseModel(epsilon=parsed["epsilon"], seed=parsed["seed"]),
                           snapshot_s=sde["snapshots"])
        states = np.concatenate([xi for _, xi in res.snapshots] + [res.xi_final])
        written = np.column_stack([table[c] for c in ("xi1", "xi2", "xi3")])
        assert np.all(np.isfinite(written)) and np.all(np.isfinite(table["s"]))
        assert np.array_equal(written, states)
        n = sde["n_paths"]
        assert np.array_equal(table["path_id"], np.tile(np.arange(n), len(res.snapshots) + 1))
        assert np.array_equal(table["s"][::n], [s for s, _ in res.snapshots] + [res.s_final])

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
            assert (out / f"density_{i:04d}.txt").exists()
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
        written, _ = read_density(out / "density_0000.txt")

        parsed = parse_config(doc)
        schedule = _schedule(*_load_trajectory(out), parsed)

        def direct(multiplicative):
            fpe_cfg = FpeConfig(epsilon=parsed["epsilon"], schedule=schedule,
                                multiplicative=multiplicative)
            res = fpe_evolve(_initial_density(parsed), (0.0, 0.5), fpe_cfg, snapshot_s=[0.5])
            return res.snapshots[0][1].P

        assert np.array_equal(written.P, direct(True))
        assert not np.allclose(written.P, direct(False), rtol=1e-6, atol=1e-9)

    def test_chaos_default_route(self, prepared):
        cfg, out = prepared
        assert run("chaos", cfg, out) == 0
        report = json.loads((out / "chaos_report.json").read_text())
        assert report["verdict"] in ("chaotic", "regular", "inconclusive")
        assert len(report["series"]) >= 2
        assert all(d >= 0.0 for _, d in report["series"])

    def test_chaos_explicit_series(self, prepared, tmp_path):
        cfg_doc = base_config()
        _, out = prepared
        assert run("fpe", write_config(tmp_path, cfg_doc, "a.json"), out) == 0
        cfg_doc["chaos"] = {"series_a": str(out), "series_b": str(out)}
        cfg2 = write_config(tmp_path, cfg_doc, "b.json")
        out2 = tmp_path / "out2"
        (out2).mkdir()
        assert run("chaos", cfg2, out2) == 0
        report = json.loads((out2 / "chaos_report.json").read_text())
        # identical series: zero distance everywhere -> regular
        assert report["verdict"] == "regular"

    def test_schedule_is_the_trajectory_schedule(self, prepared):
        # the schedule read back from trajectory.csv is the one integrate records
        cfg, out = prepared
        parsed = parse_config(json.loads(cfg.read_text()))
        integ = parsed["integrator"]
        traj = integrate(GeodesicState(x=parsed["x0"], xi=parsed["xi0"]), parsed["surface"],
                         J=parsed["angular_momentum"], s_end=integ["s_end"], tol=integ["tol"],
                         n_samples=integ["n_samples"], mu0=parsed["mu0"])
        direct = CoefficientSchedule.from_trajectory(traj)
        for via in (_schedule(*_load_trajectory(out), parsed), _schedule(traj.s, traj.x, parsed)):
            assert np.array_equal(via.s, direct.s)
            assert np.array_equal(via.a, direct.a)
            assert np.array_equal(via.lam_sq, direct.lam_sq)

    def test_channels(self, prepared):
        cfg, out = prepared
        assert run("channels", cfg, out) == 0
        doc = json.loads((out / "channels.json").read_text())
        assert doc["label"] in (
            "bound_23_free_1", "bound_12_free_3", "bound_13_free_2",
            "full_breakup", "transient",
        )
        assert doc["thresholds"]["r_bound"] == 3.0
