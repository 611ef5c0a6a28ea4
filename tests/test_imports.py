"""Import cost guard: no stage process loads a scipy subpackage.

The checks run in a fresh interpreter, because the test process has
already imported scipy's subpackages through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tribody

from test_cli import base_config, write_config

SCRIPT = r"""
import json, sys
HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.special", "scipy.optimize", "scipy.sparse")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

import tribody.cli
report = {"after_import": loaded(), "exit_codes": {}}
cfg, out = sys.argv[1], sys.argv[2]
for stage in tribody.cli.STAGES:
    report["exit_codes"][stage] = tribody.cli.main([stage, "--config", cfg, "--out", out])
report["after_stages"] = loaded()

tribody.integrate(tribody.GeodesicState(x=[2.0, 3.0, 3.5], xi=[0.1, -0.2, 0.05]),
                  tribody.EnergySurface(E=1.0, U0=3.0, potential=tribody.FreePotential()),
                  s_end=0.1, n_samples=4)
report["after_integrate"] = loaded()
report["scipy_loaded"] = "scipy" in sys.modules
print(json.dumps(report))
"""


def test_stages_and_integrate_load_no_scipy_subpackage(tmp_path):
    doc = base_config()
    doc["sde"]["n_paths"] = 10
    cfg, out = write_config(tmp_path, doc), tmp_path / "out"

    src = str(Path(tribody.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(cfg), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])

    assert report["after_import"] == []
    assert report["exit_codes"] == {stage: 0 for stage in tribody.cli.STAGES}
    assert report["after_stages"] == []
    assert report["after_integrate"] == []
    # the package itself stays loaded: its version is read by tools that
    # describe the environment
    assert report["scipy_loaded"]
