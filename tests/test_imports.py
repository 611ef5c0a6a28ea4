"""Import guards: no stage process loads a scipy subpackage, and every
public name of the package is used by the library, a demo, a tool, the
benchmark or an acceptance criterion.

The import-cost checks run in a fresh interpreter, because the test
process has already imported scipy's subpackages through other tests.
"""

import ast
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


# Where the package's public names must be used: the library's own
# modules, the demos, the tools, the benchmark and the acceptance
# criteria.  A name that only unit tests call is not part of what the
# pipeline and the criteria need.
def _sources(repo):
    src = repo / "src" / "tribody"
    yield from (p for p in sorted(src.glob("*.py")) if p.name != "__init__.py")
    for folder in ("demos", "tools", "perfbench"):
        yield from sorted((repo / folder).rglob("*.py"))
    yield repo / "tests" / "test_acceptance.py"


def _assigned(path, name):
    """The literal value of the module-level assignment to name in path,
    or () if there is none."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    return ()


def test_every_public_name_is_used_outside_the_unit_tests():
    repo = Path(__file__).resolve().parents[1]
    src = repo / "src" / "tribody"
    # the package's namespace and each module's __all__, with the file
    # that exports each name
    exported = {a.asname or a.name: "__init__.py"
                for node in ast.parse((src / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    for path in sorted(src.glob("*.py")):
        exported.update((name, path.name) for name in _assigned(path, "__all__"))
    # the tracer names what it patches as strings: (module, name, layer)
    # and (module, class, method, layer)
    spans = repo / "perfbench" / "spans.py"
    used = {name for table in ("FUNCTIONS", "METHODS") for row in _assigned(spans, table)
            for name in row[1:-1]}
    for path in _sources(repo):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: where for name, where in exported.items() if name not in used}
    assert not unused, f"public names that only unit tests use: {unused}"
