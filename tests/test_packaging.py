"""Declared runtime dependencies match what the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specsal"


def _third_party_imports() -> set:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names)


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    assert declared == {"numpy"}
    assert _third_party_imports() == declared


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, specsal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
