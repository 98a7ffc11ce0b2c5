import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_package_module_imports_with_only_the_package_on_the_path(tmp_path):
    # a package module that imports test code (gradsuite, oracles, conftest)
    # fails here: the tests directory is neither on the path nor the cwd
    names = ["bgcapsule"] + [f"bgcapsule.{m.name}"
                             for m in pkgutil.iter_modules([str(SRC / "bgcapsule")])]
    assert "bgcapsule.model" in names and "bgcapsule.training" in names
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = "import importlib, sys\nfor name in sys.argv[1:]:\n    importlib.import_module(name)"
    result = subprocess.run([sys.executable, "-c", script, *names], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
