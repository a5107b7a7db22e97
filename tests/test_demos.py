"""Each script in demos/ runs to completion and prints its report; the
README's library tour runs, and every name a module exports resolves."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ml2bf

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(_DEMOS) == 4


@pytest.mark.parametrize("script", _DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(ml2bf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_library_tour_runs():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)
    assert tour, "README has no library tour block"
    exec(compile(tour.group(1), "README.md", "exec"), {})


_MODULES = ["ml2bf"] + [f"ml2bf.{m.name}" for m in pkgutil.iter_modules(ml2bf.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
