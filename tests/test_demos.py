"""Each script in demos/ runs to completion and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ml2bf

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
