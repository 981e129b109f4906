"""Smoke test: every script in ``demos/`` runs to completion as a user would
run it, in its own interpreter, against the package these tests import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qramforge

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    package_root = str(Path(qramforge.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
