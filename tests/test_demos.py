"""Every demo script runs to completion against the tree under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexchain

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = Path(lexchain.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "CHAIN_REASONER_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_demos_are_found():
    """An empty parameter list would skip the demo test silently."""
    assert DEMOS
