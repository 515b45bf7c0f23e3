"""The runnable experiments in scripts/ finish cleanly."""

import os
import subprocess
import sys

import pytest

import centext

SRC_DIR = os.path.dirname(os.path.dirname(centext.__file__))
SCRIPTS_DIR = os.path.join(os.path.dirname(SRC_DIR), "scripts")


def run(script, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS_DIR, script),
                           *args],
                          env={**os.environ, "PYTHONPATH": SRC_DIR},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["classify_order8.py"])
def test_script_exits_zero(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr
