"""The runnable wrappers in scripts/ start, and the worked example runs."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("name", ["reproduce_tables.py", "reproduce_sweep.py", "worked_example.py"])
def test_help(name):
    proc = run_script(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_worked_example():
    proc = run_script("worked_example.py", "--mc-samples", "10000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "signed standardized margins r = [1.90692518 1.        ]"
    assert lines[1].startswith("sorted radii (0 prepended)   = [0.         1.         1.90692518]")
    assert [line.split()[0] for line in lines[3:]] == ["spectral_radius", "first_order", "dth_order"]
