"""The demo scripts run end to end and print their landmark lines."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name: str) -> str:
    """The demo's stdout; any warning is an error, as in the in-process tests."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-W", "error", os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name, landmark", [
    ("bolo_walkthrough.py", "m = 1813 steps"),
    ("grover_tolerance.py", "sin^2(2 omega) = 0.8889 vs 1/(1+t) = 0.8889"),
])
def test_demo_prints_landmark(name, landmark):
    assert landmark in run_demo(name)
