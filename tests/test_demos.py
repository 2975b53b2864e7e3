"""Smoke test: the narrative demos run to completion.

They take a few seconds together; demo 03, the offset searches, is the
longest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_array_geometry.py", "02_identifiability.py",
         "03_bounds_and_offsets.py", "04_quasi_static_tracking.py", "05_fading_and_fast_channels.py",
         "06_complexity_audit.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    """Run in a scratch directory, since some demos write files there."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
