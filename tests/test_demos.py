"""The quick demos run end to end.

Demos 01, 02 and 05 take about 7 s together and run here as subprocesses.
Demos 03 (about 13 s) and 04 (about 80 s) stay manual: run them with
``PYTHONPATH=src python3 demos/<name>.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_views_and_filters.py", "02_training_walkthrough.py",
               "05_fewshot_and_clustering.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
