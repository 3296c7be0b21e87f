"""Smoke test: the demo scripts run to completion.

The demos are the only callers outside the tests of some library names
(``is_ordinary``, ``enumerate_level_sets``, ``FormContext.a_p``), so they
guard those names against removal.  The slowest,
``demos/04_density_verification.py``, sweeps to 300,000 in about 5 s on one
worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_point_counting.py",
    "02_frobenius_classification.py",
    "03_level_planning.py",
    "04_density_verification.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
