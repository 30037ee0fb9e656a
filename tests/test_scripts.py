import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_case_study.py", ["--fmax", "400"]),
    ("ad_admittance_curves.py", []),
])
def test_script_runs_to_completion(tmp_path, script, args):
    # the scripts call the library API directly, so a signature change
    # would otherwise break them unnoticed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
