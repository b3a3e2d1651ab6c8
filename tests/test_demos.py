"""Smoke test: every script under demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo script -> the file it writes next to itself, if any
DEMOS = {
    "classify_forms.py": "classify_forms.json",
    "foucault_run.py": "foucault_run.csv",
    "surface_curvature.py": None,
    "transport_holonomy.py": None,
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(tmp_path, demo):
    # run a copy, so the files a demo writes next to itself land in tmp_path
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    if DEMOS[demo] is not None:
        assert (tmp_path / DEMOS[demo]).stat().st_size > 0
