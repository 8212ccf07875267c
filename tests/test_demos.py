"""The narrative demos run to completion from a fresh directory."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruledpoly

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(ruledpoly.__file__).resolve().parents[1]

# 04 is left out: it tabulates stars up to 4002 vertices (about 9 s) and
# calls only names the other tests cover
RUN = ["01_load_and_inspect", "02_direction_sweeps", "03_complexity",
       "05_oracle_check", "06_render_gallery"]


@pytest.mark.parametrize("name", RUN)
def test_demo_runs(name, tmp_path):
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMOS / script.name, script)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if name == "06_render_gallery":
        assert len(list((tmp_path / "out").glob("*.svg"))) == 5
