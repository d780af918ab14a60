"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import editseg

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# 04_train_toy_model.py is left out: it trains for about 14 s, and the
# training path it runs is covered by the training and CLI tests.
FAST_DEMOS = [
    "01_edit_matrix_basics.py",
    "02_alignment_and_labels.py",
    "03_standardize_and_generate.py",
    "05_metrics.py",
    "06_latency_one_pass.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs_and_leaves_no_temporary_files(name, tmp_path):
    # The child imports the same package as the tests, installed or not, and
    # makes its temporary files under ``tmp_path``.
    src = str(Path(editseg.__file__).parent.parent)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),
    }
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir())
