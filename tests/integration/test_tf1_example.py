"""The TF-1 example program runs end to end from a clean directory: it
reads its encrypted training set in the enclave, trains, and the
weights its ``Saver`` restores from the encrypted checkpoint equal the
ones it saved."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXAMPLE = ROOT / "examples" / "tf1_training_in_enclave.py"


def test_tf1_example_trains_in_the_enclave_and_restores_its_checkpoint(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLE)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "plaintext visible on the host: False" in result.stdout
    assert "restored 4 variables into a fresh graph; weights identical: True" in result.stdout
