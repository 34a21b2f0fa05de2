"""The demos run as scripts, as a reader would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_attention_kernels_demo_runs():
    """``demos/attention_kernels.py`` calls ``attend`` with a given ranking
    and ``attend_kind`` for a kind: it exits 0 and prints exact selected
    rows, the mean fill and an exactly causal masked kernel."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "attention_kernels.py")],
                            cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for line in ("selected rows vs dense attention: max |diff| = 0.00e+00",
                 "lazy rows equal column-mean fill: True",
                 "perturbing the last position changes earlier rows by 0.0\n"):
        assert line in result.stdout, result.stdout
