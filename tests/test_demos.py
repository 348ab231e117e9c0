"""The demos run to completion. Demos 03-05 train models and take 15-100 s
each, so they carry the opt-in `slow` marker: `pytest -m slow` runs them."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", [
    "01_linear_attention_exactness.py", "02_fast_weights_anatomy.py",
    *(pytest.param(d, marks=pytest.mark.slow) for d in (
        "03_train_and_ablate.py", "04_token_analysis.py", "05_generation_and_cost.py"))])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          os.path.join(ROOT, "demos", demo)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
