"""The demos that run in seconds exit cleanly.

``02_train_autoencoder.py`` trains for over a minute and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_dct_features.py", "03_copy_retrieval.py",
                                  "04_event_profile.py"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # cwd is a scratch directory: 04 writes event_profile.csv into it
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
