"""The demos, which call the public API as a user would, run cleanly."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odeuniq

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(odeuniq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(demo)], env=env,
                         cwd=DEMOS.parent, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout
