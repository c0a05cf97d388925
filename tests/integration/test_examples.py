"""Every example script runs to completion (exit 0) as a subprocess.

``udp_cluster.py`` is left to ``test_udp_cluster.py``, which also checks
its output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted(
    path for path in (ROOT / "examples").glob("*.py") if path.name != "udp_cluster.py"
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
