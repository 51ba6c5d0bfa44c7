"""The demos run to completion against the current public API.

demo_concentration is left out: it runs for about 14 s.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["demo_escape", "demo_schedule",
                                  "demo_certification",
                                  "demo_noise_geometry"])
def test_demo_exits_cleanly(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    demo = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": path})
    assert demo.returncode == 0, demo.stderr
    assert demo.stdout
