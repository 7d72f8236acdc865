"""`python -m cwmat` runs the CLI in its own process and exits with its code."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import KNOWN_CW_7_4

ROOT = Path(__file__).resolve().parent.parent


def _run_module(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cwmat", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "args, code",
    [
        (("verify", KNOWN_CW_7_4), 0),
        (("verify", "++00000"), 1),
        (("classify", "15", "--max-n", "5"), 2),
    ],
    ids=["weighing-row", "non-weighing-row", "usage-error"],
)
def test_module_exit_code(args, code):
    proc = _run_module(*args)
    assert proc.returncode == code, proc.stderr
