"""Each script in scripts/ runs once, end to end, in its own process."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_reproduce_tables_script():
    lines = _run_script("reproduce_tables.py", "--witnesses")
    assert lines[-1] == "41 pairs -> 3 survive at level counting"


def test_classify_odd_orders_script():
    lines = _run_script("classify_odd_orders.py", "--max-n", "63")
    assert lines[-1].startswith("total classes up to 63: 5 ")


def test_run_base_searches_script():
    lines = _run_script("run_base_searches.py")
    orders = [int(line[2:].split()[0]) for line in lines if line.startswith("n=")]
    assert orders == [45, 105, 315, 31, 21, 63]
