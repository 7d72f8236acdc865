"""`python -m cwmat` runs the CLI in its own process and exits with its code."""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from golden import KNOWN_CW_7_4

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_module(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cwmat", *args],
        capture_output=True,
        text=True,
        env=_env(),
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


@pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["text", "json"])
def test_stdout_closed_by_its_reader_is_an_error_without_traceback(tmp_path, fmt):
    """Like `cwmat prune 36 | head -n 1`: the output (3840 pairs) is far
    more than a pipe holds, so a write fails once the reader is gone."""
    out = tmp_path / "prune.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cwmat", "prune", "36", *fmt, "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 2, stderr
    assert first.strip()
    assert "Traceback" not in stderr
    assert stderr == "error: cannot write standard output: broken pipe\n"
    # --out is written before stdout, so it is complete
    assert len(json.loads(out.read_text())["pairs"]) == 3840


def test_search_refuses_oversized_orbit_masks_under_an_address_space_cap():
    """(1^1 20^1, 2^1 4^2 5^1) at n = 2^20 - 1 has 942786 assignments, under
    the assignment bound, but would hold 52388 masks of 2^20 - 1 bits,
    about 6.4 GiB. Under a 1.5 GB address-space cap (ulimit -v 1500000) it
    is refused with exit 2 and the figure, not a MemoryError."""
    cap = 1_500_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cwmat", "search", "1048575", "36", "1^1 20^1", "2^1 4^2 5^1"],
        capture_output=True,
        text=True,
        env=_env(),
        preexec_fn=limit,
        timeout=60,
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: 52388 orbit masks of 1048575 bits, 54932747100 bits in all, "
        "exceed the search bound of 1073741824\n"
    )
    assert proc.stdout == ""


def test_classify_refuses_output_over_its_bound_under_an_address_space_cap():
    """The classes at odd n <= 200001 would hold about 1.28e9 sign
    characters, and each is held as a coefficient first: under a 1.5 GB
    address-space cap (ulimit -v 1500000) the run is refused with exit 2
    once they pass MAX_CLASSIFY_CHARS = 2^25, at n = 32395, not a
    MemoryError."""
    cap = 1_500_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "cwmat", "classify", "16", "--max-n", "200001"],
        capture_output=True,
        text=True,
        env=_env(),
        preexec_fn=limit,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: the classes at odd n <= 32395 hold 33603146 sign characters, "
        "over the bound of 33554432\n"
    )
    assert proc.stdout == ""
