"""`python -m cwmat` runs the CLI in its own process and exits with its code."""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import deque

import pytest

from child_process import child_env, run_python
from golden import KNOWN_CW_7_4


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
    proc = run_python("-m", "cwmat", *args)
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
        env=child_env(),
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
    start = time.perf_counter()
    proc = run_python(
        "-m", "cwmat", "search", "1048575", "36", "1^1 20^1", "2^1 4^2 5^1",
        cap_kib=1_500_000, timeout=60,
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
    characters, and each is held as a coefficient first. The rule's terms
    count them before any order is classified, so the run is refused with
    exit 2 once they pass MAX_CLASSIFY_CHARS = 2^25, at n = 32395, in about
    0.1 s at 15 MiB (2 cores, CPython 3.11.7). Classifying up to 32395
    first took 0.9 s and 337 MiB, and under this 100000 KiB address-space
    cap (ulimit -v 100000) it ends in a MemoryError."""
    start = time.perf_counter()
    proc = run_python(
        "-m", "cwmat", "classify", "16", "--max-n", "200001", cap_kib=100_000, timeout=60
    )
    assert time.perf_counter() - start < 0.5
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: the classes at odd n <= 32395 hold 33603146 sign characters, "
        "over the bound of 33554432\n"
    )
    assert proc.stdout == ""


def test_prune_64_ends_under_an_address_space_cap(tmp_path):
    """W = 64: 646225 pairs, each existence verdict kept for reuse across
    levels. The text run builds no JSON payload; it peaks at about 305 MiB
    of address space (VmPeak, CPython 3.11), so a 500000 KiB cap (ulimit -v
    500000) leaves about 60 % headroom and catches a memo or payload that
    grows with the pair count. Its 58 MB of text go to a file."""
    out = tmp_path / "prune64.txt"
    with out.open("w") as fh:
        proc = run_python("-m", "cwmat", "prune", "64", cap_kib=500_000, stdout=fh)
    assert proc.returncode == 0, proc.stderr
    with out.open() as fh:
        (last,) = deque(fh, maxlen=1)
    assert last == "646225 -> 42929 (existence) -> 2308 (counting)\n"


def _dense_row(n: int) -> str:
    """A random row of order n, seeded with n, about two thirds nonzero."""
    rng = random.Random(n)
    return "".join(rng.choice("-0+") for _ in range(n))


@pytest.mark.parametrize(
    "n, cap_kib, timeout", [(4001, 250_000, 300), (10001, None, 120)], ids=["4001", "10001"]
)
def test_verify_of_a_dense_row_ends_within_its_bounds(n, cap_kib, timeout):
    """A dense random row is no weighing row: exit 1, nothing on stderr.

    At n = 4001 the difference-multiset check keeps one count per lag, so
    the run needs no MemoryError under a 250000 KiB cap (ulimit -v 250000).
    At n = 10001 the multiplier readout solves r*s = sum(T) - t*sum(R)
    (mod n) for each of the 9792 units, leaving gcd(r, n) candidate
    shifts: it takes 0.40 s, but the command takes about 4 s (2 cores,
    CPython 3.11.7), 3.5 s of it in the O(k^2) cw_equation_holds; the
    bound is 120 s."""
    proc = run_python("-m", "cwmat", "verify", _dense_row(n), cap_kib=cap_kib, timeout=timeout)
    assert (proc.returncode, proc.stderr) == (1, "")
