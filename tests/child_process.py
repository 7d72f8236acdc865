"""Python in a child process, as the tests run it: the source tree first
on PYTHONPATH, an optional address-space cap and a timeout.

The cap is RLIMIT_AS, set in the child alone and given in KiB as
`ulimit -v` takes it, so a run that outgrows it fails in the child, not
in the test process. Tests start one child at a time.
"""
from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """This process's environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_python(
    *args: str, cap_kib: int | None = None, timeout: float = 300, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """`python *args` run to its end, stderr and (unless stdout names a
    file to write) stdout captured as text, under an address-space cap of
    cap_kib KiB if one is given. Raises subprocess.TimeoutExpired once the
    child has run for timeout seconds."""

    def limit():
        cap = cap_kib * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        preexec_fn=None if cap_kib is None else limit,
        timeout=timeout,
    )
