"""Child processes that never outlive the benchmark.

Each child starts in its own session, so on a timeout or an interrupt the
whole group (a CLI run and its sweep workers) is killed and then reaped.
"""

from __future__ import annotations

import os
import signal
import subprocess


def run(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run `cmd` to completion and capture its output as text."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
