"""Daemon harness for tests, chaos suites, and benchmarks.

Starting the daemon as a *real subprocess* — its own event loop, signal
handlers, and worker pool — is the only honest way to exercise the
serving contract (SIGTERM drain, SIGKILL restart, crash isolation), so
the harness lives in the package rather than being copy-pasted across
``tests/serve``, ``tests/chaos``, and ``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["DaemonHandle", "start_daemon"]


class DaemonHandle:
    """One running ``repro-partition serve`` subprocess."""

    def __init__(self, proc: subprocess.Popen, port: int) -> None:
        self.proc = proc
        self.port = port

    def client(self, **kwargs):
        """A :class:`repro.serve.client.ServeClient` bound to the port."""
        from repro.serve.client import ServeClient

        kwargs.setdefault("retries", 2)
        kwargs.setdefault("timeout", 60.0)
        return ServeClient(port=self.port, **kwargs)

    def alive(self) -> bool:
        """Whether the daemon process is still running."""
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL (the chaos primitive); waits for the corpse.

        The whole process group dies — even when the daemon itself is
        already a corpse (a chaos fault may have SIGKILLed it mid-write):
        a SIGKILLed daemon cannot reap its forked pool workers, and
        leaving them orphaned would leak idle processes into every later
        test and benchmark.
        """
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            if self.alive():
                self.proc.kill()
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def output(self) -> str:
        """Drain and return the process's combined stdout/stderr (call
        only after the process exited)."""
        return self.proc.stdout.read() if self.proc.stdout else ""


def start_daemon(
    tmp_path, *args, env: dict | None = None, timeout: float = 120.0,
) -> DaemonHandle:
    """Launch a daemon subprocess and wait for its stdout ready line.

    ``args`` are extra ``repro-partition serve`` flags; ``env`` entries
    overlay the inherited environment (e.g. ``REPRO_FAULTS`` plans).
    The daemon binds an ephemeral port, discovered via ``--port-file``;
    startup warmup is disabled so harness-driven daemons come up fast
    (the first request pays the cold start instead).
    """
    tmp_path = Path(tmp_path)
    port_file = tmp_path / f"port-{os.getpid()}-{time.monotonic_ns()}"
    src = str(Path(__file__).resolve().parents[2])
    run_env = dict(os.environ)
    run_env["PYTHONPATH"] = src + (
        os.pathsep + run_env["PYTHONPATH"] if run_env.get("PYTHONPATH") else ""
    )
    if env:
        run_env.update(env)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--port-file", str(port_file),
            "--jobs", "2", "--no-warmup", *args,
        ],
        env=run_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        # Own session: the daemon leads a process group containing its
        # forked pool workers, so kill() can SIGKILL all of them.
        start_new_session=True,
    )
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "ready" in line:
            break
        if proc.poll() is not None:
            rest = proc.stdout.read()
            raise RuntimeError(
                f"daemon died during startup (rc={proc.returncode}):\n"
                f"{line}{rest}"
            )
    else:
        proc.kill()
        raise RuntimeError("daemon did not become ready in time")
    return DaemonHandle(proc, int(port_file.read_text()))
