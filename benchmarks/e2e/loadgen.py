"""Daemon lifecycle and a stdlib ``http.client`` load generator.

The benchmark drives ``repro serve`` over its public HTTP surface only;
it deliberately avoids the package's own client so that a change to
the client cannot move the yardstick.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import time
from typing import Dict, List, Optional, Tuple

READY_MARKER = "listening on http://"


class BenchError(RuntimeError):
    """The workload could not run as specified (as opposed to a wrong
    answer, which is an oracle failure)."""


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: this
    process) in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM line in {path}")


def spawn_until(argv: List[str], marker: str, env: Dict[str, str],
                log_path: str) -> Tuple[subprocess.Popen, str, float]:
    """Start ``argv`` and block until a stdout line contains ``marker``.

    Returns the process, that line, and the seconds from spawn to it.
    Standard error goes to ``log_path`` so a failed start can be shown.
    """
    with open(log_path, "ab") as log:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                env=env, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - began
    if marker not in line:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        with open(log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-2000:]
        raise BenchError(f"{argv[1:4]} did not become ready "
                         f"(stdout {line!r}); stderr tail:\n{tail}")
    return proc, line, elapsed


class Daemon:
    """One ``repro serve`` process on an OS-assigned port."""

    def __init__(self, argv: List[str], env: Dict[str, str], log_path: str):
        self.proc, line, self.setup_s = spawn_until(argv, READY_MARKER, env,
                                                    log_path)
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the drain, and require a clean exit."""
        # The readiness line is printed before the daemon installs its
        # signal handlers; a SIGTERM in that gap kills it undrained.
        # An answered request proves the handlers are in place.
        conn = Connection(self.port)
        try:
            conn.call("GET", "/healthz")
        finally:
            conn.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("daemon did not exit within 60 s of SIGTERM")
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"daemon exited {code} after SIGTERM")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """A keep-alive HTTP/1.1 connection that times each exchange."""

    def __init__(self, port: int, timeout: float = 120.0):
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)

    def call(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes, float]:
        """Send one request; return status, body and seconds from the
        first byte sent to the last byte read."""
        headers = {"Content-Type": "application/json"} if body else {}
        began = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - began

    def json(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, dict, float]:
        status, data, elapsed = self.call(method, path, body)
        return status, json.loads(data), elapsed

    def close(self) -> None:
        self._conn.close()


def python_env(root: str, scratch: str, ledger: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts: the source
    tree on the path, the ledger redirected into the scratch directory
    and temporary files kept inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_LEDGER"] = ledger
    env["TMPDIR"] = scratch
    return env
