"""The system under test as a black box: one ``repro serve`` process.

:class:`Server` spawns ``python -m repro serve`` (or the traced entry
point :mod:`bench.traced_serve`) from the checkout's ``src/`` with the CLI
defaults, except for an ephemeral port, a port file and a spool directory
inside the run directory.  It reads the process's CPU time from its CPU
clock and its peak memory from ``/proc``.  :class:`Connection` is one
persistent HTTP/1.1 connection from stdlib :mod:`http.client` that times
every request it sends.
"""

from __future__ import annotations

import http.client
import itertools
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

#: How long a server may take to start listening or to shut down.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: Per-request socket timeout; a request slower than this counts as failed.
REQUEST_TIMEOUT_S = 120.0
#: Header carrying the benchmark's request id, so the traced server can
#: attach its spans to the client's request.
REQUEST_ID_HEADER = "X-Bench-Request"


def _process_cpu_clock(pid: int) -> int:
    """Linux clock id of a process's CPU time: ``clock_getcpuclockid(3)``,
    which Python does not wrap (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``
    in the kernel).  It counts every thread, exited ones included, in
    nanoseconds."""
    return (~pid << 3) | 2


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed request)."""


@dataclass
class Request:
    """One request as the client saw it.

    ``ready`` is when the load generator meant to send it: the previous
    response in a closed loop, the schedule slot in an open loop.
    ``due`` is where its latency starts: the send in a closed loop, the
    schedule slot in an open loop, so a stall also charges the requests
    queued behind it.
    """

    id: int
    kind: str
    ready: float
    due: float
    sent: float
    done: float
    status: int
    size: int
    body: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.ready


class Server:
    """A ``repro serve`` subprocess rooted in a checkout.

    Args:
        root: The checkout whose ``src/`` holds the program.
        run_dir: Scratch directory for the port file, spool, log and spans.
        traced: Start :mod:`bench.traced_serve` instead of ``repro serve``.
    """

    def __init__(self, root: Path, run_dir: Path, traced: bool = False) -> None:
        self.root = root
        self.run_dir = run_dir
        self.traced = traced
        self.spans_path = run_dir / "spans.json"
        self.port = 0
        self._process: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> None:
        """Spawn the server and wait until ``/healthz`` answers."""
        port_file = self.run_dir / "port"
        port_file.unlink(missing_ok=True)
        serve = [
            "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--spool-dir", str(self.run_dir / "spool"),
        ]
        if self.traced:
            command = [sys.executable, str(self.root / "bench" / "traced_serve.py"),
                       str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(self.root / "src"), str(self.root)]),
            PYTHONDONTWRITEBYTECODE="1",
            TMPDIR=str(self.run_dir),
        )
        self._log = open(self.run_dir / "server.log", "ab")
        self._process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=self._log, stderr=self._log,
        )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self._process.poll() is not None:
                raise BenchError(f"server exited with {self._process.returncode} "
                                 f"while starting:\n{self.log_tail()}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                connection = Connection(self.port)
                try:
                    if connection.call("GET", "/healthz").ok:
                        return
                finally:
                    connection.close()
            time.sleep(0.005)
        raise BenchError(f"server did not start within {START_TIMEOUT_S:.0f} s")

    def stop(self, graceful: bool = True) -> None:
        """Stop the server and wait for it to exit.

        Graceful stops send SIGTERM, on which the server checkpoints every
        session and returns from ``serve``; otherwise it is killed.
        """
        process, self._process = self._process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise BenchError("server ignored SIGTERM; killed") from None
        if self._log is not None:
            self._log.close()
            self._log = None

    def log_tail(self, lines: int = 30) -> str:
        path = self.run_dir / "server.log"
        if not path.exists():
            return ""
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])

    def _tree(self) -> List[int]:
        """The server's pid and its descendants' (shard workers, if any)."""
        pids, index = [self._process.pid], 0
        while index < len(pids):
            task_dir = Path(f"/proc/{pids[index]}/task")
            index += 1
            for task in task_dir.glob("*/children") if task_dir.exists() else ():
                pids.extend(int(pid) for pid in task.read_text().split())
        return pids

    def cpu_seconds(self) -> float:
        """CPU time of the server process tree so far."""
        total = 0.0
        for pid in self._tree():
            try:
                total += time.clock_gettime(_process_cpu_clock(pid))
            except OSError:
                continue  # exited since it was listed
        return total

    def peak_rss_mb(self) -> float:
        """Sum of peak resident set sizes (VmHWM) over the process tree."""
        total_kb = 0
        for pid in self._tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except FileNotFoundError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0


class Connection:
    """One persistent HTTP/1.1 connection that times each request.

    Args:
        port: The server's port on localhost.
        ids: Request-id source shared by every connection of one run, so
            ids stay unique across client threads.
    """

    def __init__(self, port: int, ids: Optional[Iterator[int]] = None) -> None:
        self.port = port
        self._ids = ids if ids is not None else itertools.count(1)
        self._http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def close(self) -> None:
        self._http.close()

    def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        kind: str = "setup",
        due: Optional[float] = None,
        ready: Optional[float] = None,
    ) -> Request:
        """Send one request and read the whole response.

        ``due`` defaults to the send time and ``ready`` to ``due`` (see
        :class:`Request`).  A transport error or timeout is returned as
        status 0; the connection is reopened for the next request.
        """
        request_id = next(self._ids)
        headers = {REQUEST_ID_HEADER: str(request_id)}
        if body is not None:
            headers["Content-Type"] = "application/json"
        sent = time.perf_counter()
        try:
            self._http.request(method, path, body=body, headers=headers)
            response = self._http.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self._http.close()
            raw, status = b"", 0
        done = time.perf_counter()
        if status >= 400:
            # The server closes the connection after an error response.
            self._http.close()
        due = sent if due is None else due
        return Request(
            id=request_id,
            kind=kind,
            ready=due if ready is None else ready,
            due=due,
            sent=sent,
            done=done,
            status=status,
            size=len(raw),
            body=raw,
        )
