"""A ``repro serve`` subprocess and a lean keep-alive HTTP client for it.

The client speaks just enough HTTP/1.1 for the service's JSON wire: it
writes pre-encoded requests on one persistent socket and reads one
``Content-Length`` framed reply at a time.  Keeping the load generator
thin matters on a small host, where its own CPU competes with the
server's.  It polls for the reply instead of sleeping in ``recv``, so
its own core never idles and a round trip carries no wake-up of the
client (on a virtual machine an idle core halts, and waking it again
takes as long as the host pleases).
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

_BANNER = re.compile(r"on http://[^:]+:(\d+) ")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: A reply that has not started arriving after this long is a hung server.
STALL_S = 60.0


def repro_command(repo_root: str, args: Sequence[str]) -> Tuple[List[str], Dict[str, str]]:
    """Argv and environment that run ``python -m repro <args>`` from source."""
    env = dict(os.environ)
    src = os.path.join(repo_root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return [sys.executable, "-m", "repro", *args], env


def repro_server(repo_root: str, snapshot_dir: str, log_path: str,
                 cpus: FrozenSet[int]) -> "ServerProcess":
    """``repro serve`` over ``snapshot_dir`` on an ephemeral port."""
    argv, env = repro_command(
        repo_root, ["serve", "--snapshot-dir", snapshot_dir, "--port", "0"]
    )
    return ServerProcess(argv, env, repo_root, log_path, cpus)


def split_cores() -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """``(client CPUs, server CPUs)`` out of the CPUs this process may use:
    one core each when there are two or more, so the load generator and
    the server never share one.  Call it once, before pinning anything."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return frozenset(cpus), frozenset(cpus)
    return frozenset(cpus[:1]), frozenset(cpus[1:])


def pinned_to(cpus: FrozenSet[int]) -> Callable[[], None]:
    """A ``preexec_fn`` that pins the child to ``cpus`` before it starts."""
    return lambda: os.sched_setaffinity(0, cpus)


class ServerProcess:
    """A server subprocess (``argv``, run from ``cwd``) that prints
    ``on http://host:port`` as its first line, pinned to ``cpus`` and
    stopped with SIGINT."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: str,
                 log_path: str, cpus: FrozenSet[int]):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=self._log, cwd=cwd,
            preexec_fn=pinned_to(cpus),
        )
        #: The CPUs the server process actually runs on.
        self.cpus = frozenset(os.sched_getaffinity(self.proc.pid))
        if self.cpus != cpus:
            self.stop()
            raise RuntimeError("server pinned to %s, not %s" % (sorted(self.cpus), sorted(cpus)))
        banner = self.proc.stdout.readline().decode("utf-8", "replace")
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError("%s did not start: %r (see %s)" % (argv[-1], banner, log_path))
        self.port = int(match.group(1))

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3 of proc(5)); utime/stime are 14/15.
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def encode_post(path: str, payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        "Content-Length: %d\r\n\r\n" % (path, len(body))
    )
    return head.encode("ascii") + body


GET_METRICS = b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
GET_SYNOPSES = b"GET /synopses HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"


class Connection:
    """One keep-alive connection; :meth:`call` returns ``(status, body)``.

    ``wait_ns`` sums the time spent polling for replies, which is wall
    time the client spends waiting although its CPU clock runs.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.wait_ns = 0

    def _poll(self) -> bytes:
        """The next bytes from the server, polled for without sleeping."""
        recv, perf_ns = self.sock.recv, time.perf_counter_ns
        started = perf_ns()
        stall = started + int(STALL_S * 1e9)
        while True:
            try:
                chunk = recv(65536, socket.MSG_DONTWAIT)
                break
            except BlockingIOError:
                if perf_ns() > stall:
                    raise TimeoutError("no reply for %.0f s" % STALL_S) from None
        self.wait_ns += perf_ns() - started
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def call(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            buffer += self._poll()
        head = buffer[:end].decode("latin-1")
        status = int(head[9:12])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        start = end + 4
        while len(buffer) < start + length:
            buffer += self._poll()
        self._buffer = buffer[start + length:]
        return status, buffer[start:start + length]

    def call_json(self, request: bytes) -> Tuple[int, Optional[Dict[str, Any]]]:
        status, body = self.call(request)
        try:
            return status, json.loads(body)
        except ValueError:
            return status, None

    def close(self) -> None:
        self.sock.close()
