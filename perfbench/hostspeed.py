"""How fast the server's core runs at the moment, measured between requests.

On a shared host a core's speed changes by a third and more within
seconds, as other tenants load the machine; a run's raw median then
depends on how much of the run fell into a slow period, and runs of the
same code disagree by more than any bound worth keeping.  So the
benchmark times a fixed reference next to the program: a standard
library JSON-over-HTTP echo server (:mod:`refserver`) pinned to the
server's CPUs.  Every ``WINDOW_S`` seconds, between two estimates, the
client sends it ``PROBES`` requests on its own keep-alive connection; their
median round trip, over the sample and its ``HALF_WINDOW`` neighbours
on each side, is the window's reference time.  A timing measured in the
window is reported scaled by ``REFERENCE_US / reference time``: the time
it would take on a host where the echo round trip takes
``REFERENCE_US``.  A slower program stays slower by the same factor; a
slower host does not.

A host can also take a core away for milliseconds at a time (a
hypervisor's steal time).  That shows in the tail of a run, not in the
reference's median, so each sample also reads the stolen time of the
client's and the server's CPUs from ``/proc/stat``; a window in which
it grew is not :meth:`HostSpeed.clean`, and the benchmark leaves its
round trips out of the timings (they are still checked).

The reference server is part of the benchmark, not of the program, so
no change to the program moves it.  It runs with a fixed hash seed, so
its speed does not depend on the process either.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import FrozenSet, List, Optional

from serving import Connection, ServerProcess, encode_post

#: Seconds between two samples: one window.  Windows have one length,
#: not one request count, so that leaving out the windows with stolen
#: time does not favour windows of fast requests.
WINDOW_S = 0.1
#: Echo round trips per sample; the first is not counted.
PROBES = 16
#: Samples on each side of a window whose median sets its factor.
HALF_WINDOW = 1
#: Nominal echo round trip: roughly its median over many runs on a
#: 2-vCPU KVM guest (2000 MHz Xeon, Python 3.11), so that scaled figures
#: read close to raw ones there.
REFERENCE_US = 175.0

HERE = os.path.dirname(os.path.abspath(__file__))
_REQUEST = encode_post("/estimate", {"synopsis": "DBLP", "query": "//article[author]/title"})


class HostSpeed:
    """The reference server and its samples.

    ``samples`` holds each sample's median echo round trip in µs,
    ``server_cpu_s`` the CPU time of the program's server and ``steal``
    the watched CPUs' stolen clock ticks, both read at the same moment.  :meth:`close` stops the reference server.
    """

    def __init__(self, client_cpus: FrozenSet[int], server_cpus: FrozenSet[int],
                 log_path: str):
        self._cpu_names = {"cpu%d" % cpu for cpu in client_cpus | server_cpus}
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.server = ServerProcess(
            [sys.executable, os.path.join(HERE, "refserver.py")], env, HERE,
            log_path, server_cpus,
        )
        try:
            self.conn = Connection(self.server.port)
        except BaseException:
            self.server.stop()
            raise
        self.samples: List[float] = []
        self.server_cpu_s: List[float] = []
        self.steal: List[int] = []
        #: Client CPU time spent sampling, polling included.
        self.cpu_ns = 0

    def sample(self, server=None) -> int:
        """Time ``PROBES`` echo round trips; the sample's index, which
        names the window of requests that follows it.  ``server`` is
        the program's server, whose CPU time is read as well."""
        entered = time.thread_time_ns()
        perf_ns = time.perf_counter_ns
        call = self.conn.call
        rtts = []
        for _ in range(PROBES):
            started = perf_ns()
            status, _ = call(_REQUEST)
            rtts.append(perf_ns() - started)
            if status != 200:
                raise RuntimeError("reference server answered %d" % status)
        self.samples.append(statistics.median(rtts[1:]) / 1e3)
        self.server_cpu_s.append(server.cpu_seconds() if server is not None else 0.0)
        self.steal.append(self._steal_ticks())
        self.cpu_ns += time.thread_time_ns() - entered
        return len(self.samples) - 1

    def _steal_ticks(self) -> int:
        """Stolen time of the watched CPUs so far, in clock ticks."""
        total = 0
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] in self._cpu_names and len(fields) > 8:
                    total += int(fields[8])
        return total

    def clean(self, index: int) -> bool:
        """Whether no time was stolen between sample ``index`` and the next."""
        return self.steal[index + 1] == self.steal[index]

    def factor(self, index: int, first: int = 0, last: Optional[int] = None) -> float:
        """``REFERENCE_US`` over the median of the samples around
        ``index``, within the samples ``first`` to ``last``."""
        last = len(self.samples) - 1 if last is None else last
        lo = max(first, index - HALF_WINDOW)
        hi = min(last, index + HALF_WINDOW)
        return REFERENCE_US / statistics.median(self.samples[lo:hi + 1])

    def close(self) -> None:
        self.conn.close()
        self.server.stop()
