"""Host-speed compensation.

The hosts this benchmark runs on (2-vCPU microVMs) change speed by
25-40% for seconds to minutes at a time — a neighbour on the same
physical core comes and goes.  A 12 s window mostly sits inside one
phase, so raw medians of identical runs differ by 12-25% and no 10%
regression bound could ever be resolved: in the first ten-seed sweep of
this suite every ``oltp_point`` metric had a 14-17% spread, all of them
moving together.

So the benchmark times, every ``INTERVAL`` seconds between statements, a
fixed pure-Python kernel that shares no code with the engine, and
reports every duration at the speed at which that kernel takes
``REFERENCE_MS``: a duration is multiplied by ``REFERENCE_MS / kernel``
for the stretch of the run it covers.  The kernel does not change when
the engine does, so a real regression moves the compensated number by
its full size.  The same sweep compensated: ``oltp_point`` 1-3%, the
other workloads 3-10% (README, "Host-speed compensation").  The raw
medians and the host-speed factor are printed beside the compensated
ones.

``REFERENCE_MS`` is the kernel's time, to within a few percent, on the
undisturbed host the benchmark was defined on (Xeon 2.1 GHz Firecracker
microVM, CPython 3.11): there, compensated milliseconds are wall
milliseconds of a quiet host.  Elsewhere they differ by one constant
factor, the same for every commit measured.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_right
from time import perf_counter
from typing import List

REFERENCE_MS = 1.0
#: Seconds between kernel samples while statements are running.
INTERVAL = 0.15
#: The sample is the fastest of this many back-to-back kernel runs: an
#: interrupt or a GIL hand-over lengthens one of them, not all.
REPEATS = 3


#: The kernel's memory half reads records out of this buffer: 8 MB, past
#: the 4 MB L2, because a neighbour slows memory-bound work (scans, hash
#: joins) more than work that lives in L1.  It is raw bytes, not Python
#: objects, on purpose: reading an object writes its reference count,
#: and after every fork() of the engine's worker pools that write is a
#: copy-on-write page fault — a cost of the system under test, which
#: the kernel must not feel, or it would be compensated away.
_BUFFER = bytes(range(256)) * (8 * 4096)
_RECORD = struct.Struct("<iid")
_STRIDE = 4096 + 64
_READS = 2100
_cursor = [0]


def kernel() -> int:
    """Half interpreter work — dictionary stores, membership tests,
    integer arithmetic in a tight loop — and half record decoding at
    page-sized strides through a buffer larger than the cache: the two
    things the engine's time is made of."""
    table = {}
    total = 0
    for i in range(7300):
        table[i & 1023] = i
        if (i & 511) in table:
            total += table[i & 511]
    unpack = _RECORD.unpack_from
    offset = _cursor[0]
    limit = len(_BUFFER) - _RECORD.size
    for _ in range(_READS):
        first, _second, _third = unpack(_BUFFER, offset)
        total += first & 1
        offset += _STRIDE
        if offset > limit:
            offset -= limit
    _cursor[0] = offset
    return total


class Calibration:
    """The kernel's time along one run, and durations scaled by it."""

    def __init__(self):
        self.times: List[float] = []
        self.kernel_ms: List[float] = []
        self._lock = threading.Lock()
        self._due = 0.0

    def sample(self) -> None:
        """Time the kernel now (callers serialize through _lock or are
        the only thread)."""
        best = None
        for _ in range(REPEATS):
            began = perf_counter()
            kernel()
            took = perf_counter() - began
            if best is None or took < best:
                best = took
        now = perf_counter()
        self.times.append(now)
        self.kernel_ms.append(best * 1e3)
        self._due = now + INTERVAL

    def maybe_sample(self, now: float) -> None:
        """Sample if INTERVAL has passed; with several client threads,
        whichever notices first takes it and the others move on."""
        if now >= self._due and self._lock.acquire(blocking=False):
            try:
                if now >= self._due:
                    self.sample()
            finally:
                self._lock.release()

    def _kernel_between(self, index: int) -> float:
        """Kernel time for the stretch between sample index-1 and
        index (clamped at the ends of the run)."""
        last = len(self.kernel_ms) - 1
        low = self.kernel_ms[min(max(index - 1, 0), last)]
        high = self.kernel_ms[min(max(index, 0), last)]
        return (low + high) / 2.0

    def scaled(self, start: float, end: float) -> float:
        """The duration [start, end] at reference host speed."""
        if not self.times:
            return end - start
        total = 0.0
        index = bisect_right(self.times, start)
        at = start
        while at < end:
            upto = self.times[index] if index < len(self.times) else end
            upto = min(upto, end)
            total += (upto - at) * REFERENCE_MS / self._kernel_between(index)
            at = upto
            index += 1
        return total

    def speed(self) -> float:
        """Median host speed over the run relative to the reference
        (above 1: faster than the reference host)."""
        ordered = sorted(self.kernel_ms)
        return REFERENCE_MS / ordered[len(ordered) // 2]
