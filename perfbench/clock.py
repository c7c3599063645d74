"""Timing that is steady while the host's speed drifts.

On a shared host the same code can run up to twice as slow for seconds or
minutes at a time, and its CPU time slows with it (wall time slows further,
by the time the hypervisor takes the CPU away).  A `Clock` therefore reads
CPU time and samples the host's speed while the benchmark runs: an interval
timer interrupts the process every TICK_S of wall time, and the handler
times a fixed probe of pure-Python work.  A host speed of 1 means one probe
takes PROBE_REF_S.

Code does not slow down exactly as much as the probe does.  Its
`sensitivity` is the slope of log CPU time against log host speed over
runs of the same work: 1 for the tight interpreter loops the probe is made
of, less for code that waits on memory.  An interval of c CPU seconds at
speed s is c * s**sensitivity reference seconds: roughly the time the work
takes on a host on which the probe takes PROBE_REF_S.  The benchmark
reports reference seconds, so a slow spell on the host moves the probe and
the measured code together and leaves the figure where it was, while a
change that makes circorder slower moves only the measured code.  The
handler's own time is taken out of every interval.

The same timer enforces the per-operation deadline, counted in reference
seconds, so that whether an operation times out does not depend on the
host's speed either.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import process_time

TICK_S = 0.05
# probe time at host speed 1: its median on the 2-vCPU Xeon VM the
# benchmark was written on
PROBE_REF_S = 0.0007
PROBE_ROUNDS = 1000
# a timing shorter than this reads the speed of the probes around it
WINDOW_S = 0.5


def probe() -> int:
    """Fixed work in the interpreter's common operations: integer
    arithmetic, list and dict traffic, and calls."""
    table = {}
    acc = []
    x = 1
    for i in range(PROBE_ROUNDS):
        x = (x * 1103515245 + 12345) % 2147483648
        table[x & 255] = i
        acc.append(table.get(i & 255, 0) + len(acc))
    return sum(acc)


class OpTimeout(Exception):
    pass


class Clock:
    """Samples host speed while started; `now()` excludes the sampling."""

    def __init__(self):
        self.stolen = 0.0      # raw seconds spent in the handler
        self.times = []        # now() at each tick
        self.speeds = []       # host speed at each tick
        self.limit = None      # deadline of the running operation, reference s
        self.sensitivity = 1.0
        self.spent = 0.0       # reference seconds used by the running operation
        self.last = 0.0
        self._previous = None

    def now(self) -> float:
        return process_time() - self.stolen

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame):
        entered = process_time()
        probe()
        took = process_time() - entered
        at = entered - self.stolen
        speed = PROBE_REF_S / max(took, 1e-6)
        self.times.append(at)
        self.speeds.append(speed)
        self.stolen += process_time() - entered
        if self.limit is not None:
            self.spent += (at - self.last) * speed ** self.sensitivity
            self.last = at
            if self.spent > self.limit:
                self.limit = None
                raise OpTimeout

    def arm(self, limit: float, sensitivity: float) -> None:
        """Raise OpTimeout in the running code once it has used `limit`
        reference seconds."""
        self.spent = 0.0
        self.last = self.now()
        self.sensitivity = sensitivity
        self.limit = limit

    def disarm(self) -> None:
        self.limit = None

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1] (now() readings), widened to
        WINDOW_S for short intervals; over every tick when none fell inside."""
        if not self.speeds:
            raise RuntimeError("the clock has not sampled the host speed yet")
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        lo = bisect_left(self.times, t0 - pad)
        hi = bisect_right(self.times, t1 + pad)
        return statistics.fmean(self.speeds[lo:hi] if hi > lo else self.speeds)

    def reference(self, t0: float, t1: float, sensitivity: float) -> float:
        """The interval [t0, t1] in reference seconds."""
        return (t1 - t0) * self.speed(t0, t1) ** sensitivity
