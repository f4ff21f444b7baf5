"""How fast the CPU runs, sampled while the workload runs.

On the 2-vCPU Xeon virtual machine this benchmark was tuned on, the host
switches the guest between two speeds every few seconds: in the slow one the
same code takes about 1.65 times as long, with no steal time reported.  A run
of 30 s mixes the two in a share that differs from run to run, so its wall
time spread by 20-30% of the median over ten runs.

``SpeedMeter`` samples the speed from inside the measured process.  A timer
signal interrupts the workload every ``INTERVAL_S`` seconds and runs a fixed
reference loop ``CHUNKS`` times, keeping the fastest: an interrupt or a
preemption that lands in one short loop would otherwise count as a long
stretch of slow machine.  The loop makes small numpy calls that gather
random entries of a 16 MiB table, larger than a core's L2 cache, so that it
slows down with the shared L3 cache and memory, as the library does.  Of the
loops tried on that machine (dict and list traffic, small-array numpy
indexing, gathers from 4, 16 and 64 MiB), this one followed the library
best: over eight minutes of repeated tasks, the spread of a task's cost was
0.016-0.058 of its median, against 0.08-0.19 for its seconds.
The time between two samples counts at the speed the later one measured,
which gives the workload's cost in *reference loops*: the seconds it took,
divided by how long one reference loop took at that moment.  That cost stays
the same when the machine changes speed and falls when the library gets
faster.  The meter's own time is left out of every cost.

Signals are handled between bytecodes, so a sample may come late during a
long C call; the interval it closes is then longer, and still counted at its
speed.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.02
CHUNKS = 3
_TABLE = np.random.RandomState(2).randint(0, 1 << 30, size=1 << 22, dtype=np.int32)
_ROWS = np.random.RandomState(3).randint(0, 1 << 22, size=(20, 256))
# resident for the whole run; left out of the peak memory reported
TABLE_BYTES = _TABLE.nbytes + _ROWS.nbytes


def reference_loop():
    total = 0
    for row in _ROWS:
        total += int(_TABLE[row].sum())
    return total


class SpeedMeter:
    def __init__(self):
        self.starts = array("d")    # when each sample started
        self.ends = array("d")      # and ended
        self.lengths = array("d")   # its fastest reference loop
        self.cum = array("d", [0.0])  # reference loops of work up to each sample
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        fastest = float("inf")
        for _ in range(CHUNKS):
            t0 = time.perf_counter()
            reference_loop()
            fastest = min(fastest, time.perf_counter() - t0)
        end = time.perf_counter()
        gap = start - self.ends[-1] if self.ends else 0.0
        self.cum.append(self.cum[-1] + max(0.0, gap) / fastest)
        self.starts.append(start)
        self.ends.append(end)
        self.lengths.append(fastest)

    def start(self):
        # a first sample anchors the timeline before any task starts
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        # a last sample closes the timeline after the last task
        self._sample(None, None)

    def _work_until(self, t):
        """Reference loops of work done from the first sample to time ``t``."""
        ends, lengths = self.ends, self.lengths
        q = bisect.bisect_left(ends, t)
        if q == 0:
            return 0.0
        if q == len(ends):  # after the last sample: at its speed
            return self.cum[q] + (t - ends[-1]) / lengths[-1]
        return self.cum[q] + max(0.0, min(t, self.starts[q]) - ends[q - 1]) / lengths[q]

    def cost(self, t0, t1):
        """The work done between two perf_counter readings, in reference loops."""
        return self._work_until(t1) - self._work_until(t0)

    def samples(self):
        return len(self.lengths)
