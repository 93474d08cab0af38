"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the CPU time of the same code moves between
states up to 1.7x apart, from a fraction of a second to many seconds at a
time, as other work lands on the same physical core.  The benchmark runs
this loop right before and after each timed op, and every PERIOD_S during
it from a second thread, and scales the op's CPU time by REF_MS over the
loop's mean time.  So times read as on a machine where the loop takes
REF_MS milliseconds, and a change to the program moves them while the
machine's state does not.
"""

import threading
import time

# The loop's CPU time in the fast state of the 2-core x86-64 VM (Python 3.11)
# on which the baseline was measured.
REF_MS = 2.5
# How often the meter thread runs the loop; each run takes the GIL for about
# REF_MS, but the op's thread is not charged CPU time while it waits.
PERIOD_S = 0.05


def reference_ms():
    """CPU milliseconds of a fixed loop of dict, list and integer work, the
    kind of work the program does."""
    table, items, total = {}, [], 0
    start = time.thread_time_ns()
    for i in range(15000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
        items.append(i)
    return (time.thread_time_ns() - start) / 1e6


def scale(reference_runs_ms):
    """Factor that turns CPU time measured beside these loop runs into time
    on the reference machine."""
    return REF_MS * len(reference_runs_ms) / sum(reference_runs_ms)


class Meter:
    """Runs the reference loop every PERIOD_S in a daemon thread, so that an
    op of seconds is scaled by the speed over its whole length.  The thread
    must share the op's CPU: pin the process to one CPU before entering."""

    def __init__(self):
        self.runs = []  # reference_ms() results, appended by the thread
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-meter", daemon=True)

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self.runs.append(reference_ms())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
