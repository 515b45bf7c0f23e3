"""How fast the host runs right now, read from a fixed piece of work.

On a shared host the same code runs up to 1.6 times slower at some
moments than at others.  The slow spells come and go many times a
second, and how many a run meets changes from run to run and from
minute to minute.  Best-of and medians over a run do not remove that:
a run that meets more slow spells reads slower throughout.

So a child interpreter runs a Gauge while it works: every PERIOD_S a
timer signal interrupts it and times `work()`, a fixed piece of pure
Python.  The time the readings take is subtracted from the op they
interrupted, and each op's time is scaled by REFERENCE_S over the
median of the readings taken during it and the nearest one on either
side.  A scaled time reads as the op would take on a host that runs
`work()` in REFERENCE_S.  Unscaled times are kept in the run record.
On 100 s recordings of three centext calls (a cold
compute_cocycle_space, upper_isomorphic and lower_isomorphic), the
spread (IQR over median) of their times over 2 s stretches fell from
0.10-0.39 unscaled to 0.01-0.05 scaled.  Wider windows of readings, or
their mean, tracked the spells less well.

`work()` is the kind of code centext runs: small-integer arithmetic,
dict updates, multiplication tables held as lists of lists, and
permutations as tuples.  It calls nothing of centext, so no change to
the program can move a reading.
"""

import bisect
import random
import signal
import statistics
import time

# about the median reading of work() on a 2-vCPU shared x86-64 VM under
# CPython 3.11.  It only fixes the scale in which scaled times are read.
REFERENCE_S = 0.0016
PERIOD_S = 0.05

_N = 16
_TABLE = [[(i * j + i + 3 * j) % _N for j in range(_N)] for i in range(_N)]
_M = 48
_BIG_TABLE = [[(i * j + i + 3 * j) % _M for j in range(_M)] for i in range(_M)]
_PERMS = [tuple(random.Random(p).sample(range(12), 12)) for p in range(21)]


def work():
    """Three kinds of work in about equal time.  Each alone follows the
    slow spells of some centext calls better than of others; together
    they follow all that were tried."""
    acc, counts = 0, {}
    for i in range(2000):                   # small-int arithmetic, dict
        acc += i * i % 7
        counts[i % 500] = acc
    for r in range(2):                      # a small table
        for i in range(_N):
            row = _TABLE[i]
            for j in range(_N):
                k = row[j]
                acc = (acc * 31 + _TABLE[k][i] + r) % 1000003
    seen = {}
    for a in _PERMS:                        # permutations as tuples
        for b in _PERMS:
            c = tuple([a[i] for i in b])
            seen[c] = seen.get(c, 0) + 1
    pairs = {}
    for i in range(0, _M, 2):               # a larger table, tuple keys
        row = _BIG_TABLE[i]
        for j in range(_M):
            k = row[j]
            key = (k, _BIG_TABLE[k][i])
            pairs[key] = pairs.get(key, 0) + 1
    return acc, len(seen), len(pairs)


class Gauge:
    """Readings of work() taken on a timer while the process runs."""

    def __init__(self):
        self.times = []         # midpoint of each reading
        self.readings = []      # seconds work() took
        self.stolen = 0.0       # seconds spent reading so far

    def start(self):
        self._read()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._read()

    def _tick(self, signum, frame):
        self._read()

    def _read(self):
        start = time.perf_counter()
        work()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.readings.append(end - start)
        self.stolen += end - start

    def scale(self, start, end):
        """REFERENCE_S over the median of the readings taken between
        start and end and the nearest one on either side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return REFERENCE_S / statistics.median(self.readings[lo:hi])
