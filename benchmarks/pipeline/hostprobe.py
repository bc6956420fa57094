"""Host-speed probe: a fixed pure-Python kernel sampled on a timer.

The sandbox this benchmark is gated on shares its cores: the same
code runs 1.0x to 1.9x slower from one ten-second window to the next,
CPU time included.  No bound a regression gate could use survives
that, so every *time* metric the gate reads is expressed at reference
host speed: raw time x REFERENCE_MS / (median kernel time observed
during the same phase).  README.md has the measured spreads with and
without.  Raw times are always printed beside the normalised ones.

The kernel runs inside a SIGALRM handler, i.e. on the main thread
between two bytecodes of the program under test, so it samples the
host *during* long ops (a 7 s discover) as well as between short ones:
the host changes speed every second or two, and samples taken only
between 7 s ops would miss it.  Its own time is known exactly and is
subtracted from every op clock.  A sample must be milliseconds long: a
0.2 ms kernel measured how cold the caches were after the interrupt,
not how fast the host was.

The probe must not be moved by the program it interrupts, or a
regression could hide in the normalisation.  So the collector is off
while the kernel runs (its ~6k short-lived objects never start a
collection over the program's heap; all are freed before the handler
returns, which leaves the collector's allocation count within a few
dozen of where it was), and the handler touches nothing but the
probe's own lists.  Measured: the kernel takes the same time beside a
2M-object heap as beside an empty one, and 3 % longer after a 64 MB
sweep of the caches than straight after itself -- and in a run it
always starts cold.
"""

import gc
import signal
import statistics
import time

#: A round number near the kernel's median on the reference sandbox
#: (2 vCPU Xeon @ 2.1 GHz: 3.7 ms over the 120 baseline runs).  Only a
#: scale: on a host where the kernel takes this long, normalised and
#: raw times are equal.
REFERENCE_MS = 3.5

#: Samples per second.  With a ~4 ms kernel that is ~4 % of the run.
SAMPLE_HZ = 10.0


class _Cell:
    __slots__ = ("key", "pair")


def kernel(acc: int = 1) -> int:
    """Fixed work: integer arithmetic with a small dict, then object
    allocation, attribute access, tuples and a sort — the mix the
    simulator and the solver spend their time in."""
    table = {}
    for i in range(12000):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    cells = []
    for i in range(3000):
        cell = _Cell()
        cell.key = i
        cell.pair = (i, acc)
        cells.append((cell.key, cell.pair[0], table.get(i & 1023, 0)))
    cells.sort(key=lambda item: -item[0])
    return acc + len(cells)


class HostProbe:
    """Samples :func:`kernel` at :data:`SAMPLE_HZ` from a timer signal.

    ``busy_s`` is the total time spent in the handler so far; callers
    read it before and after an interval to take the probe's own time
    out of their clock.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)
        self.busy_s += end - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / SAMPLE_HZ, 1.0 / SAMPLE_HZ)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def samples(self, since: float, until: float):
        """``(start, end)`` of the samples started in ``[since, until]``."""
        return [
            (s, s + d) for s, d in zip(self.starts, self.durations)
            if since <= s <= until
        ]

    def median_ms(self, since: float, until: float) -> float:
        """Median kernel time (ms) of the samples started in
        ``[since, until]``; takes one sample on the spot if the
        interval was too short to hold any."""
        inside = [
            d for s, d in zip(self.starts, self.durations) if since <= s <= until
        ]
        if not inside:
            self._sample()
            inside = [self.durations[-1]]
        return statistics.median(inside) * 1000.0

    def slowdown(self, since: float, until: float) -> float:
        """How much slower than the reference the host ran in the
        interval (1.0 = reference speed)."""
        return self.median_ms(since, until) / REFERENCE_MS
