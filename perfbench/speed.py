"""Times at a reference machine speed.

On a machine shared with other tenants, such as the 2-vCPU virtual
machine of the recorded baseline, the same pure-Python work takes up to
twice as long in some minutes as in others, and the slow spells last
longer than a run.  So every time the benchmark reports
is scaled by the speed measured beside it.  While a pass runs, a SIGALRM
timer runs a small fixed kernel of dict, sort and string work every
INTERVAL_S seconds and records how long it took.  A measured interval is
then scaled by REFERENCE_S / (mean kernel time within WINDOW_S of it, its
slowest and fastest tenth left out), after the probe's own samples inside
it are taken out.  REFERENCE_S is only a unit: on a machine where the
kernel takes exactly REFERENCE_S, reported times equal wall-clock times.
"""

import bisect
import gc
import signal
import time

REFERENCE_S = 0.001
INTERVAL_S = 0.05
WINDOW_S = 0.5  # each side of an interval
EDGE_SAMPLES = 10


def kernel() -> int:
    """About 0.8 ms of dict building, sorting with a key and string work
    on ints and strings, which the garbage collector does not track.  The
    collector is paused while it runs, so it never collects inside a
    sample, and the few tracked objects it makes barely move when the
    pass's own collections run."""
    paused = gc.isenabled()
    gc.disable()
    try:
        table = {}
        for i in range(2000):
            table[i * 7919 % 100003] = i * i + 1000
        total = 0
        for key in sorted(table, key=table.__getitem__):
            total += table[key]
        return total + len("-".join(map(str, range(300))))
    finally:
        if paused:
            gc.enable()


class Probe:
    """Kernel samples (start, seconds) taken while a pass runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def edge(self) -> None:
        """Samples taken back to back, at the start and end of a pass."""
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def __enter__(self) -> "Probe":
        kernel()  # warm up
        self.edge()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.edge()

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would take at the reference speed, without
        the kernel samples that ran inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.seconds[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = sorted(self.seconds[lo:hi] or self.seconds)
        cut = len(window) // 10  # a stray slow or fast sample moves nothing
        kept = window[cut:len(window) - cut]
        return busy * REFERENCE_S * len(kept) / sum(kept)
