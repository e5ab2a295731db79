"""A fixed reference computation that measures the host's current speed.

The host this benchmark was built on is a shared 2-CPU machine whose
speed wanders with its neighbours' load, by up to a factor of two
within minutes.  Raw times therefore measure the neighbours as much as
the engine.

The reference is this module's own sparse-polynomial product (plain
dicts of exponent tuples, like the engine's Laurent layer, but no
engine code).  `Segment` times one CLI call and rescales its wall and
CPU seconds to a host on which the product takes exactly `REFERENCE_S`
seconds.  The host speed is taken before and after the call and, from
a timer signal, every `INTERVAL` seconds during it; the time spent in
those samples is taken out of the call's time.  Traced runs skip the
timer, so that no sample lands inside a traced span.
"""

import random
import signal
import statistics
import time

REFERENCE_S = 0.04
INTERVAL = 1.0
EDGE_SAMPLES = 3

# A 3 000-term polynomial times a 6-term one: the product has about
# 18 000 terms, a few MB of dict and tuples.  A product small
# enough to stay in the first-level caches tracked the engine's slowdowns
# worse (see README.md).
_rng = random.Random(20260218)
_A = {tuple(_rng.randint(-9, 9) for _ in range(8)): _rng.randint(1, 99)
      for _ in range(3000)}
_B = {tuple(_rng.randint(-4, 4) for _ in range(8)): _rng.randint(1, 99)
      for _ in range(6)}


def _product():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            total = out.get(key, 0) + ca * cb
            if total:
                out[key] = total
            else:
                del out[key]
    return len(out)


def _product_seconds():
    start = time.perf_counter()
    _product()
    return time.perf_counter() - start


def edge_speed():
    """Median seconds of a few reference products, taken now."""
    return statistics.median(_product_seconds() for _ in range(EDGE_SAMPLES))


class Segment:
    """Times the enclosed code; afterwards `wall` and `cpu` hold its
    rescaled seconds and `raw` its measured wall seconds."""

    def __init__(self, cpu_clock, sample=True):
        self._cpu_clock = cpu_clock
        self._interval = INTERVAL if sample else 0

    def _tick(self, signum, frame):
        wall0 = time.perf_counter()
        cpu0 = self._cpu_clock()
        self._samples.append(_product_seconds())
        self._paused_wall += time.perf_counter() - wall0
        self._paused_cpu += self._cpu_clock() - cpu0

    def __enter__(self):
        self._samples = [edge_speed()]
        self._paused_wall = self._paused_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        self._cpu0 = self._cpu_clock()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._wall0
        cpu = self._cpu_clock() - self._cpu0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._samples.append(edge_speed())
        factor = REFERENCE_S / statistics.mean(self._samples)
        self.raw = wall - self._paused_wall
        self.wall = self.raw * factor
        self.cpu = (cpu - self._paused_cpu) * factor
        return False
