"""Host speed, sampled while a pass runs, so that times can be scaled to
a fixed reference speed.

On a shared host the vCPUs change speed by up to 2x within seconds, as
other guests come and go, and the two vCPUs of one guest do not change
together.  Wall time alone therefore cannot tell a slower program from
a slower host.  A ``Sampler`` interrupts its own process every
INTERVAL_S of wall time (SIGALRM) and times one fixed chunk of the kind
of work galbim does: Fraction arithmetic, then a few products of
thousand-digit integers.  Fraction arithmetic alone follows the speed
of the coaction and radical workloads closely, but swings further than
factorization over Q does; the integer products swing less than any
workload, and a few of them bring numfield into line.  REF_CHUNK_S over
a chunk's time is the host's speed at that moment relative to the
reference host; since the samples are spread evenly over wall time,
their mean is the host's mean speed over an interval.  ``scaled`` turns
the wall time of an interval, less the time spent sampling, into
seconds at reference speed: the time the same work takes on the
reference host.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
# median time of chunk() on the reference host: a 2-vCPU Intel Xeon VM,
# Python 3.11.7
REF_CHUNK_S = 0.65e-3
_TERMS = tuple(Fraction(i, i + 3) for i in range(1, 41))
_BIG_X, _BIG_Y = 3 ** 1500, 7 ** 1400


def chunk():
    acc = Fraction(0)
    for _ in range(2):
        for a in _TERMS:
            acc = acc * a + a
            acc = acc.limit_denominator(10 ** 6)
    big = _BIG_X
    for _ in range(4):
        big = big * _BIG_Y % (_BIG_X + 11)
    return acc, big


class Sampler:
    def __init__(self):
        self.chunk_s = []   # time of each sampled chunk
        self.paused = 0.0   # wall seconds spent inside the signal handler

    def _sample(self, signum, frame):
        entered = time.perf_counter()
        gc_on = gc.isenabled()
        gc.disable()        # never collect galbim's heap inside a chunk
        start = time.perf_counter()
        chunk()
        self.chunk_s.append(time.perf_counter() - start)
        if gc_on:
            gc.enable()
        self.paused += time.perf_counter() - entered

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Wall seconds, not counting the time spent sampling."""
        return time.perf_counter() - self.paused

    def mark(self):
        return self.clock(), len(self.chunk_s)

    def scaled(self, mark):
        """(seconds at reference speed, wall seconds, relative speed) of
        the interval since ``mark``."""
        began, first = mark
        wall = self.clock() - began
        samples = self.chunk_s[first:]
        if not samples:
            raise ValueError("no speed sample in a %.3f s interval" % wall)
        speed = statistics.fmean(REF_CHUNK_S / d for d in samples)
        return wall * speed, wall, speed
