"""The machine's current speed, from timings of a fixed calibration kernel.

On a shared host the same computation runs up to 1.7x slower at times, in
phases from a fraction of a second to minutes long (an SMT sibling or a
neighbour busy on the same core).  A median over a run does not average that
out: whole runs land in slow phases.  So the benchmark times ``kernel``
right before every request and reports each request's time at reference
speed, wall time * REF_S / (median kernel time around the request).  The
deadline is scaled the other way, so whether a request meets it depends on
the request, not on the phase it ran in.

The kernel does the kinds of work nablainv's requests do (Fraction and
complex arithmetic, float formatting, small numpy calls) and uses no
nablainv code, so a change to nablainv cannot move it.
"""

import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's median time on the 2-core VM the bounds were set on; on that
# machine a time at reference speed reads like a typical wall time.
REF_S = 0.8e-3
# Kernel timings on each side of a request that set its speed factor.
WINDOW = 2
# Limits of the deadline's scale: a broken clock or kernel cannot make a run
# take much longer, or judge every request late.
DEADLINE_SCALE = (0.5, 2.0)


def kernel():
    acc, text = Fraction(0), []
    for i in range(1, 160):
        acc += Fraction(1, i)
        z = complex(i, 1) ** 0.5
        text.append(f"{z.real:.6g}")
    v = np.arange(64.0)
    for _ in range(16):
        v = np.convolve(v, [0.5, 0.5])[:64]
    return acc, ",".join(text), v


class Speed:
    """Kernel timings in the order taken; index i is the i-th ``sample``."""

    def __init__(self):
        self.times = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def factor(self, i):
        """Multiply a wall time measured right after sample i by this to get
        the time at reference speed."""
        return REF_S / statistics.median(self.times[max(0, i - WINDOW):i + WINDOW + 1])

    def deadline(self, seconds):
        """Wall time that is ``seconds`` at the speed of the latest samples."""
        lo, hi = DEADLINE_SCALE
        recent = statistics.median(self.times[-(WINDOW + 1):])
        return seconds * min(max(recent / REF_S, lo), hi)
