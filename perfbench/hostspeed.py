"""Host speed, read from a fixed reference kernel timed between units.

The benchmark host switches, every fraction of a second to a few seconds,
between a fast state and one in which the same code runs about 1.7 times
slower, and the share of time spent in the slow state drifts over minutes
(NOTES.md, "Host speed"). Raw times follow that share. The reference
kernel below does fixed work of the same kind as korbit: small dense
matrices in a Python loop, a batched SVD and an einsum. The benchmark
times it after a unit once READ_EVERY_S of wall time has passed since the
last reading, and always after the last unit of a pass. Every unit since
the previous reading is scaled by the mean of REF_S / reading over that
reading and the new one. A scaled time is thus the time the unit would
have taken at the kernel speed REF_S: seconds on this host held in its
fast state.

The kernel uses numpy only, never korbit, so a change to korbit leaves the
readings alone. Only time.perf_counter is used.
"""

from time import perf_counter

import numpy as np

# At most one reading per this much wall time: twice 0.55-1.1 ms of
# kernel every 25 ms, 4-9 % of a run.
READ_EVERY_S = 0.025
# The kernel's time in the host's fast state on the machine of NOTES.md.
REF_S = 5.5e-4
# Readings on each side of a set-up interpreter.
SETUP_READS = 5

_rng = np.random.default_rng(0)
_MATS = _rng.standard_normal((20, 5, 5)) * 0.3
_ROWS = _rng.standard_normal((1000, 5))


def reference() -> float:
    """Fixed work of korbit's kind: truncated exponential series of 5x5
    matrices, singular values of 40 stacked 5x5 blocks, a Gram einsum."""
    acc = 0.0
    for a in _MATS:
        m = np.eye(5)
        t = np.eye(5)
        for k in range(1, 8):
            t = t @ a / k
            m = m + t
        acc += float(np.abs(m).max())
    acc += float(np.linalg.svd(_ROWS[:200].reshape(40, 5, 5),
                               compute_uv=False).sum())
    acc += float(np.einsum("ni,nj->ij", _ROWS, _ROWS).sum())
    return acc


class HostSpeed:
    """Readings of the reference kernel, taken between units."""

    def __init__(self):
        for _ in range(20):  # warm the kernel's code and data
            reference()
        self.spent = 0.0  # wall time of all readings so far
        self.last = perf_counter()
        self._prev = self._read()

    def due(self) -> bool:
        return perf_counter() - self.last >= READ_EVERY_S

    def _read(self) -> float:
        # The kernel runs once untimed first: the work just before it
        # evicted the kernel's code and data from the caches, which would
        # slow a cold reading by a varying amount.
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        reference()
        self.last = perf_counter()
        self.spent += self.last - t0
        return REF_S / (self.last - t1)

    def scale(self) -> float:
        """Take a reading. Return the factor for the work done since the
        previous one: REF_S over a reading, averaged over both ends, since
        the host may have changed state in between."""
        now = self._read()
        mean, self._prev = (self._prev + now) / 2, now
        return mean
