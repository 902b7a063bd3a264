"""Machine-speed normalisation of the reported times.

The host this benchmark was built on changes speed by up to +-25% over
seconds to minutes: a fixed interpreted loop, timed once a second for 20 s,
ranged from 20 to 32 ms.  Run-to-run spread of a 30 s run was as large, so
times are rescaled by a fixed probe kernel timed between ops.  A stretch
of wall time ``t`` during which the probe took ``p`` seconds counts as
``t * REFERENCE_PROBE_S / p``: seconds at the speed the host has when the
probe takes ``REFERENCE_PROBE_S``.  The probe runs no hgineq code, so a
change to hgineq moves the normalised times as it moves the raw ones.  Raw
wall times go into the run metadata.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's typical time on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
REFERENCE_PROBE_S = 1.7e-3
PROBE_EVERY_S = 0.2  # about 1% of the run goes to probing

_SMALL = np.linspace(0.1, 2.0, 256)
_LARGE = np.linspace(0.1, 2.0, 50_000)


def probe():
    """Seconds taken by a fixed kernel with the workloads' mix of
    interpreted arithmetic, small-array and large-array numpy."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(40):
        acc += float((np.exp(-_SMALL * _SMALL) * _SMALL**1.5).sum())
    for _ in range(3):
        acc += float((np.exp(-_LARGE * _LARGE) * _LARGE**1.5).sum())
    return time.perf_counter() - start


def scale(seconds, before, after):
    """``seconds`` of wall time bracketed by probes ``before`` and ``after``."""
    return seconds * 2.0 * REFERENCE_PROBE_S / (before + after)


class SpeedClock:
    """Cuts a run into slices of about ``PROBE_EVERY_S``, with a probe
    between consecutive slices; :meth:`factors` gives each closed slice's
    scale from the probes around it."""

    def __init__(self):
        self.probes = [probe()]
        self.walls = []
        self._start = time.perf_counter()

    @property
    def slice(self):
        """Index of the slice now running."""
        return len(self.walls)

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now - self._start >= PROBE_EVERY_S:
            self.walls.append(now - self._start)
            self.probes.append(probe())
            self._start = time.perf_counter()

    def skip(self, seconds):
        """Leave the last ``seconds`` out of the slice now running."""
        self._start += seconds

    def factors(self):
        return [scale(1.0, a, b) for a, b in zip(self.probes, self.probes[1:])]

    def scaled_wall(self):
        """Scaled time of the closed slices."""
        return sum(w * f for w, f in zip(self.walls, self.factors()))
