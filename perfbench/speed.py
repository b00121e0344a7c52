"""Machine-speed probe, to report times at one reference speed.

The benchmark runs on shared virtual machines whose speed changes by up to
2x within seconds as neighbours come and go; raw rates of one workload then
spread by 15-20% from run to run. A fixed probe that does not touch gfs
runs at most every PROBE_EVERY_S between ops, and each op's time is scaled
by PROBE_REF_S / (local probe time). The reference speed is the one at
which the probe takes PROBE_REF_S. The probe is array and FFT work, which
slows with the machine the way both the small-grid and the large-grid ops
do; an interpreter-heavy probe over-corrected the large-grid ops. Raw
times are reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# On the 2-vCPU Intel Xeon VM the benchmark was sized on (Python 3.11,
# numpy 2.4, one BLAS thread) the probe took 0.9-1.4 ms as load changed.
PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.1

_X = np.linspace(0.0, 1.0, 16384) * (1 + 0.1j)


def _unit():
    t0 = time.perf_counter()
    np.fft.ifft(np.fft.fft(np.sin(_X * 3.0)))
    return time.perf_counter() - t0


def probe():
    """Seconds for one fixed unit of array and FFT work.

    The best of two back-to-back units: the first refills the caches an op
    has just evicted, so the probe sees the machine's speed, not the
    workload's footprint.
    """
    return min(_unit(), _unit())


class Meter:
    """Runs the probe between timed steps, at most every PROBE_EVERY_S.

    Call ``mark`` after each step. ``factors`` then gives each step's scale
    to the reference speed: PROBE_REF_S over the median of the six probes
    around it, which is robust to one interrupted probe and still local to
    speed changes that last seconds. Probe time falls outside every step.
    """

    def __init__(self):
        self.probes = [probe()]
        self.last_probe = []
        self._next = time.perf_counter() + PROBE_EVERY_S

    def mark(self):
        self.last_probe.append(len(self.probes) - 1)
        if time.perf_counter() >= self._next:
            self.probes.append(probe())
            self._next = time.perf_counter() + PROBE_EVERY_S

    def factors(self):
        probes = self.probes + [probe()]
        local = [statistics.median(probes[max(0, k - 2):k + 4]) for k in range(len(probes))]
        return [PROBE_REF_S / local[k] for k in self.last_probe]
