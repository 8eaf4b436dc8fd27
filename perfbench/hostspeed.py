"""Host-speed probe for the end-to-end run.

The host the benchmark was written on (2 vCPUs of a shared machine) has
spells of seconds to minutes in which every kind of work takes up to 1.6
times its usual time, CPU time included; a 30 s run can fall wholly inside
one.  The probe is a fixed piece of work of the benchmark's own, a short
interpreted loop and a 64-point numpy transform (about 10 us).  The
checkpoint clock (tracer.CheckpointClock) runs it twice at every
PROBE_EVERY-th transform call of a timed call, outside the segments it
times, and keeps the time of the second, warm run.  Probe i is thus taken
at the same moments of every call as the segments around it, and its floor
(the shortest time it took in any call of the run), averaged over i, says
how fast the host ran while the workload did.  run.py scales the
workload's floor by REFERENCE_S / that average.  The probe touches nothing
of isofluid.
"""

from __future__ import annotations

import time

PROBE_EVERY = 64

# the probe floor wall_s is scaled to: about the mean floor on the host
# above (Intel Xeon, Python 3.11, numpy's pocketfft) when it runs at full
# speed, so that wall_s reads close to the seconds a call takes there
REFERENCE_S = 1e-5


def make_probe():
    """The probe as a function of no arguments.  It binds numpy.fft.fft
    now, so build it before a wrapper is installed there."""
    import numpy as np

    fft = np.fft.fft
    a = np.random.default_rng(0).standard_normal(64) + 0j

    def probe() -> float:
        s = 0
        for i in range(60):
            s += i * i % 7
        return s + fft(a)[1].real

    return probe


def floor_now(probe, reps: int = 400) -> float:
    """Shortest of reps back-to-back runs of the probe: the host's speed
    now, for scaling a one-off time such as a set-up."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(reps):
        t0 = clock()
        probe()
        best = min(best, clock() - t0)
    return best
