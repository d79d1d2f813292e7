"""Host-speed normalisation of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 2x over seconds to minutes, with nothing else running in the
benchmark's own container.  Thread CPU time drifts with it (the slowdown is
contention for the core, not time off it), so neither wall nor CPU time of
the program alone is steady from one run to the next.

A probe is a fixed piece of pure-stdlib work (interpreter-bound integer
and `Fraction` arithmetic, as in `padic_cf`'s own loops) that never touches
the package under test.  The benchmark runs probes right after each timed
call, for a fixed share of that call's time, so the probes sample the
host's speed over the same seconds the call ran.  The speed factor of a
call is the mean time of the probes around it over PROBE_NOMINAL_S; its
time divided by that factor is the time it would have taken on a host
running the probe in PROBE_NOMINAL_S.  A faster `padic_cf` changes the
call times but not the probes, so gains show in full.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# Median time of one probe over 3000 runs on a 2-vCPU Intel Xeon VM under
# CPython 3.11.7 (0.64-1.12 ms from the first to the ninth decile).
PROBE_NOMINAL_S = 0.75e-3
PROBE_SHARE = 0.25  # probe time per second of timed work
MIN_PROBES = 40  # probes behind one call's factor: about 30 ms of probing

_MODULUS = 2**127 - 1


def probe() -> float:
    """Run the fixed probe once; return its duration in seconds.

    Interpreter-bound integer arithmetic plus `Fraction` sums.  Of the
    probes tried against every workload's calls on the drifting host, these
    two tracked the calls' slowdowns best; big-integer squaring and object
    allocation tracked them worst.
    """
    t0 = time.perf_counter()
    x = 3**60 + 1
    for i in range(3000):
        x = (x * 7 + i) % _MODULUS
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(i, i * i + 1)
    return time.perf_counter() - t0


def sample(work_s: float, share: float = PROBE_SHARE) -> tuple[float, int]:
    """Probe for about `share` of `work_s`, at least once; return the total
    probe time and the number of probes."""
    n = max(1, math.ceil(share * work_s / PROBE_NOMINAL_S))
    return sum(probe() for _ in range(n)), n


def factor(probe_s: float, probes: int) -> float:
    """Host slowness against the nominal: 2.0 means twice as slow."""
    return probe_s / (probes * PROBE_NOMINAL_S)


def local_factors(samples: list) -> list:
    """One factor per call, from the probes `samples[i]` made right after
    call i: those just before and after it and, while they number fewer
    than MIN_PROBES, those of its nearest neighbours on both sides.  A short
    call's own few probes are too noisy alone; a long call has enough near
    it, so the factor follows the host through the pass."""
    out = []
    for i in range(len(samples)):
        lo, hi = max(i - 1, 0), i + 1
        probe_s = sum(s[0] for s in samples[lo:hi])
        probes = sum(s[1] for s in samples[lo:hi])
        while probes < MIN_PROBES and (lo > 0 or hi < len(samples)):
            if lo > 0:
                lo -= 1
                probe_s += samples[lo][0]
                probes += samples[lo][1]
            if hi < len(samples):
                probe_s += samples[hi][0]
                probes += samples[hi][1]
                hi += 1
        out.append(factor(probe_s, probes))
    return out
