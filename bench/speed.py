"""Host speed, measured by a fixed probe, and wall times scaled to a reference speed.

The VMs this benchmark was written on slow down by up to 1.6x, from one
job to the next and in phases that outlast a whole run, because of
contention on the host: process CPU time grows with wall time, so the
process is running, only slower.  No choice of executions inside a run
removes a phase that outlasts it.  The benchmark therefore runs `probe()`
between jobs and scales each job's wall time by PROBE_REF_S / (the probe's
time): the time the job would take at the speed at which the probe takes
PROBE_REF_S.  The probe is pure Python `Fraction` arithmetic in this
file, so no change to paritylp can make it faster or slower.  Raw wall
times are kept in the run record.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The probe's time at the fast speed of a 2-vCPU VM (Python 3.11) when the
# benchmark was written; scaled times read close to wall times there.
PROBE_REF_S = 0.006
PROBE_TERMS = 1500
# Probes taken between two jobs, by scaling mode: scale() pairs one probe
# with each gap; scale_run() averages all, and more of them tell the run's
# speed more closely (4 per gap add about 3% to a measure-n5 round).
PROBES_PER_GAP = {"job": 1, "run": 4}


def _probe_once() -> float:
    start = time.perf_counter()
    x, total = Fraction(1, 3), Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += x * Fraction(i, i + 7)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for a fixed piece of Fraction arithmetic; the faster of two
    back-to-back runs, so that caches left cold by a job do not count.

    The collector is off meanwhile: a collection during the probe would
    walk the whole heap, and so time the heap a job left rather than the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_once(), _probe_once())
    finally:
        if enabled:
            gc.enable()


def scale(walls: list, probes: list) -> list:
    """Scale each wall time to the reference speed.

    probes[i] was taken just before walls[i], and probes[-1] after the last
    one, so len(probes) == len(walls) + 1.  The speed around item i is the
    median of the probes before item i - 1, item i and item i + 1.
    """
    if len(probes) != len(walls) + 1:
        raise ValueError("need one probe before each item and one after the last")
    return [wall * PROBE_REF_S / statistics.median(probes[max(0, i - 1):i + 2])
            for i, wall in enumerate(walls)]


def scale_run(walls: list, probes: list) -> list:
    """Scale every wall time by the mean of all the run's probes.

    For jobs of seconds: a probe reads one of two speeds that alternate
    within a second, so the few probes around such a job do not tell its
    average speed, while the mean over the run tells the run's.  Any number
    of probes per gap will do.
    """
    factor = PROBE_REF_S / statistics.mean(probes)
    return [wall * factor for wall in walls]
