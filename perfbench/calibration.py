"""Calibration of the host's speed, timed next to every measurement.

The benchmark's host is a virtual machine on a shared machine whose
throughput swings by up to 2x, for seconds to minutes at a time, with no
steal time to show for it.  A fixed piece of rational arithmetic, the same
kind of work deltaforms does, is timed right before and after each measured
op.  The benchmark reports every end-to-end time scaled by
``REFERENCE_S / calibration``: in seconds as on this host when it is quiet,
where the calibration takes ``REFERENCE_S``.  A change to deltaforms moves
the op and not the calibration, so it shows in full; a busy neighbour slows
both, and cancels out.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.005  # calibration time on a quiet 2-vCPU host of this kind


def calibration():
    """Seconds for a fixed piece of work (about REFERENCE_S)."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def scaled(seconds, calibrated):
    """A time measured next to a calibration, in quiet-host seconds."""
    return seconds * REFERENCE_S / calibrated
