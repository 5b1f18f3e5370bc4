"""The machine's speed, read from a fixed loop that does not touch weightcell.

On a shared host the same op can take up to 2x longer a few seconds or
minutes later, because the cores themselves slow down; CPU time rises with
wall time.  A run therefore times `loop_s()` after each set-up and after
each op, outside every timed region, and brings each time to the reference
speed: the speed at which the loop takes `REFERENCE_S`.  The loop's code is
fixed and never calls the program, so a change to the program moves the
scaled times by the same share as the raw ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.020  # the loop's time at the reference speed
SAMPLES_PER_SETUP = 10  # loop timings after each timed set-up
WINDOW = 3  # an op is scaled by the loop timings after it and its 3 neighbours on each side


def loop_s() -> float:
    """Wall time of one fixed pass of integer products, remainders and dict
    stores.  Of the loops tried, this one tracked the speed of weightcell's
    ops most closely."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(60_000):
        acc += i * i * 12345678901 % 977
        table[i & 1023] = acc
    return time.perf_counter() - start


def samples(n=SAMPLES_PER_SETUP) -> list[float]:
    return [loop_s() for _ in range(n)]


def scale(loop_times) -> float:
    """Factor from raw times to times at the reference speed."""
    return REFERENCE_S / statistics.median(loop_times)


def scaled_setups(setups) -> list[float]:
    """Each set-up's time, scaled by the loop timings its process took
    right after it."""
    return [s["setup_s"] * scale(s["setup_loop_s"]) for s in setups]


def scaled_ops(ops, before) -> list[float]:
    """Each op's time, scaled by the loop timings taken after it and after
    the WINDOW ops on either side; `before` are those taken just before the
    first op.  The host's speed changes within seconds, so timings taken
    near an op track it better than the run's median does: on ten seeds of
    group-arith, this cut the spread of op_s.p50, op_s.tail and
    ops_per_s to half or less of that with one factor for the whole run."""
    groups = [before] + [op["loop_s"] for op in ops]  # groups[i + 1] follows op i
    return [op["s"] * scale([t for g in groups[max(0, i + 1 - WINDOW):i + 2 + WINDOW] for t in g])
            for i, op in enumerate(ops)]
