"""A fixed pure-Python loop that measures how fast the current core runs Python.

On a shared host the speed of a core swings by up to 40% for seconds at a
time. Single-threaded Python measurements (a resume pass, a fresh
interpreter's start-up) are bracketed by this loop on the same thread and
rescaled to a core that runs it in NOMINAL_S, which removes most of that
swing. JVM-bound phases use both cores and are reported as measured.
"""

import time

LOOPS = 150_000
NOMINAL_S = 0.012


def reference_seconds() -> float:
    """Wall time of the reference loop on the calling thread, now."""
    start, total = time.perf_counter(), 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two reference runs to the nominal core."""
    return 2 * NOMINAL_S / (before + after)
