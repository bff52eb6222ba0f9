"""Helpers shared by the test modules, which import them by name."""

import tracemalloc


def traced_peak(fn, *args):
    """(fn(*args), the peak of the allocations traced while it ran, in
    bytes): numpy's arrays included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
