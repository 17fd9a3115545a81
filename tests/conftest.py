import tracemalloc

import pytest


@pytest.fixture(scope="session")
def traced_peak():
    """``traced_peak(call)``: ``call()`` and the peak of what it allocated,
    in MB (tracemalloc)."""
    def run(call):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        return out, peak
    return run
