"""The tracing helpers of conftest.py, which every memory figure test
runs: traced_peak returns the call's result, keeps the collector off
while the call runs, and stops tracemalloc and restores the collector
however the call ends; traced_peaks traces at numpy's buffer size and at
1 MiB and restores numpy's size however the call ends."""

import gc
import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak, traced_peaks


def test_traced_peak_returns_the_result():
    result, peak = traced_peak(lambda: np.ones(1 << 16))
    assert result.sum() == 1 << 16
    assert peak >= result.nbytes
    assert not tracemalloc.is_tracing()


def test_traced_peak_restores_after_a_raise():
    # the collector is left as found, on or off, and tracemalloc stopped
    def fail():
        assert tracemalloc.is_tracing() and not gc.isenabled()
        raise KeyError("inside")

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            with pytest.raises(KeyError, match="inside"):
                traced_peak(fail)
            assert gc.isenabled() == enabled
            assert not tracemalloc.is_tracing()
    finally:
        gc.enable() if was else gc.disable()


def test_traced_peak_runs_no_finalizer():
    # a reference cycle with a finalizer, unreachable before the call, is
    # not collected while the call allocates a hundred times the
    # collector's first threshold; the same allocation outside the helper
    # collects it
    finalized = []

    class Cycle:
        def __del__(self):
            finalized.append(True)

    def allocate():
        [[] for _ in range(100 * gc.get_threshold()[0])]
        return len(finalized)

    was = gc.isenabled()
    gc.enable()
    try:
        cycle = Cycle()
        cycle.self = cycle
        del cycle
        during, _ = traced_peak(allocate)
        assert during == 0 and not finalized
        allocate()
        assert finalized
    finally:
        gc.enable() if was else gc.disable()


def test_traced_peaks_restores_the_buffer_size():
    # a call that raises at the second size, 1 MiB, leaves numpy's own
    old, seen = np.getbufsize(), []

    def fail_at_one_mib():
        seen.append(np.getbufsize())
        if seen[-1] == 1 << 20:
            raise KeyError("1 MiB")

    with pytest.raises(KeyError):
        traced_peaks(fail_at_one_mib)
    assert seen == [old, 1 << 20]
    assert np.getbufsize() == old
