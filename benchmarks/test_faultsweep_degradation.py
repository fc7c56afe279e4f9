"""Graceful degradation under injected faults (not a paper figure).

Shapes: with no faults nothing is injected and CDP beats the fault-free
stride baseline; injected faults rise with intensity; the mean speedup
never rises with intensity.  The mean, not each benchmark, is checked:
one benchmark's curve can wobble at reduced scale.
"""

from conftest import TIMING_SCALE, record

from repro.experiments import faultsweep


def test_speedup_degrades_as_faults_rise(benchmark):
    result = benchmark.pedantic(
        faultsweep.run, kwargs=dict(scale=TIMING_SCALE),
        rounds=1, iterations=1,
    )
    record(benchmark, result)
    curve = result.extra["curve"]
    intensities = sorted(curve)
    faults = result.headers.index("faults")
    injected = [int(row[faults]) for row in result.rows]
    assert intensities[0] == 0.0
    assert injected[0] == 0
    assert curve[0.0] > 1.0
    assert curve[0.0] > curve[1.0]
    for lower, higher in zip(injected, injected[1:]):
        assert higher > lower
    for lower, higher in zip(intensities, intensities[1:]):
        assert curve[higher] <= curve[lower], (lower, higher)
