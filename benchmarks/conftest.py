"""Shared settings for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures at a
reduced scale (the full-scale runs are ``repro-experiments <id>``), checks
the headline *shape* against the paper, and records the rows in the
``benchmark`` fixture's ``extra_info``.  Run it with
``python -m pytest benchmarks``; it needs nothing beyond pytest.
"""

import pytest

# Scales tuned so the whole harness finishes in a few minutes.
FUNCTIONAL_SCALE = 0.15   # fig1, table2, fig7, fig8 (functional sim)
TIMING_SCALE = 0.05       # fig9, fig10, fig11, tlb, pollution, ablation

# One benchmark per suite, the paper's Figure 1 selection.
TIMING_BENCHMARKS = ("b2c", "tpcc-2", "verilog-func", "specjbb-vsnet")


@pytest.fixture(scope="session", autouse=True)
def warm_workload_cache():
    """Pre-build every workload image the harness uses, exactly once.

    The suite cache (:func:`repro.workloads.suite.warm_cache`) keys images
    by (name, scale, seed), so warming here means no benchmark pays an
    image rebuild inside its timed region, and repeated configurations
    within a sweep share one image.
    """
    from repro.workloads.suite import benchmark_names, warm_cache

    warm_cache(benchmark_names(), scales=(FUNCTIONAL_SCALE,))
    warm_cache(TIMING_BENCHMARKS, scales=(TIMING_SCALE,))
    yield


class _Benchmark:
    """The part of pytest-benchmark's fixture these tests use.

    Each test regenerates its table or figure once and asserts the
    shape; the shape, not the time it took, is what is checked.
    """

    def __init__(self) -> None:
        self.extra_info = {}

    def pedantic(self, target, args=(), kwargs=None, rounds=1,
                 iterations=1):
        """Call *target* once and return what it returns."""
        return target(*args, **(kwargs or {}))


@pytest.fixture
def benchmark():
    return _Benchmark()


def record(benchmark, result):
    """Attach an ExperimentResult's rows to the benchmark report."""
    benchmark.extra_info["title"] = result.title
    benchmark.extra_info["rows"] = [
        " | ".join(str(cell) for cell in row) for row in result.rows
    ]
    if result.notes:
        benchmark.extra_info["notes"] = result.notes
