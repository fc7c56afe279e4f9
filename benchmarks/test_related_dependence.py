"""Extended comparison: CDP vs dependence-based prefetching (not a figure).

Shape: the dependence prefetcher issues only addresses a consumer load
will really compute, so its accuracy beats the stateless content
prefetcher's on every benchmark (the paper's introduction: stateful and
precise versus stateless and eager).
"""

from conftest import FUNCTIONAL_SCALE, TIMING_BENCHMARKS, record

from repro.experiments import related


def test_dependence_prefetching_is_more_accurate(benchmark):
    result = benchmark.pedantic(
        related.run,
        kwargs=dict(scale=FUNCTIONAL_SCALE, benchmarks=TIMING_BENCHMARKS),
        rounds=1, iterations=1,
    )
    record(benchmark, result)
    for name, series in result.extra["series"].items():
        _, content_accuracy = series["content"]
        _, dependence_accuracy = series["dependence"]
        assert dependence_accuracy > content_accuracy, name
