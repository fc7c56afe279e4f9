"""Integration tests for repro.core.simulator (the timing simulator)."""

import gc
import weakref

import pytest

from repro.core.simulator import TimingSimulator, run_pair
from repro.params import KB, CacheConfig, MachineConfig
from repro.workloads.base import WorkloadContext
from repro.workloads.kernels import ArrayScanKernel, ListTraversalKernel
from repro.workloads.structures import build_data_array, build_linked_list


def small_config(**content_kwargs):
    config = MachineConfig(
        l1d=CacheConfig(4 * KB, 8, latency=3),
        ul2=CacheConfig(64 * KB, 8, latency=16),
    )
    if content_kwargs:
        config = config.with_content(**content_kwargs)
    return config


def chase_workload(nodes=2500, locality=0.0, work=8):
    ctx = WorkloadContext("chase", seed=5)
    lst = build_linked_list(ctx, nodes, 14, locality)
    ListTraversalKernel(
        ctx, lst, payload_loads=1, work_per_node=work, mispredict_rate=0.0
    ).emit()
    return ctx.build()


class TestEndToEnd:
    def test_result_fields_populated(self):
        workload = chase_workload(nodes=500)
        result = TimingSimulator(small_config(), workload.memory).run(
            workload.trace
        )
        assert result.cycles > 0
        assert result.uops == workload.trace.uop_count
        assert result.loads == workload.trace.load_count
        assert result.ipc > 0

    def test_content_prefetcher_speeds_up_pointer_chase(self):
        workload = chase_workload()
        baseline, enhanced = run_pair(
            small_config(), workload.memory, workload.trace
        )
        assert enhanced.speedup_over(baseline) > 1.02
        assert enhanced.content.useful > 0

    def test_content_prefetcher_harmless_on_stride_code(self):
        ctx = WorkloadContext("array", seed=6)
        array = build_data_array(ctx, 40_000)
        ArrayScanKernel(ctx, array).emit()
        workload = ctx.build()
        baseline, enhanced = run_pair(
            small_config(), workload.memory, workload.trace
        )
        # Stride-friendly code: content prefetcher neither required nor
        # disastrous (within a few percent).
        assert enhanced.speedup_over(baseline) > 0.9

    def test_determinism(self):
        workload = chase_workload(nodes=600)
        first = TimingSimulator(small_config(), workload.memory).run(
            workload.trace
        )
        second = TimingSimulator(small_config(), workload.memory).run(
            workload.trace
        )
        assert first.cycles == second.cycles
        assert first.content.issued == second.content.issued

    def test_memory_image_not_mutated(self):
        workload = chase_workload(nodes=300)
        before = workload.memory.read_line(0x0840_0000)
        TimingSimulator(small_config(), workload.memory).run(workload.trace)
        assert workload.memory.read_line(0x0840_0000) == before


class TestFreedByRefcount:
    """A finished simulator is freed without the cyclic GC.

    Sweeps build thousands of simulators; a reference cycle through the
    memory system would keep each one's whole cache hierarchy alive
    until a cyclic collection happened to run.
    """

    @pytest.mark.parametrize("mode", ["batched", "reference"])
    def test_finished_memory_system_dies_on_del(self, mode):
        workload = chase_workload(nodes=200)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            sim = TimingSimulator(small_config(), workload.memory)
            sim.memsys.set_drain_mode(mode)
            sim.run(workload.trace)
            memsys = weakref.ref(sim.memsys)
            del sim
            assert memsys() is None
        finally:
            if enabled:
                gc.enable()


class TestDistribution:
    def test_distribution_sums_to_one(self):
        workload = chase_workload()
        result = TimingSimulator(small_config(), workload.memory).run(
            workload.trace
        )
        distribution = result.load_request_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_empty_distribution_when_no_misses(self):
        from repro.core.results import TimingResult
        result = TimingResult("empty")
        assert sum(result.load_request_distribution().values()) == 0.0


class TestReinforcementEffect:
    def test_reinforcement_increases_useful_prefetches(self):
        workload = chase_workload(nodes=3000, work=40)
        on = TimingSimulator(
            small_config(next_lines=0), workload.memory
        ).run(workload.trace)
        off = TimingSimulator(
            small_config(next_lines=0, reinforcement=False), workload.memory
        ).run(workload.trace)
        assert on.rescans > 0
        assert off.rescans == 0
        assert on.content.useful >= off.content.useful


class TestAdaptive:
    def test_adaptive_controller_runs(self):
        workload = chase_workload(nodes=1500)
        simulator = TimingSimulator(
            small_config(), workload.memory, adaptive=True
        )
        simulator.run(workload.trace)
        assert simulator.adaptive is not None


class TestMarkovMachine:
    def test_markov_machine_runs(self):
        workload = chase_workload(nodes=1000)
        config = small_config(enabled=False).with_markov(
            enabled=True, stab_size_bytes=8 * KB
        )
        result = TimingSimulator(config, workload.memory).run(workload.trace)
        assert result.cycles > 0
