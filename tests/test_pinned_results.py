"""Pinned simulated results: literal answers the simulators must keep.

Every value below was recorded from the simulators as they stood before
the single-pass miss-path rewrite, and no simulator edit may move one.
A performance change that alters a result digest, a cycle count or a
prefetch counter here has changed what the machine computes, not just
how fast it computes it.

The cells cover one pointer-heavy benchmark (``tpcc-2``) and one
cache-resident one (``b2c``) at scale 0.02, on the model machine and on
variants that each reach a different branch of the miss path: the
stride-only baseline, the Markov prefetcher, the prefetch buffer,
off-chip placement, reinforcement off, a rescan margin of 2, a
previous-line width, the adaptive controller, pollution injection and a
fault storm (with and without the buffer).  Functional runs are pinned
in both ``line_tracking`` modes.  One timing run's mid-run
``state_digests`` stream pins the snapshot trees too (in-flight MSHRs,
arbiter heap, event heap), so a snapshot taken before a rewrite still
resumes after it.

To re-record after an intended behaviour change (which must also bump
``RESULT_SCHEMA_VERSION``), run
``PYTHONPATH=src python tests/test_pinned_results.py`` and paste its
output over the tables below.
"""

from __future__ import annotations

import dataclasses
import pprint

import pytest

from repro.core.functional import FunctionalSimulator
from repro.core.simulator import TimingSimulator
from repro.experiments.common import model_machine, warmup_uops_for
from repro.faults import fault_storm
from repro.service.http import encode_result
from repro.snapshot import SnapshotPolicy
from repro.workloads.suite import build_benchmark

SCALE = 0.02
SEED = 1
BENCHMARKS = ("tpcc-2", "b2c")
SNAPSHOT_EVERY = 1500


def _machines() -> dict:
    """name -> (config, run_timing keyword arguments)."""
    model = model_machine()
    # At this scale the model UL2 holds tpcc-2's whole footprint, so no
    # line misses twice and the Markov STAB never has a successor to
    # issue; a 16 KB UL2 makes lines miss repeatedly.
    small_l2 = dataclasses.replace(model.ul2, size_bytes=16 * 1024)
    storm = fault_storm(0.5, seed=3)
    return {
        "model": (model, {}),
        "stride-only": (
            model.with_content(enabled=False).with_markov(enabled=False), {},
        ),
        "markov": (model.with_markov(enabled=True).replace(ul2=small_l2), {}),
        "buffer": (model.with_content(fill_target="buffer"), {}),
        "offchip": (model.with_content(placement="offchip"), {}),
        "no-reinforcement": (model.with_content(reinforcement=False), {}),
        "margin2": (model.with_content(rescan_margin=2), {}),
        "prev1": (model.with_content(prev_lines=1), {}),
        "adaptive": (model, {"adaptive": True}),
        "pollution": (model, {"inject_pollution": True}),
        "storm": (model.replace(faults=storm), {}),
        "storm-buffer": (
            model.with_content(fill_target="buffer").replace(faults=storm), {},
        ),
    }


#: Machines whose functional runs differ in what they compute (the
#: functional simulator has no prefetch buffer, adaptive controller,
#: pollution injector or fault injector).
FUNCTIONAL_MACHINES = (
    "model", "stride-only", "markov", "offchip", "no-reinforcement",
    "margin2", "prev1",
)


def _workload(name: str):
    return build_benchmark(name, scale=SCALE, seed=SEED)


def timing_cell(benchmark: str, machine: str) -> dict:
    config, options = _machines()[machine]
    built = _workload(benchmark)
    sim = TimingSimulator(
        config, built.memory, adaptive=options.get("adaptive", False)
    )
    if sim.adaptive is not None:
        # The default 512-outcome window never closes in a run this
        # short; a small one makes the controller retune the matcher.
        sim.adaptive.window = 32
    if options.get("inject_pollution"):
        sim.memsys.inject_pollution = True
    result = sim.run(built.trace, warmup_uops_for(built.trace))
    return {
        "digest": encode_result(result)["digest"],
        "cycles": result.cycles,
        "demand_l1_misses": result.demand_l1_misses,
        "cdp_issued": result.content.issued,
        "cdp_useful": result.content.useful,
        "bus_transfers": result.bus_transfers,
    }


def functional_cell(benchmark: str, machine: str, tracking: str) -> dict:
    config, _ = _machines()[machine]
    built = _workload(benchmark)
    sim = FunctionalSimulator(config, built.memory, line_tracking=tracking)
    result = sim.run(built.trace, warmup_uops_for(built.trace))
    return {
        "digest": encode_result(result)["digest"],
        "demand_l1_misses": result.demand_l1_misses,
        "demand_l2_misses": result.demand_l2_misses,
        "cdp_issued": result.content.issued,
        "cdp_useful": result.content.useful,
    }


def snapshot_stream() -> list:
    """``state_digests`` of one CDP timing run under a snapshot policy."""
    config, _ = _machines()["model"]
    built = _workload("tpcc-2")
    sim = TimingSimulator(config, built.memory)
    result = sim.run(
        built.trace, warmup_uops_for(built.trace),
        policy=SnapshotPolicy(every=SNAPSHOT_EVERY),
    )
    return [list(entry) for entry in result.state_digests]


TIMING = {'b2c': {'adaptive': {'bus_transfers': 445,
                      'cdp_issued': 303,
                      'cdp_useful': 102,
                      'cycles': 21157.333333333314,
                      'demand_l1_misses': 680,
                      'digest': '0ac4ba64c23435f5e11bb5834c14e087'},
         'buffer': {'bus_transfers': 627,
                    'cdp_issued': 475,
                    'cdp_useful': 78,
                    'cycles': 24257.999999999975,
                    'demand_l1_misses': 729,
                    'digest': '8661820db1e62142cde2849a4d0d80f0'},
         'margin2': {'bus_transfers': 435,
                     'cdp_issued': 292,
                     'cdp_useful': 100,
                     'cycles': 20471.49999999998,
                     'demand_l1_misses': 685,
                     'digest': '1e97cf0449e83d4bcb42e1a589ca6153'},
         'markov': {'bus_transfers': 475,
                    'cdp_issued': 330,
                    'cdp_useful': 103,
                    'cycles': 21687.999999999978,
                    'demand_l1_misses': 673,
                    'digest': 'add6d570644e0f441febc7ff306b6058'},
         'model': {'bus_transfers': 445,
                   'cdp_issued': 303,
                   'cdp_useful': 102,
                   'cycles': 21157.333333333314,
                   'demand_l1_misses': 680,
                   'digest': '0ac4ba64c23435f5e11bb5834c14e087'},
         'no-reinforcement': {'bus_transfers': 297,
                              'cdp_issued': 135,
                              'cdp_useful': 76,
                              'cycles': 22988.666666666617,
                              'demand_l1_misses': 700,
                              'digest': '20bc6428a3f09d2a0d9d807f33563f1b'},
         'offchip': {'bus_transfers': 297,
                     'cdp_issued': 155,
                     'cdp_useful': 105,
                     'cycles': 20804.99999999999,
                     'demand_l1_misses': 669,
                     'digest': 'bb2af186c645b4dc86d10a4d9558014e'},
         'pollution': {'bus_transfers': 498,
                       'cdp_issued': 300,
                       'cdp_useful': 101,
                       'cycles': 21404.33333333331,
                       'demand_l1_misses': 678,
                       'digest': 'e8eb338b758436730d1963c9cc317db6'},
         'prev1': {'bus_transfers': 458,
                   'cdp_issued': 317,
                   'cdp_useful': 103,
                   'cycles': 20471.83333333327,
                   'demand_l1_misses': 676,
                   'digest': '98cf45e92b81a58010564090aa8c3730'},
         'storm': {'bus_transfers': 329,
                   'cdp_issued': 144,
                   'cdp_useful': 48,
                   'cycles': 29762.000000000073,
                   'demand_l1_misses': 696,
                   'digest': 'b23981e66377703bea2a390eb70e81c1'},
         'storm-buffer': {'bus_transfers': 294,
                          'cdp_issued': 108,
                          'cdp_useful': 47,
                          'cycles': 28722.833333333387,
                          'demand_l1_misses': 704,
                          'digest': 'ba35032ff68fe1d68025743e049b7d82'},
         'stride-only': {'bus_transfers': 251,
                         'cdp_issued': 0,
                         'cdp_useful': 0,
                         'cycles': 27388.33333333342,
                         'demand_l1_misses': 768,
                         'digest': '2b6800fee552b2d73f206684988e0765'}},
 'tpcc-2': {'adaptive': {'bus_transfers': 1893,
                         'cdp_issued': 1388,
                         'cdp_useful': 205,
                         'cycles': 116291.333333333,
                         'demand_l1_misses': 1295,
                         'digest': '53253a1e65d0beb78779c0a4bf1fe1c9'},
            'buffer': {'bus_transfers': 2721,
                       'cdp_issued': 2194,
                       'cdp_useful': 116,
                       'cycles': 122970.33333333301,
                       'demand_l1_misses': 1319,
                       'digest': '928daf11e7368a54dff452bb65144228'},
            'margin2': {'bus_transfers': 1857,
                        'cdp_issued': 1351,
                        'cdp_useful': 201,
                        'cycles': 116700.16666666631,
                        'demand_l1_misses': 1296,
                        'digest': '43529b555e5f06e6f567840004a291df'},
            'markov': {'bus_transfers': 2663,
                       'cdp_issued': 1998,
                       'cdp_useful': 179,
                       'cycles': 166111.83333333328,
                       'demand_l1_misses': 1337,
                       'digest': 'edd2dbad2bf8049cd2966803d79a127f'},
            'model': {'bus_transfers': 1893,
                      'cdp_issued': 1388,
                      'cdp_useful': 205,
                      'cycles': 116291.333333333,
                      'demand_l1_misses': 1295,
                      'digest': '198fbeab80cd706239022d6b024802b6'},
            'no-reinforcement': {'bus_transfers': 1710,
                                 'cdp_issued': 1158,
                                 'cdp_useful': 142,
                                 'cycles': 117958.66666666632,
                                 'demand_l1_misses': 1298,
                                 'digest': 'a0dfda1737dd7dc9a5516cf97493ad0f'},
            'offchip': {'bus_transfers': 1387,
                        'cdp_issued': 801,
                        'cdp_useful': 155,
                        'cycles': 122623.4999999997,
                        'demand_l1_misses': 1317,
                        'digest': 'c06e46e05d337735758d232fa97fcf90'},
            'pollution': {'bus_transfers': 2156,
                          'cdp_issued': 1388,
                          'cdp_useful': 203,
                          'cycles': 117703.333333333,
                          'demand_l1_misses': 1295,
                          'digest': '6d1149eeafb7a563b5058afb428ed4cd'},
            'prev1': {'bus_transfers': 2174,
                      'cdp_issued': 1673,
                      'cdp_useful': 218,
                      'cycles': 114529.66666666632,
                      'demand_l1_misses': 1282,
                      'digest': '7b3be9edf76f0a875370de304f23722b'},
            'storm': {'bus_transfers': 1458,
                      'cdp_issued': 834,
                      'cdp_useful': 110,
                      'cycles': 140227.83333333323,
                      'demand_l1_misses': 1302,
                      'digest': '983d006937167d6b81c1a644fb9d374f'},
            'storm-buffer': {'bus_transfers': 1527,
                             'cdp_issued': 870,
                             'cdp_useful': 77,
                             'cycles': 143534.50000000012,
                             'demand_l1_misses': 1309,
                             'digest': '85fd9e5fab71a265e63f8466f9b08b0a'},
            'stride-only': {'bus_transfers': 816,
                            'cdp_issued': 0,
                            'cdp_useful': 0,
                            'cycles': 126877.50000000001,
                            'demand_l1_misses': 1327,
                            'digest': 'b2b99489354e17bc069c772d1a81d4cb'}}}

FUNCTIONAL = {'b2c': {'margin2': {'cdp_issued': 2,
                     'cdp_useful': 0,
                     'demand_l1_misses': 162,
                     'demand_l2_misses': 3,
                     'digest': '532c7643410669aaa93fe0ff4707ce4d'},
         'markov': {'cdp_issued': 51,
                    'cdp_useful': 0,
                    'demand_l1_misses': 162,
                    'demand_l2_misses': 7,
                    'digest': '792e21ae7af21c7f3f37065535bc16cc'},
         'model': {'cdp_issued': 18,
                   'cdp_useful': 0,
                   'demand_l1_misses': 162,
                   'demand_l2_misses': 3,
                   'digest': 'd9adece752079730a14d8b1c1677c855'},
         'no-reinforcement': {'cdp_issued': 6,
                              'cdp_useful': 3,
                              'demand_l1_misses': 162,
                              'demand_l2_misses': 8,
                              'digest': 'a374c33e934d4bd1c6f7272d3e35465d'},
         'offchip': {'cdp_issued': 0,
                     'cdp_useful': 0,
                     'demand_l1_misses': 162,
                     'demand_l2_misses': 5,
                     'digest': '2f3e2b8e3bd67fe307aec034096d18ae'},
         'prev1': {'cdp_issued': 28,
                   'cdp_useful': 0,
                   'demand_l1_misses': 162,
                   'demand_l2_misses': 3,
                   'digest': 'a2b155733de757d26078398894587d9c'},
         'stride-only': {'cdp_issued': 0,
                         'cdp_useful': 0,
                         'demand_l1_misses': 162,
                         'demand_l2_misses': 32,
                         'digest': '09043dfb5b52f0a1e34bacc1542d8e00'}},
 'tpcc-2': {'margin2': {'cdp_issued': 466,
                        'cdp_useful': 118,
                        'demand_l1_misses': 591,
                        'demand_l2_misses': 343,
                        'digest': '03bd346a92b346869f6f58a40c898f33'},
            'markov': {'cdp_issued': 959,
                       'cdp_useful': 130,
                       'demand_l1_misses': 591,
                       'demand_l2_misses': 388,
                       'digest': '997b5672c71b913066a43612173c2063'},
            'model': {'cdp_issued': 483,
                      'cdp_useful': 118,
                      'demand_l1_misses': 591,
                      'demand_l2_misses': 342,
                      'digest': '9f497530e80d86343a6a394c784e05bb'},
            'no-reinforcement': {'cdp_issued': 429,
                                 'cdp_useful': 105,
                                 'demand_l1_misses': 591,
                                 'demand_l2_misses': 356,
                                 'digest': '2d248448722fdef053212e182950c7ff'},
            'offchip': {'cdp_issued': 317,
                        'cdp_useful': 78,
                        'demand_l1_misses': 591,
                        'demand_l2_misses': 391,
                        'digest': '63dcb64740dc755f34f80768c5ee42a9'},
            'prev1': {'cdp_issued': 635,
                      'cdp_useful': 121,
                      'demand_l1_misses': 591,
                      'demand_l2_misses': 338,
                      'digest': 'c5370edd61fdbd46973ebed4df0a5d9c'},
            'stride-only': {'cdp_issued': 0,
                            'cdp_useful': 0,
                            'demand_l1_misses': 591,
                            'demand_l2_misses': 474,
                            'digest': '86bed76773bc01d3a0f67c89b91b9161'}}}

SNAPSHOT_DIGESTS = [[1504, 'b1dc006b5bcc67b52351c55878ab16cd'],
 [3000, '412d92408e5209468cc57b109a981c5d'],
 [4510, '49fd56c97aadf0101eb4904f4d247f3e'],
 [6005, 'e3c174fc1a7c7ab01ea644e5f4f22ce4'],
 [7500, '2962d681f4a9abfdd910b5f955a52887'],
 [9003, '0fefc87135e582f14b891075d78bdae4'],
 [10500, '094baa0c9390de2d121ad7eb557719e7'],
 [12009, '576315bf8c969a97852c06e398e42c99'],
 [13517, '69715806b58c04c88da9294dc6818af7']]


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("machine", sorted(_machines()))
def test_timing_cell_pinned(workload, machine):
    assert timing_cell(workload, machine) == TIMING[workload][machine]


@pytest.mark.parametrize("tracking", ("bitset", "sets"))
@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("machine", FUNCTIONAL_MACHINES)
def test_functional_cell_pinned(workload, machine, tracking):
    assert (
        functional_cell(workload, machine, tracking)
        == FUNCTIONAL[workload][machine]
    )


def test_snapshot_digest_stream_pinned():
    stream = snapshot_stream()
    assert len(stream) >= 4
    assert stream == SNAPSHOT_DIGESTS


def record() -> dict:
    """Recompute every pinned table (see the module docstring)."""
    machines = sorted(_machines())
    return {
        "TIMING": {
            b: {m: timing_cell(b, m) for m in machines} for b in BENCHMARKS
        },
        "FUNCTIONAL": {
            b: {m: functional_cell(b, m, "bitset")
                for m in FUNCTIONAL_MACHINES}
            for b in BENCHMARKS
        },
        "SNAPSHOT_DIGESTS": snapshot_stream(),
    }


if __name__ == "__main__":
    for name, table in record().items():
        print("%s = %s\n" % (name, pprint.pformat(table, sort_dicts=True)))
