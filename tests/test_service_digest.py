"""Content-addressing of service requests (repro.service.request).

The dedup-keying guarantee: normalizing a request is idempotent, so a
machine configuration survives any dump/load round trip with its digest
intact — ``digest(load(dump(params))) == digest(params)``.
"""

import dataclasses
import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import service
from repro.configio import (
    canonical_machine_dict,
    load_machine_config,
    machine_config_from_dict,
    machine_config_to_dict,
    save_machine_config,
)
from repro.params import MachineConfig
from repro.snapshot import digest as digest_module
from repro.service.request import (
    Priority,
    SimRequest,
    canonical_request_tree,
    parse_priority,
    request_digest,
)


def _request(machine=None, **kwargs):
    defaults = dict(benchmark="b2c", scale=0.05, mode="functional")
    defaults.update(kwargs)
    return SimRequest(machine=machine or MachineConfig(), **defaults)


# Random machine configurations: tweak a spread of int, float, and bool
# knobs across several components so round-trip bugs in any one
# component's normalization show up.
machines = st.builds(
    lambda content_on, depth, next_lines, stride_dist, markov_on, bw, seed: (
        MachineConfig()
        .with_content(
            enabled=content_on, depth_threshold=depth, next_lines=next_lines
        )
        .with_stride(prefetch_distance=stride_dist)
        .with_markov(enabled=markov_on)
        .replace(
            bus=MachineConfig().bus.__class__(
                bandwidth_bytes_per_cycle=bw
            )
        )
        .with_faults(seed=seed)
    ),
    content_on=st.booleans(),
    depth=st.integers(min_value=1, max_value=8),
    next_lines=st.integers(min_value=0, max_value=4),
    stride_dist=st.integers(min_value=1, max_value=4),
    markov_on=st.booleans(),
    bw=st.one_of(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.25, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
    ),
    seed=st.integers(min_value=1, max_value=99),
)

requests = st.builds(
    lambda machine, benchmark, scale, seed, warmup, mode: SimRequest(
        machine=machine, benchmark=benchmark, scale=scale, seed=seed,
        warmup_fraction=warmup, mode=mode,
    ),
    machine=machines,
    benchmark=st.sampled_from(["b2c", "quake", "vpr"]),
    scale=st.floats(min_value=0.01, max_value=1.0,
                    allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=1, max_value=1000),
    warmup=st.floats(min_value=0.0, max_value=0.9,
                     allow_nan=False, allow_infinity=False),
    mode=st.sampled_from(["timing", "functional"]),
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(request=requests)
    def test_digest_survives_dump_load(self, request):
        # dump -> JSON text -> load must key the same cache cell.
        dumped = json.dumps(machine_config_to_dict(request.machine))
        reloaded = machine_config_from_dict(json.loads(dumped))
        assert request_digest(request.with_machine(reloaded)) \
            == request_digest(request)

    @settings(max_examples=25, deadline=None)
    @given(machine=machines)
    def test_canonical_dict_is_idempotent(self, machine):
        once = canonical_machine_dict(machine)
        twice = canonical_machine_dict(machine_config_from_dict(once))
        assert once == twice

    def test_digest_survives_config_file(self, tmp_path):
        config = MachineConfig().with_content(depth_threshold=5)
        path = tmp_path / "machine.json"
        save_machine_config(config, str(path))
        request = _request(machine=config)
        roundtripped = _request(machine=load_machine_config(str(path)))
        assert request_digest(roundtripped) == request_digest(request)


class TestNormalization:
    def test_int_for_float_field_keys_identically(self):
        # JSON blurs 1 / 1.0; the canonical form must not.
        as_int = machine_config_from_dict(
            {"bus": {"bandwidth_bytes_per_cycle": 1}}
        )
        as_float = machine_config_from_dict(
            {"bus": {"bandwidth_bytes_per_cycle": 1.0}}
        )
        assert request_digest(_request(machine=as_int)) \
            == request_digest(_request(machine=as_float))

    def test_partial_dict_keys_like_defaults(self):
        partial = machine_config_from_dict({"content": {"enabled": True}})
        assert request_digest(_request(machine=partial)) \
            == request_digest(_request(machine=MachineConfig()))

    def test_disabled_component_knobs_do_not_key(self):
        # A sweep's stride-only baselines differ only in knobs of the
        # *disabled* content prefetcher — provably inert, so they must
        # collapse to one content address (one cached baseline per
        # benchmark, not one per sweep point).
        plain = MachineConfig().with_content(enabled=False)
        leftover = plain.with_content(depth_threshold=7, next_lines=1)
        assert request_digest(_request(machine=plain)) \
            == request_digest(_request(machine=leftover))

    def test_structural_fields_key_even_when_disabled(self):
        # address_bits shapes address masking machine-wide; it stays
        # keyed regardless of content.enabled.
        plain = MachineConfig().with_content(enabled=False)
        wider = plain.with_content(address_bits=64)
        assert request_digest(_request(machine=plain)) \
            != request_digest(_request(machine=wider))

    def test_enabled_component_knobs_all_key(self):
        on = MachineConfig().with_content(enabled=True)
        assert request_digest(_request(machine=on)) \
            != request_digest(
                _request(machine=on.with_content(depth_threshold=7))
            )

    def test_dict_order_is_irrelevant(self):
        tree = canonical_request_tree(_request())
        reordered = dict(reversed(list(tree.items())))
        from repro.snapshot.digest import state_digest

        assert state_digest(reordered) == state_digest(tree)

    def test_every_parameter_is_keyed(self):
        base = _request()
        variants = [
            _request(machine=MachineConfig().with_content(enabled=False)),
            _request(benchmark="quake"),
            _request(scale=0.06),
            _request(seed=2),
            _request(warmup_fraction=0.5),
            _request(mode="timing"),
        ]
        digests = {request_digest(v) for v in variants}
        assert request_digest(base) not in digests
        assert len(digests) == len(variants)

    def test_schema_version_is_keyed(self, monkeypatch):
        from repro.service import request as request_mod

        before = request_digest(_request())
        monkeypatch.setattr(
            request_mod, "RESULT_SCHEMA_VERSION",
            request_mod.RESULT_SCHEMA_VERSION + 1,
        )
        assert request_digest(_request()) != before


class TestRequestValidation:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            SimRequest.from_dict(
                {"benchmark": "b2c", "scale": 0.05, "benchmrk": "typo"}
            )

    def test_from_dict_requires_benchmark_and_scale(self):
        with pytest.raises(ValueError, match="benchmark and scale"):
            SimRequest.from_dict({"benchmark": "b2c"})

    def test_from_dict_partial_machine(self):
        request = SimRequest.from_dict({
            "benchmark": "b2c", "scale": 0.05,
            "machine": {"content": {"enabled": False}},
        })
        assert request.machine.content.enabled is False
        assert request.machine.stride.enabled is True  # default preserved

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            _request(mode="cycle_exact")

    def test_parse_priority(self):
        assert parse_priority("interactive") is Priority.INTERACTIVE
        assert parse_priority("SWEEP") is Priority.SWEEP
        assert parse_priority(0) is Priority.INTERACTIVE
        assert parse_priority(Priority.SWEEP) is Priority.SWEEP
        with pytest.raises(ValueError):
            parse_priority("urgent")
        with pytest.raises(ValueError):
            parse_priority(True)

    def test_service_package_exports(self):
        for name in ("SimulationService", "ResultStore", "SimRequest",
                     "ServiceSession", "request_digest", "Priority"):
            assert hasattr(service, name)


# -- pinned content addresses -------------------------------------------------

#: Request digests recorded before the machine converters and the digest
#: encoder were rewritten for speed.  A moved address orphans every
#: stored result, and ``bench/golden.json`` pins only *result* digests.
#: figure 9 benchmark -> (stride-only baseline, first CDP cell) at scale
#: 0.02, seed 1.
PINNED_SWEEP = {
    "b2c": ("b6a5c1f37a0c4cb0203cd41e05ac22ae",
            "f64e2b94bacd6d282c26af5b2a40d592"),
    "quake": ("101508e6b3cf74cc0fac1785e481ed56",
              "b64c64136955774fc22df03a8545c910"),
    "rc3": ("bb1c3877fc656253bd3776354d9f071e",
            "8fa9338f14ed307ac0e7705f2afe200e"),
    "tpcc-2": ("e8d5ed80cf0ad0183d14e97c2ef2d973",
               "a5f01d5538d94343395194c1d7629b4c"),
    "verilog-func": ("9d640de291af22536772e201e435312d",
                     "d5c023046c569f2f66ea68fdb806ea12"),
    "specjbb-vsnet": ("514fc9b3f7efabce3865062136c0852b",
                      "b7cb2bf40fadbb4ae3be1f12af66c779"),
}


def _figure9_cells() -> list:
    from repro.experiments.common import model_machine
    from repro.experiments.fig9 import DEPTHS, WIDTHS
    from repro.service.client import sweep_requests
    from repro.workloads.suite import REPRESENTATIVES

    prev_lines, next_lines = WIDTHS[0]
    first = model_machine().with_content(
        depth_threshold=DEPTHS[0], reinforcement=False,
        prev_lines=prev_lines, next_lines=next_lines,
    )
    return sweep_requests(first, REPRESENTATIVES, 0.02, seed=1)


class TestPinnedAddresses:
    def test_figure9_baseline_and_first_cdp_cells(self):
        got = {
            name: (request_digest(baseline), request_digest(cdp))
            for name, baseline, cdp in _figure9_cells()
        }
        assert got == PINNED_SWEEP

    def test_figure9_cells_keep_their_address_over_the_wire(self):
        from repro.service.http import request_to_wire

        for name, baseline, cdp in _figure9_cells():
            got = tuple(
                request_digest(SimRequest.from_dict(request_to_wire(cell)))
                for cell in (baseline, cdp)
            )
            assert got == PINNED_SWEEP[name]

    def test_functional_request(self):
        request = SimRequest(machine=MachineConfig(), benchmark="b2c",
                             scale=0.05, seed=3, mode="functional")
        assert request_digest(request) == "adda07ae501d7e9ae8c32d32d89b0b80"

    def test_partial_machine_dict_with_ints_in_float_fields(self):
        request = SimRequest.from_dict({
            "benchmark": "quake", "scale": 1, "seed": 2,
            "warmup_fraction": 0,
            "machine": {
                "bus": {"bandwidth_bytes_per_cycle": 1},
                "content": {"depth_threshold": 5, "next_lines": 2.0},
                "ul2": {"size_bytes": 524288},
                "faults": {"bus_drop_rate": 0},
            },
        })
        assert request_digest(request) == "f848bd4934bf76443ca64dfd330c2aa6"

    def test_prebuilt_tree_gives_the_same_digest(self):
        for _, baseline, cdp in _figure9_cells():
            for cell in (baseline, cdp):
                tree = canonical_request_tree(cell)
                assert request_digest(cell, tree) == request_digest(cell)


@settings(max_examples=40, deadline=None)
@given(machine=machines)
def test_component_dicts_match_dataclasses_asdict(machine):
    assert machine_config_to_dict(machine) == {
        name: dataclasses.asdict(getattr(machine, name))
        for name in machine_config_to_dict(machine)
    }


# -- the fast canonical encoder against the reference -------------------------

class _Wide(enum.IntEnum):
    SMALL = 3
    HUGE = 2 ** 70


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 300),
    st.integers(min_value=-(2 ** 300), max_value=-(2 ** 64)),
    st.sampled_from(list(Priority) + list(_Wide)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=12),
    st.text(alphabet=st.characters(min_codepoint=0x80,
                                   blacklist_categories=("Cs",)),
            max_size=6),
    st.binary(max_size=12),
)

_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=40,
)


def _reference_bytes(tree) -> bytes:
    out = bytearray()
    digest_module._encode(tree, out)
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(tree=_trees)
def test_fast_encoder_matches_the_reference(tree):
    assert digest_module.canonical_bytes(tree) == _reference_bytes(tree)


def test_fast_encoder_matches_the_reference_on_request_trees():
    for _, baseline, cdp in _figure9_cells():
        for cell in (baseline, cdp):
            tree = canonical_request_tree(cell)
            assert digest_module.canonical_bytes(tree) == \
                _reference_bytes(tree)


def test_both_encoders_reject_text_utf8_cannot_encode():
    for tree in ("\ud800", {"k": "\udfff"}, {"\ud800": 1}):
        for encode in (digest_module.canonical_bytes, _reference_bytes):
            with pytest.raises(UnicodeEncodeError):
                encode(tree)
