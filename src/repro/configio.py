"""Machine-configuration serialization (JSON).

Lets experiment configurations live in version-controlled files::

    config = load_machine_config("machines/paper.json")
    save_machine_config(config.with_content(depth_threshold=5), "deep.json")

The JSON layout mirrors the dataclass structure: one object per component,
omitted fields take the Table 1 defaults.
"""

from __future__ import annotations

import dataclasses
import json
import operator

from repro.params import (
    BusConfig,
    CacheConfig,
    ContentConfig,
    CoreConfig,
    FaultConfig,
    MachineConfig,
    MarkovConfig,
    StrideConfig,
    TLBConfig,
)

__all__ = [
    "canonical_machine_dict",
    "machine_config_to_dict",
    "machine_config_from_dict",
    "save_machine_config",
    "load_machine_config",
]

_COMPONENTS = {
    "core": CoreConfig,
    "l1d": CacheConfig,
    "ul2": CacheConfig,
    "dtlb": TLBConfig,
    "bus": BusConfig,
    "stride": StrideConfig,
    "content": ContentConfig,
    "markov": MarkovConfig,
    "faults": FaultConfig,
}


class _FieldTable:
    """What the converters need to know about one component class.

    Built once per class at import: ``dataclasses.fields`` and
    ``asdict`` re-derive all of it on every call, and content-addressing
    a request converts every component of its machine.
    """

    __slots__ = ("cls", "names", "known", "numeric", "_values")

    def __init__(self, cls) -> None:
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.names = tuple(f.name for f in fields)
        self.known = frozenset(self.names)
        #: Field name -> "int" / "float" for the numerically typed ones.
        self.numeric = {}
        for f in fields:
            declared = getattr(f.type, "__name__", f.type)  # str under PEP 563
            if declared in ("int", "float"):
                self.numeric[f.name] = declared
        self._values = operator.attrgetter(*self.names)

    def as_dict(self, component) -> dict:
        """``dataclasses.asdict`` for a component of scalar fields."""
        values = self._values(component)
        if len(self.names) == 1:
            values = (values,)
        return dict(zip(self.names, values))

    def normalized(self, component: dict) -> dict:
        """Coerce field values to their declared numeric types.

        JSON (and hand-written config dicts) blur ``1`` / ``1.0``; a
        float-typed field loaded as an int would survive dataclass
        construction but produce a *different* canonical form — and thus
        a different content-address — than the same machine written with
        a float.  Dedup keying (:mod:`repro.service`) requires
        normalizing a config to be idempotent, so numeric types are
        pinned here.
        """
        normalized = dict(component)
        numeric = self.numeric
        for key, value in component.items():
            declared = numeric.get(key)
            if declared is None or isinstance(value, bool):
                continue  # bool is an int subclass; never silently demote it
            if declared == "float" and isinstance(value, int):
                normalized[key] = float(value)
            elif (declared == "int" and isinstance(value, float)
                    and value.is_integer()):
                normalized[key] = int(value)
        return normalized


_TABLES = {name: _FieldTable(cls) for name, cls in _COMPONENTS.items()}


def machine_config_to_dict(config: MachineConfig) -> dict:
    """Convert a :class:`MachineConfig` to plain nested dicts."""
    return {
        name: table.as_dict(getattr(config, name))
        for name, table in _TABLES.items()
    }


#: The model machine's components as dicts: what a partial cache
#: component in :func:`machine_config_from_dict` is merged over.
_DEFAULTS = machine_config_to_dict(MachineConfig())

#: Fields that still key the canonical form when the component is
#: disabled.  Everything else in a disabled prefetcher/fault component is
#: a tuning knob the simulators provably never read (the engine checks
#: ``enabled`` first), so the canonical form masks it to its default —
#: every disabled-content baseline of a knob sweep then shares one
#: content address.  ``address_bits``/``word_size`` stay keyed: they
#: shape address masking and pointer scanning structurally, not just the
#: prefetcher's heuristics.
_KEYED_WHEN_DISABLED = {
    "stride": {"enabled"},
    "content": {"enabled", "address_bits", "word_size"},
    "markov": {"enabled"},
    "faults": {"enabled"},
}

#: Normalized defaults a disabled component's unkeyed fields mask to.
_DISABLED_DEFAULTS = {
    name: _TABLES[name].normalized(_TABLES[name].as_dict(_COMPONENTS[name]()))
    for name in _KEYED_WHEN_DISABLED
}


def canonical_machine_dict(config: MachineConfig) -> dict:
    """Normalized, default-filled dict form of *config*.

    The canonical form is what content-addressing hashes: two configs
    describing the same machine — whatever mix of ints-for-floats,
    load/dump round-trips, or leftover knobs on disabled components
    produced them — yield byte-identical canonical trees
    (``digest(load(dump(c))) == digest(c)``).
    """
    canonical = {}
    for name, table in _TABLES.items():
        component = table.normalized(table.as_dict(getattr(config, name)))
        keyed = _KEYED_WHEN_DISABLED.get(name)
        if keyed is not None and component.get("enabled") is False:
            defaults = _DISABLED_DEFAULTS[name]
            component = {
                key: value if key in keyed else defaults[key]
                for key, value in component.items()
            }
        canonical[name] = component
    return canonical


def machine_config_from_dict(data: dict) -> MachineConfig:
    """Build a :class:`MachineConfig` from (possibly partial) dicts.

    Unknown component or field names raise ``ValueError`` — a silently
    ignored typo in a config file is worse than an error.
    """
    kwargs = {}
    unknown = set(data) - set(_COMPONENTS)
    if unknown:
        raise ValueError(
            "unknown machine components: %s" % ", ".join(sorted(unknown))
        )
    for name, table in _TABLES.items():
        if name not in data:
            continue
        component = data[name]
        if not isinstance(component, dict):
            raise ValueError(
                "component %r must be an object, got %s"
                % (name, type(component).__name__)
            )
        bad = set(component) - table.known
        if bad:
            raise ValueError(
                "unknown fields for %s: %s" % (name, ", ".join(sorted(bad)))
            )
        component = table.normalized(component)
        if name in ("l1d", "ul2"):
            # CacheConfig has required fields; merge over the defaults.
            component = dict(_DEFAULTS[name], **component)
        kwargs[name] = table.cls(**component)
    return MachineConfig(**kwargs)


def save_machine_config(config: MachineConfig, path: str) -> None:
    """Write *config* to *path* as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(machine_config_to_dict(config), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def load_machine_config(path: str) -> MachineConfig:
    """Read a machine configuration from a JSON file.

    Malformed files raise :class:`ValueError` naming the offending path —
    a config typo must not surface as a bare ``json.JSONDecodeError`` (or
    worse, an ``AttributeError`` off a non-dict top level) deep inside an
    experiment sweep.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                "machine config %r is not valid JSON: %s" % (path, exc)
            ) from exc
    if not isinstance(data, dict):
        raise ValueError(
            "machine config %r must contain a JSON object at the top "
            "level, got %s" % (path, type(data).__name__)
        )
    return machine_config_from_dict(data)
