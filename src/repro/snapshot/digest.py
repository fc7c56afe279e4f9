"""Order-stable hashing of component state trees.

A *state tree* is what ``state_dict()`` hooks return: arbitrarily nested
``dict`` / ``list`` / ``tuple`` structures whose leaves are ``None``,
``bool``, ``int``, ``float``, ``str`` or ``bytes``.  :func:`state_digest`
maps such a tree to a short hex digest with two properties the
snapshot/resume machinery depends on:

* **order-stable** — dict entries are hashed in sorted-key order, so two
  trees that differ only in dict insertion history digest identically.
  State where *order is architectural* (LRU chains, FIFO queues, event
  heaps) must therefore be encoded as lists, which hash in sequence
  order — the ``state_dict`` hooks all follow this rule.
* **unambiguous** — every value is hashed with a type tag and an explicit
  length, so no two distinct trees share an encoding (``1`` vs ``"1"``
  vs ``True``, ``["ab"]`` vs ``["a","b"]``).

Floats are encoded via ``float.hex()`` — exact, every bit of the value
participates — so timestamp arithmetic that drifts by one ULP is caught,
not masked by decimal rounding.

:func:`canonical_bytes` builds the encoding as latin-1 text (one
character per output byte) with the common leaves of a dict — exact
``int``, ASCII ``str``, ``float``, ``bool`` — formatted in line, and
hands everything else (subclasses such as ``IntEnum``, non-ASCII text,
``bytearray``, unsupported values) to :func:`_encode`, the reference
encoder.  :func:`_encode` defines the format; the fast path is tested
byte-identical against it.
"""

from __future__ import annotations

import hashlib

__all__ = ["canonical_bytes", "state_digest"]

#: Digest width in bytes; 16 (128 bits) keeps snapshots and result logs
#: compact while making collisions between two runs of the same trace a
#: non-concern.
_DIGEST_SIZE = 16


def canonical_bytes(tree) -> bytes:
    """Deterministic byte encoding of a state tree (see module docs)."""
    parts: list = []
    _put(tree, parts.append)
    return "".join(parts).encode("latin-1")


def state_digest(tree) -> str:
    """Hex digest of a state tree's canonical encoding."""
    return hashlib.blake2b(
        canonical_bytes(tree), digest_size=_DIGEST_SIZE
    ).hexdigest()


def _put(value, append) -> None:
    """Append *value*'s encoding, as latin-1 text, through *append*."""
    kind = type(value)
    if kind is dict:
        append(f"d{len(value)}:")
        for key in sorted(value):
            item = value[key]
            if type(key) is str and key.isascii():
                head = f"s{len(key)}:{key}"
            elif isinstance(key, str):
                head = _reference_text(key)
            else:
                raise _key_error(key)
            kind = type(item)
            if kind is int:
                body = str(item)
                append(f"{head}i{len(body)}:{body}")
            elif kind is str and item.isascii():
                append(f"{head}s{len(item)}:{item}")
            elif kind is float:
                body = item.hex()
                append(f"{head}f{len(body)}:{body}")
            elif kind is bool:
                append(head + ("T" if item else "F"))
            else:
                append(head)
                _put(item, append)
    elif kind is list or kind is tuple:
        append(f"l{len(value)}:")
        for item in value:
            _put(item, append)
    elif kind is int:
        body = str(value)
        append(f"i{len(body)}:{body}")
    elif kind is str and value.isascii():
        append(f"s{len(value)}:{value}")
    elif kind is float:
        body = value.hex()
        append(f"f{len(body)}:{body}")
    elif value is None:
        append("N")
    elif kind is bool:
        append("T" if value else "F")
    elif kind is bytes:
        append(f"b{len(value)}:")
        append(value.decode("latin-1"))
    else:
        append(_reference_text(value))


def _reference_text(value) -> str:
    out = bytearray()
    _encode(value, out)
    return out.decode("latin-1")


def _key_error(key) -> TypeError:
    return TypeError(
        "state-tree dict keys must be str, got %r "
        "(encode order-significant mappings as lists of pairs)" % (key,)
    )


def _encode(value, out: bytearray) -> None:
    """The reference encoder: the format's definition (see module docs)."""
    # bool must precede int: True is an int instance.
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        body = str(value).encode()
        out += b"i%d:" % len(body)
        out += body
    elif isinstance(value, float):
        body = value.hex().encode()
        out += b"f%d:" % len(body)
        out += body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += b"s%d:" % len(body)
        out += body
    elif isinstance(value, (bytes, bytearray)):
        out += b"b%d:" % len(value)
        out += value
    elif isinstance(value, (list, tuple)):
        out += b"l%d:" % len(value)
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += b"d%d:" % len(value)
        for key in sorted(value):
            if not isinstance(key, str):
                raise _key_error(key)
            _encode(key, out)
            _encode(value[key], out)
    else:
        raise TypeError(
            "unsupported state-tree value %r of type %s"
            % (value, type(value).__name__)
        )
