"""Canonical fingerprints of design-point components.

The evaluation engine memoizes design-point evaluations; the cache keys must
be *canonical* — two logically identical inputs must map to the same key —
and cheap to compute, because a fingerprint is taken for every evaluated
design point on the DSE hot path.

Fingerprint contracts:

* A :class:`~repro.core.mapping_model.ProcessMapping` is identified by the
  sorted ``(process, node)`` pairs — insertion order is irrelevant.
* An :class:`~repro.core.architecture.Architecture` is identified by the
  sorted ``(node name, node type name)`` pairs.  The hardening *ladder* of a
  node type is part of the platform and therefore covered by the engine's
  context fingerprint, not repeated per design point.  The *current* hardening
  levels are deliberately excluded: the redundancy heuristics mutate levels
  while exploring, and the hardening vector is keyed separately.
* A hardening vector is identified by its sorted ``(node name, level)`` pairs.
* Application and execution profile are identified together by
  :func:`stable_context_fingerprint`, a content hash computed once per engine
  (they are immutable for the duration of one exploration).  It is the only
  fingerprint that is encoded and digested; the others are plain sorted
  tuples.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Tuple, Union

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile

MappingFingerprint = Tuple[Tuple[str, str], ...]
HardeningFingerprint = Tuple[Tuple[str, int], ...]
ArchitectureFingerprint = Tuple[Tuple[str, str], ...]


def _canonical_encode(value: object) -> bytes:
    """Type-tagged canonical byte encoding of fingerprint key material.

    The encoding is injective over the supported types (``None``, ``bool``,
    ``int``, ``float``, ``str``, ``bytes`` and nested tuples/lists thereof):
    every value gets a one-byte type tag and a self-delimiting payload, so no
    two distinct values share an encoding and no ``repr()`` formatting ever
    enters a cache key.  Floats encode via ``float.hex()``, which is exact
    and locale/platform independent; a string's length is its UTF-8 byte
    length.  A tuple or list is encoded in one pass into a single buffer
    (:func:`_encode_items`).
    """
    if isinstance(value, (tuple, list)):
        buffer = bytearray()
        _encode_items(value, buffer, {})
        return bytes(buffer)
    if value is None:
        return b"N;"
    if isinstance(value, bool):  # before int: bool is an int subtype
        return b"B1;" if value else b"B0;"
    if isinstance(value, int):
        payload = str(value).encode("ascii")
        return b"I" + payload + b";"
    if isinstance(value, float):
        return b"F" + value.hex().encode("ascii") + b";"
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return b"S" + str(len(payload)).encode("ascii") + b":" + payload
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode("ascii") + b":" + value
    raise TypeError(
        f"unsupported fingerprint key material of type {type(value).__name__}"
    )


def _encode_items(
    items: Union[Tuple[object, ...], List[object]],
    buffer: bytearray,
    strings: Dict[str, bytes],
) -> None:
    """Append the encoding of one tuple or list to ``buffer``.

    Exact ``str``/``float``/``int``/``tuple`` items are encoded inline — no
    call per scalar — and each distinct string is encoded once per
    :func:`_canonical_encode` call (``strings``), because process and node
    names repeat in every profile row.  Any other item goes through the
    module-level :func:`_canonical_encode`, so a wrapper installed there
    (the determinism sanitizer's) still sees nested sets and dicts.  One
    growing buffer, not a list of pieces, keeps the peak memory near the
    size of the encoding.
    """
    buffer += b"T%d:" % len(items)
    for item in items:
        kind = type(item)
        if kind is str:
            encoded = strings.get(item)
            if encoded is None:
                payload = item.encode("utf-8")
                encoded = strings[item] = b"S%d:%s" % (len(payload), payload)
            buffer += encoded
        elif kind is float:
            buffer += b"F%s;" % item.hex().encode("ascii")
        elif kind is int:
            buffer += b"I%d;" % item
        elif kind is tuple:
            _encode_items(item, buffer, strings)
        else:
            buffer += _canonical_encode(item)
    buffer += b")"


def mapping_fingerprint(mapping: ProcessMapping) -> MappingFingerprint:
    """Canonical fingerprint of a process-to-node mapping (cached on it)."""
    return mapping.sorted_items()


def hardening_fingerprint(hardening: Mapping[str, int]) -> HardeningFingerprint:
    """Canonical fingerprint of a hardening vector."""
    return tuple(sorted(hardening.items()))


def architecture_fingerprint(architecture: Architecture) -> ArchitectureFingerprint:
    """Canonical fingerprint of an architecture's node set (levels excluded;
    cached on it)."""
    return architecture.node_set()


def _canonical_application(application: Application) -> Tuple[object, ...]:
    """Canonical content tuple of an application's graphs and global parameters."""
    graphs = []
    for graph in application.graphs:
        processes = tuple(sorted(graph.process_names))
        edges = tuple(
            sorted(
                (message.source, message.destination, message.transmission_time)
                for message in graph.messages
            )
        )
        graphs.append((graph.name, processes, edges))
    overheads = tuple(
        sorted(
            (name, application.recovery_overhead_of(name))
            for name in application.process_names()
        )
    )
    return (
        application.name,
        application.deadline,
        application.period,
        application.reliability_goal,
        application.time_unit,
        tuple(graphs),
        overheads,
    )


def _canonical_profile(profile: ExecutionProfile) -> Tuple[object, ...]:
    """Canonical content tuple of an execution profile's tables."""
    return tuple(
        sorted(
            (key, entry.wcet, entry.failure_probability)
            for key, entry in profile.entries().items()
        )
    )


def stable_context_fingerprint(
    application: Application, profile: ExecutionProfile
) -> str:
    """Cross-process content hash of one (application, profile) context.

    SHA-256 (hex) of the type-tagged canonical encoding of the application
    and profile content tuples, with no ``hash()``/``repr()`` anywhere on
    the path, so the value is stable across interpreter runs
    (``PYTHONHASHSEED``), platforms and processes.
    It is the key the persistent design-point store files are named by.
    """
    canonical = (_canonical_application(application), _canonical_profile(profile))
    return hashlib.sha256(_canonical_encode(canonical)).hexdigest()
