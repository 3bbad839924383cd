"""Memoized incremental evaluation engine for design-space exploration.

See :mod:`repro.engine.engine` for the architecture overview and
``PERFORMANCE.md`` at the repository root for the caching/invalidation model.
"""

from __future__ import annotations

from repro.engine.cache import CacheStats, MemoCache, MISS
from repro.engine.engine import EvaluationEngine
from repro.engine.fingerprint import (
    architecture_fingerprint,
    hardening_fingerprint,
    mapping_fingerprint,
    stable_context_fingerprint,
)
from repro.engine.store import (
    DEFAULT_MAX_BYTES,
    DesignPointStore,
    STORE_SCHEMA_VERSION,
    StoreStats,
    code_version_salt,
)

__all__ = [
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "DesignPointStore",
    "EvaluationEngine",
    "MemoCache",
    "MISS",
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "architecture_fingerprint",
    "code_version_salt",
    "hardening_fingerprint",
    "mapping_fingerprint",
    "stable_context_fingerprint",
]
