"""Memoized incremental evaluation engine for the DSE hot path.

One :class:`EvaluationEngine` is bound to a single ``(application, profile)``
context — the quantities that stay fixed while the design-space exploration
stack (:class:`~repro.core.design_strategy.DesignStrategy` →
:class:`~repro.core.mapping.MappingAlgorithm` →
:class:`~repro.core.redundancy.RedundancyOpt` →
:class:`~repro.core.reexecution.ReExecutionOpt` → SFP /
:class:`~repro.scheduling.list_scheduler.ListScheduler`) varies architecture,
mapping and hardening.  Every design point of that stack is evaluated through
an engine: each entry point takes ``engine=None``, resolves it once with
:func:`resolve_engine` (a fresh engine when none is given) and passes it on
explicitly to the layer below.  The engine owns four memo tables:

``decisions``
    Full :class:`~repro.core.redundancy.RedundancyDecision` per design point,
    keyed by (architecture, mapping, hardening vector).
    Hits skip the re-execution optimization *and* the list scheduler.
``optimizations``
    Outcome of a whole redundancy-optimizer run (Phase 1 + Phase 2 for OPT,
    the locked hardening vector for MIN and MAX) per (policy, architecture,
    mapping).  Hits make revisited tabu-search moves free.
``exceedance``
    Per-node formula (4) keyed by the ordered tuple of per-process failure
    probabilities (which canonically encodes node type × hardening level ×
    mapped process multiset) plus the re-execution budget ``k``.  Changing one
    node's hardening or moving one process only invalidates — by key
    construction — the affected node(s).
``system``
    Formula (5) unions keyed by the ordered per-node exceedance tuple.

All memoized computations are deterministic pure functions of their keys, so
a warm engine returns bit-identical results to a cold one; this is asserted
by the equivalence test-suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.application import Application
from repro.core.profile import ExecutionProfile
from repro.engine.cache import MISS, CacheStats, MemoCache
from repro.engine.fingerprint import stable_context_fingerprint
from repro.kernels.base import SFPKernel
from repro.kernels.registry import SFP_KERNELS


class EvaluationEngine:
    """Memoization context for one (application, profile) exploration.

    The engine is intentionally dumb about *what* it caches: the redundancy
    and mapping layers build the keys (see :mod:`repro.engine.fingerprint`)
    and decide what to store.  The engine guarantees bookkeeping (hit/miss
    counters, evaluation counts) and context safety via :meth:`matches` —
    :func:`resolve_engine` rejects an engine bound to another
    application/profile.

    No memo key encodes the application or profile content, so construction
    freezes both: from then on their mutators raise
    :class:`~repro.core.exceptions.ModelError` instead of letting an
    in-place edit reuse (or persist) results of the old content.
    """

    def __init__(self, application: Application, profile: ExecutionProfile) -> None:
        application.freeze()
        profile.freeze()
        self.application = application
        self.profile = profile
        #: SFP kernel backend computing cache misses: the production backend
        #: when the engine is built.  Backends are bit-identical, so the
        #: kernel is *not* part of any memo key.
        self.kernel: SFPKernel = SFP_KERNELS.active()
        #: Lazily-computed context hash (see :meth:`stable_context`) —
        #: ``None`` until first requested.
        self._stable_context: Optional[str] = None
        self.decisions = MemoCache("decisions")
        self.optimizations = MemoCache("optimizations")
        self.exceedance = MemoCache("exceedance")
        self.system = MemoCache("system_failure")
        #: Number of design points actually evaluated (decision-cache misses
        #: that ran the re-execution optimizer + scheduler).
        self.evaluations = 0

    # ------------------------------------------------------------------
    # context safety
    # ------------------------------------------------------------------
    def stable_context(self) -> str:
        """Cross-process content hash of the bound context, computed once.

        The application and profile are frozen for the engine's lifetime
        (the premise of every memo table), so the canonical encoding —
        which walks both structures in full — runs at most once per engine
        instead of once per store interaction (warm + persist + path).
        """
        if self._stable_context is None:
            self._stable_context = stable_context_fingerprint(
                self.application, self.profile
            )
        return self._stable_context

    def matches(self, application: Application, profile: ExecutionProfile) -> bool:
        """Is the engine bound to exactly this (application, profile) pair?

        Identity comparison keeps the check O(1) on the hot path; the content
        fingerprint (:meth:`stable_context`) names persisted artifacts.
        """
        return application is self.application and profile is self.profile

    # ------------------------------------------------------------------
    # incremental SFP layer
    # ------------------------------------------------------------------
    def node_exceedance(self, probabilities: Tuple[float, ...], reexecutions: int) -> float:
        """Memoized formula (4) for one node.

        The probability tuple is kept in mapping order (not sorted): the DP
        accumulates floating-point sums whose last bits depend on the order,
        so a sorted key would let two orderings share one entry that is
        bit-identical to the kernel's result for only one of them.
        """
        cache = self.exceedance
        key = (probabilities, reexecutions)
        value = cache.get(key)
        if value is MISS:
            value = cache.put(
                key, self.kernel.probability_exceeds(probabilities, reexecutions)
            )
        return value

    def system_failure(self, exceedances: Tuple[float, ...]) -> float:
        """Memoized formula (5) for an ordered per-node exceedance tuple."""
        cache = self.system
        value = cache.get(exceedances)
        if value is MISS:
            value = cache.put(exceedances, self.kernel.system_failure(exceedances))
        return value

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def caches(self) -> Sequence[MemoCache]:
        return (
            self.decisions,
            self.optimizations,
            self.exceedance,
            self.system,
        )

    @property
    def stats(self) -> CacheStats:
        """Aggregate hit/miss counters over all memo tables."""
        total = CacheStats()
        for cache in self.caches:
            total = total + cache.stats
        return total

    @property
    def disk_hits(self) -> int:
        """Hits served by entries preloaded from the persistent store."""
        return sum(cache.disk_hits for cache in self.caches)

    def stats_by_cache(self) -> Dict[str, Dict[str, float]]:
        return {cache.name: cache.stats.as_dict() for cache in self.caches}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        total = self.stats
        return (
            f"EvaluationEngine(application={self.application.name!r}, "
            f"hits={total.hits}, misses={total.misses}, "
            f"evaluations={self.evaluations})"
        )


def resolve_engine(
    engine: Optional[EvaluationEngine],
    application: Application,
    profile: ExecutionProfile,
) -> EvaluationEngine:
    """The engine an entry point evaluates ``(application, profile)`` on.

    ``None`` gets a fresh engine for this context, so an engine-free call
    still memoizes within itself; an engine bound to another context is an
    error (its memo keys do not encode the application or profile, so its
    entries would alias); otherwise ``engine`` itself is returned.
    """
    if engine is None:
        return EvaluationEngine(application, profile)
    if not engine.matches(application, profile):
        raise ValueError(
            f"EvaluationEngine bound to application {engine.application.name!r} "
            f"cannot evaluate application {application.name!r}: an engine "
            "serves exactly the (application, profile) objects it was built for"
        )
    return engine
