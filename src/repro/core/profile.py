"""Execution profiles: WCET ``t_ijh`` and failure probability ``p_ijh`` tables.

The paper assumes that, for every process ``Pi``, node type ``Nj`` and
hardening level ``h``, two quantities are known:

* ``t_ijh`` — the worst-case execution time of ``Pi`` on the h-version
  ``Nj^h`` (obtained with WCET analysis tools in the paper), and
* ``p_ijh`` — the probability that a single execution of ``Pi`` on ``Nj^h``
  fails because of a transient fault (obtained with fault injection tools in
  the paper).

:class:`ExecutionProfile` stores both tables and is the single source of
truth queried by the scheduler, the SFP analysis and every heuristic.  It can
be populated three ways:

* explicitly, entry by entry (used for the paper's motivational examples whose
  tables are printed in Fig. 1 and Fig. 3),
* analytically from a :class:`~repro.core.fault_model.FaultModel` (used for
  the large synthetic experiments), or
* empirically from a Monte-Carlo fault-injection campaign
  (:mod:`repro.faults.injection`), which substitutes the fault-injection tools
  referenced by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.application import Application
from repro.core.architecture import Node, NodeType
from repro.core.exceptions import ModelError, ProfileError
from repro.utils.validation import (
    require_in_unit_interval,
    require_name,
    require_positive,
)

ProfileKey = Tuple[str, str, int]


@dataclass(frozen=True)
class ProfileEntry:
    """One row of the execution profile: ``(t_ijh, p_ijh)``."""

    wcet: float
    failure_probability: float

    def __post_init__(self) -> None:
        require_positive(self.wcet, "wcet")
        require_in_unit_interval(self.failure_probability, "failure_probability")


class ExecutionProfile:
    """Table of worst-case execution times and failure probabilities.

    Entries are keyed by ``(process name, node type name, hardening level)``.
    A missing entry means the process cannot be mapped onto that node (the
    mapping heuristics respect this), except that a completely unknown
    process/node pair raises :class:`ProfileError` to catch typos early.

    Like the application, a profile is read-only once an evaluation binds it
    (:meth:`freeze`): every memo keyed on it assumes its content is fixed.
    """

    def __init__(self) -> None:
        self._entries: Dict[ProfileKey, ProfileEntry] = {}
        self._known_processes: Set[str] = set()
        self._known_node_types: Set[str] = set()
        # Per (node type, hardening) {process: p_ijh} rows, read by the SFP
        # analysis and the mapping-validation fast path; built on first use
        # and discarded on every add_entry.
        self._failure_rows: Optional[Dict[Tuple[str, int], Dict[str, float]]] = None
        self._frozen = False

    def freeze(self) -> None:
        """Make the profile read-only: :meth:`add_entry` raises from now on.

        Called by every evaluation that binds the profile (see
        :meth:`~repro.core.application.Application.freeze`).
        """
        self._frozen = True

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_entry(
        self,
        process: str,
        node_type: str,
        hardening: int,
        wcet: float,
        failure_probability: float,
    ) -> None:
        """Add (or overwrite) the entry for one (process, node, level) triple.

        Names are checked the first time the profile sees them (a profile
        holds many rows per name), before anything is stored, so a rejected
        entry leaves the profile unchanged.
        """
        if self._frozen:
            raise ModelError(
                "ExecutionProfile is read-only: an evaluation has bound it"
            )
        if process not in self._known_processes:
            require_name(process, "Process")
        if node_type not in self._known_node_types:
            require_name(node_type, "NodeType")
        key = (process, node_type, hardening)
        self._entries[key] = ProfileEntry(wcet=wcet, failure_probability=failure_probability)
        self._known_processes.add(process)
        self._known_node_types.add(node_type)
        self._failure_rows = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _lookup(self, process: str, node_type: str, hardening: int) -> ProfileEntry:
        key = (process, node_type, hardening)
        try:
            return self._entries[key]
        except KeyError as exc:
            raise ProfileError(
                f"No profile entry for process {process!r} on node type "
                f"{node_type!r} at hardening level {hardening}"
            ) from exc

    def wcet(self, process: str, node_type: str, hardening: int) -> float:
        """Worst-case execution time ``t_ijh`` in milliseconds."""
        return self._lookup(process, node_type, hardening).wcet

    def failure_probability(self, process: str, node_type: str, hardening: int) -> float:
        """Probability ``p_ijh`` that a single execution fails."""
        return self._lookup(process, node_type, hardening).failure_probability

    def wcet_on_node(self, process: str, node: Node) -> float:
        """WCET of ``process`` on a node instance at its current hardening."""
        return self.wcet(process, node.node_type.name, node.hardening)

    def failure_probability_on_node(self, process: str, node: Node) -> float:
        return self.failure_probability(process, node.node_type.name, node.hardening)

    def failure_probabilities(
        self, processes: Sequence[str], node_type: str, hardening: int
    ) -> Tuple[float, ...]:
        """``p_ijh`` of each of ``processes`` on ``(node_type, hardening)``, in order.

        Served from the per-(node type, hardening) ``{process: p_ijh}``
        rows, so the SFP analysis of a design point costs one dictionary
        read per mapped process.  A missing entry raises the
        :class:`ProfileError` of :meth:`failure_probability`.
        """
        row = self._rows().get((node_type, hardening), {})
        try:
            return tuple([row[process] for process in processes])
        except KeyError:
            for process in processes:
                self._lookup(process, node_type, hardening)
            raise

    def _rows(self) -> Dict[Tuple[str, int], Dict[str, float]]:
        """``{(node type, hardening): {process: p_ijh}}``, built in one pass."""
        rows = self._failure_rows
        if rows is None:
            rows = self._failure_rows = {}
            for (process, node_type, hardening), entry in self._entries.items():
                rows.setdefault((node_type, hardening), {})[process] = (
                    entry.failure_probability
                )
        return rows

    def supports(self, process: str, node_type: str, hardening: Optional[int] = None) -> bool:
        """Whether ``process`` can be mapped to ``node_type`` (at ``hardening``)."""
        if hardening is not None:
            return (process, node_type, hardening) in self._entries
        return any(
            key[0] == process and key[1] == node_type for key in self._entries
        )

    def supported_processes(self, node_type: str, hardening: int) -> AbstractSet[str]:
        """All processes with an entry for ``(node_type, hardening)``.

        Backs the mapping-validation fast path: a mapping is trivially valid
        on a node whose supported-process set covers every mapped process.
        """
        return self._rows().get((node_type, hardening), {}).keys()

    def processes(self) -> List[str]:
        return sorted(self._known_processes)

    def node_types(self) -> List[str]:
        return sorted(self._known_node_types)

    def entries(self) -> Dict[ProfileKey, ProfileEntry]:
        """A copy of the raw table (used by serialization)."""
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # validation and derived quantities
    # ------------------------------------------------------------------
    def validate_against(
        self,
        application: Application,
        node_types: Iterable[NodeType],
    ) -> None:
        """Check the profile covers every (process, node type, level) triple.

        A profile may legitimately omit triples for processes that cannot run
        on a given node type, but the common case in the paper is full
        coverage; this helper lets generators and loaders verify it.
        """
        problems: List[str] = []
        for process in application.process_names():
            for node_type in node_types:
                for level in node_type.hardening_levels:
                    if (process, node_type.name, level) not in self._entries:
                        problems.append(f"({process}, {node_type.name}, h={level})")
        if problems:
            preview = ", ".join(problems[:8])
            raise ProfileError(
                f"Execution profile is missing {len(problems)} entries, e.g. {preview}"
            )
