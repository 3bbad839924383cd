"""Process-to-node mapping data type.

A mapping ``M`` assigns every process of the application to exactly one node
instance of the architecture (the paper writes ``M(Pi) = Nj^h``).  The class
below is a thin, validated, immutable wrapper around a ``{process name: node
name}`` dictionary with the convenience queries used throughout the
heuristics and the SFP analysis; :meth:`ProcessMapping.moved` derives a new
mapping instead of editing one in place.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.exceptions import MappingError
from repro.core.profile import ExecutionProfile


class ProcessMapping:
    """Immutable assignment of processes to architecture nodes.

    Hot paths (scheduler kernels) memoize tables derived from a mapping by
    object identity, which is sound because a mapping never changes.
    """

    def __init__(self, assignment: Optional[Mapping[str, str]] = None) -> None:
        self._assignment: Dict[str, str] = dict(assignment or {})
        # Mapped-name set, built on first use (validate runs per schedule
        # call).
        self._names: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def moved(self, process: str, node: str) -> "ProcessMapping":
        """Return a new mapping with ``process`` (re-)mapped onto ``node``."""
        return ProcessMapping({**self._assignment, process: node})

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_of(self, process: str) -> str:
        try:
            return self._assignment[process]
        except KeyError as exc:
            raise MappingError(f"Process {process} is not mapped to any node") from exc

    def processes_on(self, node: str) -> List[str]:
        """All processes mapped to ``node`` (insertion order)."""
        return [process for process, mapped in self._assignment.items() if mapped == node]

    def is_mapped(self, process: str) -> bool:
        return process in self._assignment

    def mapped_names(self) -> frozenset:
        """The set of mapped process names (cached)."""
        if self._names is None:
            self._names = frozenset(self._assignment)
        return self._names

    def items(self):
        return self._assignment.items()

    def as_dict(self) -> Dict[str, str]:
        return dict(self._assignment)

    def used_nodes(self) -> List[str]:
        """Names of nodes that host at least one process."""
        seen: Dict[str, None] = {}
        for node in self._assignment.values():
            seen.setdefault(node, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._assignment)

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessMapping):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self._assignment.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessMapping({self._assignment})"

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(
        self,
        application: Application,
        architecture: Architecture,
        profile: Optional[ExecutionProfile] = None,
    ) -> None:
        """Check that the mapping is complete and consistent.

        * every process of the application is mapped,
        * every target node exists in the architecture,
        * (optionally) the execution profile has an entry for every
          process/node-type pair at the node's current hardening level.
        """
        application_processes = application.process_name_set()
        mapped_processes = self.mapped_names()
        if application_processes != mapped_processes:
            missing = application_processes - mapped_processes
            if missing:
                raise MappingError(f"Unmapped processes: {sorted(missing)}")
            extra = mapped_processes - application_processes
            raise MappingError(f"Mapping references unknown processes: {sorted(extra)}")
        # Fast path: a mapping assigns many processes to few nodes.  When
        # every used node exists and its supported-process set (cached per
        # (node type, hardening)) covers every mapped process, the mapping is
        # valid without walking the per-process assignment in Python.  The
        # check is sufficient but stricter than necessary, so a miss falls
        # back to the exact per-process loop for the precise error message.
        used_nodes = set(self._assignment.values())
        fast_path_valid = True
        for node_name in used_nodes:
            if not architecture.has_node(node_name):
                fast_path_valid = False
                break
            if profile is not None:
                node = architecture.node(node_name)
                supported = profile.supported_processes(
                    node.node_type.name, node.hardening
                )
                if not supported >= mapped_processes:
                    fast_path_valid = False
                    break
        if fast_path_valid:
            return

        # Slow path: resolve each distinct target node once and name the
        # offending process in the error.
        resolved: Dict[str, tuple] = {}
        supports = profile.supports if profile is not None else None
        for process, node_name in self._assignment.items():
            node_key = resolved.get(node_name)
            if node_key is None:
                if not architecture.has_node(node_name):
                    raise MappingError(
                        f"Process {process} mapped to unknown node {node_name}"
                    )
                if profile is None:
                    resolved[node_name] = node_key = (node_name,)
                else:
                    node = architecture.node(node_name)
                    resolved[node_name] = node_key = (
                        node.node_type.name,
                        node.hardening,
                    )
            if supports is not None and not supports(process, *node_key):
                raise MappingError(
                    f"Process {process} cannot execute on node {node_name} "
                    f"({node_key[0]} at hardening {node_key[1]}): "
                    "no execution profile entry"
                )
