"""Scheduling priorities (partial critical path / upward rank).

The list scheduler orders ready processes by the length of the longest path
from the process to any sink of its task graph, measured with the execution
times of the processes on their *mapped* nodes at the *current* hardening
levels, plus worst-case message transmission times for dependencies that cross
nodes.  This is the classic partial-critical-path priority used by the
authors' earlier mapping/scheduling work.
"""

from __future__ import annotations

from typing import Dict

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile


def critical_path_priorities(
    application: Application,
    architecture: Architecture,
    mapping: ProcessMapping,
    profile: ExecutionProfile,
) -> Dict[str, float]:
    """Partial-critical-path priority of every process of the application.

    A larger value means the process lies on a longer remaining path and is
    scheduled earlier among ready processes.
    """
    priorities: Dict[str, float] = {}
    node_of = mapping.node_of
    wcet = profile.wcet
    # (type name, hardening) per node, resolved once instead of per process.
    node_key = {
        node.name: (node.node_type.name, node.hardening) for node in architecture
    }
    for graph in application.graphs:
        successor_map = graph.adjacency_maps()[1]
        message_between = graph.message_between
        for process_name in reversed(graph.topological_order()):
            own_node = node_of(process_name)
            type_name, hardening = node_key[own_node]
            own_time = wcet(process_name, type_name, hardening)
            best_tail = 0.0
            for successor in successor_map[process_name]:
                tail = priorities[successor]
                if node_of(successor) != own_node:
                    message = message_between(process_name, successor)
                    if message is not None:
                        tail += message.transmission_time
                if tail > best_tail:
                    best_tail = tail
            priorities[process_name] = own_time + best_tail
    return priorities
