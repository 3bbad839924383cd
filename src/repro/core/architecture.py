"""Platform model: hardened node versions, node types and architectures.

The paper (Section 2) assumes a distributed architecture of computation nodes
connected by a single fault-tolerant bus.  Each node ``Nj`` is available in
several *h-versions* ``Nj^h`` — progressively more hardened (and more
expensive, and usually slower) variants of the same node.  An *architecture*
is a selection of node instances together with the hardening level chosen for
each of them.

Three classes model this:

* :class:`HVersion` — one hardening level of a node type (level + cost).
* :class:`NodeType` — a node with its full ladder of h-versions.
* :class:`Node` — an instance of a node type inside an architecture, carrying
  the currently selected hardening level (mutable, because the optimization
  heuristics raise and lower it).
* :class:`Architecture` — an ordered collection of the nodes on the shared bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Type

from repro.core.exceptions import ModelError, ReproError
from repro.utils.validation import require_name, require_non_negative, require_positive


@dataclass(frozen=True)
class HVersion:
    """One hardening level of a node type.

    Parameters
    ----------
    level:
        Hardening level ``h``; the paper numbers levels from 1 (no hardening
        beyond the baseline) upwards.
    cost:
        Monetary/area cost ``C_j^h`` of using this version.
    """

    level: int
    cost: float

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ModelError(f"Hardening level must be >= 1, got {self.level}")
        require_non_negative(self.cost, f"cost of hardening level {self.level}")


class NodeType:
    """A computation node together with all of its available h-versions.

    Parameters
    ----------
    name:
        Unique name of the node type (e.g. ``"N1"`` or ``"ETM"``).
    h_versions:
        The available hardening levels.  Levels must be the consecutive
        integers ``1..H`` — the optimization heuristics move up and down this
        ladder one level at a time.
    speed_factor:
        Relative speed of the node used by generators and by the architecture
        enumeration order ("fastest architecture first").  A factor of 1.0 is
        the reference node; larger factors mean *slower* nodes (WCETs scale
        up).  Execution profiles may override per-process times arbitrarily;
        the factor is only a ranking hint plus a generator input.
    """

    def __init__(
        self,
        name: str,
        h_versions: Sequence[HVersion],
        speed_factor: float = 1.0,
    ) -> None:
        require_name(name, "NodeType")
        if not h_versions:
            raise ModelError(f"NodeType {name} must offer at least one h-version")
        levels = sorted(version.level for version in h_versions)
        expected = list(range(1, len(levels) + 1))
        if levels != expected:
            raise ModelError(
                f"NodeType {name}: hardening levels must be consecutive integers "
                f"starting at 1, got {levels}"
            )
        self.name = name
        self.speed_factor = require_positive(speed_factor, f"speed_factor of {name}")
        self._versions: Dict[int, HVersion] = {
            version.level: version for version in h_versions
        }

    # ------------------------------------------------------------------
    @property
    def hardening_levels(self) -> List[int]:
        """All available levels in increasing order."""
        return sorted(self._versions)

    @property
    def min_hardening(self) -> int:
        return 1

    @property
    def max_hardening(self) -> int:
        return len(self._versions)

    def version(self, level: int) -> HVersion:
        try:
            return self._versions[level]
        except KeyError as exc:
            raise ModelError(
                f"NodeType {self.name} has no hardening level {level}; "
                f"available: {self.hardening_levels}"
            ) from exc

    def cost(self, level: int) -> float:
        """Cost ``C_j^h`` of the h-version at ``level``."""
        return self.version(level).cost

    @property
    def min_cost(self) -> float:
        """Cost of the cheapest (least hardened) version."""
        return self.cost(self.min_hardening)

    @property
    def max_cost(self) -> float:
        return self.cost(self.max_hardening)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NodeType(name={self.name!r}, levels={self.hardening_levels}, "
            f"speed_factor={self.speed_factor})"
        )


def linear_cost_node_type(
    name: str,
    base_cost: float,
    levels: int,
    speed_factor: float = 1.0,
) -> NodeType:
    """Build a node type whose cost grows linearly with the hardening level.

    This matches the synthetic setup of Section 7 ("we have assumed that the
    hardware cost increases linearly with the hardening level"): level ``h``
    costs ``base_cost * h``.
    """
    require_positive(base_cost, "base_cost")
    if levels < 1:
        raise ModelError(f"levels must be >= 1, got {levels}")
    versions = [HVersion(level=h, cost=base_cost * h) for h in range(1, levels + 1)]
    return NodeType(name, versions, speed_factor=speed_factor)


def doubling_cost_node_type(
    name: str,
    base_cost: float,
    levels: int,
    speed_factor: float = 1.0,
) -> NodeType:
    """Build a node type whose cost doubles with each hardening level.

    The motivational examples of the paper (Fig. 1 and Fig. 3) use costs of
    16/32/64 and 10/20/40 — i.e. a doubling ladder.
    """
    require_positive(base_cost, "base_cost")
    if levels < 1:
        raise ModelError(f"levels must be >= 1, got {levels}")
    versions = [
        HVersion(level=h, cost=base_cost * (2 ** (h - 1))) for h in range(1, levels + 1)
    ]
    return NodeType(name, versions, speed_factor=speed_factor)


class Node:
    """A node instance inside an architecture with its selected h-version."""

    def __init__(self, name: str, node_type: NodeType, hardening: Optional[int] = None) -> None:
        self.name = require_name(name, "Node")
        self.node_type = node_type
        self._hardening = node_type.min_hardening
        if hardening is not None:
            self.hardening = hardening

    # ------------------------------------------------------------------
    @property
    def hardening(self) -> int:
        """Currently selected hardening level ``h``."""
        return self._hardening

    @hardening.setter
    def hardening(self, level: int) -> None:
        # Validate through the node type so invalid levels fail loudly.
        self.node_type.version(level)
        self._hardening = level

    @property
    def cost(self) -> float:
        """Cost of the node at its current hardening level."""
        return self.node_type.cost(self._hardening)

    def copy(self) -> "Node":
        # The name and level were validated when this node was built.
        clone = Node.__new__(Node)
        clone.name = self.name
        clone.node_type = self.node_type
        clone._hardening = self._hardening
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node(name={self.name!r}, type={self.node_type.name!r}, h={self._hardening})"


class Architecture:
    """A selected set of computation nodes connected by one shared bus.

    The architecture owns the nodes (and therefore the hardening decision for
    each of them); the bus has no configuration: the list scheduler
    serializes messages on it first-come-first-served.
    """

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ModelError("An architecture needs at least one computation node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ModelError(f"Duplicate node names in architecture: {names}")
        self._nodes: Dict[str, Node] = {node.name: node for node in nodes}
        # Sorted (node name, node type name) pairs, built on first use; the
        # node set never changes after construction.
        self._node_set: Optional[Tuple[Tuple[str, str], ...]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Architecture":
        """Deep-enough copy: the nodes are copied (their names are already
        known to be unique)."""
        clone = Architecture.__new__(Architecture)
        clone._nodes = {name: node.copy() for name, node in self._nodes.items()}
        clone._node_set = self._node_set
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    def node_set(self) -> Tuple[Tuple[str, str], ...]:
        """The sorted ``(node name, node type name)`` pairs (cached)."""
        if self._node_set is None:
            self._node_set = tuple(
                sorted((node.name, node.node_type.name) for node in self._nodes.values())
            )
        return self._node_set

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise ModelError(f"Unknown node {name} in architecture") from exc

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    # ------------------------------------------------------------------
    # cost and hardening management
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """Total cost of the architecture at the current hardening levels."""
        return sum(node.cost for node in self._nodes.values())

    @property
    def minimum_cost(self) -> float:
        """Cost if every node used its cheapest (least hardened) version."""
        return sum(node.node_type.min_cost for node in self._nodes.values())

    def hardening_vector(self) -> Dict[str, int]:
        """Mapping node name -> current hardening level."""
        return {name: node.hardening for name, node in self._nodes.items()}

    def apply_hardening_vector(self, levels: Dict[str, int]) -> None:
        """Set hardening levels from a ``{node name: level}`` mapping."""
        unknown = set(levels) - set(self._nodes)
        if unknown:
            raise ModelError(f"Hardening vector references unknown nodes {sorted(unknown)}")
        for name, level in levels.items():
            self._nodes[name].hardening = level

    def reexecution_budgets(
        self,
        reexecutions: Optional[Mapping[str, int]],
        error: Type[ReproError] = ModelError,
    ) -> Dict[str, int]:
        """Every node's re-execution budget ``k_j``; omitted nodes get 0.

        A budget for an unknown node, one that is not an integer (a bool is
        an ``Integral`` but not a count, and a float would be truncated) and
        a negative one raise ``error``.
        """
        budgets: Dict[str, int] = {name: 0 for name in self._nodes}
        if reexecutions:
            for name, value in reexecutions.items():
                if name not in budgets:
                    raise error(f"Re-execution budget given for unknown node {name}")
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise error(
                        f"Re-execution budget of node {name} must be an "
                        f"integer, got {value!r}"
                    )
                if value < 0:
                    raise error(
                        f"Re-execution budget of node {name} must be >= 0, got {value}"
                    )
                budgets[name] = int(value)
        return budgets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        summary = ", ".join(
            f"{node.name}:{node.node_type.name}^{node.hardening}" for node in self.nodes
        )
        return f"Architecture({summary}, cost={self.cost})"
