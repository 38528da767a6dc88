"""The system-model graph of Figures 1 and 2.

A :class:`SystemModel` holds instantiated components and typed edges
(association / bidirectional data-control flow), and answers the graph
queries (neighbours, reachability, flow paths along the figures' chains)
that :class:`repro.analysis.model_check.ModelChecker` decides the
paper's structural claims with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .components import Component, ComponentKind, EDGE_ASSOCIATION, EDGE_DATA_FLOW

__all__ = ["Edge", "SystemModel"]


@dataclass(frozen=True)
class Edge:
    source: str   # component name
    target: str
    kind: str     # EDGE_ASSOCIATION | EDGE_DATA_FLOW

    def __post_init__(self):
        if self.kind not in (EDGE_ASSOCIATION, EDGE_DATA_FLOW):
            raise ValueError(f"unknown edge kind {self.kind!r}")


# The data/control-flow chains of the two figures, expressed as the
# sequence of component kinds a user request traverses.
EC_FLOW_CHAIN = (
    ComponentKind.USERS,
    ComponentKind.CLIENT_COMPUTERS,
    ComponentKind.WIRED_NETWORKS,
    ComponentKind.HOST_COMPUTERS,
)

MC_FLOW_CHAIN = (
    ComponentKind.USERS,
    ComponentKind.MOBILE_STATIONS,
    ComponentKind.WIRELESS_NETWORKS,
    ComponentKind.WIRED_NETWORKS,
    ComponentKind.HOST_COMPUTERS,
)


class SystemModel:
    """Instantiated components plus the figure's edges."""

    def __init__(self, name: str = "system"):
        self.name = name
        self._components: dict[str, Component] = {}
        self._edges: list[Edge] = []

    # -- construction -----------------------------------------------------
    def add(self, component: Component) -> Component:
        if component.name in self._components:
            raise ValueError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component
        return component

    def connect(self, source: str, target: str,
                kind: str = EDGE_DATA_FLOW) -> Edge:
        for name in (source, target):
            if name not in self._components:
                raise KeyError(f"unknown component {name!r}")
        edge = Edge(source, target, kind)
        self._edges.append(edge)
        return edge

    # -- inspection ---------------------------------------------------------
    def component(self, name: str) -> Component:
        return self._components[name]

    def components(self, kind: Optional[str] = None) -> list[Component]:
        if kind is None:
            return list(self._components.values())
        return [c for c in self._components.values() if c.kind == kind]

    def edges(self, kind: Optional[str] = None) -> list[Edge]:
        if kind is None:
            return list(self._edges)
        return [e for e in self._edges if e.kind == kind]

    def has_kind(self, kind: str) -> bool:
        return bool(self.components(kind))

    def neighbours(self, name: str, kind: Optional[str] = None) -> list[str]:
        """Components connected to ``name`` (data flow is bidirectional)."""
        out = []
        for edge in self._edges:
            if kind is not None and edge.kind != kind:
                continue
            if edge.source == name:
                out.append(edge.target)
            elif edge.target == name:
                out.append(edge.source)
        return out

    def dangling_edges(self) -> list[Edge]:
        """Edges whose source or target names no known component."""
        return [e for e in self._edges
                if e.source not in self._components
                or e.target not in self._components]

    def unreachable_components(self, start_kind: str) -> list[str]:
        """Component names not reachable from any ``start_kind`` component.

        Traverses both association and data-flow edges in both
        directions; used by the static model checker to find orphaned
        hosts/stations before anything runs.
        """
        frontier = [c.name for c in self.components(start_kind)]
        seen = set(frontier)
        while frontier:
            name = frontier.pop()
            for neighbour in self.neighbours(name):
                if neighbour in self._components and neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return sorted(set(self._components) - seen)

    def flow_path_exists(self, chain: tuple) -> bool:
        """Is there a data-flow path visiting the kinds of ``chain`` in order?"""
        frontier = [c.name for c in self.components(chain[0])]
        for next_kind in chain[1:]:
            next_frontier = []
            for name in frontier:
                for neighbour in self.neighbours(name, EDGE_DATA_FLOW):
                    # Dangling edges must not crash a structural check;
                    # the model checker reports them separately.
                    known = self._components.get(neighbour)
                    if known is not None and known.kind == next_kind:
                        next_frontier.append(neighbour)
            if not next_frontier:
                return False
            frontier = next_frontier
        return True
