"""The component taxonomy of Figures 1 and 2.

The paper's contribution is a decomposition: an electronic commerce
system has four components, a mobile commerce system six.  This module
names them, records which decomposition each belongs to, and defines
the edge vocabulary of the figures (association, bidirectional
data/control flow, optional component).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ComponentKind",
    "EDGE_ASSOCIATION",
    "EDGE_DATA_FLOW",
    "EC_COMPONENTS",
    "MC_COMPONENTS",
    "Component",
]

EDGE_ASSOCIATION = "association"
EDGE_DATA_FLOW = "data_flow"  # bidirectional data/control flow


class ComponentKind:
    """Symbolic names for the boxes in Figures 1 and 2."""

    # Shared between EC and MC.
    USERS = "users"
    APPLICATIONS = "applications"          # EC/MC applications
    WIRED_NETWORKS = "wired_networks"
    HOST_COMPUTERS = "host_computers"
    # Host internals named in both figures.
    WEB_SERVERS = "web_servers"
    DATABASE_SERVERS = "database_servers"
    APPLICATION_PROGRAMS = "application_programs"
    USER_INTERFACE = "user_interface"
    # EC-only.
    CLIENT_COMPUTERS = "client_computers"
    # MC-only.
    MOBILE_STATIONS = "mobile_stations"
    MOBILE_MIDDLEWARE = "mobile_middleware"
    WIRELESS_NETWORKS = "wireless_networks"

    ALL = (
        USERS, APPLICATIONS, WIRED_NETWORKS, HOST_COMPUTERS, WEB_SERVERS,
        DATABASE_SERVERS, APPLICATION_PROGRAMS, USER_INTERFACE,
        CLIENT_COMPUTERS, MOBILE_STATIONS, MOBILE_MIDDLEWARE,
        WIRELESS_NETWORKS,
    )


# The top-level decomposition of Figure 1 (four components).
EC_COMPONENTS = (
    ComponentKind.APPLICATIONS,
    ComponentKind.CLIENT_COMPUTERS,
    ComponentKind.WIRED_NETWORKS,
    ComponentKind.HOST_COMPUTERS,
)

# The top-level decomposition of Figure 2 (six components).  Mobile
# middleware carries the figure's "optional component" marking.
MC_COMPONENTS = (
    ComponentKind.APPLICATIONS,
    ComponentKind.MOBILE_STATIONS,
    ComponentKind.MOBILE_MIDDLEWARE,
    ComponentKind.WIRELESS_NETWORKS,
    ComponentKind.WIRED_NETWORKS,
    ComponentKind.HOST_COMPUTERS,
)

MC_OPTIONAL_COMPONENTS = frozenset({ComponentKind.MOBILE_MIDDLEWARE})


class Component:
    """One instantiated box: a kind plus the object implementing it."""

    def __init__(self, kind: str, name: str, implementation: Any = None,
                 optional: bool = False, attributes: dict | None = None):
        if kind not in ComponentKind.ALL:
            raise ValueError(f"unknown component kind {kind!r}")
        self.kind = kind
        self.name = name
        self.implementation = implementation
        self.optional = optional
        self.attributes = {} if attributes is None else attributes

    def __repr__(self) -> str:  # pragma: no cover
        marker = "?" if self.optional else ""
        return f"<Component {self.kind}:{self.name}{marker}>"
