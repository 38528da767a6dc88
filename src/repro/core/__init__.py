"""The paper's contribution: the six-component mobile commerce system model.

Taxonomy and graph (:mod:`components`, :mod:`model`), executable
builders for Figures 1 and 2 (:mod:`builder`), the end-to-end
transaction engine (:mod:`transaction`), the paper's claims with the
§1.1 requirements checker (:mod:`requirements`) and figure rendering
(:mod:`render`).
"""

from .builder import (
    ClientHandle,
    ECSystem,
    ECSystemBuilder,
    HOST_DOMAIN,
    HostTier,
    MCSystem,
    MCSystemBuilder,
    StationHandle,
)
from .components import (
    Component,
    ComponentKind,
    EC_COMPONENTS,
    EDGE_ASSOCIATION,
    EDGE_DATA_FLOW,
    MC_COMPONENTS,
)
from .model import EC_FLOW_CHAIN, Edge, MC_FLOW_CHAIN, SystemModel
from .render import render_flow_chain, render_structure
from .requirements import check_requirements
from .transaction import TransactionContext, TransactionEngine, TransactionRecord

__all__ = [
    "ClientHandle",
    "ECSystem",
    "ECSystemBuilder",
    "HOST_DOMAIN",
    "HostTier",
    "MCSystem",
    "MCSystemBuilder",
    "StationHandle",
    "Component",
    "ComponentKind",
    "EC_COMPONENTS",
    "EDGE_ASSOCIATION",
    "EDGE_DATA_FLOW",
    "MC_COMPONENTS",
    "EC_FLOW_CHAIN",
    "Edge",
    "MC_FLOW_CHAIN",
    "SystemModel",
    "render_flow_chain",
    "render_structure",
    "check_requirements",
    "TransactionContext",
    "TransactionEngine",
    "TransactionRecord",
]
