"""Name resolution: the name registry.

Hosts in examples and benchmarks are addressed by name
("shop.example.com") rather than raw addresses.  Gateways resolve a
name by reading the registry directly, at zero virtual cost; a
``dns_blackout`` fault unregisters names for a window.
"""

from __future__ import annotations

from typing import Optional

from .addressing import IPAddress

__all__ = ["NameRegistry", "ServiceEndpoint"]


class ServiceEndpoint:
    """A named service's published (address, port) — SRV-record style."""

    def __init__(self, address: IPAddress, port: int):
        self.address = address
        self.port = port


class NameRegistry:
    """Authoritative name -> address map."""

    def __init__(self):
        self._records: dict[str, IPAddress] = {}
        self._services: dict[str, ServiceEndpoint] = {}

    def register(self, name: str, address: IPAddress) -> None:
        if not name:
            raise ValueError("empty DNS name")
        self._records[name.lower()] = address

    def lookup(self, name: str) -> Optional[IPAddress]:
        return self._records.get(name.lower())

    def unregister(self, name: str) -> None:
        self._records.pop(name.lower(), None)

    # -- service (SRV-style) records ------------------------------------
    def register_service(self, name: str, address: IPAddress,
                         port: int) -> None:
        """Publish a named service endpoint (address *and* port).

        Topology builders register gateways here so clients derive
        endpoints — e.g. the standby gateway for failover — from the
        registry instead of hardcoding port arithmetic.
        """
        if not name:
            raise ValueError("empty service name")
        self._services[name.lower()] = ServiceEndpoint(address, int(port))

    def lookup_service(self, name: str) -> Optional[ServiceEndpoint]:
        return self._services.get(name.lower())

    def __len__(self) -> int:
        return len(self._records)
