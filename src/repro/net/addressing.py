"""IPv4-style addressing: addresses, subnets, and allocators.

Addresses are modelled as 32-bit integers with the familiar dotted-quad
rendering.  The stack only needs prefix matching and allocation, not the
full RFC corpus, but the semantics here are the real ones so Mobile IP's
"home network vs foreign network" logic behaves authentically.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["IPAddress", "Subnet", "AddressAllocator"]


class IPAddress:
    """A 32-bit network address.

    Immutable by convention and compared by value.  Addresses are dict
    keys and set members, so the hash is the value's; it is the tuple
    hash the class has always had, because a set iterates in hash order.
    """

    def __init__(self, value: int):
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"address out of 32-bit range: {value}")
        self.value = value

    def __eq__(self, other):
        if other.__class__ is IPAddress:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __lt__(self, other):
        if other.__class__ is IPAddress:
            return self.value < other.value
        return NotImplemented

    @staticmethod
    def parse(text: str) -> "IPAddress":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed address: {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return IPAddress(value)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


class Subnet:
    """A network prefix: base address + prefix length.

    Immutable by convention, compared and hashed by value like
    :class:`IPAddress`.
    """

    def __init__(self, network: IPAddress, prefix_len: int):
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        self.network = network
        self.prefix_len = prefix_len
        if network.value & ~self.mask:
            raise ValueError(
                f"host bits set in network address {network}/{prefix_len}"
            )

    def __eq__(self, other):
        if other.__class__ is Subnet:
            return (self.network == other.network
                    and self.prefix_len == other.prefix_len)
        return NotImplemented

    def __hash__(self):
        return hash((self.network, self.prefix_len))

    @staticmethod
    def parse(text: str) -> "Subnet":
        addr, _, plen = text.partition("/")
        if not plen:
            raise ValueError(f"missing prefix length in {text!r}")
        return Subnet(IPAddress.parse(addr), int(plen))

    @property
    def mask(self) -> int:
        if self.prefix_len == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF

    def contains(self, address: IPAddress) -> bool:
        return (address.value & self.mask) == self.network.value

    @property
    def size(self) -> int:
        return 1 << (32 - self.prefix_len)

    def hosts(self) -> Iterator[IPAddress]:
        """Usable host addresses (skips network and broadcast for /30 and wider)."""
        if self.prefix_len >= 31:
            for offset in range(self.size):
                yield IPAddress(self.network.value + offset)
            return
        for offset in range(1, self.size - 1):
            yield IPAddress(self.network.value + offset)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"


class AddressAllocator:
    """Hands out unused host addresses from a subnet (a toy DHCP)."""

    def __init__(self, subnet: Subnet):
        self.subnet = subnet
        self._cursor = subnet.hosts()
        self._allocated: set[IPAddress] = set()

    def allocate(self) -> IPAddress:
        for address in self._cursor:
            if address not in self._allocated:
                self._allocated.add(address)
                return address
        raise RuntimeError(f"subnet {self.subnet} exhausted")

    def reserve(self, address: IPAddress) -> None:
        """Mark a specific address as in use (e.g. a router's)."""
        if not self.subnet.contains(address):
            raise ValueError(f"{address} not in {self.subnet}")
        self._allocated.add(address)

    def release(self, address: IPAddress) -> None:
        self._allocated.discard(address)
