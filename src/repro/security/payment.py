"""Mobile payment: an authorize/capture protocol with replay protection.

"It is estimated that 50 million wireless phone users ... will use
their hand-held devices to authorize payment for premium content and
physical goods" — this module is the authorization machinery.  A
:class:`PaymentProcessor` verifies MAC-signed :class:`PaymentOrder`
messages (integrity + merchant authentication), enforces single-use
nonces (replay protection), tracks account balances, and supports the
two-phase authorize → capture/void flow card networks use.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..sim import Counter, RandomStream, Simulator
from .crypto import mac, verify_mac

__all__ = ["PaymentError", "PaymentOrder", "Authorization", "PaymentProcessor"]


class PaymentError(Exception):
    """Declined, replayed, tampered or malformed payment."""


class PaymentOrder:
    """A signed instruction to move money."""

    def __init__(self, account: str, merchant: str, amount_cents: int,
                 nonce: str, signature: bytes = b""):
        self.account = account
        self.merchant = merchant
        self.amount_cents = amount_cents
        self.nonce = nonce
        self.signature = signature

    def signing_payload(self) -> tuple[bytes, ...]:
        return (self.account.encode(), self.merchant.encode(),
                str(self.amount_cents).encode(), self.nonce.encode())

    def signed(self, key: bytes) -> "PaymentOrder":
        return PaymentOrder(
            account=self.account,
            merchant=self.merchant,
            amount_cents=self.amount_cents,
            nonce=self.nonce,
            signature=mac(key, *self.signing_payload()),
        )


class Authorization:
    """A held (not yet captured) amount."""

    def __init__(self, auth_id: int, account: str, merchant: str,
                 amount_cents: int, state: str = "authorized"):
        self.auth_id = auth_id
        self.account = account
        self.merchant = merchant
        self.amount_cents = amount_cents
        self.state = state  # authorized | captured | voided


class PaymentProcessor:
    """The account-holding, order-verifying payment backend."""

    def __init__(self, sim: Simulator, entropy: RandomStream):
        self.sim = sim
        self.entropy = entropy
        self.accounts: dict[str, int] = {}       # account -> balance (cents)
        self.merchant_keys: dict[str, bytes] = {}
        self.authorizations: dict[int, Authorization] = {}
        # account -> total of its authorizations still "authorized":
        # authorize adds, capture and void subtract.
        self._held: dict[str, int] = {}
        self._seen_nonces: set[str] = set()
        # Processor-local counter: a module-level one made auth ids (which
        # ride in SQL params and confirmation pages, hence packet sizes)
        # depend on how many runs came earlier in the process, breaking
        # run-to-run determinism.
        self._auth_ids = itertools.count(1)
        self.stats = Counter()

    # -- setup -----------------------------------------------------------
    def open_account(self, account: str, balance_cents: int) -> None:
        if balance_cents < 0:
            raise ValueError("negative opening balance")
        self.accounts[account] = balance_cents

    def register_merchant(self, merchant: str) -> bytes:
        """Provision a merchant; returns its signing key."""
        key = self.entropy.bytes(32)
        self.merchant_keys[merchant] = key
        return key

    def make_nonce(self) -> str:
        return self.entropy.bytes(12).hex()

    def balance(self, account: str) -> int:
        return self.accounts.get(account, 0)

    # -- authorize / capture -----------------------------------------------
    def authorize(self, order: PaymentOrder) -> Authorization:
        """Verify the order and place a hold; raises PaymentError."""
        key = self.merchant_keys.get(order.merchant)
        if key is None:
            self.stats.incr("declined_unknown_merchant")
            raise PaymentError(f"unknown merchant {order.merchant!r}")
        if not verify_mac(key, order.signature, *order.signing_payload()):
            self.stats.incr("declined_bad_signature")
            raise PaymentError("order signature invalid (tampered?)")
        if order.nonce in self._seen_nonces:
            self.stats.incr("declined_replay")
            raise PaymentError("replayed order")
        if order.amount_cents <= 0:
            self.stats.incr("declined_bad_amount")
            raise PaymentError("amount must be positive")
        balance = self.accounts.get(order.account)
        if balance is None:
            self.stats.incr("declined_no_account")
            raise PaymentError(f"no account {order.account!r}")
        held = self._held.get(order.account, 0)
        if balance - held < order.amount_cents:
            self.stats.incr("declined_insufficient")
            raise PaymentError("insufficient funds")
        self._seen_nonces.add(order.nonce)
        authorization = Authorization(
            auth_id=next(self._auth_ids),
            account=order.account,
            merchant=order.merchant,
            amount_cents=order.amount_cents,
        )
        self.authorizations[authorization.auth_id] = authorization
        self._held[order.account] = held + order.amount_cents
        self.stats.incr("authorized")
        return authorization

    def capture(self, auth_id: int) -> int:
        """Settle a hold; returns the new account balance."""
        authorization = self._release(auth_id)
        authorization.state = "captured"
        self.accounts[authorization.account] -= authorization.amount_cents
        self.stats.incr("captured")
        return self.accounts[authorization.account]

    def void(self, auth_id: int) -> None:
        """Release a hold without moving money."""
        authorization = self._release(auth_id)
        authorization.state = "voided"
        self.stats.incr("voided")

    def _release(self, auth_id: int) -> Authorization:
        """The still-held authorization ``auth_id``, its hold taken off
        the account's held total."""
        authorization = self.authorizations.get(auth_id)
        if authorization is None:
            raise PaymentError(f"no authorization {auth_id}")
        if authorization.state != "authorized":
            raise PaymentError(
                f"authorization {auth_id} already {authorization.state}"
            )
        self._held[authorization.account] -= authorization.amount_cents
        return authorization
