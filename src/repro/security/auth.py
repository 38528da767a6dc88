"""User authentication: salted credential store and bearer tokens.

Covers the "authentication" leg of §8's security requirements for the
application layer (the transport leg is :mod:`repro.security.wtls`).
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from typing import Optional

from ..sim import RandomStream, Simulator

__all__ = ["AuthenticationError", "UserStore", "TokenIssuer"]

_token_counter = itertools.count(1)


class AuthenticationError(Exception):
    """Bad credentials or invalid/expired token."""


def _hash_password(password: str, salt: bytes) -> bytes:
    return hashlib.pbkdf2_hmac("sha256", password.encode(), salt, 1000)


class _UserRecord:
    def __init__(self, username: str, salt: bytes, password_hash: bytes,
                 attributes: dict):
        self.username = username
        self.salt = salt
        self.password_hash = password_hash
        self.attributes = attributes


class UserStore:
    """Salted-and-stretched password storage."""

    def __init__(self, entropy: RandomStream):
        self.entropy = entropy
        self._users: dict[str, _UserRecord] = {}

    def register(self, username: str, password: str, **attributes) -> None:
        if not username or not password:
            raise ValueError("username and password required")
        if username in self._users:
            raise ValueError(f"user {username!r} already exists")
        salt = self.entropy.bytes(16)
        self._users[username] = _UserRecord(
            username=username,
            salt=salt,
            password_hash=_hash_password(password, salt),
            attributes=dict(attributes),
        )

    def verify(self, username: str, password: str) -> dict:
        """Attributes of the user on success; raises otherwise."""
        record = self._users.get(username)
        if record is None:
            # Burn the same work as a real check (timing hygiene).
            _hash_password(password, b"\x00" * 16)
            raise AuthenticationError("unknown user or bad password")
        candidate = _hash_password(password, record.salt)
        if not hmac.compare_digest(candidate, record.password_hash):
            raise AuthenticationError("unknown user or bad password")
        return dict(record.attributes)

    def __contains__(self, username: str) -> bool:
        return username in self._users


class TokenIssuer:
    """HMAC-signed bearer tokens with expiry."""

    def __init__(self, sim: Simulator, secret: bytes, ttl: float = 900.0):
        self.sim = sim
        self.secret = secret
        self.ttl = ttl

    def issue(self, username: str) -> str:
        expires = self.sim.now + self.ttl
        payload = f"{username}:{expires}:{next(_token_counter)}"
        signature = hmac.new(self.secret, payload.encode(),
                             hashlib.sha256).hexdigest()[:24]
        return f"{payload}:{signature}"

    def validate(self, token: str) -> str:
        """The username, if the token is genuine and unexpired."""
        try:
            username, expires_text, counter, signature = token.rsplit(":", 3)
            payload = f"{username}:{expires_text}:{counter}"
            expires = float(expires_text)
        except ValueError:
            raise AuthenticationError("malformed token") from None
        expected = hmac.new(self.secret, payload.encode(),
                            hashlib.sha256).hexdigest()[:24]
        if not hmac.compare_digest(signature, expected):
            raise AuthenticationError("token signature invalid")
        if self.sim.now > expires:
            raise AuthenticationError("token expired")
        return username
