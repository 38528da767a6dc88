"""Cookie-backed server-side sessions.

"Most of the mobile commerce application programs reside in this
component, except for some client-side programs such as cookies" — the
host keeps the state, the device carries only the session cookie.

A session is kept only once a program writes to it.  Every request
without a live cookie gets a new session and a ``Set-Cookie``, but the
store registers that session only if the CGI program put something in
its ``data``; a cookie naming a session that was never written gets a
fresh session, as one naming an expired session does.  So a client
that never sends its cookie back costs the store nothing.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Optional

from ..sim import Simulator
from .http import HTTPRequest, HTTPResponse

__all__ = ["Session", "SessionStore", "SESSION_COOKIE"]

SESSION_COOKIE = "msid"


class Session:
    def __init__(self, session_id: str, created_at: float, last_seen: float,
                 data: dict | None = None):
        self.session_id = session_id
        self.created_at = created_at
        self.last_seen = last_seen
        self.data = {} if data is None else data

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def __setitem__(self, key: str, value: Any) -> None:
        self.data[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __contains__(self, key: str) -> bool:
        return key in self.data


class SessionStore:
    """Creates, resolves and expires sessions."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        # Idle seconds before a session expires (30 minutes).
        self.ttl = 1800.0
        self._sessions: dict[str, Session] = {}
        # Store-local counter: a module-level one made session ids depend
        # on how many stores had run earlier in the process, breaking
        # run-to-run determinism.
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        return len(self._sessions)

    def _new_id(self) -> str:
        seed = f"{next(self._counter)}:{self.sim.now}"
        return hashlib.sha256(seed.encode()).hexdigest()[:16]

    def create(self) -> Session:
        """A new session with a fresh id, not yet kept (see attach)."""
        return Session(
            session_id=self._new_id(),
            created_at=self.sim.now,
            last_seen=self.sim.now,
        )

    def get(self, session_id: str) -> Optional[Session]:
        session = self._sessions.get(session_id)
        if session is None:
            return None
        if self.sim.now - session.last_seen > self.ttl:
            del self._sessions[session.session_id]
            return None
        session.last_seen = self.sim.now
        return session

    # -- HTTP integration -------------------------------------------------
    def resolve(self, request: HTTPRequest) -> tuple[Session, bool]:
        """Session for the request's cookie; (session, is_new)."""
        session_id = request.cookies.get(SESSION_COOKIE)
        if session_id:
            session = self.get(session_id)
            if session is not None:
                return session, False
        return self.create(), True

    def attach(self, response: HTTPResponse, session: Session) -> None:
        """Set the new session's cookie; keep the session if written."""
        response.set_cookie(SESSION_COOKIE, session.session_id)
        if session.data:
            self._sessions[session.session_id] = session
