"""CGI-style application programs.

"Various programming languages ... and the CGI for transferring
information between a Web server and a CGI program are necessary"
(paper §7).  A :class:`CGIProgram` is a Python callable mounted on a
path; it receives a :class:`CGIContext` (params, cookies, session,
database handle) and returns an :class:`HTTPResponse` — or is a
generator that yields simulation events (database queries, timeouts)
before returning one.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Optional

from ..sim import Counter
from .http import HTTPRequest, HTTPResponse
from .sessions import Session

__all__ = ["CGIContext", "CGIProgram", "CGIRegistry"]


class CGIContext:
    """Everything a server-side program can see for one request."""

    def __init__(self, request: HTTPRequest, params: dict,
                 session: Optional[Session] = None, database: Any = None,
                 transactions: Any = None, server: Any = None,
                 trace: Any = None, extra: dict | None = None):
        self.request = request
        self.params = params
        self.session = session
        self.database = database  # repro.db.Database when wired
        # repro.db.TransactionManager when wired
        self.transactions = transactions
        self.server = server  # the WebServer, for cross-program state
        self.trace = trace  # TraceContext when the request is traced
        self.extra = {} if extra is None else extra

    def param(self, name: str, default: str = "") -> str:
        return self.params.get(name, default)


class CGIProgram:
    """A mounted server-side program."""

    def __init__(self, path: str, handler: Callable, name: str = ""):
        if not path.startswith("/"):
            raise ValueError(f"CGI path must start with '/': {path!r}")
        self.path = path
        self.handler = handler
        self.name = name or getattr(handler, "__name__", path)
        self.stats = Counter()

    def run(self, context: CGIContext):
        """Generator yielding sim events; returns an HTTPResponse."""
        self.stats.incr("invocations")
        outcome = self.handler(context)
        if inspect.isgenerator(outcome):
            response = yield from outcome
        else:
            response = outcome
        if not isinstance(response, HTTPResponse):
            raise TypeError(
                f"program {self.name} returned {type(response).__name__}, "
                "expected HTTPResponse"
            )
        self.stats.incr(f"status_{response.status}")
        return response


class CGIRegistry:
    """Maps request paths to programs (exact match, then longest prefix)."""

    def __init__(self):
        self._programs: dict[str, CGIProgram] = {}

    def mount(self, path: str, handler: Callable, name: str = "") \
            -> CGIProgram:
        program = CGIProgram(path, handler, name=name)
        if path in self._programs:
            raise ValueError(f"path {path!r} already mounted")
        self._programs[path] = program
        return program

    def resolve(self, path: str) -> Optional[CGIProgram]:
        if path in self._programs:
            return self._programs[path]
        best = None
        for mount_path, program in self._programs.items():
            if not mount_path.endswith("/"):
                continue
            if path.startswith(mount_path):
                if best is None or len(mount_path) > len(best.path):
                    best = program
        return best

    def paths(self) -> list[str]:
        return sorted(self._programs)
