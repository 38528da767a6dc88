"""Host-computer web tier (paper §7): HTTP, web server, CGI, sessions."""

from .cgi import CGIContext, CGIProgram, CGIRegistry
from .client import HTTPClient
from .http import (
    HTTPParseError,
    HTTPRequest,
    HTTPResponse,
    RequestParser,
    ResponseParser,
    STATUS_REASONS,
)
from .server import DEFAULT_HTTP_PORT, WebServer
from .sessions import SESSION_COOKIE, Session, SessionStore
from .templates import TemplateError, render

__all__ = [
    "CGIContext",
    "CGIProgram",
    "CGIRegistry",
    "HTTPClient",
    "HTTPParseError",
    "HTTPRequest",
    "HTTPResponse",
    "RequestParser",
    "ResponseParser",
    "STATUS_REASONS",
    "DEFAULT_HTTP_PORT",
    "WebServer",
    "SESSION_COOKIE",
    "Session",
    "SessionStore",
    "TemplateError",
    "render",
]
