"""HTTP/1.0-subset messages and wire codec.

The host computer's web server (paper §7) and the WAP gateway both
speak this: request line + headers + optional body, one request per
connection by default ("Connection: keep-alive" supported for the
always-on i-mode path).
"""

from __future__ import annotations

import sys
from typing import Optional
from urllib.parse import parse_qsl, quote, unquote, urlsplit

__all__ = ["HTTPRequest", "HTTPResponse", "HTTPParseError",
           "RequestParser", "ResponseParser", "STATUS_REASONS"]

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    302: "Found",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HTTPParseError(Exception):
    """Malformed HTTP on the wire."""


class HTTPRequest:
    def __init__(self, method: str, path: str, headers: dict | None = None,
                 body: bytes = b"", version: str = "HTTP/1.0",
                 trace: object = None):
        # Interned: the access log keeps one method string per verb,
        # not one per request.
        self.method = sys.intern(method.upper())
        self.path = path
        self.headers = ({k.lower(): v for k, v in headers.items()}
                        if headers else {})
        self.body = body
        self.version = version
        # Observability metadata (a TraceContext), never serialized: the
        # server stamps it from the connection the request arrived on.
        self.trace = trace

    @property
    def path_only(self) -> str:
        return urlsplit(self.path).path

    @property
    def query_params(self) -> dict:
        return dict(parse_qsl(urlsplit(self.path).query))

    @property
    def form_params(self) -> dict:
        content_type = self.headers.get("content-type", "")
        if "application/x-www-form-urlencoded" in content_type:
            return dict(parse_qsl(self.body.decode()))
        return {}

    @property
    def params(self) -> dict:
        merged = self.query_params
        merged.update(self.form_params)
        return merged

    @property
    def cookies(self) -> dict:
        header = self.headers.get("cookie", "")
        cookies = {}
        for part in header.split(";"):
            name, _, value = part.strip().partition("=")
            if name:
                cookies[name] = unquote(value)
        return cookies

    def encode(self) -> bytes:
        headers = dict(self.headers)
        if self.body:
            headers["content-length"] = str(len(self.body))
        lines = [f"{self.method} {self.path} {self.version}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + self.body


class HTTPResponse:
    def __init__(self, status: int = 200, headers: dict | None = None,
                 body: bytes = b"", version: str = "HTTP/1.0"):
        self.status = status
        self.headers = ({k.lower(): v for k, v in headers.items()}
                        if headers else {})
        self.body = body.encode() if isinstance(body, str) else body
        self.version = version

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "application/octet-stream")

    def set_cookie(self, name: str, value: str) -> None:
        self.headers["set-cookie"] = f"{name}={quote(value)}"

    def encode(self) -> bytes:
        headers = dict(self.headers)
        headers["content-length"] = str(len(self.body))
        lines = [f"{self.version} {self.status} {self.reason}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + self.body

    @staticmethod
    def ok(body, content_type: str = "text/html") -> "HTTPResponse":
        return HTTPResponse(200, {"content-type": content_type}, body)

    @staticmethod
    def not_found(message: str = "not found") -> "HTTPResponse":
        return HTTPResponse(404, {"content-type": "text/plain"}, message)

    @staticmethod
    def error(message: str = "internal error") -> "HTTPResponse":
        return HTTPResponse(500, {"content-type": "text/plain"}, message)


class _MessageParser:
    """Shared incremental head+body parsing."""

    def __init__(self):
        self._buffer = b""
        self._head: Optional[tuple] = None

    def feed(self, data: bytes) -> list:
        self._buffer += data
        messages = []
        while True:
            message = self._try_parse()
            if message is None:
                return messages
            messages.append(message)

    def _try_parse(self):
        if self._head is None:
            end = self._buffer.find(b"\r\n\r\n")
            if end < 0:
                return None
            head_text = self._buffer[:end].decode("latin-1")
            self._buffer = self._buffer[end + 4:]
            lines = head_text.split("\r\n")
            headers = {}
            for line in lines[1:]:
                name, sep, value = line.partition(":")
                if not sep:
                    raise HTTPParseError(f"bad header line {line!r}")
                headers[name.strip().lower()] = value.strip()
            self._head = (lines[0], headers)
        first_line, headers = self._head
        length = int(headers.get("content-length", "0"))
        if len(self._buffer) < length:
            return None
        body = self._buffer[:length]
        self._buffer = self._buffer[length:]
        self._head = None
        return self._build(first_line, headers, body)

    def _build(self, first_line: str, headers: dict, body: bytes):
        raise NotImplementedError


class RequestParser(_MessageParser):
    """Feed bytes, get HTTPRequest objects."""

    def _build(self, first_line, headers, body):
        parts = first_line.split(" ")
        if len(parts) != 3:
            raise HTTPParseError(f"bad request line {first_line!r}")
        method, path, version = parts
        return HTTPRequest(method=method, path=path, headers=headers,
                           body=body, version=version)


class ResponseParser(_MessageParser):
    """Feed bytes, get HTTPResponse objects."""

    def _build(self, first_line, headers, body):
        parts = first_line.split(" ", 2)
        if len(parts) < 2:
            raise HTTPParseError(f"bad status line {first_line!r}")
        version, status = parts[0], parts[1]
        try:
            code = int(status)
        except ValueError:
            raise HTTPParseError(f"bad status {status!r}") from None
        return HTTPResponse(status=code, headers=headers, body=body,
                            version=version)
