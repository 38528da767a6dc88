"""Tiny server-side template language for application programs.

Two constructs cover everything the content handlers need:

* ``{{ expression }}`` — substitution; dotted access digs into dicts
  and attributes, missing values render empty;
* ``{% for item in items %} ... {% endfor %}`` — iteration (nestable).

Values are HTML/WML-escaped by default; suffix the expression with
``| raw`` to bypass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

__all__ = ["render", "TemplateError"]


class TemplateError(Exception):
    """Malformed template (unclosed tags, bad for-syntax)."""


def render(template: str, context: dict) -> str:
    """Render ``template`` against ``context``."""
    return "".join(_emit(node, context) for node in _parsed(template))


@lru_cache(maxsize=64)
def _parsed(template: str) -> list:
    """The template's node list.  The handlers render a few module
    constants, so each is parsed once; a malformed template raises on
    every call (an exception is not cached)."""
    nodes, remainder = _parse(template, 0, end_tag=None)
    if remainder != len(template):
        raise TemplateError("unexpected trailing endfor")
    return nodes


def _escape(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _lookup(expr: str, context: dict) -> Any:
    value: Any = context
    for part in expr.split("."):
        if isinstance(value, dict):
            value = value.get(part)
        else:
            value = getattr(value, part, None)
        if value is None:
            return None
    return value


def _parse(text: str, pos: int, end_tag):
    """Parse until ``end_tag`` ({% endfor %}) or end of text."""
    nodes: list = []
    while pos < len(text):
        brace = text.find("{", pos)
        if brace < 0:
            if end_tag is not None:
                raise TemplateError(f"missing {{% {end_tag} %}}")
            nodes.append(("text", text[pos:]))
            return nodes, len(text)
        if brace > pos:
            nodes.append(("text", text[pos:brace]))
            pos = brace
        if text.startswith("{{", pos):
            close = text.find("}}", pos)
            if close < 0:
                raise TemplateError("unclosed {{ ... }}")
            nodes.append(("var", text[pos + 2: close].strip()))
            pos = close + 2
        elif text.startswith("{%", pos):
            close = text.find("%}", pos)
            if close < 0:
                raise TemplateError("unclosed {% ... %}")
            tag = text[pos + 2: close].strip()
            pos = close + 2
            if tag == "endfor":
                if end_tag != "endfor":
                    raise TemplateError("endfor without for")
                return nodes, pos
            if tag.startswith("for "):
                parts = tag.split()
                if len(parts) != 4 or parts[2] != "in":
                    raise TemplateError(f"bad for syntax: {tag!r}")
                var_name, iterable_expr = parts[1], parts[3]
                body, pos = _parse(text, pos, end_tag="endfor")
                nodes.append(("for", var_name, iterable_expr, body))
            else:
                raise TemplateError(f"unknown tag {tag!r}")
        else:
            nodes.append(("text", "{"))
            pos += 1
    if end_tag is not None:
        raise TemplateError(f"missing {{% {end_tag} %}}")
    return nodes, pos


def _emit(node, context: dict) -> str:
    kind = node[0]
    if kind == "text":
        return node[1]
    if kind == "var":
        expr = node[1]
        raw = False
        if expr.endswith("| raw"):
            raw = True
            expr = expr[: -len("| raw")].strip()
        elif expr.endswith("|raw"):
            raw = True
            expr = expr[: -len("|raw")].strip()
        value = _lookup(expr, context)
        if value is None:
            return ""
        text = str(value)
        return text if raw else _escape(text)
    if kind == "for":
        _, var_name, iterable_expr, body = node
        iterable = _lookup(iterable_expr, context) or []
        chunks = []
        for item in iterable:
            scoped = dict(context)
            scoped[var_name] = item
            chunks.append("".join(_emit(child, scoped) for child in body))
        return "".join(chunks)
    raise TemplateError(f"unknown node {kind!r}")  # pragma: no cover
