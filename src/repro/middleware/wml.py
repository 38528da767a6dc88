"""WML (Wireless Markup Language) documents and the WMLC binary codec.

WML is WAP's host language (paper Table 3): a *deck* of *cards*, each
card a screenful of content.  :class:`WMLDocument` is the object model;
``to_xml``/``parse_wml`` give the textual form; ``encode_wmlc`` /
``decode_wmlc`` implement the tokenised binary encoding the real WAP
gateway ships over the air — markup tags collapse to single bytes, which
is why WMLC decks are meaningfully smaller than their XML form (measured
by the Table 3 benchmark).
"""

from __future__ import annotations

import struct
from typing import Optional

__all__ = [
    "WMLCard",
    "WMLDocument",
    "WMLError",
    "parse_wml",
    "encode_wmlc",
    "decode_wmlc",
    "WML_CONTENT_TYPE",
    "WMLC_CONTENT_TYPE",
]

WML_CONTENT_TYPE = "text/vnd.wap.wml"
WMLC_CONTENT_TYPE = "application/vnd.wap.wmlc"


class WMLError(Exception):
    """Malformed WML text or WMLC bytes."""


class WMLCard:
    """One screenful: id, title, paragraphs and navigation links."""

    def __init__(self, card_id: str, title: str = "",
                 paragraphs: list[str] | None = None,
                 links: list[tuple[str, str]] | None = None):
        self.card_id = card_id
        self.title = title
        self.paragraphs = [] if paragraphs is None else paragraphs
        self.links = [] if links is None else links  # (href, label)

    def __eq__(self, other):
        if other.__class__ is WMLCard:
            return ((self.card_id, self.title, self.paragraphs, self.links)
                    == (other.card_id, other.title, other.paragraphs,
                        other.links))
        return NotImplemented


class WMLDocument:
    """A deck of cards."""

    def __init__(self, cards: list[WMLCard] | None = None):
        self.cards = [] if cards is None else cards

    def __eq__(self, other):
        if other.__class__ is WMLDocument:
            return self.cards == other.cards
        return NotImplemented

    def card(self, card_id: str) -> WMLCard:
        for card in self.cards:
            if card.card_id == card_id:
                return card
        raise KeyError(f"no card {card_id!r}")

    def to_xml(self) -> str:
        chunks = ['<?xml version="1.0"?>', "<wml>"]
        for card in self.cards:
            title = f' title="{_escape(card.title)}"' if card.title else ""
            chunks.append(f'<card id="{_escape(card.card_id)}"{title}>')
            for paragraph in card.paragraphs:
                chunks.append(f"<p>{_escape(paragraph)}</p>")
            for href, label in card.links:
                chunks.append(
                    f'<p><a href="{_escape(href)}">{_escape(label)}</a></p>'
                )
            chunks.append("</card>")
        chunks.append("</wml>")
        return "\n".join(chunks)

    @property
    def text_size(self) -> int:
        return len(self.to_xml().encode())


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _unescape(text: str) -> str:
    for entity, char in [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                         ("&amp;", "&")]:
        text = text.replace(entity, char)
    return text


# ------------------------------------------------------------ text parser
def parse_wml(text: str) -> WMLDocument:
    """Parse the XML form produced by :meth:`WMLDocument.to_xml`.

    A pragmatic parser for our own serialisation (plus whitespace and
    attribute-order tolerance) — not a general XML engine.
    """
    document = WMLDocument()
    pos = 0
    current: Optional[WMLCard] = None
    if "<wml" not in text:
        raise WMLError("not a WML document (no <wml> element)")
    while True:
        start = text.find("<", pos)
        if start < 0:
            break
        end = text.find(">", start)
        if end < 0:
            raise WMLError("unterminated tag")
        tag = text[start + 1: end].strip()
        pos = end + 1
        if tag.startswith("card"):
            attrs = _parse_attrs(tag)
            current = WMLCard(card_id=attrs.get("id", ""),
                              title=attrs.get("title", ""))
            document.cards.append(current)
        elif tag == "/card":
            current = None
        elif tag == "p" and current is not None:
            close = text.find("</p>", pos)
            if close < 0:
                raise WMLError("unterminated <p>")
            inner = text[pos:close]
            pos = close + len("</p>")
            anchor = inner.find("<a ")
            if anchor >= 0:
                attrs_end = inner.find(">", anchor)
                label_end = inner.find("</a>", attrs_end)
                if attrs_end < 0 or label_end < 0:
                    raise WMLError("malformed anchor")
                attrs = _parse_attrs(inner[anchor + 1: attrs_end])
                label = _unescape(inner[attrs_end + 1: label_end])
                current.links.append((attrs.get("href", ""), label))
            else:
                current.paragraphs.append(_unescape(inner.strip()))
    return document


def _parse_attrs(tag_text: str) -> dict:
    attrs = {}
    pos = 0
    while True:
        eq = tag_text.find('="', pos)
        if eq < 0:
            return attrs
        name_start = tag_text.rfind(" ", 0, eq) + 1
        name = tag_text[name_start:eq]
        value_end = tag_text.find('"', eq + 2)
        if value_end < 0:
            raise WMLError("unterminated attribute")
        attrs[name] = _unescape(tag_text[eq + 2: value_end])
        pos = value_end + 1


# --------------------------------------------------------- binary (WMLC)
_TOK_DECK = 0x01
_TOK_CARD = 0x02
_TOK_PARAGRAPH = 0x03
_TOK_LINK = 0x04
_TOK_END = 0x00
_MAGIC = b"WMLC"


def _write_string(out: bytearray, text: str) -> None:
    data = text.encode()
    out += struct.pack(">H", len(data))
    out += data


def _read_string(data: bytes, pos: int) -> tuple[str, int]:
    if pos + 2 > len(data):
        raise WMLError("truncated WMLC string length")
    (length,) = struct.unpack(">H", data[pos: pos + 2])
    pos += 2
    if pos + length > len(data):
        raise WMLError("truncated WMLC string")
    return data[pos: pos + length].decode(), pos + length


def encode_wmlc(document: WMLDocument) -> bytes:
    """Tokenised binary encoding of a deck."""
    out = bytearray(_MAGIC)
    out.append(_TOK_DECK)
    for card in document.cards:
        out.append(_TOK_CARD)
        _write_string(out, card.card_id)
        _write_string(out, card.title)
        for paragraph in card.paragraphs:
            out.append(_TOK_PARAGRAPH)
            _write_string(out, paragraph)
        for href, label in card.links:
            out.append(_TOK_LINK)
            _write_string(out, href)
            _write_string(out, label)
        out.append(_TOK_END)
    out.append(_TOK_END)
    return bytes(out)


def decode_wmlc(data: bytes) -> WMLDocument:
    if not data.startswith(_MAGIC):
        raise WMLError("not WMLC data (bad magic)")
    pos = len(_MAGIC)
    if pos >= len(data) or data[pos] != _TOK_DECK:
        raise WMLError("missing deck token")
    pos += 1
    document = WMLDocument()
    while pos < len(data):
        token = data[pos]
        pos += 1
        if token == _TOK_END:
            return document
        if token != _TOK_CARD:
            raise WMLError(f"unexpected token {token:#x}")
        card_id, pos = _read_string(data, pos)
        title, pos = _read_string(data, pos)
        card = WMLCard(card_id=card_id, title=title)
        while pos < len(data):
            inner = data[pos]
            pos += 1
            if inner == _TOK_END:
                break
            if inner == _TOK_PARAGRAPH:
                text, pos = _read_string(data, pos)
                card.paragraphs.append(text)
            elif inner == _TOK_LINK:
                href, pos = _read_string(data, pos)
                label, pos = _read_string(data, pos)
                card.links.append((href, label))
            else:
                raise WMLError(f"unexpected card token {inner:#x}")
        document.cards.append(card)
    raise WMLError("truncated WMLC deck")
