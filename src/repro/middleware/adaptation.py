"""Content adaptation: translating host content for mobile stations.

"[Middleware] translates requests from mobile stations to a host
computer and adapts content from the host to the mobile station" [11].
The two directions implemented here:

* :func:`html_to_wml` — the WAP gateway's transcoding: full HTML from
  the web server becomes a WML deck, long pages split into cards sized
  for a phone screen;
* :func:`personalize` — per-user adaptation hooks (requirement 2 of
  §1.1: "products to be personalized or customized upon request").
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .wml import WMLCard, WMLDocument

__all__ = ["html_to_wml", "extract_title", "extract_links", "strip_tags",
           "personalize", "CARD_TEXT_LIMIT"]

CARD_TEXT_LIMIT = 500  # characters of body text per card


# A <script> or <style> element, dropped whole: from its opening "<"
# to the first ">" after the first "</" (or the end of the page).
_SCRIPT_OR_STYLE = re.compile(r"<(?:script|style)(?:.*?</[^>]*>|.*)",
                              re.ASCII | re.IGNORECASE | re.DOTALL)
# A tag up to, not including, its ">"; each ">" then becomes a space.
_TAG_BODY = re.compile(r"<[^>]*")
_ENTITIES = (("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
             ("&nbsp;", " "), ("&quot;", '"'))


def strip_tags(html: str) -> str:
    """Plain text of an HTML document (whitespace-normalised)."""
    text = _SCRIPT_OR_STYLE.sub("", html)
    text = _TAG_BODY.sub("", text).replace(">", " ")
    for entity, char in _ENTITIES:
        text = text.replace(entity, char)
    return " ".join(text.split())


def extract_title(html: str) -> str:
    lowered = html.lower()
    start = lowered.find("<title>")
    if start < 0:
        return ""
    end = lowered.find("</title>", start)
    if end < 0:
        return ""
    return html[start + len("<title>"): end].strip()


def extract_links(html: str) -> list[tuple[str, str]]:
    """(href, label) pairs from anchor tags."""
    links = []
    pos = 0
    lowered = html.lower()
    while True:
        anchor = lowered.find("<a ", pos)
        if anchor < 0:
            return links
        tag_end = html.find(">", anchor)
        close = lowered.find("</a>", tag_end)
        if tag_end < 0 or close < 0:
            return links
        tag_body = html[anchor: tag_end]
        href = ""
        marker = 'href="'
        idx = tag_body.lower().find(marker)
        if idx >= 0:
            end_quote = tag_body.find('"', idx + len(marker))
            if end_quote > 0:
                href = tag_body[idx + len(marker): end_quote]
        label = strip_tags(html[tag_end + 1: close])
        if href:
            links.append((href, label))
        pos = close + 4


def html_to_wml(html: str, card_limit: int = CARD_TEXT_LIMIT) -> WMLDocument:
    """Transcode an HTML page into a WML deck.

    The page title becomes every card's title; body text is split into
    ``card_limit``-character cards chained with "More" links; anchors
    collect on the final card.
    """
    title = extract_title(html) or "Untitled"
    text = strip_tags(html)
    links = extract_links(html)

    chunks: list[str] = []
    words = text.split()
    current: list[str] = []
    length = 0
    for word in words:
        if length + len(word) + 1 > card_limit and current:
            chunks.append(" ".join(current))
            current, length = [], 0
        current.append(word)
        length += len(word) + 1
    if current:
        chunks.append(" ".join(current))
    if not chunks:
        chunks = [""]

    document = WMLDocument()
    for index, chunk in enumerate(chunks):
        card = WMLCard(card_id=f"c{index}", title=title)
        if chunk:
            card.paragraphs.append(chunk)
        if index + 1 < len(chunks):
            card.links.append((f"#c{index + 1}", "More"))
        document.cards.append(card)
    for href, label in links:
        document.cards[-1].links.append((href, label or href))
    return document


def personalize(html: str, profile: Optional[dict],
                rules: Optional[list[Callable[[str, dict], str]]] = None) \
        -> str:
    """Apply per-user adaptation rules to a page.

    Built-in behaviour: substitute ``[[name]]``-style profile fields.
    Extra rules are callables ``(html, profile) -> html`` applied in
    order — the hook applications register for requirement 2.
    """
    if profile:
        for key, value in profile.items():
            html = html.replace(f"[[{key}]]", str(value))
    for rule in rules or []:
        html = rule(html, profile or {})
    return html
