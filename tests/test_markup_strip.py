"""The two markup strippers are regular-expression substitutions; they
must give the same text as the character loops they replaced, which
are kept here as the reference."""

from hypothesis import given, settings, strategies as st

from repro.devices.browser import _strip_markup
from repro.middleware.adaptation import strip_tags

_ENTITIES = [("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
             ("&nbsp;", " "), ("&quot;", '"')]


def strip_tags_loop(html: str) -> str:
    """The gateway's stripper as a character loop (reference)."""
    out: list[str] = []
    in_tag = False
    pos = 0
    while pos < len(html):
        ch = html[pos]
        if ch == "<":
            lowered = html[pos:pos + 8].lower()
            if lowered.startswith("<script") or lowered.startswith("<style"):
                close = html.lower().find("</", pos + 1)
                end = html.find(">", close) if close >= 0 else -1
                pos = end + 1 if end >= 0 else len(html)
                continue
            in_tag = True
        elif ch == ">":
            in_tag = False
            out.append(" ")
        elif not in_tag:
            out.append(ch)
        pos += 1
    text = "".join(out)
    for entity, char in _ENTITIES:
        text = text.replace(entity, char)
    return " ".join(text.split())


def strip_markup_loop(text: str) -> str:
    """The microbrowser's stripper as a character loop (reference)."""
    out: list[str] = []
    in_tag = False
    for ch in text:
        if ch == "<":
            in_tag = True
        elif ch == ">":
            in_tag = False
            out.append(" ")
        elif not in_tag:
            out.append(ch)
    plain = "".join(out)
    for entity, char in _ENTITIES:
        plain = plain.replace(entity, char)
    return plain


# Pages are built from the pieces the strippers treat specially: tag
# openers and closers in any case, script and style elements (closed,
# unclosed, nested in a tag), stray ">", the five entities and their
# fragments, and whitespace.  The pages the stack serves are ASCII, and
# so is this alphabet: the loop finds a script's "</" in html.lower()
# but indexes html with it, which goes wrong after a character whose
# lower case is longer ("\u0130"); the regular expression does not.
_PIECES = st.sampled_from([
    "<", ">", "</", "/", "<b>", "</b>", "<a href='x'>", "<p", "<br/>",
    "<script", "<SCRIPT>", "<Script type=x>", "</script>", "</SCRIPT >",
    "<style", "<STYLE>", "<sTyLe>", "</style>", "<scrip", "<styl",
    "&amp;", "&lt;", "&gt;", "&nbsp;", "&quot;", "&", "amp;", "&amp;lt;",
    " ", "  ", "\n", "\t", "\r\n",
])
_TEXT = st.text(alphabet="ab <>/&;:=\"'\n\tSsCcRrIiPpTtYyLlEe", max_size=6)
PAGES = st.lists(st.one_of(_PIECES, _TEXT), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(PAGES)
def test_strip_tags_matches_the_loop(html):
    assert strip_tags(html) == strip_tags_loop(html)


@settings(max_examples=300, deadline=None)
@given(PAGES)
def test_strip_markup_matches_the_loop(text):
    assert _strip_markup(text) == strip_markup_loop(text)


def test_strippers_on_hand_written_pages():
    pages = [
        "",
        "<html><head><title>T</title></head><body>x &amp; y</body></html>",
        "<a <script>x</script>y>z",
        "<script>never closed",
        "<style>a{}</style",
        "before<SCRIPT>if (a < b) { c(); }</Script>after",
        "a > b < c",
        "<<b>>",
        "&amp;lt; &nbsp;&quot;q&quot;",
        "<p>one\n\n  two</p>\t<p>three</p>",
    ]
    for page in pages:
        assert strip_tags(page) == strip_tags_loop(page), page
        assert _strip_markup(page) == strip_markup_loop(page), page
