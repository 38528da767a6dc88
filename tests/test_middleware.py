"""Tests for mobile middleware: WML/WMLC, cHTML, adaptation, WAP, i-mode."""

import base64
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.middleware import (
    IModeCenter,
    IModeSession,
    MiddlewareResponse,
    WAPGateway,
    WAPSession,
    WMLCard,
    WMLDocument,
    WMLError,
    WML_CONTENT_TYPE,
    WMLC_CONTENT_TYPE,
    CHTML_CONTENT_TYPE,
    decode_obj,
    decode_wmlc,
    encode_obj,
    encode_wmlc,
    html_to_wml,
    is_compact,
    parse_wml,
    personalize,
    split_url,
    strip_tags,
    to_chtml,
)
from repro.net import NameRegistry, Network, Subnet
from repro.sim import Simulator
from repro.web import WebServer


SAMPLE_HTML = """<html><head><title>Mobile Shop</title></head>
<body><h1>Catalog</h1>
<p>Welcome to the mobile commerce catalog. We sell phones and more.</p>
<script>evil();</script>
<table><tr><td>ignored layout</td></tr></table>
<a href="/item?id=1">Phone</a>
<a href="/item?id=2">Case</a>
</body></html>"""


# ------------------------------------------------------------------- WML
def sample_deck():
    return WMLDocument(cards=[
        WMLCard("home", "Shop", ["Welcome & enjoy"],
                [("/buy", "Buy now"), ("#c1", "More")]),
        WMLCard("c1", "Page 2", ["Second card"], []),
    ])


def test_wml_xml_round_trip():
    deck = sample_deck()
    parsed = parse_wml(deck.to_xml())
    assert len(parsed.cards) == 2
    assert parsed.card("home").title == "Shop"
    assert parsed.card("home").paragraphs == ["Welcome & enjoy"]
    assert parsed.card("home").links == [("/buy", "Buy now"), ("#c1", "More")]


def test_wmlc_round_trip_and_compression():
    deck = sample_deck()
    blob = encode_wmlc(deck)
    decoded = decode_wmlc(blob)
    assert decoded == deck
    assert len(blob) < deck.text_size  # binary beats verbose XML


def test_wmlc_rejects_garbage():
    with pytest.raises(WMLError):
        decode_wmlc(b"NOTWMLC....")
    with pytest.raises(WMLError):
        decode_wmlc(b"WMLC\x01\x02\x00\x05abc")  # truncated


def test_parse_wml_rejects_non_wml():
    with pytest.raises(WMLError):
        parse_wml("<html><body>nope</body></html>")


@given(st.lists(st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=50),
    min_size=1, max_size=5))
@settings(max_examples=30)
def test_wmlc_round_trip_property(paragraphs):
    deck = WMLDocument(cards=[WMLCard("c0", "t", list(paragraphs), [])])
    assert decode_wmlc(encode_wmlc(deck)) == deck


# ------------------------------------------------------------------ cHTML
def test_to_chtml_strips_disallowed():
    compact = to_chtml(SAMPLE_HTML)
    assert "<table>" not in compact
    assert "evil()" not in compact
    assert "<script" not in compact
    assert "ignored layout" in compact  # content survives, tags go
    assert '<a href="/item?id=1">' in compact
    assert is_compact(compact)


def test_is_compact_detects_violations():
    assert is_compact("<p>fine</p>")
    assert not is_compact("<table><tr><td>x</td></tr></table>")
    assert not is_compact("<p>unterminated <")


# -------------------------------------------------------------- adaptation
def test_strip_tags_and_entities():
    assert strip_tags("<p>fish &amp; chips</p>") == "fish & chips"
    assert strip_tags("<script>bad()</script><p>ok</p>") == "ok"


def test_html_to_wml_title_and_links():
    deck = html_to_wml(SAMPLE_HTML)
    assert deck.cards[0].title == "Mobile Shop"
    last = deck.cards[-1]
    assert ("/item?id=1", "Phone") in last.links
    assert ("/item?id=2", "Case") in last.links


def test_html_to_wml_splits_long_pages_into_cards():
    long_html = "<html><title>Long</title><body><p>" + \
        "word " * 600 + "</p></body></html>"
    deck = html_to_wml(long_html, card_limit=400)
    assert len(deck.cards) > 3
    for card in deck.cards[:-1]:
        assert any(href.startswith("#") for href, _ in card.links)


def test_personalize_substitutes_profile():
    html = "<p>Hello [[name]], your tier is [[tier]]</p>"
    out = personalize(html, {"name": "Ann", "tier": "gold"})
    assert out == "<p>Hello Ann, your tier is gold</p>"
    out = personalize(html, None)
    assert "[[name]]" in out


def test_personalize_applies_rules():
    def shout(html, profile):
        return html.upper()

    assert personalize("<p>hi</p>", {}, rules=[shout]) == "<P>HI</P>"


def test_encode_obj_bytes_are_compact_json():
    """The shared encoder gives exactly what json.dumps gave, bytes
    values travel as base64 and anything else unencodable is refused."""
    obj = {"status": 200, "body": b"\x00\xffwml", "headers": {"x": "\u00e9"},
           "list": [1, 2.5, None, True], "inf": float("inf")}
    prepared = dict(obj, body={"__b64__": base64.b64encode(obj["body"])
                               .decode()})
    expected = json.dumps(prepared, separators=(",", ":")).encode()
    assert encode_obj(obj) == expected
    assert decode_obj(encode_obj(obj)) == obj
    with pytest.raises(TypeError, match="unencodable set"):
        encode_obj({"bad": {1}})


def test_split_url():
    assert split_url("http://shop.example.com/cat?x=1") == \
        ("shop.example.com", "/cat?x=1")
    assert split_url("http://shop.example.com") == ("shop.example.com", "/")
    with pytest.raises(ValueError):
        split_url("ftp://shop.example.com/x")
    with pytest.raises(ValueError):
        split_url("/relative/only")


# --------------------------------------------------------- WAP + i-mode
def middleware_world():
    """Origin web server + gateway/centre host + phone, all wired."""
    sim = Simulator()
    net = Network(sim)
    origin = net.add_node("origin")
    gateway_node = net.add_node("gateway", forwarding=True)
    phone = net.add_node("phone")
    net.connect(origin, gateway_node, Subnet.parse("10.0.1.0/24"),
                delay=0.005)
    net.connect(gateway_node, phone, Subnet.parse("10.0.2.0/24"),
                bandwidth_bps=100_000, delay=0.05)  # slow wireless-ish hop
    net.build_routes()

    registry = NameRegistry()
    registry.register("shop.example.com", origin.primary_address)
    server = WebServer(origin)
    server.add_page("/", SAMPLE_HTML)
    server.add_page("/wml",
                    sample_deck().to_xml(), content_type=WML_CONTENT_TYPE)
    return sim, net, origin, gateway_node, phone, registry, server


def run_get(sim, session, url):
    box = {}

    def go(env):
        response = yield session.get(url)
        box["response"] = response

    sim.spawn(go(sim))
    sim.run(until=sim.now + 120)
    return box["response"]


def test_wap_gateway_translates_html_to_wmlc():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address)
    response = run_get(sim, session, "http://shop.example.com/")
    assert response.ok
    assert response.content_type == WMLC_CONTENT_TYPE
    deck = decode_wmlc(response.body)
    assert deck.cards[0].title == "Mobile Shop"
    assert response.meta["translated"]
    assert response.meta["delivered_bytes"] < response.meta["origin_bytes"]


def test_wap_gateway_text_mode():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address,
                         accept=WML_CONTENT_TYPE)
    response = run_get(sim, session, "http://shop.example.com/")
    assert response.content_type == WML_CONTENT_TYPE
    deck = parse_wml(response.body.decode())
    assert deck.cards


def test_wap_gateway_passes_wml_through():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    gateway = WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address)
    response = run_get(sim, session, "http://shop.example.com/wml")
    assert response.content_type == WMLC_CONTENT_TYPE
    assert gateway.stats.get("translations") == 0  # already WML
    assert gateway.stats.get("wmlc_encodings") == 1


def test_wap_gateway_unresolvable_host_502():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address)
    response = run_get(sim, session, "http://nowhere.example.com/")
    assert response.status == 502


def test_wap_session_reused_across_requests():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address)
    run_get(sim, session, "http://shop.example.com/")
    run_get(sim, session, "http://shop.example.com/wml")
    assert session.stats.get("session_establishments") == 1
    assert session.stats.get("requests") == 2


def test_imode_adapts_html_to_chtml():
    sim, net, origin, center_node, phone, registry, server = \
        middleware_world()
    center = IModeCenter(center_node, registry)
    session = IModeSession(phone, center_node.primary_address)
    response = run_get(sim, session, "http://shop.example.com/")
    assert response.ok
    assert response.content_type == CHTML_CONTENT_TYPE
    text = response.body.decode()
    assert is_compact(text)
    assert "Catalog" in text
    assert center.stats.get("adaptations") == 1


def test_imode_always_on_single_connection():
    sim, net, origin, center_node, phone, registry, server = \
        middleware_world()
    IModeCenter(center_node, registry)
    session = IModeSession(phone, center_node.primary_address)
    for _ in range(3):
        run_get(sim, session, "http://shop.example.com/")
    assert session.stats.get("session_establishments") == 1
    assert session.stats.get("requests") == 3


def test_imode_unresolvable_host_502():
    sim, net, origin, center_node, phone, registry, server = \
        middleware_world()
    IModeCenter(center_node, registry)
    session = IModeSession(phone, center_node.primary_address)
    response = run_get(sim, session, "http://missing.example.com/")
    assert response.status == 502


def test_sessions_are_interchangeable():
    """Requirement 5: the same client code works over either middleware."""
    def shop_flow(session_factory):
        sim, net, origin, mid_node, phone, registry, server = \
            middleware_world()
        if session_factory == "wap":
            WAPGateway(mid_node, registry)
            session = WAPSession(phone, mid_node.primary_address)
        else:
            IModeCenter(mid_node, registry)
            session = IModeSession(phone, mid_node.primary_address)
        response = run_get(sim, session, "http://shop.example.com/")
        return response

    for flavour in ("wap", "imode"):
        response = shop_flow(flavour)
        assert isinstance(response, MiddlewareResponse)
        assert response.ok
        assert response.body  # content delivered either way


def test_wap_gateway_negotiates_native_wml_from_origin():
    """An origin with both HTML and WML variants serves WML to the
    gateway (Apache content negotiation), skipping transcoding."""
    sim, net, origin, gw, phone, registry, server = middleware_world()
    server.add_page("/both", SAMPLE_HTML, "text/html")
    server.add_page("/both", sample_deck().to_xml(), WML_CONTENT_TYPE)
    gateway = WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address)
    response = run_get(sim, session, "http://shop.example.com/both")
    assert response.ok
    assert response.content_type == WMLC_CONTENT_TYPE
    # Served natively: the gateway encoded but never translated.
    assert gateway.stats.get("translations") == 0
    assert gateway.stats.get("wmlc_encodings") == 1


def test_wap_gateway_cache_serves_repeats():
    """Gateway caching spares the origin and the translation CPU."""
    sim, net, origin, gw, phone, registry, server = middleware_world()
    gateway = WAPGateway(gw, registry, cache_ttl=600.0)
    session = WAPSession(phone, gw.primary_address)
    first = run_get(sim, session, "http://shop.example.com/")
    second = run_get(sim, session, "http://shop.example.com/")
    assert first.ok and second.ok
    assert second.body == first.body
    assert not first.meta.get("cache_hit")
    assert second.meta.get("cache_hit")
    assert gateway.stats.get("translations") == 1  # only the first fetch
    assert gateway.stats.get("cache_hits") == 1
    # The origin web server saw exactly one request for the page.
    assert server.stats.get("requests") == 1


def test_wap_gateway_cache_expires():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    gateway = WAPGateway(gw, registry, cache_ttl=1.0)
    session = WAPSession(phone, gw.primary_address)
    run_get(sim, session, "http://shop.example.com/")

    def wait(env):
        yield env.timeout(5.0)

    sim.spawn(wait(sim))
    sim.run(until=sim.now + 10)
    stale = run_get(sim, session, "http://shop.example.com/")
    assert stale.ok
    assert not stale.meta.get("cache_hit")
    assert gateway.stats.get("translations") == 2


def test_wap_gateway_cache_disabled_by_default():
    sim, net, origin, gw, phone, registry, server = middleware_world()
    gateway = WAPGateway(gw, registry)
    session = WAPSession(phone, gw.primary_address)
    run_get(sim, session, "http://shop.example.com/")
    run_get(sim, session, "http://shop.example.com/")
    assert gateway.stats.get("cache_hits") == 0
    assert gateway.stats.get("translations") == 2
