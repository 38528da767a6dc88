"""Tests for the web tier: HTTP codec, server, CGI, sessions, templates."""

import pytest

from repro.db import Database, TransactionManager, execute
from repro.net import Network, Subnet
from repro.sim import Simulator
from repro.web import (
    HTTPClient,
    HTTPParseError,
    HTTPRequest,
    HTTPResponse,
    RequestParser,
    ResponseParser,
    TemplateError,
    WebServer,
    render,
)


# ------------------------------------------------------------------ codec
def test_request_encode_parse_round_trip():
    req = HTTPRequest("GET", "/shop?item=5", {"Host": "shop.example.com"})
    parsed = RequestParser().feed(req.encode())
    assert len(parsed) == 1
    out = parsed[0]
    assert out.method == "GET"
    assert out.path == "/shop?item=5"
    assert out.headers["host"] == "shop.example.com"
    assert out.query_params == {"item": "5"}


def test_request_with_body_round_trip():
    req = HTTPRequest(
        "POST", "/buy",
        {"content-type": "application/x-www-form-urlencoded"},
        body=b"item=7&qty=2",
    )
    out = RequestParser().feed(req.encode())[0]
    assert out.form_params == {"item": "7", "qty": "2"}
    assert out.params["qty"] == "2"


def test_response_round_trip_and_reason():
    resp = HTTPResponse.ok(b"<html>hi</html>")
    out = ResponseParser().feed(resp.encode())[0]
    assert out.status == 200
    assert out.reason == "OK"
    assert out.body == b"<html>hi</html>"
    assert out.content_type == "text/html"


def test_parser_handles_fragmented_input():
    req = HTTPRequest("GET", "/page", {"x-test": "1"})
    wire = req.encode()
    parser = RequestParser()
    collected = []
    for i in range(0, len(wire), 7):
        collected.extend(parser.feed(wire[i:i + 7]))
    assert len(collected) == 1
    assert collected[0].path == "/page"


def test_parser_handles_pipelined_messages():
    wire = (HTTPRequest("GET", "/a").encode()
            + HTTPRequest("GET", "/b").encode())
    parsed = RequestParser().feed(wire)
    assert [r.path for r in parsed] == ["/a", "/b"]


def test_parser_rejects_garbage():
    with pytest.raises(HTTPParseError):
        RequestParser().feed(b"NONSENSE\r\nno colon here\r\n\r\n")


def test_cookie_parsing():
    req = HTTPRequest("GET", "/", {"cookie": "msid=abc123; theme=dark"})
    assert req.cookies == {"msid": "abc123", "theme": "dark"}


# -------------------------------------------------------------- templates
def test_template_substitution_and_escaping():
    out = render("Hello {{ name }}!", {"name": "<world>"})
    assert out == "Hello &lt;world&gt;!"
    out = render("{{ markup | raw }}", {"markup": "<b>hi</b>"})
    assert out == "<b>hi</b>"


def test_template_dotted_lookup_and_missing():
    out = render("{{ user.name }}/{{ user.missing }}",
                 {"user": {"name": "ann"}})
    assert out == "ann/"


def test_template_for_loop():
    out = render("{% for item in items %}[{{ item.name }}]{% endfor %}",
                 {"items": [{"name": "a"}, {"name": "b"}]})
    assert out == "[a][b]"


def test_template_nested_loops():
    out = render(
        "{% for row in rows %}{% for cell in row %}{{ cell }},"
        "{% endfor %};{% endfor %}",
        {"rows": [[1, 2], [3]]})
    assert out == "1,2,;3,;"


def test_template_errors():
    with pytest.raises(TemplateError):
        render("{% for x %}{% endfor %}", {})
    with pytest.raises(TemplateError):
        render("{% for x in xs %}no end", {})
    with pytest.raises(TemplateError):
        render("{{ unclosed", {})
    with pytest.raises(TemplateError):
        render("{% endfor %}", {})


def test_template_parsed_once_and_malformed_raises_every_call():
    from repro.web.templates import _parsed

    template = "{% for i in xs %}<{{ i }}>{% endfor %}!"
    assert render(template, {"xs": [1, 2]}) == "<1><2>!"
    misses = _parsed.cache_info().misses
    assert render(template, {"xs": ["&"]}) == "<&amp;>!"
    assert _parsed.cache_info().misses == misses
    # Nothing is memoized for a malformed template: it raises each time.
    for bad in ("{% for x %}{% endfor %}", "{% for x in xs %}no end",
                "{{ unclosed", "{% endfor %}", "{% if x %}"):
        for _ in range(3):
            with pytest.raises(TemplateError):
                render(bad, {})


# ----------------------------------------------------------------- server
def web_world(**server_kwargs):
    sim = Simulator()
    net = Network(sim)
    host = net.add_node("webhost")
    client_node = net.add_node("visitor")
    net.connect(host, client_node, Subnet.parse("10.0.0.0/24"),
                bandwidth_bps=10_000_000, delay=0.005)
    net.build_routes()
    server = WebServer(host, **server_kwargs)
    client = HTTPClient(client_node)
    return sim, host, server, client


def fetch(sim, client, host, path, method="GET", body=None, headers=None):
    box = {}

    def go(env):
        if method == "GET":
            response = yield client.get(host.primary_address, path,
                                        headers=headers)
        else:
            response = yield client.post(host.primary_address, path,
                                         body or b"", headers=headers)
        box["response"] = response

    sim.spawn(go(sim))
    sim.run(until=sim.now + 60)
    return box.get("response")


def test_static_page_served():
    sim, host, server, client = web_world()
    server.add_page("/index.html", "<html>Welcome</html>")
    response = fetch(sim, client, host, "/index.html")
    assert response.status == 200
    assert b"Welcome" in response.body


def test_a_settled_get_leaves_nothing_queued():
    """Both phase deadlines die with the exchange they guard."""
    sim, host, server, client = web_world()
    server.add_page("/index.html", "<html>Welcome</html>")
    sim.run(until=1.0)
    before = sim.queue_depth()
    box = {}

    def go(env):
        box["response"] = yield client.get(host.primary_address,
                                           "/index.html")

    sim.spawn(go(sim))
    sim.run(until=5.0)
    assert box["response"].status == 200
    assert sim.queue_depth() == before


def test_missing_page_404():
    sim, host, server, client = web_world()
    response = fetch(sim, client, host, "/nope")
    assert response.status == 404


def test_custom_error_body():
    sim, host, server, client = web_world()
    server.set_error_body(404, "<html>Our apologies</html>")
    response = fetch(sim, client, host, "/ghost")
    assert response.status == 404
    assert b"Our apologies" in response.body


def test_cgi_program_with_params():
    sim, host, server, client = web_world()

    def greeter(ctx):
        return HTTPResponse.ok(f"Hello {ctx.param('name', 'stranger')}")

    server.mount("/greet", greeter)
    response = fetch(sim, client, host, "/greet?name=ann")
    assert response.body == b"Hello ann"


def test_cgi_generator_program_with_database():
    sim, net_host = Simulator(), None
    sim, host, server, client = web_world()
    db = Database()
    execute(db, "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
    execute(db, "INSERT INTO items (id, name) VALUES (1, 'phone')")
    server.database = db
    server.transactions = TransactionManager(sim, db)

    def lookup(ctx):
        txn = ctx.transactions.begin()
        result = yield txn.execute("SELECT name FROM items WHERE id = ?",
                                   (int(ctx.param("id", "0")),))
        txn.commit()
        if not result.rows:
            return HTTPResponse.not_found("no such item")
        return HTTPResponse.ok(result.rows[0]["name"], "text/plain")

    server.mount("/item", lookup)
    response = fetch(sim, client, host, "/item?id=1")
    assert response.body == b"phone"
    missing = fetch(sim, client, host, "/item?id=99")
    assert missing.status == 404


def test_cgi_crash_yields_500():
    sim, host, server, client = web_world()

    def broken(ctx):
        raise RuntimeError("kaput")

    server.mount("/broken", broken)
    response = fetch(sim, client, host, "/broken")
    assert response.status == 500
    assert server.stats.get("program_errors") == 1


def test_session_cookie_issued_and_reused():
    sim, host, server, client = web_world()
    visits = []

    def counter(ctx):
        n = ctx.session.get("visits", 0) + 1
        ctx.session["visits"] = n
        visits.append(n)
        return HTTPResponse.ok(str(n), "text/plain")

    server.mount("/count", counter)
    first = fetch(sim, client, host, "/count")
    cookie = first.headers.get("set-cookie")
    assert cookie and "msid=" in cookie
    name_value = cookie.split(";")[0]
    assert len(server.sessions) == 1  # written, so kept
    second = fetch(sim, client, host, "/count",
                   headers={"cookie": name_value})
    assert second.body == b"2"
    assert "set-cookie" not in second.headers
    assert visits == [1, 2]
    assert len(server.sessions) == 1


def test_unwritten_session_is_not_kept():
    sim, host, server, client = web_world()

    def whoami(ctx):
        return HTTPResponse.ok(ctx.session.session_id, "text/plain")

    server.mount("/id", whoami)
    first = fetch(sim, client, host, "/id")
    cookie = first.headers["set-cookie"].split(";")[0]
    assert cookie == "msid=" + first.body.decode()
    assert len(server.sessions) == 0
    # Its cookie names no kept session: a fresh one, with a new cookie.
    second = fetch(sim, client, host, "/id", headers={"cookie": cookie})
    assert second.body != first.body
    assert second.headers["set-cookie"].split(";")[0] == (
        "msid=" + second.body.decode())
    assert len(server.sessions) == 0


def test_session_expires_after_ttl():
    sim, host, server, client = web_world()
    server.sessions.ttl = 10.0

    def whoami(ctx):
        return HTTPResponse.ok(ctx.session.session_id, "text/plain")

    server.mount("/id", whoami)
    first = fetch(sim, client, host, "/id")
    cookie = first.headers["set-cookie"].split(";")[0]

    def later(env):
        yield env.timeout(100.0)  # way past TTL

    sim.spawn(later(sim))
    sim.run(until=200)
    second = fetch(sim, client, host, "/id", headers={"cookie": cookie})
    assert second.body != first.body  # a fresh session was created


def test_prefix_mount_resolution():
    sim, host, server, client = web_world()

    def catalog(ctx):
        return HTTPResponse.ok(ctx.request.path_only, "text/plain")

    server.mount("/catalog/", catalog)
    response = fetch(sim, client, host, "/catalog/phones/5")
    assert response.body == b"/catalog/phones/5"


def test_duplicate_mount_rejected():
    sim, host, server, client = web_world()
    server.mount("/x", lambda ctx: HTTPResponse.ok(""))
    with pytest.raises(ValueError):
        server.mount("/x", lambda ctx: HTTPResponse.ok(""))


def test_server_stats_track_requests():
    sim, host, server, client = web_world()
    server.add_page("/p", "x")
    fetch(sim, client, host, "/p")
    fetch(sim, client, host, "/missing")
    assert server.stats.get("requests") == 2
    assert server.stats.get("status_200") == 1
    assert server.stats.get("status_404") == 1


# ------------------------------------------------ Apache features (paper §7)
def test_content_negotiation_serves_matching_variant():
    """The paper credits Apache with 'content negotiation'."""
    sim, host, server, client = web_world()
    server.add_page("/page", "<html>full</html>", "text/html")
    server.add_page("/page", "<wml><card id='c'/></wml>",
                    "text/vnd.wap.wml")

    wml = fetch(sim, client, host, "/page",
                headers={"accept": "text/vnd.wap.wml"})
    assert wml.content_type == "text/vnd.wap.wml"
    assert b"<wml>" in wml.body

    html = fetch(sim, client, host, "/page",
                 headers={"accept": "text/html"})
    assert html.content_type == "text/html"

    default = fetch(sim, client, host, "/page")
    assert default.content_type == "text/html"  # first registered

    wildcard = fetch(sim, client, host, "/page",
                     headers={"accept": "application/json, text/*"})
    assert wildcard.content_type == "text/html"


def test_basic_auth_protects_prefix():
    """The paper credits Apache with 'DBM-based authentication databases'."""
    import base64
    from repro.security import UserStore
    from repro.sim import SeedBank

    sim, host, server, client = web_world()
    users = UserStore(SeedBank(1).stream("auth"))
    users.register("admin", "s3cret")
    server.services["users"] = users
    server.add_page("/admin/panel", "top secret", "text/plain")
    server.add_page("/public", "open", "text/plain")
    server.protect("/admin/", realm="ops")

    anonymous = fetch(sim, client, host, "/admin/panel")
    assert anonymous.status == 401
    assert "ops" in anonymous.headers.get("www-authenticate", "")

    wrong = fetch(sim, client, host, "/admin/panel", headers={
        "authorization": "Basic " + base64.b64encode(
            b"admin:wrong").decode()})
    assert wrong.status == 401

    right = fetch(sim, client, host, "/admin/panel", headers={
        "authorization": "Basic " + base64.b64encode(
            b"admin:s3cret").decode()})
    assert right.status == 200
    assert right.body == b"top secret"

    public = fetch(sim, client, host, "/public")
    assert public.status == 200  # outside the protected prefix
    assert server.stats.get("auth_failures") == 2


def test_protect_requires_user_store():
    sim, host, server, client = web_world()
    with pytest.raises(RuntimeError):
        server.protect("/x/")


def test_access_log_records_requests():
    """The Apache-style access log captures who asked for what."""
    sim, host, server, client = web_world()
    server.add_page("/a", "alpha")
    fetch(sim, client, host, "/a")
    fetch(sim, client, host, "/missing")
    assert len(server.access_log) == 2
    t1, client_addr, method, path, status, size = server.access_log[0]
    assert client_addr == client.node.primary_address
    assert method == "GET" and path == "/a" and status == 200
    assert size == len(b"alpha")
    assert server.access_log[1][4] == 404
    # One client, one shared address object across its entries.
    assert server.access_log[1][1] is client_addr


def test_access_log_keeps_the_last_entries():
    """Past its bound the log drops its oldest entries; stats still
    count every request."""
    from repro.web.server import ACCESS_LOG_SIZE

    sim, host, server, client = web_world()
    total = ACCESS_LOG_SIZE + 5

    def go(env):
        for i in range(total):
            yield client.get(host.primary_address, f"/p{i}")

    sim.spawn(go(sim))
    sim.run()
    assert server.stats.get("requests") == total
    assert [entry[3] for entry in server.access_log] == \
        [f"/p{i}" for i in range(5, total)]


def test_session_ids_deterministic_across_stores():
    # The id counter is store-local (not module-level), so running the
    # same scenario twice — two fresh worlds — yields identical ids.
    def run_world():
        sim, host, server, client = web_world()

        def whoami(ctx):
            return HTTPResponse.ok(ctx.session.session_id, "text/plain")

        server.mount("/id", whoami)
        first = fetch(sim, client, host, "/id")
        second = fetch(sim, client, host, "/id")  # no cookie: new session
        return first.body, second.body

    assert run_world() == run_world()
