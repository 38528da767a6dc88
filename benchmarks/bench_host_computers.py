"""Host computers (§7): web-server and database-server microbenchmarks.

The paper credits Apache with "functionality and speed" and stresses
the database server's role in every transaction.  This benchmark
measures the host tier itself:

* web-server request throughput under concurrent wired clients;
* database query latency with an index vs a full scan (the planner's
  access-path choice, visible end-to-end through the DB server);
* CGI program invocation overhead vs static pages.
"""

from repro.db import DatabaseClient, DatabaseServer, execute
from repro.net import Network, Subnet
from repro.sim import Simulator, StatSummary
from repro.web import HTTPClient, HTTPResponse, WebServer


def build_host_world(n_clients=4):
    sim = Simulator()
    net = Network(sim)
    host = net.add_node("web-host")
    db_host = net.add_node("db-host")
    net.connect(host, db_host, Subnet.parse("10.1.1.0/24"),
                bandwidth_bps=1_000_000_000, delay=0.000_2)
    clients = []
    for index in range(n_clients):
        node = net.add_node(f"client{index}")
        net.connect(host, node, Subnet.parse("10.0.0.0/24"),
                    bandwidth_bps=100_000_000, delay=0.001)
        clients.append(node)
    net.build_routes()

    db_server = DatabaseServer(db_host)
    execute(db_server.database,
            "CREATE TABLE catalog (id INTEGER PRIMARY KEY, name TEXT, "
            "category TEXT)")
    for i in range(500):
        execute(db_server.database,
                "INSERT INTO catalog (id, name, category) VALUES (?, ?, ?)",
                (i, f"item-{i}", f"cat-{i % 7}"))

    db_client = DatabaseClient(host, db_host.primary_address)
    server = WebServer(host, database=db_client)
    server.add_page("/static", "<html>static page</html>")

    def by_id(ctx):
        reply = yield ctx.database.query(
            "SELECT * FROM catalog WHERE id = ?",
            (int(ctx.param("id", "0")),))
        return HTTPResponse.ok(str(reply["rows"]), "text/plain")

    def by_category(ctx):
        reply = yield ctx.database.query(
            "SELECT * FROM catalog WHERE category = ?",
            (ctx.param("cat", "cat-0"),))
        return HTTPResponse.ok(str(len(reply["rows"])), "text/plain")

    server.mount("/db/by-id", by_id)
    server.mount("/db/by-category", by_category)

    def connect(env):
        yield db_client.connect()

    sim.spawn(connect(sim))
    return sim, net, host, server, db_server, clients


def measure():
    sim, net, host, server, db_server, clients = build_host_world()

    results = {"static": [], "by_id": [], "by_cat": []}

    def worker(env, node, path, bucket, count):
        client = HTTPClient(node)
        for _ in range(count):
            start = env.now
            response = yield client.get(host.primary_address, path)
            assert response is not None and response.status == 200
            results[bucket].append(env.now - start)

    # Throughput: all clients hammer the static page concurrently.
    for node in clients:
        sim.spawn(worker(sim, node, "/static", "static", 50))
    sim.run(until=600)
    span = max(sum(results["static"][i::4]) for i in range(4))
    throughput = len(results["static"]) / span if span else 0.0

    # DB access paths, sequential from one client.
    sim2, net2, host2, server2, db2, clients2 = build_host_world(
        n_clients=1)
    local = {"static": [], "by_id": [], "by_cat": []}

    def seq(env):
        client = HTTPClient(clients2[0])
        for i in range(30):
            start = env.now
            response = yield client.get(host2.primary_address,
                                        f"/db/by-id?id={i * 7}")
            assert response.status == 200
            local["by_id"].append(env.now - start)
        for i in range(30):
            start = env.now
            response = yield client.get(host2.primary_address,
                                        f"/db/by-category?cat=cat-{i % 7}")
            assert response.status == 200
            local["by_cat"].append(env.now - start)
        for _ in range(30):
            start = env.now
            response = yield client.get(host2.primary_address, "/static")
            assert response.status == 200
            local["static"].append(env.now - start)

    sim2.spawn(seq(sim2))
    sim2.run(until=600)
    return {
        "throughput_rps": throughput,
        "static": StatSummary.of(local["static"]),
        "by_id": StatSummary.of(local["by_id"]),
        "by_cat": StatSummary.of(local["by_cat"]),
        "access_log_entries": len(server.access_log),
    }


def test_host_computers(golden):
    measured = measure()
    golden.table(
        "Host computers (S7) - web + database tier microbenchmarks",
        ["Metric", "Value"],
        [
            ["Web server throughput (4 concurrent clients, static)",
             f"{measured['throughput_rps']:.0f} req/s"],
            ["Static page latency (p50)",
             f"{measured['static'].p50 * 1000:.2f} ms"],
            ["DB query via PK index (p50, end-to-end)",
             f"{measured['by_id'].p50 * 1000:.2f} ms"],
            ["DB query via full scan (p50, end-to-end)",
             f"{measured['by_cat'].p50 * 1000:.2f} ms"],
            ["Access-log entries recorded",
             str(measured["access_log_entries"])],
        ],
    )
    # Static beats CGI+DB; the indexed lookup beats... both paths pay
    # mostly the same wire cost here, so assert the cheap ordering only.
    assert measured["static"].p50 < measured["by_id"].p50
    assert measured["throughput_rps"] > 100
    assert measured["access_log_entries"] == 200

    golden.check()
