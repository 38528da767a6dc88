"""Tests for transactions (locking, rollback) and the TCP database server."""

import json
import os
import struct
import subprocess
import sys

import pytest

from repro.db import (
    Database,
    DatabaseClient,
    DatabaseServer,
    DeadlockError,
    TransactionError,
    TransactionManager,
    execute,
)
from repro.net import Network, Subnet
from repro.net.framing import encode_frame
from repro.sim import Simulator


def test_encode_message_bytes_are_compact_json():
    """A DB message (no bytes values) frames as exactly what
    json.dumps gives."""
    for obj in ({}, {"op": "query", "sql": "SELECT 1", "args": [1, 2.5]},
                {"rows": [[1, "caf\u00e9", None, True]], "nan": float("nan"),
                 "nested": {"b": [{"c": -0.0}], "a": 1e300}}):
        body = json.dumps(obj, separators=(",", ":")).encode()
        assert encode_frame(obj) == struct.pack(">I", len(body)) + body


def make_manager():
    sim = Simulator()
    db = Database()
    execute(db, "CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
                "balance INTEGER NOT NULL)")
    execute(db, "INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 50)")
    return sim, db, TransactionManager(sim, db)


def run_txn(sim, generator):
    outcome = {}

    def wrapper(env):
        try:
            result = yield from generator(env)
            outcome["result"] = result
        except (DeadlockError, TransactionError) as exc:
            outcome["error"] = exc

    sim.spawn(wrapper(sim))
    sim.run(until=60)
    return outcome


# ------------------------------------------------------------ transactions
def test_commit_makes_changes_durable():
    sim, db, mgr = make_manager()

    def work(env):
        txn = mgr.begin()
        yield txn.execute("UPDATE accounts SET balance = 80 WHERE id = 1")
        txn.commit()
        return None

    run_txn(sim, work)
    assert execute(db, "SELECT balance FROM accounts WHERE id = 1").rows == \
        [{"balance": 80}]
    assert mgr.committed == 1


def test_rollback_restores_before_image():
    sim, db, mgr = make_manager()

    def work(env):
        txn = mgr.begin()
        yield txn.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        yield txn.execute("DELETE FROM accounts WHERE id = 2")
        txn.rollback()
        return None

    run_txn(sim, work)
    rows = execute(db, "SELECT * FROM accounts ORDER BY id").rows
    assert rows == [{"id": 1, "balance": 100}, {"id": 2, "balance": 50}]
    assert mgr.aborted == 1


def test_rollback_restores_pk_index():
    sim, db, mgr = make_manager()

    def work(env):
        txn = mgr.begin()
        yield txn.execute("DELETE FROM accounts WHERE id = 1")
        txn.rollback()
        return None

    run_txn(sim, work)
    # PK index must be restored: a lookup and a duplicate-insert both work.
    assert execute(db, "SELECT * FROM accounts WHERE id = 1").rowcount == 1
    from repro.db import IntegrityError
    with pytest.raises(IntegrityError):
        execute(db, "INSERT INTO accounts (id, balance) VALUES (1, 1)")


def test_write_blocks_concurrent_write():
    sim, db, mgr = make_manager()
    order = []

    def writer(env, tag, hold):
        txn = mgr.begin()
        yield txn.execute(
            "UPDATE accounts SET balance = balance WHERE id = 1")
        order.append((tag, "locked", env.now))
        yield env.timeout(hold)
        txn.commit()
        order.append((tag, "done", env.now))

    sim.spawn(writer(sim, "first", 2.0))
    sim.spawn(writer(sim, "second", 0.1))
    sim.run(until=60)
    locked = [(tag, t) for tag, what, t in order if what == "locked"]
    assert locked[0][0] == "first"
    assert locked[1][0] == "second"
    assert locked[1][1] >= 2.0  # waited for the first commit


def test_readers_share():
    sim, db, mgr = make_manager()
    times = []

    def reader(env, tag):
        txn = mgr.begin()
        yield txn.execute("SELECT * FROM accounts")
        times.append((tag, env.now))
        yield env.timeout(1.0)
        txn.commit()

    sim.spawn(reader(sim, "r1"))
    sim.spawn(reader(sim, "r2"))
    sim.run(until=30)
    assert all(t == times[0][1] for _, t in times)  # no serialization


def test_lock_timeout_raises_deadlock_error():
    sim, db, mgr = make_manager()
    mgr.lock_timeout = 1.0
    errors = []

    def holder(env):
        txn = mgr.begin()
        yield txn.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
        yield env.timeout(10.0)  # hold the lock past the victim's timeout
        txn.commit()

    def victim(env):
        yield env.timeout(0.1)
        txn = mgr.begin()
        try:
            yield txn.execute("UPDATE accounts SET balance = 2 WHERE id = 1")
        except DeadlockError as exc:
            errors.append(exc)

    sim.spawn(holder(sim))
    sim.spawn(victim(sim))
    sim.run(until=60)
    assert len(errors) == 1


# One transaction holds X locks on four tables, taken out of name
# order; each table has one waiter.  Prints the order the waiters get
# their locks once the holder commits.
_RELEASE_ORDER_PROBE = """
from repro.db import Database, TransactionManager, execute
from repro.sim import Simulator

sim, db = Simulator(), Database()
tables = ["tab2", "tab0", "tab3", "tab1"]
for name in tables:
    execute(db, f"CREATE TABLE {name} (id INTEGER PRIMARY KEY)")
mgr = TransactionManager(sim, db)
granted = []

def holder(env):
    txn = mgr.begin()
    for name in tables:
        yield mgr.acquire(txn, name, exclusive=True)
    yield env.timeout(1.0)
    txn.commit()

def waiter(env, name):
    yield env.timeout(0.5)
    yield mgr.acquire(mgr.begin(), name, exclusive=True)
    granted.append(name)

sim.spawn(holder(sim))
for name in tables:
    sim.spawn(waiter(sim, name))
sim.run(until=10)
print(",".join(granted))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_release_grants_waiters_in_table_name_order(hash_seed):
    """Commit wakes each table's waiters in table-name order, whatever
    the string hash seed: the grant order must not follow set order."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", _RELEASE_ORDER_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "tab0,tab1,tab2,tab3"


def test_finished_transaction_rejects_use():
    sim, db, mgr = make_manager()

    def work(env):
        txn = mgr.begin()
        yield txn.execute("SELECT * FROM accounts")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.execute("SELECT * FROM accounts")
        with pytest.raises(TransactionError):
            txn.commit()
        txn.rollback()  # no-op after commit
        return None

    outcome = run_txn(sim, work)
    assert "error" not in outcome


# ----------------------------------------------------------------- server
def server_world():
    sim = Simulator()
    net = Network(sim)
    host = net.add_node("dbhost")
    client_node = net.add_node("appserver")
    net.connect(host, client_node, Subnet.parse("10.0.0.0/24"),
                bandwidth_bps=100_000_000, delay=0.001)
    net.build_routes()
    server = DatabaseServer(host)
    execute(server.database,
            "CREATE TABLE products (id INTEGER PRIMARY KEY, name TEXT)")
    execute(server.database,
            "INSERT INTO products (id, name) VALUES (1, 'phone')")
    client = DatabaseClient(client_node, host.primary_address)
    return sim, server, client


def test_server_query_round_trip():
    sim, server, client = server_world()
    replies = []

    def app(env):
        yield client.connect()
        reply = yield client.query("SELECT * FROM products WHERE id = ?",
                                   (1,))
        replies.append(reply)

    sim.spawn(app(sim))
    sim.run(until=30)
    assert replies[0]["ok"]
    assert replies[0]["rows"] == [{"id": 1, "name": "phone"}]
    assert replies[0]["access_path"] == "index(products.id)"


def test_server_reports_errors():
    sim, server, client = server_world()
    replies = []

    def app(env):
        yield client.connect()
        reply = yield client.query("SELECT * FROM nonexistent")
        replies.append(reply)

    sim.spawn(app(sim))
    sim.run(until=30)
    assert not replies[0]["ok"]
    assert "nonexistent" in replies[0]["error"]
    assert server.stats.get("errors") == 1


def test_server_transaction_commit_and_rollback():
    sim, server, client = server_world()
    results = {}

    def app(env):
        yield client.connect()
        yield client.begin()
        yield client.query("INSERT INTO products (id, name) VALUES (2, 'case')")
        yield client.rollback()
        check = yield client.query("SELECT * FROM products")
        results["after_rollback"] = check["rowcount"]

        yield client.begin()
        yield client.query("INSERT INTO products (id, name) VALUES (3, 'cord')")
        yield client.commit()
        check = yield client.query("SELECT * FROM products")
        results["after_commit"] = check["rowcount"]

    sim.spawn(app(sim))
    sim.run(until=60)
    assert results["after_rollback"] == 1
    assert results["after_commit"] == 2


def test_server_connection_close_rolls_back():
    sim, server, client = server_world()

    def app(env):
        yield client.connect()
        yield client.begin()
        yield client.query("INSERT INTO products (id, name) VALUES (9, 'x')")
        client.close()

    sim.spawn(app(sim))
    sim.run(until=30)
    assert execute(server.database, "SELECT * FROM products").rowcount == 1


def test_two_clients_isolated_sessions():
    sim = Simulator()
    net = Network(sim)
    host = net.add_node("dbhost")
    c1 = net.add_node("app1")
    c2 = net.add_node("app2")
    net.connect(host, c1, Subnet.parse("10.0.1.0/24"), delay=0.001)
    net.connect(host, c2, Subnet.parse("10.0.2.0/24"), delay=0.001)
    net.build_routes()
    server = DatabaseServer(host)
    execute(server.database,
            "CREATE TABLE counters (id INTEGER PRIMARY KEY, n INTEGER)")
    execute(server.database,
            "INSERT INTO counters (id, n) VALUES (1, 0)")
    done = []

    def bump(env, node):
        client = DatabaseClient(node, host.primary_address)
        yield client.connect()
        for _ in range(5):
            reply = yield client.query(
                "SELECT n FROM counters WHERE id = 1")
            n = reply["rows"][0]["n"]
            yield client.query(
                "UPDATE counters SET n = ? WHERE id = 1", (n + 1,))
        done.append(node.name)

    sim.spawn(bump(sim, c1))
    sim.spawn(bump(sim, c2))
    sim.run(until=120)
    assert sorted(done) == ["app1", "app2"]
    final = execute(server.database,
                    "SELECT n FROM counters WHERE id = 1").rows[0]["n"]
    assert final >= 5  # lost updates possible in autocommit; sessions ran
