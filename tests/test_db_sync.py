"""Tests for mobile-database delta sync (device <-> host)."""

import pytest

from repro.db import SyncClient, SyncService
from repro.devices import EmbeddedDatabase, build_station
from repro.net import IPAddress, Network, Subnet
from repro.sim import Simulator
from repro.wireless import AccessPoint, ChannelModel, Mobile, Position, \
    wlan_standard


def build_sync_world(n_devices=1):
    sim = Simulator()
    net = Network(sim)
    host = net.add_node("host")
    ap_router = net.add_node("ap", forwarding=True)
    net.connect(host, ap_router, Subnet.parse("10.0.0.0/24"), delay=0.002)
    channel = ChannelModel()
    ap = AccessPoint(ap_router, Position(0, 0), wlan_standard("802.11b"),
                     channel, wireless_subnet=Subnet.parse("10.0.1.0/24"))
    net.build_routes()
    service = SyncService(host)

    clients = []
    for index in range(n_devices):
        station = build_station(
            sim, "Palm i705", IPAddress.parse(f"10.0.1.{10 + index}"),
            name=f"palm-{index}")
        net.adopt(station)
        ap.associate(station, station.mobile)
        db = EmbeddedDatabase(station, name=f"notes-{index}")
        clients.append(SyncClient(db, host.primary_address,
                                  namespace="notes"))
    return sim, service, clients


def run_sync(sim, client):
    ev = client.sync()
    sim.run(until=sim.now + 60)
    assert ev.triggered
    return ev.value


def test_device_changes_reach_host():
    sim, service, (client,) = build_sync_world()
    client.database.put("n1", {"text": "buy milk"})
    client.database.put("n2", {"text": "call office"})
    summary = run_sync(sim, client)
    assert summary["pushed"] == 2
    namespace = service.namespace("notes")
    assert namespace.records["n1"].value == {"text": "buy milk"}


def test_host_changes_reach_device():
    sim, service, (client,) = build_sync_world()
    service.namespace("notes").put("promo", {"text": "sale on cases"})
    summary = run_sync(sim, client)
    assert summary["pulled"] == 1
    assert client.database.get("promo") == {"text": "sale on cases"}


def test_second_sync_ships_only_deltas():
    sim, service, (client,) = build_sync_world()
    client.database.put("a", {"v": 1})
    first = run_sync(sim, client)
    assert first["pushed"] == 1
    second = run_sync(sim, client)
    assert second["pushed"] == 0
    assert second["pulled"] == 0
    client.database.put("b", {"v": 2})
    third = run_sync(sim, client)
    assert third["pushed"] == 1


def test_tombstones_propagate():
    sim, service, (client,) = build_sync_world()
    client.database.put("gone", {"v": 1})
    run_sync(sim, client)
    client.database.delete("gone")
    run_sync(sim, client)
    assert service.namespace("notes").records["gone"].deleted


def test_two_devices_converge():
    sim, service, clients = build_sync_world(n_devices=2)
    alpha, beta = clients
    alpha.database.put("from-alpha", {"v": "a"})
    beta.database.put("from-beta", {"v": "b"})
    run_sync(sim, alpha)
    run_sync(sim, beta)   # beta pulls alpha's record
    run_sync(sim, alpha)  # alpha pulls beta's record
    assert alpha.database.get("from-beta") == {"v": "b"}
    assert beta.database.get("from-alpha") == {"v": "a"}
    assert alpha.database.keys() == beta.database.keys()


def test_conflict_resolves_server_wins():
    """Two devices edit the same key offline; first to sync wins."""
    sim, service, clients = build_sync_world(n_devices=2)
    alpha, beta = clients
    alpha.database.put("shared", {"v": "alpha-first"})
    beta.database.put("shared", {"v": "beta-late"})
    run_sync(sim, alpha)                  # alpha lands on the server
    summary = run_sync(sim, beta)         # beta's edit conflicts
    assert summary["conflicts"] == 1
    # The server copy (alpha's) ships back; everyone converges on it.
    assert service.namespace("notes").records["shared"].value == \
        {"v": "alpha-first"}
    assert beta.database.get("shared") == {"v": "alpha-first"}
    run_sync(sim, alpha)
    assert alpha.database.get("shared") == {"v": "alpha-first"}


def test_sync_times_out_gracefully_when_host_unreachable():
    sim, service, (client,) = build_sync_world()
    # Cut the backhaul before syncing.
    for link in client.station.sim and []:
        pass
    client.service_address = IPAddress.parse("10.9.9.9")  # no such host
    ev = client.sync(timeout=1.0)
    sim.run(until=sim.now + 30)
    assert ev.value is None


def test_sync_respects_device_quota():
    sim, service, (client,) = build_sync_world()
    from repro.devices import OutOfMemoryError
    small = EmbeddedDatabase(client.station, name="tiny", quota_kb=1)
    tiny_client = SyncClient(small, client.service_address,
                             namespace="big")
    service.namespace("big").put("huge", {"blob": "z" * 5000})
    ev = tiny_client.sync()
    with pytest.raises(OutOfMemoryError):
        sim.run(until=sim.now + 60)
