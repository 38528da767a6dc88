"""Per-category tests for the eight Table 1 applications."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    CommerceApp,
    EducationApp,
    EntertainmentApp,
    ERPApp,
    HealthcareApp,
    InventoryApp,
    TrafficApp,
    TravelApp,
)
from repro.core import MCSystemBuilder, TransactionEngine
from repro.db import execute


@pytest.fixture
def world():
    """A WCDMA/WAP system with a fast device and a funded account."""
    system = MCSystemBuilder(middleware="WAP",
                             bearer=("cellular", "WCDMA")).build()
    system.host.payment.open_account("ann", 1_000_000)
    handle = system.add_station("Toshiba E740")
    engine = TransactionEngine(system)
    return system, handle, engine


def run_flow(system, engine, handle, flow):
    done = engine.run_flow(handle, flow)
    system.run(until=system.sim.now + 300)
    assert done.triggered, "flow did not finish"
    return done.value


def db_rows(system, sql, params=()):
    return execute(system.host.db_server.database, sql, params).rows


# ---------------------------------------------------------------- commerce
def test_commerce_purchase_writes_order(world):
    system, handle, engine = world
    app = CommerceApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.browse_and_buy(item_id=2, account="ann"))
    assert record.ok, record.error
    orders = db_rows(system, "SELECT * FROM shop_orders")
    assert len(orders) == 1
    assert orders[0]["item_id"] == 2


def test_commerce_out_of_stock_rejected(world):
    system, handle, engine = world
    app = CommerceApp(items=[("Rare Thing", 100, 0)])
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.browse_and_buy(item_id=1, account="ann"))
    assert not record.ok
    assert db_rows(system, "SELECT * FROM shop_orders") == []


def test_commerce_personalization_flag(world):
    system, handle, engine = world
    app = CommerceApp()
    system.mount_application(app)
    assert not app.personalization_used
    record = run_flow(system, engine, handle,
                      app.browse_and_buy(account="ann", user="ann"))
    assert record.ok
    assert app.personalization_used


# --------------------------------------------------------------- education
def test_education_enroll_and_grade(world):
    system, handle, engine = world
    app = EducationApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle, app.attend_class(
        student="s1", answers={"q1": "4", "q2": "tcp"}))
    assert record.ok, record.error
    grades = db_rows(system, "SELECT * FROM edu_grades")
    assert grades[0]["score"] == 100
    courses = db_rows(system,
                      "SELECT enrolled FROM edu_courses WHERE code = 'CS101'")
    assert courses[0]["enrolled"] == 1


def test_education_wrong_answers_scored(world):
    system, handle, engine = world
    app = EducationApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle, app.attend_class(
        answers={"q1": "5", "q2": "tcp"}))
    assert record.ok
    grades = db_rows(system, "SELECT * FROM edu_grades")
    assert grades[0]["score"] == 50


# --------------------------------------------------------------------- erp
def test_erp_reserve_respects_capacity(world):
    system, handle, engine = world
    app = ERPApp(resources=[("crane", 1)])
    system.mount_application(app)

    def double_reserve(ctx):
        first = yield from ctx.get("/erp/reserve?resource=crane")
        second = yield from ctx.get("/erp/reserve?resource=crane")
        return {"first": first.status, "second": second.status}

    record = run_flow(system, engine, handle, double_reserve)
    assert record.ok
    assert record.result == {"first": 200, "second": 409}


def test_erp_full_cycle(world):
    system, handle, engine = world
    app = ERPApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle, app.manage_resources())
    assert record.ok
    rows = db_rows(system, "SELECT reserved FROM erp_resources "
                           "WHERE name = 'delivery-van'")
    assert rows[0]["reserved"] == 0  # reserved then released


# ----------------------------------------------------------- entertainment
def test_entertainment_download_delivers_bytes(world):
    system, handle, engine = world
    app = EntertainmentApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.buy_and_download(media_id=1, account="ann"))
    assert record.ok, record.error
    assert record.result["bytes"] == 12 * 1024
    licenses = db_rows(system, "SELECT * FROM media_licenses")
    assert len(licenses) == 1
    assert system.host.payment.balance("ann") == 1_000_000 - 99


def test_entertainment_larger_media_takes_longer(world):
    system, handle, engine = world
    app = EntertainmentApp()
    system.mount_application(app)
    small = run_flow(system, engine, handle,
                     app.buy_and_download(media_id=1, account="ann"))
    big = run_flow(system, engine, handle,
                   app.buy_and_download(media_id=3, account="ann"))
    assert small.ok and big.ok
    assert big.latency > small.latency


# ---------------------------------------------------------------- healthcare
def test_healthcare_requires_authentication(world):
    system, handle, engine = world
    app = HealthcareApp()
    system.mount_application(app)

    def snoop(ctx):
        record = yield from ctx.get("/hc/record?patient=1&token=forged")
        return {"status": record.status}

    record = run_flow(system, engine, handle, snoop)
    assert record.result == {"status": 401}


def test_healthcare_rounds_audited(world):
    system, handle, engine = world
    app = HealthcareApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle, app.rounds())
    assert record.ok, record.error
    audit = db_rows(system, "SELECT * FROM hc_audit")
    actions = sorted(row["action"] for row in audit)
    assert actions == ["read", "write"]
    vitals = db_rows(system,
                     "SELECT * FROM hc_vitals WHERE patient_id = 1")
    assert len(vitals) == 2  # seeded + newly recorded


def test_healthcare_bad_password_rejected(world):
    system, handle, engine = world
    app = HealthcareApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.rounds(password="wrong"))
    assert not record.ok


# ----------------------------------------------------------------- inventory
def test_inventory_driver_updates_position(world):
    system, handle, engine = world
    app = InventoryApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.driver_rounds(shipment=1))
    assert record.ok
    rows = db_rows(system,
                   "SELECT x, y FROM inv_shipments WHERE shipment_id = 1")
    assert (rows[0]["x"], rows[0]["y"]) == (3.0, 6.0)


def test_inventory_dispatch_picks_nearest(world):
    system, handle, engine = world
    app = InventoryApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.dispatcher_flow(pickup=(6.0, 6.0)))
    assert record.ok
    dispatched = db_rows(system, "SELECT * FROM inv_shipments "
                                 "WHERE status = 'dispatched'")
    assert len(dispatched) == 1
    assert dispatched[0]["driver"] == "erin"  # at (5,5), nearest to (6,6)


# ------------------------------------------------------------------ traffic
def test_traffic_directions_shortest_path(world):
    system, handle, engine = world
    app = TrafficApp()
    system.mount_application(app)

    def ask(ctx):
        reply = yield from ctx.get(
            "/traffic/directions?from_x=0&from_y=0&to_x=2&to_y=0")
        return {"status": reply.status,
                "body": reply.body.decode(errors="replace")}

    record = run_flow(system, engine, handle, ask)
    assert record.ok


def test_traffic_congestion_changes_route(world):
    system, handle, engine = world
    app = TrafficApp()
    system.mount_application(app)

    def scenario(ctx):
        before = yield from ctx.get(
            "/traffic/directions?from_x=0&from_y=0&to_x=4&to_y=4")
        yield from ctx.get("/traffic/report?x=2&y=2&delay=60")
        after = yield from ctx.get(
            "/traffic/directions?from_x=0&from_y=0&to_x=4&to_y=4")
        return {"before": before.body.decode(errors="replace"),
                "after": after.body.decode(errors="replace")}

    record = run_flow(system, engine, handle, scenario)
    assert record.ok, record.error
    # The congested intersection is avoided afterwards.
    assert "(2, 2)" not in record.result["after"]


def test_traffic_off_map_rejected(world):
    system, handle, engine = world
    app = TrafficApp()
    system.mount_application(app)

    def ask(ctx):
        reply = yield from ctx.get(
            "/traffic/directions?from_x=0&from_y=0&to_x=99&to_y=99")
        return {"status": reply.status}

    record = run_flow(system, engine, handle, ask)
    assert record.result == {"status": 404}


@pytest.mark.parametrize("delay", ["-10", "nan"])
def test_traffic_bad_delay_rejected(world, delay):
    system, handle, engine = world
    app = TrafficApp()
    system.mount_application(app)

    def scenario(ctx):
        report = yield from ctx.get(f"/traffic/report?x=2&y=2&delay={delay}")
        directions = yield from ctx.get(
            "/traffic/directions?from_x=0&from_y=0&to_x=4&to_y=4")
        return {"report": report.status, "directions": directions.status,
                "body": directions.body.decode(errors="replace")}

    record = run_flow(system, engine, handle, scenario)
    assert (record.result["report"], record.result["directions"]) == \
        (400, 200)
    assert "Estimated time: 16 min" in record.result["body"]
    assert db_rows(system, "SELECT * FROM tf_advisories") == []


def test_traffic_routes_pinned():
    # Recorded from networkx's shortest_path before the grid went stdlib.
    app = TrafficApp()
    assert app.route((0, 0), (4, 4)) == (
        [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 4),
         (4, 4)], 16.0)
    assert app.route((0, 0), (4, 4), [((2, 2), 60)]) == (
        [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4),
         (4, 4)], 16.0)


GRID_NODES = list(itertools.product(range(TrafficApp.GRID), repeat=2))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GRID_NODES),
                          st.sampled_from([1, 2, 5, 60])), max_size=3))
def test_traffic_route_matches_networkx(advisories):
    nx = pytest.importorskip("networkx")
    grid = nx.Graph()
    n = TrafficApp.GRID
    for x in range(n):
        for y in range(n):
            if x + 1 < n:
                grid.add_edge((x, y), (x + 1, y), minutes=2.0)
            if y + 1 < n:
                grid.add_edge((x, y), (x, y + 1), minutes=2.0)
    weighted = grid.copy()  # copy() reorders neighbours, and so ties
    for node, delay in advisories:
        for neighbour in weighted.neighbors(node):
            weighted[node][neighbour]["minutes"] += delay
    app = TrafficApp()
    for origin, destination in itertools.product(GRID_NODES, repeat=2):
        path = nx.shortest_path(weighted, origin, destination,
                                weight="minutes")
        eta = nx.path_weight(weighted, path, weight="minutes")
        assert app.route(origin, destination, advisories) == (path, eta)


# ------------------------------------------------------------------- travel
def test_travel_booking_decrements_seats(world):
    system, handle, engine = world
    app = TravelApp()
    system.mount_application(app)
    record = run_flow(system, engine, handle,
                      app.book_trip(trip_id=102, passenger="ann"))
    assert record.ok, record.error
    rows = db_rows(system,
                   "SELECT seats_left FROM tv_trips WHERE trip_id = 102")
    assert rows[0]["seats_left"] == 39


def test_travel_sellout(world):
    system, handle, engine = world
    app = TravelApp(trips=[(1, "A", "B", "08:00", 1, 1000)])
    system.mount_application(app)
    first = run_flow(system, engine, handle, app.book_trip(
        origin="A", destination="B", trip_id=1, passenger="p1"))
    assert first.ok
    second = run_flow(system, engine, handle, app.book_trip(
        origin="A", destination="B", trip_id=1, passenger="p2"))
    assert not second.ok


def test_travel_ticket_verifiable(world):
    system, handle, engine = world
    app = TravelApp()
    system.mount_application(app)

    def book_and_verify(ctx):
        from repro.middleware import WMLC_CONTENT_TYPE, decode_wmlc
        ticket_page = yield from ctx.get(
            "/travel/book?trip=201&passenger=ann")
        if ticket_page.content_type == WMLC_CONTENT_TYPE:
            deck = decode_wmlc(ticket_page.body)
            body = " ".join(p for card in deck.cards
                            for p in card.paragraphs)
        else:
            body = ticket_page.body.decode(errors="replace")
        token = next(word for word in body.split()
                     if word.startswith("ann@trip201:"))
        verdict = yield from ctx.get(f"/travel/verify?token={token}")
        forged = yield from ctx.get("/travel/verify?token=bogus")
        return {"real": verdict.status, "forged": forged.status}

    record = run_flow(system, engine, handle, book_and_verify)
    assert record.ok, record.error
    assert record.result == {"real": 200, "forged": 403}
