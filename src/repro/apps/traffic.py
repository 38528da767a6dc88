"""Global positioning, directions and traffic advisories (Table 1, "Traffic").

A road grid lives host-side (networkx shortest paths); mobile clients
send their position and destination and get turn-by-turn directions
that route around congested segments, plus area advisories.
"""

from __future__ import annotations

import networkx as nx

from ..web import HTTPResponse, render
from .base import Application, html_page

__all__ = ["TrafficApp"]

DIRECTIONS_TEMPLATE = """<html><head><title>Directions</title></head><body>
<h1>Route to {{ destination }}</h1>
{% for step in steps %}<p>{{ step }}</p>{% endfor %}
<p>Estimated time: {{ eta }} min</p>
</body></html>"""


class TrafficApp(Application):
    """Directions over a congestion-weighted road graph."""

    category = "traffic"
    clients = "Transportation and auto industries"

    GRID = 5  # a GRID x GRID street grid

    def __init__(self):
        super().__init__()
        self.graph = nx.Graph()
        n = self.GRID
        for x in range(n):
            for y in range(n):
                if x + 1 < n:
                    self.graph.add_edge((x, y), (x + 1, y), minutes=2.0)
                if y + 1 < n:
                    self.graph.add_edge((x, y), (x, y + 1), minutes=2.0)

    def create_schema(self, database) -> None:
        self.sql(database,
                 "CREATE TABLE IF NOT EXISTS tf_advisories ("
                 "rowid INTEGER PRIMARY KEY, x INTEGER NOT NULL, "
                 "y INTEGER NOT NULL, message TEXT NOT NULL, "
                 "delay_minutes REAL NOT NULL)")
        self._next_rowid = 1

    def mount_programs(self, server) -> None:
        server.mount("/traffic/directions", self._directions,
                     name="traffic-directions")
        server.mount("/traffic/report", self._report, name="traffic-report")
        server.mount("/traffic/advisories", self._advisories,
                     name="traffic-advisories")

    def _node(self, ctx, prefix: str):
        return (int(ctx.param(f"{prefix}x", "0")),
                int(ctx.param(f"{prefix}y", "0")))

    def _directions(self, ctx):
        origin = self._node(ctx, "from_")
        destination = self._node(ctx, "to_")
        for node in (origin, destination):
            if node not in self.graph:
                return HTTPResponse.not_found(f"off the map: {node}")
        advisories = yield ctx.database.query("SELECT * FROM tf_advisories")
        weighted = self.graph.copy()
        for advisory in advisories["rows"]:
            node = (advisory["x"], advisory["y"])
            for neighbour in list(weighted.neighbors(node)) \
                    if node in weighted else []:
                weighted[node][neighbour]["minutes"] += \
                    advisory["delay_minutes"]
        path = nx.shortest_path(weighted, origin, destination,
                                weight="minutes")
        eta = nx.path_weight(weighted, path, weight="minutes")
        steps = [f"go to {node}" for node in path[1:]]
        return HTTPResponse.ok(render(DIRECTIONS_TEMPLATE, {
            "destination": str(destination),
            "steps": steps,
            "eta": f"{eta:.0f}",
        }))

    def _report(self, ctx):
        """A driver reports congestion at an intersection."""
        rowid = self._next_rowid
        self._next_rowid += 1
        yield ctx.database.query(
            "INSERT INTO tf_advisories (rowid, x, y, message, "
            "delay_minutes) VALUES (?, ?, ?, ?, ?)",
            (rowid, int(ctx.param("x", "0")), int(ctx.param("y", "0")),
             ctx.param("message", "congestion"),
             float(ctx.param("delay", "5"))))
        return HTTPResponse.ok(html_page("Reported", "<p>advisory filed</p>"))

    def _advisories(self, ctx):
        reply = yield ctx.database.query(
            "SELECT * FROM tf_advisories ORDER BY rowid")
        lines = "".join(
            f"<p>({r['x']},{r['y']}): {r['message']} "
            f"+{r['delay_minutes']}min</p>"
            for r in reply["rows"]
        ) or "<p>all clear</p>"
        return HTTPResponse.ok(html_page("Advisories", lines))

    # -- flows --------------------------------------------------------------
    def navigate(self, origin=(0, 0), destination=(4, 4)):
        def flow(ctx):
            directions = yield from ctx.get(
                f"/traffic/directions?from_x={origin[0]}&from_y={origin[1]}"
                f"&to_x={destination[0]}&to_y={destination[1]}")
            yield from ctx.render(directions)
            if directions.status != 200:
                raise RuntimeError("no directions")
            return {"status": directions.status}

        flow.__name__ = "navigate"
        return flow
