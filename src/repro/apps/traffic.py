"""Global positioning, directions and traffic advisories (Table 1, "Traffic").

A road grid lives host-side; mobile clients send their position and
destination and get turn-by-turn directions that route around congested
segments, plus area advisories.  Routes come from a bidirectional
Dijkstra search over the grid's congestion-weighted edges.
"""

from __future__ import annotations

# Dijkstra's frontier, not an event queue.
import heapq
import math
from itertools import count

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
        self.graph = _street_grid(self.GRID)

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
        path, eta = self.route(origin, destination, [
            ((advisory["x"], advisory["y"]), advisory["delay_minutes"])
            for advisory in advisories["rows"]])
        steps = [f"go to {node}" for node in path[1:]]
        return HTTPResponse.ok(render(DIRECTIONS_TEMPLATE, {
            "destination": str(destination),
            "steps": steps,
            "eta": f"{eta:.0f}",
        }))

    def route(self, origin, destination, advisories=()):
        """The route and its minutes, each advisory ``(node, delay)``
        adding ``delay`` to every road at ``node``."""
        weighted = {node: dict(roads) for node, roads in self.graph.items()}
        for node, delay in advisories:
            for neighbour in weighted.get(node, ()):
                weighted[node][neighbour] += delay
                weighted[neighbour][node] += delay
        path = _shortest_path(weighted, origin, destination)
        return path, sum(weighted[a][b] for a, b in zip(path, path[1:]))

    def _report(self, ctx):
        """A driver reports congestion at an intersection."""
        delay = float(ctx.param("delay", "5"))
        if not math.isfinite(delay) or delay < 0:
            # Dijkstra needs non-negative edge weights.
            return HTTPResponse(400, {"content-type": "text/plain"},
                                f"delay must be finite and >= 0: {delay}")
        rowid = self._next_rowid
        self._next_rowid += 1
        yield ctx.database.query(
            "INSERT INTO tf_advisories (rowid, x, y, message, "
            "delay_minutes) VALUES (?, ?, ?, ?, ?)",
            (rowid, int(ctx.param("x", "0")), int(ctx.param("y", "0")),
             ctx.param("message", "congestion"), delay))
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


def _street_grid(n: int) -> dict:
    """An ``n`` x ``n`` street grid, ``{node: {neighbour: minutes}}``.

    The edges are laid east then north from each intersection and then
    re-inserted as ``for u in grid: for v in grid[u]``.  That fixes the
    neighbour order :func:`_shortest_path` visits, and with it which of
    several equal-length routes it returns.
    """
    laid = {}
    for x in range(n):
        for y in range(n):
            for neighbour in ((x + 1, y), (x, y + 1)):
                if max(neighbour) < n:
                    laid.setdefault((x, y), {})[neighbour] = 2.0
                    laid.setdefault(neighbour, {})[(x, y)] = 2.0
    grid = {node: {} for node in laid}
    for u, roads in laid.items():
        for v, minutes in roads.items():
            grid[u][v] = minutes
            grid[v][u] = minutes
    return grid


def _shortest_path(grid: dict, source, target) -> list:
    """A shortest ``source``-``target`` route by bidirectional Dijkstra.

    The two searches alternate, one settled node each; the route joins
    at the node that gave the shortest known total when a node is first
    settled from both sides.  Heap ties break by push order.  Edge
    weights must be non-negative.
    """
    if source == target:
        return [source]
    dists = [{}, {}]  # settled distances: [forward, backward]
    preds = [{source: None}, {target: None}]
    seen = [{source: 0}, {target: 0}]  # best known distances
    tie = count()
    fringe = [[(0, next(tie), source)], [(0, next(tie), target)]]
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heapq.heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            return _walk(preds[0], meetnode)[::-1] + \
                _walk(preds[1], preds[1][meetnode])
        for w, cost in grid[v].items():
            length = dist + cost
            if w in dists[direction]:
                if length < dists[direction][w]:
                    raise ValueError("negative edge weight")
            elif w not in seen[direction] or length < seen[direction][w]:
                seen[direction][w] = length
                heapq.heappush(fringe[direction], (length, next(tie), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = length + seen[1 - direction][w]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
    raise ValueError(f"no route from {source} to {target}")


def _walk(preds: dict, node) -> list:
    """``node`` and its predecessors, back to the search's start."""
    route = []
    while node is not None:
        route.append(node)
        node = preds[node]
    return route
