"""System builders: Figures 1 and 2 as executable object graphs.

:class:`MCSystemBuilder` assembles a complete mobile commerce system —
host tier (web server + database server + application programs),
wired core, a wireless bearer (any Table 4 WLAN standard or Table 5
cellular standard), mobile middleware (WAP gateway or i-mode centre),
and Table 2 mobile stations — and returns an :class:`MCSystem` whose
``model`` mirrors Figure 2 and validates against it.

:class:`ECSystemBuilder` assembles Figure 1's four-component electronic
commerce system the same way (desktop clients, no wireless, no
middleware), so the two figures can be compared by running the same
application code on both.
"""

from __future__ import annotations

import copy
from typing import Optional

from ..db import DatabaseClient, DatabaseServer
from ..devices import Microbrowser, MobileStation, build_station
from ..middleware import (
    DirectHTTPSession,
    IModeCenter,
    IModeSession,
    MiddlewareSession,
    PalmSession,
    WAPGateway,
    WAPSession,
    WebClippingProxy,
    WSP_PORT,
    WTLS_PORT,
)
from ..net import AddressAllocator, NameRegistry, Network, Node, Subnet
from ..resilience import CircuitBreaker, ResilienceConfig, ResilientSession
from ..security import PaymentProcessor, TokenIssuer, UserStore
from ..sim import SeedBank, Simulator
from ..web import WebServer
from ..wireless import (
    AccessPoint,
    CellularNetwork,
    ChannelModel,
    Mobile,
    Position,
    cellular_standard,
    wlan_standard,
)
from .components import Component, ComponentKind, EDGE_ASSOCIATION, EDGE_DATA_FLOW
from .model import SystemModel

__all__ = ["HostTier", "StationHandle", "ClientHandle", "MCSystem",
           "ECSystem", "MCSystemBuilder", "ECSystemBuilder"]

HOST_DOMAIN = "shop.example.com"

# Resilience values no caller varies, each used at one call site below
# (the knobs callers do vary live in ResilienceConfig).  The breaker
# opens after 4 consecutive origin failures, probes again after 8 s and
# lets 2 half-open requests through; the origin timeout sits under the
# request deadline so the breaker learns about dead origins quickly
# (without policies the gateway keeps its own 30 s default).
BREAKER = dict(failure_threshold=4, recovery_time=8.0, half_open_max=2)
ORIGIN_TIMEOUT = 3.0
# Web-server admission control: extra queued requests tolerated on top
# of the busy worker pool before shedding with 503, the base
# Retry-After (scaled with queue depth) and its seeded jitter.
SHEDDING = dict(backlog=16, retry_after=1.0, jitter=0.2)
# The standby gateway listens this many ports above the primary (its
# endpoint is published in the name registry, never hardcoded).
STANDBY_PORT_OFFSET = 10

# Middleware kind -> (gateway server class, device session class).
_MIDDLEWARE = {
    "WAP": (WAPGateway, WAPSession),
    "i-mode": (IModeCenter, IModeSession),
    "Palm": (WebClippingProxy, PalmSession),
}


class HostTier:
    """The paper's host computer: web server, DB server, app programs."""

    def __init__(self, web_node: Node, db_node: Node, web_server: WebServer,
                 db_server: DatabaseServer, db_client: DatabaseClient,
                 payment: PaymentProcessor, users: UserStore,
                 tokens: TokenIssuer):
        self.web_node = web_node
        self.db_node = db_node
        self.web_server = web_server
        self.db_server = db_server
        self.db_client = db_client
        self.payment = payment
        self.users = users
        self.tokens = tokens


class StationHandle:
    """One provisioned mobile station with its middleware session."""

    def __init__(self, station: MobileStation, session: MiddlewareSession,
                 browser: Microbrowser, attachment: object = None):
        self.station = station
        self.session = session
        self.browser = browser
        self.attachment = attachment  # Association or CellularAttachment


class ClientHandle:
    """One wired desktop client (EC systems)."""

    def __init__(self, node: Node, session: MiddlewareSession):
        self.node = node
        self.session = session


class _BaseSystem:
    """Shared host/infrastructure state of EC and MC systems."""

    def __init__(self, sim: Simulator, network: Network,
                 registry: NameRegistry, host: HostTier,
                 model: SystemModel, seeds: SeedBank):
        self.sim = sim
        self.network = network
        self.registry = registry
        self.host = host
        self.model = model
        self.seeds = seeds
        self.applications: list = []

    @property
    def host_url(self) -> str:
        return f"http://{HOST_DOMAIN}"

    def url(self, path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        return self.host_url + path

    def mount_application(self, application) -> None:
        """Install an application's server side and register it in the model."""
        application.install(self)
        self.applications.append(application)
        name = f"app:{application.category}"
        self.model.add(Component(
            kind=ComponentKind.APPLICATIONS,
            name=name,
            implementation=application,
        ))
        self.model.connect(name, "host-computers", EDGE_ASSOCIATION)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


class MCSystem(_BaseSystem):
    """A running six-component mobile commerce system."""

    def __init__(self, *args, middleware_kind: str, bearer_kind: str,
                 bearer_name: str, attach_fn, session_fn,
                 station_allocator: AddressAllocator, **kwargs):
        super().__init__(*args, **kwargs)
        self.middleware_kind = middleware_kind
        self.bearer_kind = bearer_kind
        self.bearer_name = bearer_name
        self._attach_fn = attach_fn
        self._session_fn = session_fn
        self._station_allocator = station_allocator
        self.stations: list[StationHandle] = []
        # Resilience wiring (populated by the builder): the primary
        # middleware gateway/centre/proxy, the optional standby, the
        # ResilienceConfig in force, and the retry policy + default
        # request timeout TransactionEngine picks up automatically.
        self.gateway = None
        self.standby_gateway = None
        self.resilience: Optional[ResilienceConfig] = None
        self.retry_policy = None
        self.request_timeout: Optional[float] = None
        # Fleet control plane (populated by the builder; all None for
        # the classic single-gateway topology).
        self.fleet = None
        self.balancer = None
        self.health_monitor = None
        self.canary = None

    def add_station(self, device_name: str,
                    position: Position = Position(10.0, 0.0),
                    name: Optional[str] = None) -> StationHandle:
        """Provision a Table 2 device, attach it to the bearer."""
        address = self._station_allocator.allocate()
        station = build_station(self.sim, device_name, address,
                                position=position, name=name)
        self.network.adopt(station)
        attachment = self._attach_fn(station)
        session = self._session_fn(station)
        handle = StationHandle(
            station=station,
            session=session,
            browser=Microbrowser(station),
            attachment=attachment,
        )
        self.stations.append(handle)
        return handle


class ECSystem(_BaseSystem):
    """A running four-component electronic commerce system."""

    def __init__(self, *args, client_subnet: Subnet, core: Node, **kwargs):
        super().__init__(*args, **kwargs)
        self._client_subnet = client_subnet
        self._core = core
        self.clients: list[ClientHandle] = []

    def add_client(self, name: Optional[str] = None) -> ClientHandle:
        """Add a desktop client wired to the core."""
        node = self.network.add_node(
            name or f"desktop-{len(self.clients)}")
        self.network.connect(self._core, node, self._client_subnet,
                             bandwidth_bps=100_000_000, delay=0.002)
        self.network.build_routes()
        handle = ClientHandle(
            node=node,
            session=DirectHTTPSession(node, self.registry),
        )
        self.clients.append(handle)
        return handle


def _build_host_tier(sim: Simulator, network: Network, core: Node,
                     registry: NameRegistry, seeds: SeedBank) -> HostTier:
    web_node = network.add_node("web-host")
    db_node = network.add_node("db-host")
    network.connect(core, web_node, Subnet.parse("10.1.0.0/24"),
                    bandwidth_bps=100_000_000, delay=0.001)
    network.connect(web_node, db_node, Subnet.parse("10.1.1.0/24"),
                    bandwidth_bps=1_000_000_000, delay=0.000_2)

    db_server = DatabaseServer(db_node)
    db_client = DatabaseClient(web_node, db_node.primary_address)
    web_server = WebServer(web_node, database=db_client)

    payment = PaymentProcessor(sim, seeds.stream("payment"))
    users = UserStore(seeds.stream("users"))
    tokens = TokenIssuer(sim, secret=seeds.stream("tokens").bytes(32))
    web_server.services.update(
        payment=payment, users=users, tokens=tokens,
        database=db_client, registry=registry,
    )
    registry.register(HOST_DOMAIN, web_node.primary_address)

    def connect_db(env):
        yield db_client.connect()

    sim.spawn(connect_db(sim), name="host-db-connect")
    return HostTier(
        web_node=web_node,
        db_node=db_node,
        web_server=web_server,
        db_server=db_server,
        db_client=db_client,
        payment=payment,
        users=users,
        tokens=tokens,
    )


def _host_model(model: SystemModel, host: HostTier) -> None:
    """Register the host tier's boxes and internal edges (both figures)."""
    model.add(Component(ComponentKind.HOST_COMPUTERS, "host-computers",
                        implementation=host))
    model.add(Component(ComponentKind.WEB_SERVERS, "web-servers",
                        implementation=host.web_server))
    model.add(Component(ComponentKind.DATABASE_SERVERS, "database-servers",
                        implementation=host.db_server))
    model.add(Component(ComponentKind.APPLICATION_PROGRAMS,
                        "application-programs",
                        implementation=host.web_server.cgi))
    model.connect("host-computers", "web-servers", EDGE_ASSOCIATION)
    model.connect("host-computers", "database-servers", EDGE_ASSOCIATION)
    model.connect("host-computers", "application-programs", EDGE_ASSOCIATION)
    model.connect("web-servers", "database-servers", EDGE_DATA_FLOW)
    model.connect("application-programs", "web-servers", EDGE_DATA_FLOW)


class MCSystemBuilder:
    """Composable construction of Figure 2's system."""

    def __init__(self, seed: int = 0, middleware: str = "WAP",
                 bearer: tuple[str, str] = ("cellular", "GPRS"),
                 secure_wap: bool = False,
                 resilience: Optional[ResilienceConfig] = None):
        if middleware not in _MIDDLEWARE:
            raise ValueError(f"unknown middleware {middleware!r}")
        if secure_wap and middleware != "WAP":
            raise ValueError("secure_wap requires the WAP middleware")
        self.secure_wap = secure_wap
        bearer_kind, bearer_name = bearer
        if bearer_kind not in ("wlan", "cellular"):
            raise ValueError(f"unknown bearer kind {bearer_kind!r}")
        self.seed = seed
        self.middleware = middleware
        self.bearer_kind = bearer_kind
        self.bearer_name = bearer_name
        # None keeps historical behaviour bit-for-bit: no breakers, no
        # standby gateway, no retry, no shedding.
        self.resilience = resilience

    def _make_gateway(self, sim, seeds, registry, node, res, *,
                      suffix: str, port: int, air_pressure,
                      handicap: float = 0.0):
        """One middleware server plus its device-session factory.

        ``suffix`` is "" for the primary, "-standby" for the standby and
        "-m{i}" for fleet member i.  It names the seed streams
        (``wtls-gateway{suffix}``, ``gateway-admission{suffix}``, the
        session stream ``wtls{suffix}-{station}``), the origin breaker
        (``{kind}-origin{suffix}``) and the registry service
        (``middleware{suffix}``), so seeds and registry entries are the
        same whichever topology builds the server.
        """
        kind = self.middleware
        gateway_cls, session_cls = _MIDDLEWARE[kind]
        options = {}
        if kind == "WAP":
            options = dict(
                wtls_port=port + (WTLS_PORT - WSP_PORT),
                entropy=seeds.stream(f"wtls-gateway{suffix}"))
        if res is not None:
            options.update(
                breaker=CircuitBreaker(sim, name=f"{kind}-origin{suffix}",
                                       **BREAKER),
                origin_timeout=ORIGIN_TIMEOUT)
            if res.batching:
                options.update(
                    batching=True,
                    batch_stream=seeds.stream(f"gateway-admission{suffix}"))
        gateway = gateway_cls(
            node, registry, port=port, air_pressure=air_pressure,
            handicap=handicap, **options)
        service = f"middleware{suffix}"
        registry.register_service(service, node.primary_address,
                                  gateway.port)
        if kind == "WAP":
            registry.register_service(f"{service}-wtls", node.primary_address,
                                      gateway.wtls_port)

        def make_session(station: MobileStation) -> MiddlewareSession:
            if self.secure_wap:
                endpoint = registry.lookup_service(f"{service}-wtls")
                return WAPSession(
                    station, endpoint.address, port=endpoint.port,
                    secure=True,
                    entropy=seeds.stream(f"wtls{suffix}-{station.name}"))
            endpoint = registry.lookup_service(service)
            return session_cls(station, endpoint.address, port=endpoint.port)

        return gateway, make_session

    def _build_fleet_middleware(self, sim, seeds, registry,
                                middleware_node, res, cells) -> dict:
        """Gateway fleet tier: pool + balancer + monitors (DESIGN §14).

        Member 0 reuses the classic port, seed-stream names and the
        ``middleware`` service name, so a fleet of one is byte-for-byte
        the single-gateway topology; the monitors (health, canary) only
        spawn once there is an actual fleet to manage.
        """
        from ..fleet import (
            CanaryController,
            GatewayFleet,
            HealthMonitor,
            LoadBalancer,
        )

        def make_gateway(index, port, version, handicap, cell_index):
            return self._make_gateway(
                sim, seeds, registry, middleware_node, res,
                suffix="" if index == 0 else f"-m{index}", port=port,
                air_pressure=(cells[cell_index % len(cells)].air_backlog
                              if cells else None),
                handicap=handicap)

        fleet = GatewayFleet(
            sim, make_gateway,
            base_port=_MIDDLEWARE[self.middleware][0].default_port,
            n_cells=max(1, len(cells)))
        for _ in range(res.fleet_size):
            fleet.add_member()

        direct_factory = None
        if res.direct_fallback:
            def direct_factory(station):
                return DirectHTTPSession(station, registry)
        # The balancer's observation window must cover the canary's
        # judgement windows.
        canary_window = (res.canary or {}).get("window", 0.0)
        balancer = LoadBalancer(
            sim, fleet, direct_factory=direct_factory,
            sample_window=max(120.0, 4 * canary_window))

        def make_session(station: MobileStation) -> MiddlewareSession:
            return ResilientSession(balancer.provider(station),
                                    timeout=res.request_timeout,
                                    observer=balancer.observe, sim=sim)

        health = canary = None
        if res.fleet_size >= 2:
            health = HealthMonitor(sim, fleet)
            health.start()
        if res.canary is not None:
            canary = CanaryController(sim, fleet, balancer, **res.canary)
            canary.start()

        return {
            "gateway": fleet.members["gw-0"].gateway,
            "make_session": make_session,
            "fleet": fleet,
            "balancer": balancer,
            "health": health,
            "canary": canary,
        }

    def build(self) -> MCSystem:
        seeds = SeedBank(self.seed)
        sim = Simulator()
        network = Network(sim)
        registry = NameRegistry()
        model = SystemModel(name="mc-system")
        fleet_size = (self.resilience.fleet_size
                      if self.resilience is not None else 0)
        if fleet_size < 0:
            raise ValueError(f"fleet_size must be >= 0, got {fleet_size}")

        core = network.add_node("internet-core", forwarding=True)
        host = _build_host_tier(sim, network, core, registry, seeds)

        # -- middleware node --------------------------------------------
        middleware_node = network.add_node("middleware-gw", forwarding=True)
        network.connect(core, middleware_node, Subnet.parse("10.2.0.0/24"),
                        bandwidth_bps=100_000_000, delay=0.002)

        # -- wireless bearer ----------------------------------------------
        station_subnet = Subnet.parse("10.200.0.0/16")
        allocator = AddressAllocator(station_subnet)

        if self.bearer_kind == "wlan":
            standard = wlan_standard(self.bearer_name)
            ap = AccessPoint(middleware_node, Position(0.0, 0.0), standard,
                             ChannelModel(), wireless_subnet=station_subnet)
            air_pressure = None  # WLAN: no shared-airtime backlog probe
            bearer_impl = ap
            cells: list = []
            cellnet = None

            def attach(station: MobileStation):
                return ap.associate(station, station.mobile)
        else:
            standard = cellular_standard(self.bearer_name)
            cellnet = CellularNetwork(
                network, middleware_node, standard,
                subscriber_subnet=str(station_subnet),
            )
            # A fleet gets one cell per member (canary replacements
            # reuse the retired member's cell); the classic topology
            # keeps its single cell.
            n_cells = fleet_size if fleet_size > 1 else 1
            cells = [cellnet.add_base_station(f"cell-{i}",
                                              Position(0.0, 0.0))
                     for i in range(n_cells)]
            air_pressure = cells[0].air_backlog
            bearer_impl = cellnet

            def attach(station: MobileStation):
                return cellnet.attach(station, station.mobile)

        network.build_routes()

        # -- middleware service -------------------------------------------
        res = self.resilience
        standby_gateway = make_standby_session = None
        fleet_parts = None
        if fleet_size > 0:
            fleet_parts = self._build_fleet_middleware(
                sim, seeds, registry, middleware_node, res, cells)
            gateway = fleet_parts["gateway"]
            make_session = fleet_parts["make_session"]
            if cellnet is not None:
                fleet_balancer = fleet_parts["balancer"]

                def attach(station: MobileStation,
                           _cells=cells, _balancer=fleet_balancer,
                           _cellnet=cellnet):
                    member = _balancer.member_for(station.name)
                    cell = _cells[member.cell_index % len(_cells)]
                    return _cellnet.attach(station, station.mobile,
                                           cell=cell)
        else:
            gateway, make_session = self._make_gateway(
                sim, seeds, registry, middleware_node, res,
                suffix="", port=_MIDDLEWARE[self.middleware][0].default_port,
                air_pressure=air_pressure)
            # The fleet replaces the single-standby scheme wholesale (its
            # ring supplies the ordered failover candidates instead).
            if res is not None and res.standby_gateway:
                standby_gateway, make_standby_session = self._make_gateway(
                    sim, seeds, registry, middleware_node, res,
                    suffix="-standby",
                    port=gateway.port + STANDBY_PORT_OFFSET,
                    air_pressure=air_pressure)

        if res is not None and fleet_parts is None:
            make_primary_session = make_session

            def make_session(station: MobileStation) -> MiddlewareSession:
                routes = [make_primary_session(station)]
                if make_standby_session is not None:
                    routes.append(make_standby_session(station))
                if res.direct_fallback:
                    routes.append(DirectHTTPSession(station, registry))
                return ResilientSession(routes,
                                        timeout=res.request_timeout)

        # -- figure 2 model ----------------------------------------------
        _host_model(model, host)
        model.add(Component(ComponentKind.USERS, "users"))
        model.add(Component(ComponentKind.MOBILE_STATIONS, "mobile-stations",
                            implementation=[]))
        model.add(Component(ComponentKind.MOBILE_MIDDLEWARE,
                            "mobile-middleware", implementation=gateway,
                            optional=True))
        model.add(Component(ComponentKind.WIRELESS_NETWORKS,
                            "wireless-networks", implementation=bearer_impl,
                            attributes={"standard": self.bearer_name}))
        model.add(Component(ComponentKind.WIRED_NETWORKS, "wired-networks",
                            implementation=network))
        model.add(Component(ComponentKind.USER_INTERFACE, "user-interface"))
        model.connect("users", "mobile-stations", EDGE_DATA_FLOW)
        model.connect("users", "user-interface", EDGE_ASSOCIATION)
        model.connect("user-interface", "mobile-stations", EDGE_ASSOCIATION)
        model.connect("mobile-stations", "wireless-networks", EDGE_DATA_FLOW)
        model.connect("mobile-stations", "mobile-middleware",
                      EDGE_ASSOCIATION)
        model.connect("mobile-middleware", "wireless-networks",
                      EDGE_ASSOCIATION)
        model.connect("wireless-networks", "wired-networks", EDGE_DATA_FLOW)
        model.connect("wired-networks", "host-computers", EDGE_DATA_FLOW)

        system = MCSystem(
            sim, network, registry, host, model, seeds,
            middleware_kind=self.middleware,
            bearer_kind=self.bearer_kind,
            bearer_name=self.bearer_name,
            attach_fn=attach,
            session_fn=make_session,
            station_allocator=allocator,
        )
        model.component("mobile-stations").implementation = system.stations
        system.gateway = gateway
        system.standby_gateway = standby_gateway
        system.resilience = res
        if fleet_parts is not None:
            system.fleet = fleet_parts["fleet"]
            system.balancer = fleet_parts["balancer"]
            system.health_monitor = fleet_parts["health"]
            system.canary = fleet_parts["canary"]
        if res is not None:
            host.web_server.enable_load_shedding(
                stream=seeds.stream("shed-jitter"), **SHEDDING)
            # A copy: the config's retry template stays as it was.
            retry = copy.copy(res.retry)
            retry.attempt_timeout = res.request_timeout
            retry.stream = seeds.stream("retry-jitter")
            system.retry_policy = retry
            system.request_timeout = res.request_timeout
        return system


class ECSystemBuilder:
    """Composable construction of Figure 1's system."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def build(self) -> ECSystem:
        seeds = SeedBank(self.seed)
        sim = Simulator()
        network = Network(sim)
        registry = NameRegistry()
        model = SystemModel(name="ec-system")

        core = network.add_node("internet-core", forwarding=True)
        host = _build_host_tier(sim, network, core, registry, seeds)
        network.build_routes()

        _host_model(model, host)
        model.add(Component(ComponentKind.USERS, "users"))
        model.add(Component(ComponentKind.CLIENT_COMPUTERS,
                            "client-computers", implementation=[]))
        model.add(Component(ComponentKind.WIRED_NETWORKS, "wired-networks",
                            implementation=network))
        model.add(Component(ComponentKind.USER_INTERFACE, "user-interface"))
        model.connect("users", "client-computers", EDGE_DATA_FLOW)
        model.connect("users", "user-interface", EDGE_ASSOCIATION)
        model.connect("user-interface", "client-computers", EDGE_ASSOCIATION)
        model.connect("client-computers", "wired-networks", EDGE_DATA_FLOW)
        model.connect("wired-networks", "host-computers", EDGE_DATA_FLOW)

        system = ECSystem(
            sim, network, registry, host, model, seeds,
            client_subnet=Subnet.parse("10.3.0.0/24"),
            core=core,
        )
        model.component("client-computers").implementation = system.clients
        return system
