"""Table 1 — Major mobile commerce applications.

Reproduces the paper's Table 1 by *running* every application category
end-to-end on one mobile commerce system (WCDMA bearer, WAP middleware)
and reporting, per row: the category, the major application actually
demonstrated, the clients column from the paper, and the measured
transaction outcome.
"""

from repro.apps import ALL_CATEGORIES
from repro.core import MCSystemBuilder, TransactionEngine
from repro.obs import format_breakdown, install_tracer, layer_breakdown

from helpers import run_transaction

# Paper's "Major Applications" and "Clients" columns, keyed by category.
PAPER_ROWS = {
    "commerce": ("Mobile transactions and payments", "Businesses"),
    "education": ("Mobile classrooms and labs",
                  "Schools and training centers"),
    "erp": ("Resource management", "All companies"),
    "entertainment": ("Music/video/game downloads",
                      "Entertainment industry"),
    "healthcare": ("Patient record accessing",
                   "Hospitals and nursing homes"),
    "inventory": ("Product tracking and dispatching",
                  "Delivery services and transportation"),
    "traffic": ("Global positioning, directions, and traffic advisories",
                "Transportation and auto industries"),
    "travel": ("Travel management", "Travel industry and ticket sales"),
}


def build_world():
    system = MCSystemBuilder(middleware="WAP",
                             bearer=("cellular", "WCDMA")).build()
    apps = {}
    for name, cls in ALL_CATEGORIES.items():
        app = cls()
        system.mount_application(app)
        apps[name] = app
    system.host.payment.open_account("ann", 1_000_000)
    handle = system.add_station("Compaq iPAQ H3870")
    return system, apps, handle


def flow_for(apps, category):
    return {
        "commerce": lambda: apps["commerce"].browse_and_buy(
            account="ann", user="ann"),
        "education": lambda: apps["education"].attend_class(),
        "erp": lambda: apps["erp"].manage_resources(),
        "entertainment": lambda: apps["entertainment"].buy_and_download(
            account="ann"),
        "healthcare": lambda: apps["healthcare"].rounds(),
        "inventory": lambda: apps["inventory"].driver_rounds(),
        "traffic": lambda: apps["traffic"].navigate(),
        "travel": lambda: apps["travel"].book_trip(),
    }[category]()


def run_all_categories():
    system, apps, handle = build_world()
    tracer = install_tracer(system.sim)
    engine = TransactionEngine(system)
    outcomes = {}
    for category in PAPER_ROWS:
        record = run_transaction(system, engine, handle,
                                 flow_for(apps, category))
        outcomes[category] = record
    return outcomes, tracer


def component_latency(tracer, record):
    """Per-component breakdown cell for one transaction, or ``-``."""
    if record.trace_id is None:
        return "-"
    try:
        breakdown = layer_breakdown(tracer, trace_id=record.trace_id)
    except ValueError:
        return "-"
    return format_breakdown(breakdown)


def test_table1_applications(golden):
    outcomes, tracer = run_all_categories()
    rows = []
    for category, (major, clients) in PAPER_ROWS.items():
        record = outcomes[category]
        status = "OK" if record.ok else f"FAILED: {record.error[:30]}"
        rows.append([
            category, major[:46], clients[:34],
            f"{record.requests} req", f"{record.latency:.2f}s",
            component_latency(tracer, record), status,
        ])
    golden.table(
        "Table 1 - Major mobile commerce applications "
        "(paper columns + measured run)",
        ["Category", "Major application (paper)", "Clients (paper)",
         "Requests", "Latency", "Per-component latency", "Outcome"],
        rows,
    )
    failed = [c for c, r in outcomes.items() if not r.ok]
    assert not failed, f"categories failed end-to-end: {failed}"
    assert set(outcomes) == set(ALL_CATEGORIES)

    golden.check()
