"""Quickstart: build Figure 2's mobile commerce system and buy something.

Run:  python examples/quickstart.py

Builds the full six-component stack (Toshiba E740 on GPRS, WAP gateway,
web + database host), model-checks the structure against the paper's
Figure 2, runs one end-to-end purchase and prints the ledger.
"""

from repro.analysis import ModelChecker
from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine, render_structure
from repro.core.model import MC_FLOW_CHAIN
from repro.core.render import render_flow_chain


def main() -> None:
    # 1. Build the system: middleware + bearer are constructor choices.
    system = MCSystemBuilder(
        middleware="WAP",
        bearer=("cellular", "GPRS"),
    ).build()

    # 2. Mount an application (server-side programs + schema) and fund a
    #    customer account on the host's payment processor.
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)  # $1000.00

    # 3. Provision a Table 2 device and attach it to the bearer.
    handle = system.add_station("Toshiba E740")

    # 4. The model mirrors the paper's Figure 2 — check every claim.
    report = ModelChecker.for_system(system).run()
    print(render_structure(system.model, title="MC system (Figure 2)"))
    print()
    print("Request path:",
          render_flow_chain(system.model, MC_FLOW_CHAIN))
    print(f"Figure 2 model check: {report.verdict.name}")
    print()

    # 5. Run one end-to-end transaction and report.
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(item_id=1, account="ann", user="ann"))
    system.run(until=120)

    record = done.value
    print(f"Transaction #{record.txn_id} ({record.flow_name}) "
          f"on {record.client_name}:")
    for step in record.steps:
        print(f"  - {step}")
    print(f"  outcome: {'OK' if record.ok else record.error}, "
          f"latency {record.latency:.3f}s, "
          f"{record.bytes_received} bytes received")
    print(f"  account balance now ${system.host.payment.balance('ann') / 100:.2f}")
    print(f"  device battery at "
          f"{handle.station.battery.level * 100:.1f}%")


if __name__ == "__main__":
    main()
