"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``quickstart`` — build Figure 2's MC system and run one purchase;
* ``trace`` — run one application scenario with the span tracer
  installed and print the per-layer latency breakdown (optionally
  exporting the full trace as JSON);
* ``check`` — statically model-check the Figure 1/2 reference builds,
  printing a PASS/FAIL/INCONCLUSIVE verdict per structural claim;
* ``chaos`` — run a named fault-injection scenario against the full
  MC system (policies on or off) and print the deterministic report;
  ``--replications R`` runs R consecutive seeds and adds a 95%
  confidence interval per headline metric;
* ``bench`` — run N concurrent users through the full transaction
  path, optionally sweep a goodput-vs-offered-load curve, and write
  ``BENCH_PERF.json`` (``--replications R`` instead replicates the
  run over R seeds);
* ``tables`` — print the paper's five tables as reproduced from the
  model registries (specs only — run ``pytest benchmarks/`` for the
  measured versions);
* ``info`` — version and component inventory.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_quickstart(args) -> int:
    from repro.apps import CommerceApp
    from repro.core import MCSystemBuilder, TransactionEngine

    system = MCSystemBuilder(
        middleware=args.middleware,
        bearer=(args.bearer_kind, args.bearer),
    ).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station(args.device)
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(account="ann", user="ann"))
    system.run(until=600)
    record = done.value
    print(f"{args.device} over {args.middleware}/{args.bearer}:")
    for step in record.steps:
        print(f"  - {step}")
    print(f"  {'OK' if record.ok else record.error} "
          f"in {record.latency:.3f}s "
          f"({record.bytes_received} bytes)")
    return 0 if record.ok else 1


def _flow_for(app, category: str):
    """The representative end-to-end flow for an application category."""
    return {
        "commerce": lambda: app.browse_and_buy(account="ann", user="ann"),
        "education": lambda: app.attend_class(),
        "erp": lambda: app.manage_resources(),
        "entertainment": lambda: app.buy_and_download(account="ann"),
        "healthcare": lambda: app.rounds(),
        "inventory": lambda: app.driver_rounds(),
        "traffic": lambda: app.navigate(),
        "travel": lambda: app.book_trip(),
    }[category]()


def _cmd_trace(args) -> int:
    import os

    from repro.apps import ALL_CATEGORIES
    from repro.core import MCSystemBuilder, TransactionEngine
    from repro.obs import (
        install_profiler,
        install_tracer,
        layer_breakdown,
        render_breakdown_table,
        render_trace_json,
    )

    # Accept both a bare category name and an examples/<name> spelling.
    category = os.path.basename(args.scenario).replace(".py", "")
    if category not in ALL_CATEGORIES:
        print(f"unknown scenario {args.scenario!r}; pick one of: "
              f"{', '.join(sorted(ALL_CATEGORIES))}", file=sys.stderr)
        return 2
    system = MCSystemBuilder(
        middleware=args.middleware,
        bearer=(args.bearer_kind, args.bearer),
    ).build()
    app = ALL_CATEGORIES[category]()
    system.mount_application(app)
    system.host.payment.open_account("ann", 1_000_000)
    handle = system.add_station(args.device)
    tracer = install_tracer(system.sim)
    profiler = install_profiler(system.sim) if args.profile else None
    engine = TransactionEngine(system)
    done = engine.run_flow(handle, _flow_for(app, category))
    system.run(until=600)
    record = done.value

    print(f"{category}: {record.flow_name} on {args.device} over "
          f"{args.middleware}/{args.bearer}")
    breakdown = layer_breakdown(tracer, trace_id=record.trace_id)
    print(render_breakdown_table(breakdown))
    span_sum = sum(breakdown.values())
    print(f"span-sum {span_sum:.6f}s vs end-to-end latency "
          f"{record.latency:.6f}s "
          f"({len(tracer.for_trace(record.trace_id))} spans)")
    print(f"outcome: {'OK' if record.ok else record.error}")
    if args.json:
        with open(args.json, "w") as handle_out:
            handle_out.write(render_trace_json(tracer,
                                               trace_id=record.trace_id))
        print(f"trace written to {args.json}")
    if profiler is not None:
        summary = profiler.summary()
        print(f"\nkernel: {summary['events_processed']} events, "
              f"mean queue depth {summary['mean_queue_depth']:.1f}, "
              f"max {summary['max_queue_depth']:.0f}")
        for name, count in profiler.top_resumed(8):
            print(f"  {count:6d} resumes  {name}")
    return 0 if record.ok else 1


def _cmd_check(args) -> int:
    from repro.analysis import Verdict, check_reference_systems

    reports = check_reference_systems(seed=args.seed)
    failures = 0
    if args.format == "json":
        import json

        print(json.dumps({figure: report.to_dict()
                          for figure, report in reports.items()}, indent=2))
        failures = sum(len(r.failures) for r in reports.values())
    else:
        for figure in ("ec", "mc"):
            report = reports[figure]
            print(report.render_text())
            print()
            failures += len(report.failures)
        overall = Verdict.aggregate(r.verdict for r in reports.values())
        print(f"reference builds: {overall.name}")
    return 1 if failures else 0


def _print_replications(result) -> None:
    """One stderr line per summarised metric of a replicated run."""
    seeds = list(result["replicas"])
    print(f"replications: seeds {seeds[0]}..{seeds[-1]} on "
          f"{result['measured']['processes']} process(es)", file=sys.stderr)
    for name, stats in result["summary"].items():
        half = ("n/a" if stats["ci95"] is None
                else f"{stats['ci95']:.6g}")
        print(f"  {name:20s} {stats['mean']:.6g} ± {half} "
              f"(95% CI, n={stats['n']})", file=sys.stderr)


def _cmd_chaos(args) -> int:
    from repro.core.shoppers import canonical_json
    from repro.faults import run_chaos

    kwargs = dict(
        scenario=args.scenario,
        seed=args.seed,
        intensity=args.intensity,
        policies=(args.policies == "on"),
        stations=args.stations,
        transactions_per_station=args.transactions,
        horizon=args.horizon,
        middleware=args.middleware,
        bearer=(args.bearer_kind, args.bearer),
        plan=args.plan,
        fleet=args.fleet,
    )
    if args.replications > 1:
        from repro.perf import replicate

        report = replicate(run_chaos, args.replications, **kwargs)
    else:
        report = run_chaos(**kwargs)
    text = canonical_json(report)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text)
        print(f"report written to {args.json}")
    else:
        print(text)
    if args.replications > 1:
        _print_replications(report)
        return 0 if all(replica["success_rate"] > 0
                        for replica in report["replicas"].values()) else 1
    print(f"\n{args.scenario} seed={args.seed} policies={args.policies}: "
          f"{report['successful']}/{report['offered']} ok "
          f"(vs offered {report['success_vs_offered']:.3f}), "
          f"p50 {report['latency']['p50']:.3f}s "
          f"p95 {report['latency']['p95']:.3f}s, "
          f"{report['faults'].get('injected', 0)} faults injected",
          file=sys.stderr)
    fleet = report.get("fleet")
    if fleet is not None:
        line = (f"fleet: {fleet['serving']} serving member(s), "
                f"{fleet['stranded_sessions']} stranded session(s)")
        canary = fleet.get("canary")
        if canary is not None:
            line += f"; canary {canary['state']}"
        print(line, file=sys.stderr)
    return 0 if report["success_rate"] > 0 else 1


def _cmd_bench(args) -> int:
    import os

    from repro.core.shoppers import canonical_json
    from repro.perf import replicate, run_bench, sweep_bench

    sweep = None
    if args.sweep:
        try:
            sweep = [int(part) for part in args.sweep.split(",") if part]
        except ValueError:
            sweep = []
        if not sweep or min(sweep) < 1:
            print(f"--sweep expects comma-separated user counts >= 1, "
                  f"got {args.sweep!r}", file=sys.stderr)
            return 2
    scenario = {"users": args.users, "seed": args.seed,
                "transactions_per_user": args.transactions,
                "horizon": args.horizon, "fleet": args.fleet}
    if args.replications > 1:
        report = replicate(run_bench, args.replications, **scenario)
    else:
        report = {"scenario": scenario, **run_bench(**scenario)}
        if sweep is not None:
            report["sweep"] = sweep_bench(
                sweep, seed=args.seed,
                transactions_per_user=args.transactions,
                horizon=args.horizon, fleet=args.fleet)
    text = canonical_json(report)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(text + "\n")
    if args.json:
        print(text)
    if args.replications > 1:
        _print_replications(report)
        print(f"report written to {args.out}", file=sys.stderr)
        return 0
    det = report["deterministic"]
    summary = (
        f"bench users={args.users} seed={args.seed}"
        + (f" fleet={args.fleet}" if args.fleet else "")
        + ": "
        f"succeeded {det['succeeded']}/{det['offered']} offered, "
        f"p95 {det['latency']['p95']:.3f}s, "
        f"{det['kernel_events']} kernel events"
    )
    print(summary, file=sys.stderr)
    if sweep is not None:
        for point in report["sweep"]["deterministic"]["points"]:
            print(f"  sweep users={point['users']:4d}: "
                  f"offered {point['offered']:5d} "
                  f"admitted {point['admitted']:5d} "
                  f"completed {point['completed']:5d} "
                  f"succeeded {point['succeeded']:5d}; "
                  f"goodput {point['goodput_tps']:.3f} tx/s, "
                  f"p95 {point['latency_p95']:.3f}s", file=sys.stderr)
    print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_tables(args) -> int:
    from repro.apps import ALL_CATEGORIES
    from repro.devices import TABLE2_DEVICES
    from repro.wireless import CELLULAR_STANDARDS, WLAN_STANDARDS

    print("Table 1 - application categories:")
    for name, cls in ALL_CATEGORIES.items():
        print(f"  {name:14s} clients: {cls.clients}")
    print("\nTable 2 - mobile stations:")
    for spec in TABLE2_DEVICES.values():
        print(f"  {spec.full_name:26s} {spec.os_name} {spec.os_version:6s} "
              f"{spec.cpu_mhz:5.0f} MHz  {spec.ram_mb}/{spec.rom_mb} MB")
    print("\nTable 3 - middleware: WAP (gateway, WML/WMLC), "
          "i-mode (always-on, cHTML), Palm Web Clipping (extension)")
    print("\nTable 4 - WLAN standards:")
    for std in WLAN_STANDARDS.values():
        low, high = std.typical_range_m
        print(f"  {std.name:10s} {std.max_rate_bps / 1e6:4.0f} Mbps  "
              f"{low:.0f}-{high:.0f} m  {std.modulation}/{std.band_ghz} GHz")
    print("\nTable 5 - cellular standards:")
    for std in CELLULAR_STANDARDS.values():
        rate = (f"{std.data_rate_bps / 1000:.1f} kbps"
                if std.supports_data else "voice only")
        print(f"  {std.name:9s} {std.generation:4s} "
              f"{std.switching}-switched  {rate}")
    return 0


def _cmd_info(args) -> int:
    import repro

    print(f"repro {repro.__version__} — reproduction of "
          "'A System Model for Mobile Commerce' (ICDCSW'03)")
    print(__doc__.split("Commands:")[0].strip())
    for package in ("sim", "net", "wireless", "devices", "middleware",
                    "web", "db", "security", "core", "apps", "obs",
                    "faults", "resilience", "analysis"):
        print(f"  repro.{package}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _intensity(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="A mobile commerce system model, runnable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser("quickstart",
                                help="run one end-to-end purchase")
    quickstart.add_argument("--device", default="Toshiba E740")
    quickstart.add_argument("--middleware", default="WAP",
                            choices=["WAP", "i-mode", "Palm"])
    quickstart.add_argument("--bearer", default="GPRS")
    quickstart.add_argument("--bearer-kind", default=None,
                            choices=["cellular", "wlan"])
    quickstart.set_defaults(func=_cmd_quickstart)

    trace = sub.add_parser(
        "trace", help="run one scenario traced; print layer breakdown")
    trace.add_argument("scenario", nargs="?", default="commerce",
                       help="application category (e.g. commerce, travel)")
    trace.add_argument("--device", default="Toshiba E740")
    trace.add_argument("--middleware", default="WAP",
                       choices=["WAP", "i-mode", "Palm"])
    trace.add_argument("--bearer", default="GPRS")
    trace.add_argument("--bearer-kind", default=None,
                       choices=["cellular", "wlan"])
    trace.add_argument("--json", default=None, metavar="PATH",
                       help="also export the full trace as JSON")
    trace.add_argument("--profile", action="store_true",
                       help="print kernel profiling summary")
    trace.set_defaults(func=_cmd_trace)

    check = sub.add_parser(
        "check", help="static model check of the reference builds")
    check.add_argument("--format", default="text", choices=["text", "json"])
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_check)

    chaos = sub.add_parser(
        "chaos", help="run a deterministic fault-injection scenario")
    chaos.add_argument("scenario", nargs="?", default="storm",
                       help="flaky-radio, gateway-outage, brownout, "
                            "dns-blackout, storm, fleet-outage, or "
                            "canary-regression")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--intensity", type=_intensity, default=0.5,
                       help="fault intensity; scales the fault rate "
                            "(default 0.5)")
    chaos.add_argument("--policies", default="on", choices=["on", "off"],
                       help="resilience policies (retry, breaker, "
                            "failover, shedding)")
    chaos.add_argument("--stations", type=_positive_int, default=None,
                       help="shopper stations (default: 4, or 12 for "
                            "fleet scenarios)")
    chaos.add_argument("--fleet", type=_nonnegative_int, default=0,
                       help="gateway fleet size (0 = scenario default; "
                            "fleet-outage and canary-regression "
                            "default to 4)")
    chaos.add_argument("--transactions", type=_positive_int, default=8,
                       help="transactions per station")
    chaos.add_argument("--horizon", type=_positive_float, default=240.0,
                       help="sim-seconds to run")
    chaos.add_argument("--middleware", default="WAP",
                       choices=["WAP", "i-mode", "Palm"])
    chaos.add_argument("--bearer", default="GPRS")
    chaos.add_argument("--bearer-kind", default=None,
                       choices=["cellular", "wlan"])
    chaos.add_argument("--plan", default=None, metavar="PATH",
                       help="JSON fault plan overriding the scenario")
    chaos.add_argument("--replications", type=_positive_int, default=1,
                       metavar="R",
                       help="run seeds SEED..SEED+R-1 as independent "
                            "replications and report a 95%% confidence "
                            "interval per metric (default 1 = one run)")
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="write the report JSON here instead of stdout")
    chaos.set_defaults(func=_cmd_chaos)

    bench = sub.add_parser(
        "bench", help="run the load benchmark and write BENCH_PERF.json")
    bench.add_argument("--users", type=_positive_int, default=50,
                       help="concurrent simulated users (default 50)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--transactions", type=_positive_int, default=4,
                       help="transactions per user (default 4)")
    bench.add_argument("--horizon", type=_positive_float, default=240.0,
                       help="sim-seconds to run (default 240)")
    repeat = bench.add_mutually_exclusive_group()
    repeat.add_argument("--sweep", default=None, metavar="N,N,...",
                        help="also run a goodput-vs-offered-load sweep "
                             "at these user counts (e.g. 50,100,200,500)")
    repeat.add_argument("--replications", type=_positive_int, default=1,
                        metavar="R",
                        help="instead of one run, run the "
                             "scenario at seeds SEED..SEED+R-1 and "
                             "report a 95%% confidence interval per "
                             "metric (default 1)")
    bench.add_argument("--fleet", type=_nonnegative_int, default=0,
                       help="run the middleware tier as an N-member "
                            "gateway fleet behind the consistent-hash "
                            "balancer (default 0 = single gateway)")
    bench.add_argument("--out", default="BENCH_PERF.json", metavar="PATH",
                       help="where to write the report "
                            "(default: ./BENCH_PERF.json)")
    bench.add_argument("--json", action="store_true",
                       help="also print the full report JSON to stdout")
    bench.set_defaults(func=_cmd_bench)

    tables = sub.add_parser("tables", help="print the paper's tables")
    tables.set_defaults(func=_cmd_tables)

    info = sub.add_parser("info", help="version and inventory")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    _resolve(sub.choices[args.command], args)
    return args.func(args)


def _resolve(parser, args) -> None:
    """Resolve the bearer kind and the fault plan, and check every
    catalogue name: a bad one is a usage error (exit 2), not a traceback
    from deep in the build."""
    if hasattr(args, "bearer"):
        from repro.wireless import CELLULAR_STANDARDS, WLAN_STANDARDS
        if args.bearer_kind is None:
            args.bearer_kind = ("wlan" if args.bearer in WLAN_STANDARDS
                                else "cellular")
        known = (WLAN_STANDARDS if args.bearer_kind == "wlan"
                 else CELLULAR_STANDARDS)
        if args.bearer not in known:
            parser.error(f"unknown {args.bearer_kind} bearer "
                         f"{args.bearer!r} (known: {', '.join(known)})")
        if args.bearer_kind == "cellular" and \
                not known[args.bearer].supports_data:
            data = [name for name, std in known.items() if std.supports_data]
            parser.error(f"{args.bearer!r} is a voice-only bearer "
                         f"(data-capable: {', '.join(data)})")
    if hasattr(args, "device"):
        from repro.devices import TABLE2_DEVICES
        if args.device not in TABLE2_DEVICES:
            parser.error(f"unknown device {args.device!r} "
                         f"(known: {', '.join(TABLE2_DEVICES)})")
    if args.command == "chaos":
        from repro.faults import FaultPlan
        from repro.faults.chaos import SCENARIOS
        if args.plan:
            # The plan replaces the scenario's faults; its name is a label.
            try:
                with open(args.plan) as handle:
                    args.plan = FaultPlan.from_json(handle.read())
            except (OSError, TypeError, ValueError) as exc:
                parser.error(f"--plan {args.plan}: {exc}")
        elif args.scenario not in SCENARIOS:
            parser.error(f"unknown scenario {args.scenario!r} "
                         f"(known: {', '.join(SCENARIOS)})")


if __name__ == "__main__":
    sys.exit(main())
