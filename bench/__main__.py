"""Command line: ``python -m bench {run,measure,compare,ablate}``.

``run`` is for people: every metric by name with its unit, the median
and IQR when ``--repeat`` > 1, the per-layer tables with ``--trace``,
one JSON result file, and optionally a line in ``bench/history.jsonl``.
``measure`` takes one sample of one workload for ``BENCHMARK.json``;
its last line of output is one JSON object.  ``compare`` gives a verdict
per (workload, end-to-end metric) between two result files; ``ablate``
times the optimisation arms and writes ``bench/ablation.md``.

Every subcommand exits 1 when an output check fails and 2 when it
cannot run at all (for example without the simulator's ``src/``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import runner
from .ablate import ABLATION_MD, run_ablation
from .compare import compare_files
from .stats import median
from .workloads import NAMES


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cmd_run(args) -> int:
    result = runner.run_set(list(NAMES), args.seed, repeat=args.repeat,
                            trace=args.trace, log=_log)
    print(runner.render(result))
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    failures = runner.all_failures(result)
    if args.record and not failures:
        runner.append_history(result)
        print(f"recorded in {runner.HISTORY.relative_to(runner.ROOT)}")
    print(f"wrote {args.out}")
    if failures:
        print(f"{len(failures)} output check(s) FAILED", file=sys.stderr)
        return 1
    print("output checks: PASS")
    return 0


def cmd_measure(args) -> int:
    """One sample of one workload (see :func:`runner.measure_specs`);
    prints the result line."""
    runner.build_source()
    bench = runner.load_json(runner.BENCHMARK_JSON)
    runs, errors = runner.run_specs(runner.measure_specs(
        args.workload, args.seed, args.seconds, bool(args.trace)), _log)
    for error in errors:
        _log(error)
    if not any(r["mode"] == "plain" for r in runs):
        raise runner.BenchError("no untraced run completed")

    entry = runner.measure_workload(args.workload, args.seed, runs)
    for failure in entry["failures"]:
        _log(f"CHECK FAILED: {failure}")
    if args.trace:
        wanted, values = bench["per_layer"], entry["layers"]
    else:
        wanted = bench["end_to_end"]
        values = {name: median(samples)
                  for name, samples in entry["samples"].items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise runner.BenchError(f"no value for metric(s) {missing}")
    print(json.dumps({
        "correct": not entry["failures"] and not errors,
        "attempted": len(runs) + len(errors),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def cmd_compare(args) -> int:
    text, worse = compare_files(args.base, args.change)
    print(text)
    return 1 if worse else 0


def cmd_ablate(args) -> int:
    text, failures = run_ablation(args.seed, args.repeat, log=_log)
    with open(ABLATION_MD, "w") as handle:
        handle.write(text)
    print(text)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the workloads and print metrics")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--repeat", type=int, default=1, metavar="K")
    run.add_argument("--trace", action="store_true",
                     help="add one traced and one profiled run per workload")
    run.add_argument("--out", default="bench-results.json")
    run.add_argument("--record", action="store_true",
                     help="append the medians and IQRs to "
                          "bench/history.jsonl")
    run.set_defaults(func=cmd_run)

    measure = sub.add_parser("measure",
                             help="one fixed-duration sample of a workload")
    measure.add_argument("--workload", required=True, choices=NAMES)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(func=cmd_measure)

    compare = sub.add_parser("compare",
                             help="verdicts between two result files")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(func=cmd_compare)

    ablate = sub.add_parser("ablate", help="time the optimisation arms")
    ablate.add_argument("--seed", type=int, default=7)
    ablate.add_argument("--repeat", type=int, default=5, metavar="K")
    ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "repeat", 1) < 1:
        print("python -m bench: --repeat must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except runner.BenchError as exc:
        print(f"python -m bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
