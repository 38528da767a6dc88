"""The benchmark's four workloads (why each exists: ``bench/README.md``).

Every shopper is a closed loop: it runs a ``browse_and_buy`` flow,
thinks, then runs the next one, all on virtual time.  Population and
pacing are fixed here; only the seed varies.  ``smoke`` is a reduced
size of the same call, used by the tests to check the metric names
without paying for a full run.

This module imports nothing from ``repro``: the parent process never
loads the simulator, only the worker subprocesses do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Workload", "WORKLOADS", "NAMES"]


@dataclass(frozen=True)
class Workload:
    name: str
    call: str            # "run_bench" or "run_chaos"
    kwargs: dict
    smoke: dict          # overrides for the reduced-size smoke call
    # run_chaos only: the storm's fault schedule is drawn once, from this
    # seed, and replayed at every workload seed, so every seed meets the
    # same 12 faults.  Drawn per seed, the storm itself changes too and
    # success over seeds 1-10 ranged from 0.12 to 0.56.
    plan_seed: Optional[int] = None
    # How many seeds one ``measure`` sample runs: the seed it is given,
    # then ``replicas - 1`` more derived from it (:meth:`measure_seeds`).
    # Its modelled metrics are the median over them, so a seed whose
    # storm lands differently does not decide the sample on its own.
    replicas: int = 1

    def measure_seeds(self, seed: int) -> list:
        return [seed + REPLICA_STRIDE * k for k in range(self.replicas)]


# Distance between the seeds of one ``measure`` sample.
REPLICA_STRIDE = 1000

WORKLOADS = {w.name: w for w in (
    Workload(
        name="gprs-overload",
        call="run_bench",
        kwargs=dict(users=500, transactions_per_user=4, horizon=240.0),
        smoke=dict(users=24, transactions_per_user=2, horizon=60.0),
    ),
    Workload(
        name="gprs-light",
        call="run_bench",
        kwargs=dict(users=60, transactions_per_user=32, horizon=1920.0),
        smoke=dict(users=6, transactions_per_user=4, horizon=240.0),
    ),
    Workload(
        name="fleet4",
        call="run_bench",
        kwargs=dict(users=500, transactions_per_user=4, horizon=240.0,
                    fleet=4),
        smoke=dict(users=24, transactions_per_user=2, horizon=60.0),
    ),
    # 160 stations of 3 purchases over 320 s: 1.5 tx/s, with the storm's
    # 12 faults spread over 320 s.  At 3 tx/s over 240 s (240 stations of
    # 3, or 120 of 6) the storm tipped the cell into a retry collapse it
    # never left: no purchase started after 120 s or so succeeded, and
    # success hung on when the collapse came (0.51-0.68 over seeds 1-29
    # with 240 stations, 0.26-0.56 with 120).  At 1.5 tx/s the system
    # recovers, but how hard the storm bites still depends on the seed:
    # success ranged 0.89-1.00 over 19 seeds (240 stations over 480 s:
    # 0.83-0.95 on 36 of 39 seeds, 1.00 on two, and one late collapse at
    # 0.63).  A ``measure`` sample is therefore the median of three seeds.
    Workload(
        name="chaos-storm",
        call="run_chaos",
        kwargs=dict(scenario="storm", stations=160, intensity=1.0,
                    transactions_per_station=3, horizon=320.0),
        smoke=dict(stations=8, transactions_per_station=2, horizon=60.0),
        plan_seed=7,
        replicas=3,
    ),
)}

NAMES = tuple(WORKLOADS)
