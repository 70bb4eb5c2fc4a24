"""Regenerate ``perfbench/references.json``, the benchmark's correctness table.

Usage, from the repository root::

    python3 perfbench/make_references.py

Simulates every (benchmark, scheme, input seed) the three workloads can
run and records its makespan.  The benchmark compares each simulation it
times against this table bit for bit, so regenerate it only when a change
is *meant* to alter simulated results, and say so in that change.

Seed 1 is the default seed every other tool in the repository uses; the
rest of ``INPUT_SEEDS`` are held out (nothing was tuned on them).  Where a
pair overlaps ``repro.harness.bench.REFERENCE`` the two tables must agree,
and this script refuses to write a table that does not.
"""

from __future__ import annotations

import json
import sys

import workloads  # puts <root>/src first on sys.path

from repro.api import RunConfig, run_suite  # noqa: E402
from repro.harness.bench import REFERENCE  # noqa: E402

#: Worker processes for the reference simulations.
JOBS = 2


def _makespans(configs):
    report = run_suite(configs, jobs=JOBS)
    report.raise_if_failed()
    return {
        (c.benchmark, c.scheme, c.seed): result.makespan
        for c, result in zip(configs, report.results)
    }


def build_table() -> dict:
    table = {}
    for name in ("fig15", "zoo"):
        pairs = workloads.sim_pairs(name)
        configs = [
            RunConfig(benchmark=b, scheme=s, seed=seed)
            for seed in workloads.INPUT_SEEDS
            for b, s in pairs
        ]
        spans = _makespans(configs)
        table[name] = {
            str(seed): {f"{b}/{s}": spans[(b, s, seed)] for b, s in pairs}
            for seed in workloads.INPUT_SEEDS
        }
    configs = [
        RunConfig(benchmark=b, scheme=s, seed=seed)
        for seed in workloads.SERVE_RUN_SEEDS
        for b, s in workloads.serve_matrix()
    ]
    spans = _makespans(configs)
    table["serve"] = {
        str(seed): {
            f"{b}/{s}": spans[(b, s, seed)] for b, s in workloads.serve_matrix()
        }
        for seed in workloads.SERVE_RUN_SEEDS
    }
    return table


def disagreements(table: dict) -> list:
    """Pairs where the table contradicts ``repro bench``'s REFERENCE."""
    bad = []
    for workload in ("fig15", "zoo", "serve"):
        at_default = table[workload].get("1", {})
        for pair, ref in REFERENCE.items():
            ours = at_default.get(pair)
            if ours is not None and ours != ref["makespan"]:
                bad.append((workload, pair, ours, ref["makespan"]))
    return bad


def main() -> int:
    table = build_table()
    bad = disagreements(table)
    if bad:
        for workload, pair, ours, ref in bad:
            print(f"{workload} {pair}: {ours!r} != REFERENCE {ref!r}",
                  file=sys.stderr)
        return 1
    workloads.REFERENCES_PATH.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    counts = {w: sum(len(v) for v in table[w].values()) for w in table}
    print(f"wrote {workloads.REFERENCES_PATH.name}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
