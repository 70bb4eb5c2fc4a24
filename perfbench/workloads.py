"""What each workload runs, and the committed references it is checked against.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
(the benchmark measures the code next to it, never an installed copy) and
exits with status 2 when there is no ``src/repro`` to measure.  Nothing
from ``repro`` is imported here at module level, so callers can time the
package import themselves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES_PATH = HERE / "references.json"

if not (SRC / "repro" / "__init__.py").is_file():
    print(f"perfbench: no package to measure at {SRC / 'repro'}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

Pair = Tuple[str, str]

#: Input seeds with committed references.  Seed 1 is the repository-wide
#: default; the others are held out.  ``--seed n`` simulates the inputs
#: of ``INPUT_SEEDS[(n - 1) % len(INPUT_SEEDS)]``.
INPUT_SEEDS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)

FIG15_SCHEMES: Tuple[str, ...] = ("flat", "baseline-dp", "spawn")

#: Regular-footprint benchmarks, where long L2 line streams dominate.
ZOO_BENCHMARKS: Tuple[str, ...] = (
    "AMR", "Mandel", "MM-large", "GC-citation", "SSSP-citation", "BFS-citation",
)
ZOO_SCHEMES: Tuple[str, ...] = ("consolidate", "aggregate:grid", "acs", "dtbl")

#: Run seeds the serve traffic draws from (each request names one).
SERVE_RUN_SEEDS: Tuple[int, ...] = tuple(range(1, 25))


def input_seed(seed: int) -> int:
    return INPUT_SEEDS[(seed - 1) % len(INPUT_SEEDS)]


def sim_pairs(workload: str) -> List[Pair]:
    """The (benchmark, scheme) run-set of a simulation workload, in order."""
    if workload == "fig15":
        from repro.workloads import TABLE1_NAMES

        return [(b, s) for b in TABLE1_NAMES for s in FIG15_SCHEMES]
    if workload == "zoo":
        return [(b, s) for b in ZOO_BENCHMARKS for s in ZOO_SCHEMES]
    raise ValueError(f"{workload!r} is not a simulation workload")


def serve_matrix() -> List[Pair]:
    from repro.service.traffic import DEFAULT_MATRIX

    return list(DEFAULT_MATRIX)


def load_references() -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {input seed: {"bench/scheme": makespan}}}``."""
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))
