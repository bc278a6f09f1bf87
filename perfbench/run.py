"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing off.
``--trace 1`` runs the traced ledger instead (see ``bench/ledger.py``) and
reports every per-layer metric.  Earlier stdout lines carry the run's
provenance and details; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOADS = ("serve", "sweep")


def declared_metrics(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric section of ``BENCHMARK.json``."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from bench import common

    started = time.perf_counter()
    if args.trace:
        from bench import ledger

        outcome = ledger.run(args.workload, args.seed, args.seconds)
        section = "per_layer"
    else:
        from bench import serve, sweep

        module = {"serve": serve, "sweep": sweep}[args.workload]
        outcome = module.run(args.seed, args.seconds)
        section = "end_to_end"

    units = declared_metrics(section)
    missing = sorted(set(units) - set(outcome["metrics"]))
    extra = sorted(set(outcome["metrics"]) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"undeclared {extra}")
    unmeasured = sorted(name for name, value in outcome["metrics"].items()
                        if not math.isfinite(value))
    if unmeasured:
        raise RuntimeError(f"metrics without a measurement: {unmeasured}")
    print(json.dumps({"provenance": common.provenance(),
                      "workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "elapsed_s": time.perf_counter() - started}))
    print(json.dumps({"detail": outcome.get("detail", {})}, default=str))
    for problem in outcome["problems"][:20]:
        print(f"wrong answer: {problem}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": float(outcome["metrics"][name]),
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
