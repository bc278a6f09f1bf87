"""``sweep``: in-process target batches through ``SearchEngine``.

Each round runs a batch of seeded targets at N=1024, K=4 for every
simulated method, plus one grk batch at N=4096 (budget-sharded, working
set well above L2) and one grk batch at complex64, on the local executor
with the default policy.  Rounds are short (about 1 s on a 2-vCPU Xeon)
so a run holds enough of them for a tail percentile; they repeat until
``--seconds`` have passed, and the round in progress is finished.  No
gateway, service or wire code runs here.
"""

from __future__ import annotations

import time

from . import common, generate
from .checks import (
    AnalyticReference,
    check_complex64,
    check_guesses,
    check_rows,
    to_request,
)

BOOTS = 3
IMPORTS = "repro.engine, repro.analytic"


def warm_up(engine) -> None:
    """Load every code path and plan cache the rounds use, untimed."""
    for method in generate.SIMULATED_METHODS:
        fields = {"n_items": generate.SWEEP_N, "n_blocks": generate.SWEEP_K,
                  "method": method, "target": 1}
        if method == "naive-blocks":
            fields["options"] = {"left_out_block": 0}
        engine.search(to_request(fields))
    engine.search_batch(to_request({"n_items": generate.SWEEP_N,
                                    "n_blocks": generate.SWEEP_K,
                                    "dtype": "complex64"}), targets=[0, 1])
    engine.search_batch(to_request({"n_items": generate.SWEEP_LARGE_N,
                                    "n_blocks": generate.SWEEP_K}),
                        targets=[0, 1])


def run_round(engine, seed: int, round_index: int, on_op=None) -> list[dict]:
    """Run one round's batches; returns one op per batch."""
    ops = []
    for label, fields in generate.sweep_round(seed, round_index):
        request = to_request(fields)
        t0 = time.perf_counter()
        report = engine.search_batch(request, targets=fields["targets"])
        elapsed = time.perf_counter() - t0
        op = {"round": round_index, "label": label, "fields": fields,
              "report": report, "elapsed_s": elapsed, "rows": report.n_rows}
        ops.append(op)
        if on_op is not None:
            on_op(op)
    return ops


def run_rounds(engine, seed: int, seconds: float) -> tuple[list[dict], float]:
    """Run whole rounds for at least *seconds*; returns ``(ops, wall_s)``."""
    ops = []
    t_start = time.perf_counter()
    round_index = 0
    while not ops or time.perf_counter() - t_start < seconds:
        ops += run_round(engine, seed, round_index)
        round_index += 1
    return ops, time.perf_counter() - t_start


def verify(ops: list[dict], seed: int, reference: AnalyticReference) -> list[str]:
    """Every row's block guess (``all_correct``), seeded analytic row
    samples, and complex64 against complex128."""
    problems = []
    c128 = {op["round"]: op["report"] for op in ops if op["label"] == "grk"}
    for op in ops:
        report = op["report"]
        if op["label"] == "grk-c64":
            problem = check_complex64(
                report.success_probabilities, report.block_guesses,
                c128[op["round"]].success_probabilities,
                c128[op["round"]].block_guesses)
        else:
            rows = generate.sweep_sample_rows(seed, op["round"], op["label"],
                                              report.n_rows)
            problem = check_guesses(op["fields"], report.targets,
                                    report.block_guesses) or check_rows(
                reference, op["fields"], report.targets,
                report.success_probabilities, report.queries,
                report.block_guesses, rows)
        op["ok"] = problem is None
        if problem is not None:
            problems.append(f"round {op['round']} {op['label']}: {problem}")
    return problems


def per_target_s(ops: list[dict]) -> list[float]:
    """Per-target latency of each round: its batch time over its rows."""
    rounds: dict[int, list[float]] = {}
    for op in ops:
        rounds.setdefault(op["round"], [0.0, 0])
        rounds[op["round"]][0] += op["elapsed_s"]
        rounds[op["round"]][1] += op["rows"]
    return [seconds / rows for seconds, rows in rounds.values()]


def run(seed: int, seconds: float) -> dict:
    """The untraced end-to-end run."""
    from repro.engine import SearchEngine

    boots = [common.interpreter_boot_s(IMPORTS) for _ in range(BOOTS)]
    engine = SearchEngine()
    t0 = time.perf_counter()
    warm_up(engine)
    warm_s = time.perf_counter() - t0
    ops, wall = run_rounds(engine, seed, seconds)
    rss = common.self_peak_rss_mb()
    problems = verify(ops, seed, AnalyticReference())
    latency = common.latency_summary(per_target_s(ops))
    metrics = {
        "setup_s": common.median(boots) + warm_s,
        "p50_ms": latency["p50_ms"],
        "tail_ms": latency["tail_ms"],
        "throughput_per_s": sum(op["rows"] for op in ops) / wall,
        "peak_rss_mb": rss,
        # One operation is a whole round of batches, whose eight kinds
        # differ 90-fold in cost; there is no separate request class, so
        # the class metrics report the workload's p50.
        "batch_p50_ms": latency["p50_ms"],
        "cached_p50_ms": latency["p50_ms"],
        "fresh_p50_ms": latency["p50_ms"],
        "analytic_p50_ms": latency["p50_ms"],
    }
    return {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "problems": problems,
        "metrics": metrics,
        "detail": {
            "per_target_latency": latency,
            "rounds": ops[-1]["round"] + 1,
            "wall_s": wall,
            "last_round_batch_ms": {op["label"]: op["elapsed_s"] * 1e3
                                    for op in ops},
            "boots_s": boots,
            "warm_s": warm_s,
        },
    }
