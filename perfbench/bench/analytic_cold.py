"""The analytic-cold pass: closed-form answers on geometries never seen.

Every timed call is ``SearchEngine.search(engine="analytic",
wants="probability")`` on a fresh ``(N, K)``, so the analytic tier's
plan solves (sure-success and CWB phase solves, schedule planning) run
cold.  Each cold call is followed by one warm repeat of the same request,
timed separately.  ``AnalyticUnsupported`` counts as a failed operation.

This runs only inside the traced ledger: one cold sure-success or CWB
solve costs anywhere from 0.01 to 4 s depending on the geometry (2-vCPU
Xeon, Python 3.11, scipy 1.17), so the throughput and tail of a 30 s run
swing by more than the largest bound an end-to-end metric may have.
"""

from __future__ import annotations

import time

from repro.analytic import AnalyticUnsupported

from . import generate
from .checks import check_cold, outside_unit_interval, to_request


def warm_up(engine) -> None:
    for fields in generate.analytic_warmup():
        engine.search(to_request(fields))


def run_round(engine, stream) -> list[dict]:
    """One cold + warm pair for each of the next eight requests of *stream*
    (one round: every modelled method once)."""
    calls = []
    for _ in generate.ANALYTIC_METHODS:
        fields = next(stream)
        request = to_request(fields)
        call = {"fields": fields, "cold_s": None, "warm_s": None,
                "problem": None, "outside_unit": False}
        calls.append(call)
        t0 = time.perf_counter()
        try:
            cold = engine.search(request)
        except AnalyticUnsupported as exc:
            call["cold_s"] = time.perf_counter() - t0
            call["problem"] = f"AnalyticUnsupported: {exc}"
            continue
        call["cold_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = engine.search(request)
        call["warm_s"] = time.perf_counter() - t0
        call["problem"] = check_cold(cold) or check_cold(warm)
        call["outside_unit"] = outside_unit_interval(cold)
        if call["problem"] is None and (
                (warm.success_probability, warm.queries, warm.block_guess)
                != (cold.success_probability, cold.queries, cold.block_guess)):
            call["problem"] = "warm repeat answered differently from cold"
    return calls
