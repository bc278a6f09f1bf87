"""The traced run: every per-layer metric, from one ledger over all workloads.

Each per-layer metric belongs to the workload that loads its layer (the
mapping is ``perfbench/metric_map.json``), so the traced run executes a
short pass of every workload.  Each pass alternates untraced and traced
phases of the same inputs (untraced first in even pairs, traced first in
odd ones, so a steady drift of the host's speed cancels), and
``observability.overhead_ms.<workload>`` is the median over pairs of the
traced phase's p50 minus the untraced phase's p50:

- serve: two stacks stay up side by side, one booted with
  ``--no-tracing`` and one with tracing on, and take turns at short
  closed-loop phases.  Every reply is followed by ``GET /v1/trace/{id}``
  on both, so the load pattern is the same.  Span trees come from the
  traced stack.
- sweep: one round untraced, then the same round under
  ``recording_scope`` with timers around ``KernelBackend.grk_sweep_rows``
  / ``simplified_sweep_rows``.
- analytic-cold (a pass of the ledger only, see ``bench/analytic_cold.py``):
  rounds of eight cold calls, alternately untraced and traced, every call
  on a geometry no earlier call has seen.

The host copy-bandwidth probe runs first, so ``kernels.bw_frac`` compares
kernel traffic against this host's measured bandwidth.
"""

from __future__ import annotations

import time
from collections import defaultdict

from . import analytic_cold, common, generate, serve, sweep
from .checks import AnalyticReference
from .tracing import LayerTimers, SpanLedger, recorded_spans

MS = 1e3
#: Untraced/traced phase pairs of the serve pass.
SERVE_PAIRS = 4


def _ms(values) -> float:
    return common.median(values) * MS


def _pair_order(pair: int) -> tuple[bool, bool]:
    """``traced`` flags of one pair's two phases, in the order they run."""
    return (False, True) if pair % 2 == 0 else (True, False)


def _overhead(pairs: list[tuple[list, list]]) -> tuple[float, list[float]]:
    """Median over pairs of traced p50 minus untraced p50 (ms), and the
    per-pair differences.  Each pair is ``(untraced, traced)`` latencies."""
    diffs = [_ms(traced) - _ms(plain) for plain, traced in pairs]
    return common.median(diffs), diffs


def _serve(seed: int, seconds: float, out: dict, detail: dict):
    """Returns ``(attempted, problems, span ledger)``."""
    phases = {False: [], True: []}
    with serve.boot_warm(seed, False, "plain") as plain, \
            serve.boot_warm(seed, True, "traced") as traced:
        stacks = {False: plain, True: traced}
        streams = {t: enumerate(generate.serve_requests(seed)) for t in stacks}
        before = serve.get_json(traced, "/stats")
        for pair in range(SERVE_PAIRS):
            for t in _pair_order(pair):
                records, _ = serve.closed_loop(
                    stacks[t], streams[t], seconds / SERVE_PAIRS,
                    fetch_traces=True)
                phases[t].append(records)
        after = serve.get_json(traced, "/stats")
    reference = AnalyticReference()
    everything = [r for t in phases for phase in phases[t] for r in phase]
    problems = serve.verify(everything, reference)
    records = [r for phase in phases[True] for r in phase]
    overhead, diffs = _overhead([
        ([r["latency_s"] for r in a], [r["latency_s"] for r in b])
        for a, b in zip(phases[False], phases[True])])
    spans = SpanLedger()
    unattributed, fraction = [], []
    sizes = defaultdict(list)
    for r in records:
        sizes[r["kind"]].append(len(r["body"]))
        if not r["spans"]:
            continue
        tags = [r["kind"]]
        if r["kind"] == "fresh":
            tags.append("fresh:" + r["fields"]["method"])
        first = spans.add(r["spans"], tags)
        if "gateway" in first:
            gap = r["latency_s"] - first["gateway"]["duration_s"]
            unattributed.append(gap)
            fraction.append(gap / r["latency_s"])
    delta = {k: after[k] - before[k]
             for k in ("cache_hits", "submitted", "coalesced", "rejected")}
    out.update({
        "gateway.parse_ms": _ms(spans.durations["gateway.parse"]),
        "gateway.tenant_admit_ms": _ms(spans.durations["tenant.admit"]),
        "gateway.self_ms": _ms(spans.self_s["gateway"]),
        "gateway.unattributed_ms": _ms(unattributed),
        "gateway.unattributed_frac": common.median(fraction),
        **{f"gateway.response_bytes.{k}": common.median(sizes[k])
           for k in generate.SERVE_CLASSES},
        "service.cache_lookup_ms": _ms(spans.durations["cache.lookup"]),
        "service.cache_hit_ratio": delta["cache_hits"] / delta["submitted"],
        "service.queue_wait_ms": _ms(spans.durations["queue.wait"]),
        "service.handoff_ms": _ms(spans.handoff_s),
        "service.coalesced": delta["coalesced"],
        "service.rejected": delta["rejected"],
        "service.wire.roundtrip_ms": _ms(spans.durations["wire.roundtrip"]),
        "service.worker.compute_ms": _ms(spans.durations["worker.compute"]),
        "service.wire.overhead_ms": _ms(spans.wire_overhead_s),
        "service.dispatch_ms": _ms(spans.durations["dispatch"]),
        **{f"engine.execute_ms.{k}": _ms(spans.by_tag[("engine.execute", k)])
           for k in ("fresh", "analytic", "batch")},
        **{f"core.single_ms.{m}": _ms(
            spans.by_tag[("engine.execute", "fresh:" + m)])
           for m in generate.SIMULATED_METHODS},
        "analytic.eval_ms": _ms(spans.durations["analytic.eval"]),
        "observability.overhead_ms.serve": overhead,
    })
    detail["serve"] = {
        "requests": {"untraced": len(everything) - len(records),
                     "traced": len(records)},
        "overhead_pairs_ms": diffs,
        "stage_self_ms": {name: _ms(v) for name, v in spans.self_s.items()},
        "unattributed_samples": len(unattributed),
    }
    return len(everything), problems, spans


def _kernel_timers(timers: LayerTimers, traffic: list[int]) -> None:
    """Time both slab-sweep entry points on every kernel backend class."""
    from repro.kernels.backends import (
        KernelBackend,
        get_kernel_backend,
        kernel_backend_names,
    )

    def on_call(iteration_counts):
        def record(elapsed, args, kwargs):
            schedule, amps = args[1], args[2]
            # Computed traffic: each iteration reads and writes the slab
            # once; the measurement reads it once more.
            traffic.append(amps.nbytes * (2 * iteration_counts(schedule) + 1))
        return record

    owners = {KernelBackend} | {type(get_kernel_backend(n))
                                for n in kernel_backend_names()}
    for owner in owners:
        if "grk_sweep_rows" in owner.__dict__:
            timers.wrap(owner, "grk_sweep_rows", "kernels",
                        on_call(lambda s: s.l1 + s.l2 + 1))
        if "simplified_sweep_rows" in owner.__dict__:
            timers.wrap(owner, "simplified_sweep_rows", "kernels",
                        on_call(lambda s: s.j1 + s.j2 + 1))


def _sweep(seed: int, seconds: float, probe: dict, out: dict, detail: dict,
           serve_spans: SpanLedger) -> tuple[int, list[str]]:
    from repro.engine import SearchEngine
    from repro.observability import SpanRecorder, recording_scope

    engine = SearchEngine()
    sweep.warm_up(engine)
    spans = SpanLedger()
    recorder = SpanRecorder("perfbench-sweep")
    rounds = {False: [], True: []}
    kernel_s, kernel_calls, traffic, shards = [], [], [], []

    def fold(op):
        spans.add(recorded_spans(recorder), [op["label"]])

    t_start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - t_start < seconds:
        for traced in _pair_order(pair):
            if not traced:
                rounds[False].append(sweep.run_round(engine, seed, pair))
                continue
            round_traffic: list[int] = []
            n_shards = len(spans.shards)
            with LayerTimers() as timers, recording_scope(recorder):
                _kernel_timers(timers, round_traffic)
                rounds[True].append(
                    sweep.run_round(engine, seed, pair, on_op=fold))
            kernel_s.append(sum(timers.calls["kernels"]))
            kernel_calls.append(len(timers.calls["kernels"]))
            traffic.append(sum(round_traffic))
            shards.append(sum(spans.shards[n_shards:]))
        pair += 1
    plain = [op for ops in rounds[False] for op in ops]
    traced = [op for ops in rounds[True] for op in ops]
    per_target = defaultdict(list)
    for op in plain:
        per_target[op["label"]].append(op["elapsed_s"] / op["rows"])
    gbps = sum(traffic) / sum(kernel_s) / 1e9
    overhead, diffs = _overhead([
        (sweep.per_target_s(a), sweep.per_target_s(b))
        for a, b in zip(rounds[False], rounds[True])])
    out.update({
        **{f"engine.us_per_target.{label}": common.median(v) * 1e6
           for label, v in per_target.items()},
        "engine.plan_ms": _ms(spans.durations["shards.plan"]
                              + serve_spans.durations["shards.plan"]),
        "engine.merge_ms": _ms(spans.durations["merge"]
                               + serve_spans.durations["merge"]),
        "engine.shards": common.median(shards),
        "kernels.sweep_ms": _ms(kernel_s),
        "kernels.calls": common.median(kernel_calls),
        "kernels.share": sum(kernel_s) / sum(op["elapsed_s"] for op in traced),
        "kernels.bytes_computed": common.median(traffic),
        "kernels.gbps": gbps,
        "kernels.bw_frac": gbps / probe["gbps"],
        "observability.overhead_ms.sweep": overhead,
    })
    detail["sweep"] = {
        "rounds": {"untraced": len(rounds[False]),
                   "traced": len(rounds[True])},
        "overhead_pairs_ms": diffs,
        "stage_self_ms": {name: _ms(v) for name, v in spans.self_s.items()},
    }
    reference = AnalyticReference()
    problems = sweep.verify(plain, seed, reference)
    problems += sweep.verify(traced, seed, reference)
    return len(plain) + len(traced), problems


def _analytic(seed: int, seconds: float, out: dict,
              detail: dict) -> tuple[int, list[str]]:
    from repro.engine import SearchEngine
    from repro.observability import SpanRecorder, recording_scope

    engine = SearchEngine()
    analytic_cold.warm_up(engine)
    stream = generate.analytic_cold_requests(seed)
    recorder = SpanRecorder("perfbench-analytic")
    rounds = {False: [], True: []}
    plain_wall = 0.0
    t_start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - t_start < seconds:
        for traced in _pair_order(pair):
            t0 = time.perf_counter()
            if traced:
                with recording_scope(recorder):
                    rounds[True].append(analytic_cold.run_round(engine, stream))
            else:
                rounds[False].append(analytic_cold.run_round(engine, stream))
                plain_wall += time.perf_counter() - t0
        pair += 1
    spans = SpanLedger()
    spans.add(recorded_spans(recorder))
    plain = [c for calls in rounds[False] for c in calls]
    traced = [c for calls in rounds[True] for c in calls]
    calls = plain + traced
    cold_latency = common.latency_summary([c["cold_s"] for c in calls])
    cold = defaultdict(list)
    for call in calls:
        cold[call["fields"]["method"]].append(call["cold_s"])
    overhead, diffs = _overhead([
        ([c["cold_s"] for c in a], [c["cold_s"] for c in b])
        for a, b in zip(rounds[False], rounds[True])])
    out.update({
        **{f"analytic.cold_ms.{m}": _ms(cold[m])
           for m in generate.ANALYTIC_METHODS},
        "analytic.cold_p50_ms": cold_latency["p50_ms"],
        "analytic.cold_tail_ms": cold_latency["tail_ms"],
        "analytic.cold_per_s": len(plain) / plain_wall,
        "analytic.unsupported": sum(c["warm_s"] is None for c in calls),
        "analytic.out_of_range": sum(c["outside_unit"] for c in calls),
        "analytic.warm_ms": _ms(c["warm_s"] for c in calls
                                if c["warm_s"] is not None),
        "observability.overhead_ms.analytic-cold": overhead,
    })
    detail["analytic-cold"] = {
        "calls": {"untraced": len(plain), "traced": len(traced)},
        "cold_latency": cold_latency,
        "overhead_pairs_ms": diffs,
        "eval_span_ms": _ms(spans.durations["analytic.eval"]),
    }
    return len(calls), [f"{c['fields']}: {c['problem']}" for c in calls
                        if c["problem"] is not None]


def run(workload: str, seed: int, seconds: float) -> dict:
    """The traced ledger.  *workload* only names the run; every workload's
    layers are measured.  Of *seconds*, each serve stack gets a sixth, the
    sweep pairs a third and the analytic-cold pairs a half (its cold calls
    are the slowest and most varied); each pass finishes its last pair."""
    probe = common.copy_bandwidth_probe()
    metrics: dict = {"host.copy_gbps": probe["gbps"]}
    detail: dict = {"bandwidth_probe": probe, "workload": workload}
    attempted, problems, serve_spans = _serve(seed, seconds / 6, metrics,
                                              detail)
    a, p = _sweep(seed, seconds / 3, probe, metrics, detail, serve_spans)
    attempted, problems = attempted + a, problems + p
    a, p = _analytic(seed, seconds / 2, metrics, detail)
    attempted, problems = attempted + a, problems + p
    return {"attempted": attempted, "failed": len(problems),
            "problems": problems, "metrics": metrics, "detail": detail}
