"""Seeded workload generators: the only inputs the program under test sees.

Every generator is a pure function of its seed: the same seed yields the
identical request list, another seed a different one.  Requests are plain
JSON-able dicts in the gateway's edge schema (``n_items``, ``n_blocks``,
``method``, ``target``/``targets``, ``options``, ``wants``, ``engine``,
``dtype``, ``seed``), so the HTTP workload posts them verbatim and the
in-process workloads turn them into ``SearchRequest`` objects field by field.
"""

from __future__ import annotations

import itertools
import random

#: The six methods that run on the statevector tier.
SIMULATED_METHODS = (
    "grk", "grk-simplified", "grk-sure-success", "grk-cwb",
    "naive-blocks", "grover-full",
)
#: Every method with a closed-form model (the analytic tier's eight).
ANALYTIC_METHODS = SIMULATED_METHODS + ("classical", "subspace")

# serve: request classes and their shares of the mix.
SERVE_CLASSES = ("cached", "fresh", "analytic", "batch")
SERVE_WEIGHTS = (0.60, 0.15, 0.15, 0.10)
SERVE_HOT_SET = 8
SERVE_SIM_N, SERVE_SIM_K = 4096, 4
SERVE_ANALYTIC_N, SERVE_ANALYTIC_K = 1 << 40, 16
SERVE_BATCH_N, SERVE_BATCH_K, SERVE_BATCH_ROWS = 1024, 4, 64

# sweep: batches over seeded target subsets.
SWEEP_N, SWEEP_K = 1024, 4
SWEEP_ROWS = 96
SWEEP_LARGE_N = 4096
#: More rows than one default-budget shard holds at N=4096 (1024), so the
#: large batch is budget-sharded.
SWEEP_LARGE_ROWS = 1152
SWEEP_SAMPLE_ROWS = 8

# analytic-cold: geometry ranges.
COLD_BLOCKS = (4, 16, 64)
#: log2(N) bands, together 2**20 <= N <= 2**58; every method cycles
#: through them from round to round.
COLD_BANDS = ((20, 30), (30, 40), (40, 50), (50, 58))


def _single(n_items: int, n_blocks: int, method: str, target: int,
            rng: random.Random, **extra) -> dict:
    request = {"n_items": n_items, "n_blocks": n_blocks, "method": method,
               "target": target, **extra}
    if method == "naive-blocks":
        # Pinned so the analytic tier answers exactly, not with an
        # expectation over a random left-out block.
        request["options"] = {"left_out_block": rng.randrange(n_blocks)}
    return request


def serve_hot_set(seed: int) -> list[dict]:
    """The small set of requests the cached class repeats (pre-warmed)."""
    rng = random.Random(f"serve-hot-{seed}")
    return [
        _single(SERVE_SIM_N, SERVE_SIM_K,
                SIMULATED_METHODS[i % len(SIMULATED_METHODS)],
                rng.randrange(SERVE_SIM_N), rng)
        for i in range(SERVE_HOT_SET)
    ]


def serve_warmup(seed: int) -> list[dict]:
    """Untimed requests that pre-warm every geometry the mix touches.

    Targets here are never reused by :func:`serve_requests` (fresh and
    analytic targets exclude them), so no timed request is a cache hit it
    should not be.
    """
    rng = random.Random(f"serve-warm-{seed}")
    warm = serve_hot_set(seed)
    warm += [_single(SERVE_SIM_N, SERVE_SIM_K, m, 0, rng)
             for m in SIMULATED_METHODS]
    warm += [_single(SERVE_ANALYTIC_N, SERVE_ANALYTIC_K, m, 0, rng,
                     wants="probability")
             for m in ANALYTIC_METHODS]
    warm.append({"n_items": SERVE_BATCH_N, "n_blocks": SERVE_BATCH_K,
                 "method": "grk", "targets": [0]})
    return warm


def serve_requests(seed: int):
    """Endless seeded stream of ``(class, path, request)`` for the HTTP mix.

    60 % repeats of the hot set (TTL-cache hits), 15 % fresh single-target
    simulations at N=4096 rotating over the six simulated methods, 15 %
    warm analytic probability requests at N=2**40 with distinct targets
    rotating over all eight modelled methods, and 10 % ``/v1/batch``
    requests of 64 distinct targets at N=1024.
    """
    rng = random.Random(f"serve-{seed}")
    hot = serve_hot_set(seed)
    used = {(r["method"], r["target"]) for r in hot}
    used |= {(m, 0) for m in ANALYTIC_METHODS}
    fresh_methods = itertools.cycle(SIMULATED_METHODS)
    analytic_methods = itertools.cycle(ANALYTIC_METHODS)

    def distinct(method: str, n_items: int) -> int:
        while True:
            target = rng.randrange(1, n_items)
            if (method, target) not in used:
                used.add((method, target))
                return target

    while True:
        kind = rng.choices(SERVE_CLASSES, SERVE_WEIGHTS)[0]
        if kind == "cached":
            yield kind, "/v1/search", hot[rng.randrange(len(hot))]
        elif kind == "fresh":
            method = next(fresh_methods)
            yield kind, "/v1/search", _single(
                SERVE_SIM_N, SERVE_SIM_K, method,
                distinct(method, SERVE_SIM_N), rng)
        elif kind == "analytic":
            method = next(analytic_methods)
            yield kind, "/v1/search", _single(
                SERVE_ANALYTIC_N, SERVE_ANALYTIC_K, method,
                distinct(method, SERVE_ANALYTIC_N), rng, wants="probability")
        else:
            yield kind, "/v1/batch", {
                "n_items": SERVE_BATCH_N, "n_blocks": SERVE_BATCH_K,
                "method": "grk",
                "targets": sorted(rng.sample(range(SERVE_BATCH_N),
                                             SERVE_BATCH_ROWS)),
            }


def sweep_round(seed: int, round_index: int) -> list[tuple[str, dict]]:
    """One sweep round: ``(label, request)`` batches in a seeded order.

    Each batch runs :data:`SWEEP_ROWS` seeded targets at N=1024 for every
    simulated method.  Labels are the method names plus ``grk-n4096``
    (:data:`SWEEP_LARGE_ROWS` targets at N=4096: working set well above
    L2, budget-sharded) and ``grk-c64`` (complex64 on the targets of the
    round's grk batch, checked against it).  Stochastic methods get a
    seeded RNG.
    """
    rng = random.Random(f"sweep-{seed}-{round_index}")

    def targets(n_items: int, rows: int) -> list[int]:
        return sorted(rng.sample(range(n_items), rows))

    ops = []
    for method in SIMULATED_METHODS:
        request = {"n_items": SWEEP_N, "n_blocks": SWEEP_K, "method": method,
                   "targets": targets(SWEEP_N, SWEEP_ROWS),
                   "seed": rng.randrange(1 << 31)}
        if method == "naive-blocks":
            request["options"] = {"left_out_block": rng.randrange(SWEEP_K)}
        ops.append((method, request))
    ops.append(("grk-n4096", {"n_items": SWEEP_LARGE_N, "n_blocks": SWEEP_K,
                              "method": "grk",
                              "targets": targets(SWEEP_LARGE_N,
                                                 SWEEP_LARGE_ROWS)}))
    ops.append(("grk-c64", {"n_items": SWEEP_N, "n_blocks": SWEEP_K,
                            "method": "grk", "dtype": "complex64",
                            "targets": ops[0][1]["targets"]}))
    rng.shuffle(ops)
    return ops


def sweep_sample_rows(seed: int, round_index: int, label: str,
                      n_rows: int) -> list[int]:
    """Seeded row indices of one batch to check against the analytic tier."""
    rng = random.Random(f"sweep-rows-{seed}-{round_index}-{label}")
    return sorted(rng.sample(range(n_rows), min(SWEEP_SAMPLE_ROWS, n_rows)))


def analytic_cold_requests(seed: int):
    """Endless seeded stream of cold analytic requests, rounds of 8 methods.

    Each request is a geometry never produced before in the stream: N a
    multiple of K with log2(N) uniform in one band of :data:`COLD_BANDS`,
    and a uniform target.  Methods rotate through all eight modelled
    methods in a seeded order per round, and each method cycles K through
    {4, 16, 64} and the band through all four from round to round, so
    every range of N is measured and every (method, K) pair gets an equal
    share (the phase solves' cost depends strongly on both).
    """
    rng = random.Random(f"analytic-cold-{seed}")
    k_offset = rng.randrange(len(COLD_BLOCKS))
    band_offset = rng.randrange(len(COLD_BANDS))
    seen: set[tuple[int, int]] = set()
    for round_index in itertools.count():
        methods = list(enumerate(ANALYTIC_METHODS))
        rng.shuffle(methods)
        for i, method in methods:
            k = COLD_BLOCKS[(round_index + i + k_offset) % len(COLD_BLOCKS)]
            lo, hi = COLD_BANDS[(round_index + i + band_offset)
                                % len(COLD_BANDS)]
            while True:
                n = k * int(2.0 ** rng.uniform(lo, hi) // k)
                if (n, k) not in seen:
                    seen.add((n, k))
                    break
            yield {"n_items": n, "n_blocks": k, "method": method,
                   "target": rng.randrange(n), "wants": "probability",
                   "engine": "analytic"}


def analytic_warmup() -> list[dict]:
    """Untimed calls on small geometries (below 2**20, so never timed)."""
    return [{"n_items": 1024, "n_blocks": 4, "method": m, "target": 5,
             "wants": "probability", "engine": "analytic"}
            for m in ANALYTIC_METHODS]
