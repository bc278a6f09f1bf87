"""The benchmark's own tests: generators, metric names, smoke runs, checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

from bench import common, generate, serve, sweep  # noqa: E402
from bench.checks import (  # noqa: E402
    AnalyticReference,
    check_cold,
    check_http_reply,
    to_request,
)
from bench.tracing import covered, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((PERFBENCH / "metric_map.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _take(stream, n):
    return list(itertools.islice(stream, n))


# ------------------------------------------------------------- generators
@pytest.mark.parametrize("make", [
    lambda seed: _take(generate.serve_requests(seed), 300),
    lambda seed: generate.serve_warmup(seed),
    lambda seed: [generate.sweep_round(seed, r) for r in range(3)],
    lambda seed: _take(generate.analytic_cold_requests(seed), 64),
])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_serve_mix_classes_and_fresh_targets_are_distinct():
    requests = _take(generate.serve_requests(3), 4000)
    counts = {k: sum(r[0] == k for r in requests)
              for k in generate.SERVE_CLASSES}
    for kind, weight in zip(generate.SERVE_CLASSES, generate.SERVE_WEIGHTS):
        assert abs(counts[kind] / len(requests) - weight) < 0.03
    hot = generate.serve_hot_set(3)
    assert all(r[2] in hot for r in requests if r[0] == "cached")
    fresh = [(r[2]["method"], r[2]["target"]) for r in requests
             if r[0] in ("fresh", "analytic")]
    assert len(fresh) == len(set(fresh))
    assert all("left_out_block" in r[2]["options"] for r in requests
               if r[0] == "fresh" and r[2]["method"] == "naive-blocks")


def test_analytic_cold_geometries_are_new_and_cover_every_band():
    requests = _take(generate.analytic_cold_requests(5), 400)
    geometries = [(r["n_items"], r["n_blocks"]) for r in requests]
    assert len(set(geometries)) == len(geometries)
    for n, k in geometries:
        assert k in generate.COLD_BLOCKS and n % k == 0
        assert 2 ** 20 <= n <= 2 ** 58
    rounds = [requests[i:i + 8] for i in range(0, 400, 8)]
    assert all(sorted(r["method"] for r in rnd)
               == sorted(generate.ANALYTIC_METHODS) for rnd in rounds)
    # Within any four rounds every method meets every log2(N) band.
    for method in generate.ANALYTIC_METHODS:
        bands = [next(i for i, (lo, hi) in enumerate(generate.COLD_BANDS)
                      if 2 ** lo <= r["n_items"] <= 2 ** hi)
                 for r in requests[:32] if r["method"] == method]
        assert sorted(bands) == [0, 1, 2, 3], method


def test_sweep_round_shards_the_large_batch_and_pairs_complex64():
    from repro.engine import SearchEngine

    ops = dict(generate.sweep_round(4, 0))
    assert ops["grk-c64"]["targets"] == ops["grk"]["targets"]
    large = ops["grk-n4096"]
    report = SearchEngine().search_batch(to_request(large),
                                         targets=large["targets"])
    assert report.execution["n_shards"] > 1


# ---------------------------------------------------------------- metrics
def test_metric_names_are_valid_unique_and_mapped():
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
        assert set(names) == set(METRIC_MAP[section])
    e2e = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"}
    for name, entry in METRIC_MAP["per_layer"].items():
        assert entry["moves"] or entry["layer"] == "host", name
        assert all(move.split("@")[0] in e2e for move in entry["moves"]), name
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == ["serve", "sweep"]
    assert set(METRIC_MAP["workloads"]) == set(workloads)
    assert all(set(METRIC_MAP["end_to_end"][m]) == set(workloads)
               for m in METRIC_MAP["end_to_end"])


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(100))
    assert common.tail(values) == (89, 90.0)
    assert common.tail(range(12))[0] == 11  # too few: the maximum


def test_overhead_is_the_median_of_paired_differences():
    from bench.ledger import _overhead, _pair_order

    pairs = [([1e-3, 2e-3, 3e-3], [1.5e-3, 2.5e-3, 3.5e-3]),
             ([4e-3], [4.1e-3]), ([1e-3], [1e-3])]
    median, diffs = _overhead(pairs)
    assert diffs == pytest.approx([0.5, 0.1, 0.0])
    assert median == pytest.approx(0.1)
    assert _pair_order(0) == (False, True) and _pair_order(1) == (True, False)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"span_id": "r", "parent_id": None, "start_s": 0.0, "duration_s": 10.0},
        {"span_id": "a", "parent_id": "r", "start_s": 1.0, "duration_s": 3.0},
        {"span_id": "b", "parent_id": "r", "start_s": 2.0, "duration_s": 4.0},
    ]
    assert self_times(spans) == {"r": 5.0, "a": 3.0, "b": 4.0}
    assert covered([(0, 1), (5, 20)], 0.5, 10) == 5.5


# ------------------------------------------------------- the checks check
def test_a_wrong_http_answer_is_counted():
    from repro.engine import SearchEngine
    from repro.gateway.schema import encode_report

    reference = AnalyticReference()
    engine = SearchEngine()
    fields = {"n_items": 256, "n_blocks": 4, "method": "grk-cwb",
              "target": 77}
    reply = encode_report(engine.search(to_request(fields)))
    batch_fields = {"n_items": 256, "n_blocks": 4, "method": "grk",
                    "targets": [3, 100, 200]}
    batch = encode_report(engine.search_batch(
        to_request(batch_fields), targets=batch_fields["targets"]))
    records = []
    for kind, f, body in (("fresh", fields, reply),
                          ("batch", batch_fields, batch)):
        wrong = json.loads(json.dumps(body))
        if kind == "batch":
            wrong["block_guesses"][1] = (wrong["block_guesses"][1] + 1) % 4
        else:
            wrong["success_probability"] -= 1e-6
        for index, payload in enumerate((body, wrong)):
            records.append({"index": index, "kind": kind, "fields": f,
                            "status": 200,
                            "body": json.dumps(payload).encode()})
    records.append({"index": 9, "kind": "fresh", "fields": fields,
                    "status": 429, "body": b"{}"})
    problems = serve.verify(records, reference)
    assert [r["ok"] for r in records] == [True, False, True, False, False]
    assert len(problems) == 3
    assert check_http_reply(reference, "fresh", fields, 200, None)


def test_a_wrong_sweep_row_is_counted():
    from repro.engine import SearchEngine

    engine = SearchEngine()
    ops = []
    for label, method in (("grk", "grk"), ("grk-cwb", "grk-cwb"),
                          ("grk-c64", "grk")):
        fields = {"n_items": 64, "n_blocks": 4, "method": method}
        if label == "grk-c64":
            fields["dtype"] = "complex64"
        report = engine.search_batch(to_request(fields))
        ops.append({"round": 0, "label": label, "fields": fields,
                    "report": report, "rows": report.n_rows})
    assert sweep.verify(ops, 1, AnalyticReference()) == []
    rows = generate.sweep_sample_rows(1, 0, "grk-cwb", 64)
    ops[1]["report"].success_probabilities[rows[0]] -= 1e-6
    ops[2]["report"].success_probabilities[5] += 1e-2
    problems = sweep.verify(ops, 1, AnalyticReference())
    assert [op["ok"] for op in ops] == [True, False, False]
    assert len(problems) == 2


def test_a_cold_answer_outside_the_unit_interval_is_counted():
    class Report:
        queries = 3
        success_probability = 1.5

    assert check_cold(Report())
    Report.success_probability = float("nan")
    assert check_cold(Report())
    Report.success_probability = 1.0000000000000002
    assert check_cold(Report())
    Report.success_probability = 1.0
    assert check_cold(Report()) is None


# ------------------------------------------------------------- smoke runs
def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("serve", "0"), ("sweep", "0"), ("sweep", "1"),
])
def test_smoke_run_prints_a_correct_result(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1",
                "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, done.stdout[-3000:]
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_without_the_program_source_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
