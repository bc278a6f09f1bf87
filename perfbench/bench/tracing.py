"""The traced run's instruments: span-tree arithmetic and layer timers.

Span trees come from the program's own spans (``GET /v1/trace/{id}`` for
the HTTP stack, ``repro.observability.recording_scope`` in-process).  The
timers are the benchmark's: :class:`LayerTimers` wraps public entry points
of a layer for the duration of a ``with`` block and restores them after,
so an untraced run executes the program untouched.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


def _end(span: dict) -> float:
    return span["start_s"] + span["duration_s"]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total, cursor = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """``span_id -> self time``: duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.get("parent_id"):
            children[s["parent_id"]].append((s["start_s"], _end(s)))
    return {
        s["span_id"]: max(0.0, s["duration_s"] - covered(
            children[s["span_id"]], s["start_s"], _end(s)))
        for s in spans
    }


class SpanLedger:
    """Accumulates span trees and answers per-stage questions about them."""

    def __init__(self):
        self.durations = defaultdict(list)   # name -> [s]
        self.self_s = defaultdict(list)      # name -> [s]
        self.handoff_s: list[float] = []
        self.wire_overhead_s: list[float] = []
        self.shards: list[int] = []
        self.by_tag = defaultdict(list)      # (name, tag) -> [s]

    def add(self, spans: list[dict], tags=()) -> dict:
        """Fold one request's spans in; returns ``name -> first span``.

        Each span's duration is also filed under ``(name, tag)`` for every
        tag in *tags* (a request class, a method).
        """
        own = self_times(spans)
        first: dict[str, dict] = {}
        by_id = {s["span_id"]: s for s in spans}
        for s in spans:
            self.durations[s["name"]].append(s["duration_s"])
            self.self_s[s["name"]].append(own[s["span_id"]])
            first.setdefault(s["name"], s)
            for tag in tags:
                self.by_tag[(s["name"], tag)].append(s["duration_s"])
            if s["name"] == "shards.plan" and "shards" in s.get("attrs", {}):
                self.shards.append(int(s["attrs"]["shards"]))
        if "queue.wait" in first and "engine.execute" in first:
            self.handoff_s.append(first["engine.execute"]["start_s"]
                                  - _end(first["queue.wait"]))
        computes = {s["parent_id"]: s for s in spans
                    if s["name"] == "worker.compute"}
        for s in spans:
            if s["name"] == "wire.roundtrip":
                attempt = by_id.get(s["parent_id"])
                compute = computes.get(attempt["span_id"]) if attempt else None
                if compute is not None:
                    self.wire_overhead_s.append(
                        s["duration_s"] - compute["duration_s"])
        return first


def recorded_spans(recorder) -> list[dict]:
    return [s.to_dict() for s in recorder.drain()]


class LayerTimers:
    """Wall-clock timers around public entry points, installed temporarily.

    ``timers.wrap(owner, "name", label, on_call)`` replaces
    ``owner.name`` with a timing wrapper while the ``with`` block runs.
    Each call appends its elapsed seconds under *label*; *on_call*, if
    given, also receives ``(elapsed, args, kwargs)``.
    """

    def __init__(self):
        self.calls = defaultdict(list)
        self._stack = contextlib.ExitStack()

    def wrap(self, owner, name: str, label: str, on_call=None) -> None:
        original = owner.__dict__[name]
        calls = self.calls[label]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                calls.append(elapsed)
                if on_call is not None:
                    on_call(elapsed, args, kwargs)

        setattr(owner, name, timed)
        self._stack.callback(setattr, owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stack.close()
        return None
