"""Output checks: every answer the program gives is compared to a reference.

Simulated and warm answers are checked against the in-process analytic
tier (``engine="analytic"``) for the identical request: success within
``ANALYTIC_SUCCESS_ATOL``, queries exactly equal, and the block guess one
a correct run may give (:func:`allowed_guesses`).  A check
returns ``None`` when the answer is right and a one-line reason otherwise;
each wrong answer counts as a failed operation.
"""

from __future__ import annotations

from repro.analytic import ANALYTIC_SUCCESS_ATOL
from repro.engine import SearchEngine, SearchRequest
from repro.kernels import COMPLEX64_SUCCESS_ATOL, ExecutionPolicy


def to_request(fields: dict, **override) -> SearchRequest:
    """A ``SearchRequest`` from a generated edge-schema dict."""
    fields = {**fields, **override}
    return SearchRequest(
        n_items=fields["n_items"],
        n_blocks=fields["n_blocks"],
        method=fields.get("method", "grk"),
        target=fields.get("target"),
        rng=fields.get("seed"),
        options=fields.get("options", {}),
        policy=ExecutionPolicy(dtype=fields.get("dtype", "complex128")),
        wants=fields.get("wants", "report"),
        engine=fields.get("engine", "auto"),
    )


class AnalyticReference:
    """Memoised in-process analytic answers ``(success, queries, guess)``."""

    def __init__(self):
        self._engine = SearchEngine()
        self._memo: dict = {}

    def answer(self, fields: dict, target: int):
        key = (fields["n_items"], fields["n_blocks"], fields.get("method"),
               tuple(sorted(fields.get("options", {}).items())), target)
        if key not in self._memo:
            report = self._engine.search(to_request(
                fields, target=target, engine="analytic",
                wants="probability", dtype="complex128", seed=None))
            self._memo[key] = (report.success_probability, report.queries,
                               report.block_guess)
        return self._memo[key]


def allowed_guesses(fields: dict, target: int) -> set[int]:
    """Block guesses a correct run may answer for *target*.

    ``naive-blocks`` samples one address and verifies it with a probe; when
    the probe misses it answers its left-out block.  Its guess is a sample,
    right with the reported success probability, so either block is a
    correct output (``tests/analytic`` compares its success and queries
    only).  Every other method answers its most likely block: the target's.
    """
    block = target // (fields["n_items"] // fields["n_blocks"])
    if fields.get("method") == "naive-blocks":
        return {block, fields["options"]["left_out_block"]}
    return {block}


def check_single(reference: AnalyticReference, fields: dict,
                 success: float, queries: int, guess) -> str | None:
    """One single-target answer against the analytic tier."""
    want_success, want_queries, want_guess = reference.answer(
        fields, fields["target"])
    if not abs(success - want_success) <= ANALYTIC_SUCCESS_ATOL:
        return f"success {success!r} != analytic {want_success!r}"
    if queries != want_queries:
        return f"queries {queries} != analytic {want_queries}"
    allowed = allowed_guesses(fields, fields["target"])
    if want_guess not in allowed or guess not in allowed:
        return f"block guess {guess} (analytic {want_guess}) not in {allowed}"
    return None


def check_guesses(fields: dict, targets, guesses) -> str | None:
    """Every row's block guess of a batch (``all_correct`` for the
    deterministic methods)."""
    for row, (target, guess) in enumerate(zip(targets, guesses)):
        if int(guess) not in allowed_guesses(fields, int(target)):
            return f"row {row} (target {int(target)}): block guess {guess}"
    return None


def check_rows(reference: AnalyticReference, fields: dict, targets,
               success, queries, guesses, rows) -> str | None:
    """Selected rows of a batch answer against the analytic tier."""
    for row in rows:
        problem = check_single(
            reference, {**fields, "target": int(targets[row])},
            float(success[row]), int(queries[row]), int(guesses[row]))
        if problem is not None:
            return f"row {row} (target {int(targets[row])}): {problem}"
    return None


def check_http_reply(reference: AnalyticReference, kind: str, fields: dict,
                     status: int, reply: dict | None) -> str | None:
    """One HTTP answer: status 200 and a decoded report matching the tier."""
    if status != 200 or reply is None:
        return f"HTTP {status}"
    if kind == "batch":
        if not reply.get("all_correct"):
            return "batch not all_correct"
        if reply.get("targets") != fields["targets"]:
            return "batch rows do not match the requested targets"
        return check_rows(reference, fields, reply["targets"],
                          reply["success_probabilities"], reply["queries"],
                          reply["block_guesses"],
                          range(len(reply["targets"])))
    return check_single(reference, fields, reply["success_probability"],
                        reply["queries"], reply["block_guess"])


def check_complex64(c64_success, c64_guesses, c128_success,
                    c128_guesses) -> str | None:
    """The complex64 batch against the complex128 one, row for row."""
    for row, (a, b) in enumerate(zip(c64_success, c128_success)):
        if not abs(float(a) - float(b)) <= COMPLEX64_SUCCESS_ATOL:
            return f"row {row}: complex64 success {a} vs complex128 {b}"
    if list(map(int, c64_guesses)) != list(map(int, c128_guesses)):
        return "complex64 block guesses differ from complex128"
    return None


def check_cold(report) -> str | None:
    """A cold analytic answer: a probability in [0, 1] and a query count."""
    p = report.success_probability
    if not (isinstance(p, float) and 0.0 <= p <= 1.0):
        return f"success {p!r} outside [0, 1]"
    if report.queries < 0:
        return f"negative query count {report.queries}"
    return None


def outside_unit_interval(report) -> bool:
    """True when the success probability lies strictly outside [0, 1]."""
    return not 0.0 <= report.success_probability <= 1.0
