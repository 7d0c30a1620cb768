"""Closed-loop op runner: one client, ops back to back, each under a deadline.

An op that passes its deadline is stopped by a SIGALRM timer whose handler
raises ``OpDeadline`` in the main thread. ``OpDeadline`` derives from
``BaseException``, so the program's own ``except Exception`` handlers do not
swallow it. A native call that does not return to the interpreter delays the
stop until it returns; no call in this program's ops runs that long.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field

REASONS = ("infeasible", "training", "defense", "deadline", "check")


class OpDeadline(BaseException):
    """Raised into an op that ran past its deadline."""


class CheckFailed(Exception):
    """An op returned output that violates one of the benchmark's checks."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def call_with_deadline(fn, seconds: float):
    """Run ``fn()``; raise ``OpDeadline`` into it after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    name: str
    seconds: float
    reason: str | None = None   # None: completed and checked
    score: float | None = None  # min-over-defense test error of the op
    detail: str = ""


@dataclass
class Op:
    """``run()`` does the program's work and is timed; ``check(result)``
    verifies its output, raises ``CheckFailed`` on a violation and returns
    the op's score."""
    name: str
    run: object
    check: object


def run_op(op: Op, deadline: float, reasons, clock=time.perf_counter) -> Outcome:
    """Time one op. ``reasons`` maps exception types to failure reasons;
    any other exception propagates and ends the benchmark."""
    started = clock()
    try:
        result = call_with_deadline(op.run, deadline)
    except OpDeadline:
        return Outcome(op.name, clock() - started, "deadline",
                       detail=f"stopped after {deadline:g} s")
    except tuple(reasons) as exc:
        reason = next(r for t, r in reasons.items() if isinstance(exc, t))
        return Outcome(op.name, clock() - started, reason,
                       detail=f"{type(exc).__name__}: {exc}"[:200])
    seconds = clock() - started
    try:
        score = op.check(result)
    except CheckFailed as exc:
        return Outcome(op.name, seconds, "check", detail=str(exc)[:200])
    return Outcome(op.name, seconds, score=score)


@dataclass
class LoopResult:
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0


MIN_PASSES = 2


def run_cycles(ops: list[Op], seconds: float, deadline: float, reasons,
               clock=time.perf_counter) -> LoopResult:
    """Run whole passes over ``ops``, at least ``MIN_PASSES`` of them, until
    ``seconds`` have passed, so every op of a workload is measured equally
    often and more than once."""
    out = LoopResult()
    started = clock()
    passes = 0
    while True:
        for op in ops:
            out.outcomes.append(run_op(op, deadline, reasons, clock))
        passes += 1
        out.wall_s = clock() - started
        if passes >= MIN_PASSES and out.wall_s >= seconds:
            return out


def run_sequence(ops: list[Op], deadline: float, reasons,
                 clock=time.perf_counter) -> LoopResult:
    """Run ``ops`` once each, in order."""
    out = LoopResult()
    started = clock()
    out.outcomes = [run_op(op, deadline, reasons, clock) for op in ops]
    out.wall_s = clock() - started
    return out


def failure_counts(outcomes) -> dict:
    counts = dict.fromkeys(REASONS, 0)
    for o in outcomes:
        if o.reason is not None:
            counts[o.reason] += 1
    return counts


def summarize(loop: LoopResult) -> dict:
    """End-to-end figures of one timed loop."""
    done = [o for o in loop.outcomes if o.reason is None]
    attempted = len(loop.outcomes)
    return {
        "attempted": attempted,
        "completed": len(done),
        "fail_ratio": 1.0 - len(done) / attempted if attempted else 0.0,
        "failures": failure_counts(loop.outcomes),
        "ops_per_s": len(done) / loop.wall_s if loop.wall_s > 0 else 0.0,
        "op_p50_s": statistics.median(o.seconds for o in done) if done else None,
        "attack_error": max((o.score for o in done), default=None),
    }
