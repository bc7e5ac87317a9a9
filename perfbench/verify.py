"""Output verification and ledger checks, run after the timed window.

Every one-shot response must equal a direct ``solve(cache=False)`` on the
same pair (objectives, guarantee, spec, assignment) and its schedule must
pass ``check_schedule``.  Every session's placements and final result must
equal a replay of its arrivals through an in-process ``create_online``
scheduler.  Ledgers from the ``stats`` op must balance against what the
load generator sent.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.schedule import Schedule
from repro.core.validation import ValidationError, check_schedule
from repro.online.registry import create_online
from repro.service.protocol import result_to_payload
from repro.solvers import solve

from load import SessionLog, SolveLog

#: Result fields a response must reproduce exactly (wall time and cache
#: provenance legitimately differ).
COMPARED = ("solver", "spec", "feasible", "cmax", "mmax", "sum_ci", "guarantee")


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _assignment(payload) -> Dict[object, int]:
    return {tid: proc for tid, proc in (payload.get("assignment") or [])}


def compare_result(label: str, got: dict, expected: dict) -> List[str]:
    problems = [
        f"{label}: {name} {got.get(name)!r} != {expected.get(name)!r}"
        for name in COMPARED
        if not _same(got.get(name), expected.get(name))
    ]
    if _assignment(got) != _assignment(expected):
        problems.append(f"{label}: assignment differs from the direct result")
    return problems


def _schedule_problem(label: str, instance, payload: dict) -> List[str]:
    if not payload.get("assignment"):
        return [] if not payload.get("feasible", True) else [f"{label}: no assignment"]
    try:
        check_schedule(Schedule(instance, _assignment(payload)))
    except (ValidationError, ValueError) as exc:
        return [f"{label}: invalid schedule: {exc}"]
    return []


def verify_solves(log: SolveLog) -> List[str]:
    """Compare every answered solve with a direct, uncached solve."""
    truth: Dict[str, dict] = {}
    checked: Dict[str, bool] = {}
    problems: List[str] = []
    for pair, got in zip(log.pairs, log.responses):
        if got is None:
            continue  # counted as a failed operation already
        expected = truth.get(pair.key)
        if expected is None:
            expected = truth[pair.key] = result_to_payload(
                solve(pair.instance, pair.spec, cache=False))
        problems += compare_result(pair.key, got, expected)
        if pair.key not in checked:
            checked[pair.key] = True
            problems += _schedule_problem(pair.key, pair.instance, got)
    return problems


def verify_sessions(log: SessionLog) -> List[str]:
    """Replay each answered session in-process and compare."""
    problems: List[str] = []
    for plan, placements, result in zip(log.plans, log.placements, log.results):
        if not result:
            continue
        scheduler = create_online(plan.spec, plan.m)
        expected = [[task.id, scheduler.submit(task)] for task in plan.tasks]
        if [list(p) for p in placements] != expected:
            problems.append(f"{plan.key}: placements differ from the in-process replay")
        final = scheduler.finalize()
        problems += compare_result(plan.key, result, result_to_payload(final))
        problems += _schedule_problem(plan.key, final.schedule.instance, result)
    return problems


def ledger_shortfall(stats: dict, sent_solves: int, sent_sessions: int,
                     sent_tasks: int, cluster: bool) -> List[Tuple[str, int]]:
    """Ledger checks from the final ``stats`` snapshot: (message, shortfall) each.

    Service ledger: ``lost == 0`` and ``submitted`` equal to the solves
    sent (for a cluster, the solves that reached a shard), and the session
    counters equal to the sessions and tasks sent.  Router ledger:
    ``routed == completed + retried + lost`` and every solve accounted as
    a router-cache hit or miss.
    """
    totals = stats["totals"] if cluster else stats
    checks = [("service lost", int(totals["lost"]), 0),
              ("service sessions_opened", int(totals["sessions_opened"]), sent_sessions),
              ("service session_tasks", int(totals["session_tasks"]), sent_tasks)]
    if cluster:
        router = stats["router"]
        completed = int(router["completed"])
        checks += [
            ("router routed vs completed+retried+lost", int(router["routed"]),
             completed + int(router["retried"]) + int(router["lost"])),
            ("router lost", int(router["lost"]), 0),
            ("router cache hits+misses vs solves sent",
             int(router["router_cache_hits"]) + int(router["router_cache_misses"]),
             sent_solves),
            ("service submitted vs router completed", int(totals["submitted"]), completed),
        ]
    else:
        checks.append(("service submitted", int(totals["submitted"]), sent_solves))
    return [(f"ledger: {name}: {got} != {want}", abs(got - want))
            for name, got, want in checks if got != want]

