#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro serve`` / ``repro cluster`` servers.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment stamp, seed, counters) and the spans of a traced run are
written under ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


@dataclass(frozen=True)
class Shape:
    """How a workload deploys the server.

    A ``repro serve`` workload sends solves on both connections, then runs
    a session phase on one; a cluster workload sends solves on one
    connection while the other runs sessions.
    """

    argv: Tuple[str, ...]
    cluster: bool


WORKLOADS: Dict[str, Shape] = {
    "serve-repeat": Shape(("serve", "--workers", "1"), False),
    "serve-unique": Shape(("serve", "--workers", "1"), False),
    "cluster-mixed": Shape(
        ("cluster", "--shards", "2", "--workers", "1", "--no-autoscale"), True),
}

#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Rounds per timed window; a ``serve-*`` round gives this share of its
#: time to a session phase (one connection) after its solve phase.
ROUNDS = 5
SESSION_SHARE = 0.25
#: Unique solves sent before timing, to start the pool worker.
WARMUP_UNIQUE = 16
PINGS = 200
#: A p99 is sound with at least this many samples beyond it; a run that
#: holds fewer (a very slow host) names the p99 in ``undersampled_p99``.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "solve_rps": "1/s", "solve_p50_ms": "ms", "success_ratio": "ratio",
    "server_rss_mb": "MB", "session_tasks_per_s": "1/s", "ack_p50_ms": "ms",
}
#: Reported by every untraced run, with their sample counts, but not part
#: of the result line: on a shared host the p99s follow the CPU time stolen
#: by other guests (see perfbench/README.md), too far for any bound to gate
#: a program change.
TAIL_UNITS = {"solve_p99_ms": "ms", "ack_p99_ms": "ms"}
PER_LAYER_UNITS = {
    "kernel.solve_us": "us", "cache.disk_get_us": "us", "cache.disk_put_us": "us",
    "protocol.decode_us": "us", "protocol.instance_us": "us", "protocol.hash_us": "us",
    "protocol.encode_us": "us", "server.handle_us": "us", "service.solve_us": "us",
    "service.dispatch_us": "us", "service.queue_wait_p50_ms": "ms",
    "service.exec_p50_ms": "ms", "service.cache_hit_ratio": "ratio",
    "service.coalesced": "count", "service.completed": "count", "wire.ping_us": "us",
    "wire.tax_us": "us", "router.handle_us": "us", "router.hop_us": "us",
    "router.cache_hit_ratio": "ratio", "router.retried": "count", "router.lost": "count",
    "router.sessions_journaled": "count", "sessions.submit_us": "us",
    "online.place_us": "us", "trace.overhead_ratio": "ratio",
}


# --------------------------------------------------------------------------- #
# small statistics helpers
# --------------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(values: List[float], q: float) -> int:
    """How many samples lie beyond the nearest-rank ``q`` percentile."""
    return len(values) - max(1, math.ceil(q * len(values)))


def weighted_p50_ms(phase: Dict[str, Dict[str, float]]) -> float:
    """Count-weighted mean of per-family p50s (the ``stats`` op keeps no merged one)."""
    rows = [row for row in phase.values() if row.get("count") and row.get("p50") is not None]
    total = sum(row["count"] for row in rows)
    if not total:
        return math.nan
    return sum(row["p50"] * row["count"] for row in rows) / total * 1e3


def cpu_jiffies() -> Tuple[int, int]:
    """(stolen, total) CPU time of this machine so far, from ``/proc/stat``."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of the machine's CPU time the host gave other guests in between."""
    return ratio(end[0] - start[0], end[1] - start[1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Window:
    """The rounds of one timed window.

    Load from other guests of a shared host comes in spells of seconds, so
    a rate or median is the median over rounds.  Each round records the
    share of CPU time the host gave other guests meanwhile (``steal``).
    """

    def __init__(self) -> None:
        self.rounds: List[Dict[str, float]] = []
        self.latencies: List[float] = []
        self.acks: List[float] = []

    def add(self, wall, solves, session_wall, sessions, acks, steal: float) -> None:
        self.latencies += solves.latencies
        self.acks += acks
        self.rounds.append({
            "solve_rps": len(solves.latencies) / wall,
            "solve_p50": statistics.median(solves.latencies),
            "session_tasks_per_s": sessions.tasks / session_wall,
            "ack_p50": statistics.median(acks),
            "steal": steal,
        })

    def median(self, name: str) -> float:
        return statistics.median(r[name] for r in self.rounds)


# --------------------------------------------------------------------------- #
# environment stamp
# --------------------------------------------------------------------------- #
def environment(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    shape = WORKLOADS.get(workload)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "orjson": importlib.util.find_spec("orjson") is not None,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "server": "repro " + " ".join(shape.argv) if shape else None,
        "client_connections": 2,
    }


# --------------------------------------------------------------------------- #
# one workload run
# --------------------------------------------------------------------------- #
async def run_workload(workload: str, seed: int, seconds: int, traced: bool,
                       work: Path) -> Dict[str, object]:
    from ladder import ladder_metrics, run_ladder
    from load import fetch_stats, ping_series, session_loop, solve_loop, timed_window
    from load import SessionLog, SolveLog, connect
    from procs import Server
    from spans import Spans
    from verify import ledger_shortfall, verify_sessions, verify_solves
    from workloads import check_disjoint, repeat_pool, session_stream, solve_stream
    from workloads import take, unique_stream

    shape = WORKLOADS[workload]
    solve_logs: List[SolveLog] = []
    session_logs: List[SessionLog] = []
    problems: List[str] = []
    spans = Spans()
    server = None
    setups: List[float] = []
    try:
        # -- set-up: fresh cache directory and fresh process tree each time --
        for attempt in range(1 if traced else SETUPS):
            if server is not None:
                await server.stop()
            server = Server(
                [*shape.argv, "--host", "127.0.0.1", "--port", "0",
                 "--cache", str(work / f"cache-{attempt}")],
                SRC, work / "server.log")
            await server.start()
            setups.append(server.setup_s)
        port = server.port

        # -- warm-up (not timed): pre-warm the pool, start the worker --
        warm = []
        if workload != "serve-unique":
            warm += repeat_pool(seed) * 2
        if workload != "serve-repeat":
            warm += take(unique_stream(seed, "warmup"), WARMUP_UNIQUE)
        client = await connect(port)
        try:
            log = SolveLog()
            await solve_loop(client, iter(warm), math.inf, log)
            solve_logs.append(log)
            slog = SessionLog()
            await session_loop(client, iter(take(session_stream(seed, "warmup"), 1)),
                               math.inf, slog)
            session_logs.append(slog)
        finally:
            await client.close()

        # -- timed windows --
        solves_stream = solve_stream(workload, seed)
        sessions_stream = session_stream(seed)

        async def window(length: float, span=None) -> Window:
            out = Window()
            for _ in range(ROUNDS):
                part = length / ROUNDS
                jiffies = cpu_jiffies()
                if shape.cluster:
                    wall, solves, sessions, acks = await timed_window(
                        port, part, [solves_stream], [sessions_stream], span)
                    session_wall = wall
                else:
                    wall, solves, _, _ = await timed_window(
                        port, part * (1 - SESSION_SHARE),
                        [solves_stream, solves_stream], [], span)
                    session_wall, _, sessions, acks = await timed_window(
                        port, part * SESSION_SHARE, [], [sessions_stream])
                solve_logs.append(solves)
                session_logs.append(sessions)
                out.add(wall, solves, session_wall, sessions, acks,
                        steal_share(jiffies, cpu_jiffies()))
            return out

        before = await fetch_stats(port)
        jiffies = cpu_jiffies()
        timed = await window(seconds / 2 if traced else seconds)
        steal = steal_share(jiffies, cpu_jiffies())
        after = await fetch_stats(port)
        rss_mb = server.rss_mb()
        if traced:
            traced_timed = await window(seconds / 2, spans)
            pings = await ping_series(port, PINGS, spans)
        final = await fetch_stats(port)

        sent_solves = sum(len(log.pairs) for log in solve_logs)
        sent_sessions = sum(len(log.plans) for log in session_logs)
        sent_tasks = sum(len(p.tasks) for log in session_logs for p in log.plans)
        shortfalls = ledger_shortfall(final, sent_solves, sent_sessions, sent_tasks,
                                      shape.cluster)
    finally:
        if server is not None:
            await server.stop()

    # -- verification, outside every timed window --
    for log in solve_logs:
        problems += verify_solves(log)
    problems += check_disjoint(seed, [pair for log in solve_logs for pair in log.pairs])
    for log in session_logs:
        problems += verify_sessions(log)
    totals = (lambda s: s["totals"] if shape.cluster else s)
    delta = {k: int(totals(after)[k]) - int(totals(before)[k])
             for k in ("cache_hits", "cache_misses", "coalesced", "completed")}
    hit_ratio = ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"])
    if workload == "serve-repeat" and hit_ratio != 1.0:
        problems.append(f"serve-repeat: cache hit ratio {hit_ratio} in the timed window")
    if workload == "serve-unique" and delta["cache_hits"]:
        problems.append(f"serve-unique: {delta['cache_hits']} cache hits in the timed window")

    errors = [e for log in solve_logs for e in log.errors]
    errors += [e for log in session_logs for e in log.errors]
    attempted = sum(len(log.pairs) for log in solve_logs) + sum(
        log.ops for log in session_logs)
    failed = len(errors) + sum(amount for _, amount in shortfalls)

    metrics: Dict[str, float] = {}
    latencies, acks = timed.latencies, timed.acks
    samples = {"solve": len(latencies), "ack": len(acks), "rounds": ROUNDS,
               "cpu_steal_share": steal}
    if not traced:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_rps": timed.median("solve_rps"),
            "solve_p50_ms": timed.median("solve_p50") * 1e3,
            "solve_p99_ms": percentile(latencies, 0.99) * 1e3,
            "success_ratio": 1.0 - ratio(failed, attempted),
            "server_rss_mb": rss_mb,
            "session_tasks_per_s": timed.median("session_tasks_per_s"),
            "ack_p50_ms": timed.median("ack_p50") * 1e3,
            "ack_p99_ms": percentile(acks, 0.99) * 1e3,
        }
        samples["undersampled_p99"] = [
            name for name, values in (("solve_p99_ms", latencies), ("ack_p99_ms", acks))
            if beyond(values, 0.99) < TAIL_SAMPLES]
    else:
        await run_ladder(spans, workload, seed, work)
        metrics = ladder_metrics(spans)
        untraced_p50 = timed.median("solve_p50")
        traced_p50 = traced_timed.median("solve_p50")
        router = after.get("router", {}) if shape.cluster else {}
        router_before = before.get("router", {}) if shape.cluster else {}
        rdelta = {k: int(router.get(k, 0)) - int(router_before.get(k, 0))
                  for k in ("router_cache_hits", "router_cache_misses", "retried", "lost")}
        metrics.update({
            "service.queue_wait_p50_ms": weighted_p50_ms(after["phases"]["queue_wait"]),
            "service.exec_p50_ms": weighted_p50_ms(after["phases"]["exec"]),
            "service.cache_hit_ratio": hit_ratio,
            "service.coalesced": delta["coalesced"],
            "service.completed": delta["completed"],
            "wire.ping_us": statistics.median(pings) * 1e6,
            "wire.tax_us": traced_p50 * 1e6 - metrics["server.handle_us"],
            "router.cache_hit_ratio": ratio(
                rdelta["router_cache_hits"],
                rdelta["router_cache_hits"] + rdelta["router_cache_misses"]),
            "router.retried": rdelta["retried"],
            "router.lost": rdelta["lost"],
            "router.sessions_journaled": int(router.get("sessions_journaled", 0)),
            "trace.overhead_ratio": traced_p50 / untraced_p50,
        })
        samples["traced_solve"] = len(traced_timed.latencies)
        samples["traced_solve_p50_us"] = traced_p50 * 1e6
    problems += [message for message, _ in shortfalls]
    problems += [f"{name} is {value}" for name, value in metrics.items()
                 if not math.isfinite(value)]
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "errors": errors[:20], "samples": samples,
        "setups_s": setups, "rounds": timed.rounds, "stats_delta": delta, "spans": spans,
    }


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def print_report(workload: str, record: Dict[str, object], spans, traced: bool) -> None:
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    metrics = record["metrics"]
    print(f"== {workload} ({'traced' if traced else 'untraced'})  samples {record['samples']}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.4f} {unit}")
    if not traced:
        for name, unit in TAIL_UNITS.items():
            print(f"  {name:28s} {metrics[name]:14.4f} {unit} (reported, not gated)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_ratio':28s} {ratio(failed, attempted):14.6f} "
          f"({failed} of {attempted} operations)")
    if traced:
        print_self_times(spans, record["samples"]["traced_solve_p50_us"])
    for problem in record["problems"][:20]:
        print(f"  PROBLEM {problem}")


def print_self_times(spans, solve_us: float) -> None:
    table = spans.self_time_table()
    print("  self time per layer (count, p50 µs, total s):")
    for name in sorted(table):
        count, p50_us, total = table[name]
        print(f"    {name:24s} {count:7d} {p50_us:12.1f} {total:10.4f}")
    selfs = spans.self_times()
    replays = [r for r in spans.records if r["name"] == "replay"]
    path = [(r["end"] - r["start"] - selfs[r["span"]]) * 1e6 for r in replays]
    path_us = statistics.median(path) if path else math.nan
    print(f"  solve_p50 (traced, TCP) {solve_us:10.1f} µs; blocking path inside layer "
          f"spans (decode+instance+hash+disk_get[+kernel+disk_put]+encode, p50 per "
          f"request) {path_us:10.1f} µs; gap {solve_us - path_us:10.1f} µs = transport, "
          f"event loop, service bookkeeping, pool hand-off and queueing")


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> Dict[str, object]:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    work = OUT / f"{tag}-work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(workload, seed, seconds, int(traced))
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    record = asyncio.run(run_workload(workload, seed, seconds, traced, work))
    spans = record.pop("spans")
    if traced:
        spans.write_jsonl(OUT / f"{tag}.spans.jsonl")
        record["spans_file"] = str((OUT / f"{tag}.spans.jsonl").relative_to(ROOT))
    print_report(workload, record, spans, traced)
    (OUT / f"{tag}.json").write_text(json.dumps({"env": env, **record}, indent=1,
                                                default=str))
    if not record["problems"]:
        shutil.rmtree(work, ignore_errors=True)
    return record


def kill_descendants() -> None:
    """Last line of defence: no process this run started may outlive it."""
    from procs import kill_tree, process_tree, wait_gone

    pids = [pid for pid in process_tree(os.getpid()) if pid != os.getpid()]
    kill_tree(pids)
    wait_gone(pids)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    try:
        records = {w: run_one(w, args.seed, args.seconds, traced) for w in workloads}
    finally:
        kill_descendants()
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    metrics = {}
    for workload, record in records.items():
        prefix = f"{workload}/" if len(records) > 1 else ""
        for name, unit in units.items():
            value = record["metrics"][name]
            metrics[prefix + name] = {"value": value if math.isfinite(value) else None,
                                      "unit": unit}
    correct = all(not r["problems"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
