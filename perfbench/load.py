"""Closed-loop load generation over the public ``ServiceClient``.

Every loop waits for each reply before it sends its next request, the way
a planning tool (or the router itself) calls the service.  A run uses at
most two connections: one loop per connection.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceProtocolError

from workloads import ACK_EVERY, Pair, SessionPlan

WIRE_ERRORS = (ServiceProtocolError, ConnectionError, OSError, asyncio.TimeoutError)


class TimedClient(ServiceClient):
    """A ``ServiceClient`` that times every acknowledged session submission.

    ``OnlineSession.submit_windowed`` sends unacknowledged lines through
    ``send`` and each window's last line through ``request``; timing
    ``request`` for ``session_submit`` therefore gives the latency of each
    window acknowledgement.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ack_latencies: List[float] = []

    async def request(self, payload):
        if payload.get("op") != "session_submit":
            return await super().request(payload)
        started = time.perf_counter()
        response = await super().request(payload)
        self.ack_latencies.append(time.perf_counter() - started)
        return response


@dataclass
class SolveLog:
    """What the solve loops sent and got back."""

    pairs: List[Pair] = field(default_factory=list)
    responses: List[Optional[dict]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


@dataclass
class SessionLog:
    """What the session loop sent and got back."""

    plans: List[SessionPlan] = field(default_factory=list)
    placements: List[list] = field(default_factory=list)
    results: List[dict] = field(default_factory=list)
    ops: int = 0
    tasks: int = 0
    errors: List[str] = field(default_factory=list)


async def solve_loop(
    client: ServiceClient,
    stream: Iterator[Pair],
    deadline: float,
    log: SolveLog,
    span=None,
) -> None:
    """Send solves back to back until ``deadline``; ``span`` wraps each call."""
    while time.perf_counter() < deadline:
        pair = next(stream, None)
        if pair is None:
            break
        started = time.perf_counter()
        try:
            if span is None:
                payload = await client.solve(pair.instance, pair.spec)
            else:
                with span("wire.solve", spec=pair.spec):
                    payload = await client.solve(pair.instance, pair.spec)
        except WIRE_ERRORS as exc:
            log.errors.append(f"{pair.key}: {exc!r}")
            payload = None
        else:
            log.latencies.append(time.perf_counter() - started)
        log.pairs.append(pair)
        log.responses.append(payload)


async def session_loop(
    client: ServiceClient,
    stream: Iterator[SessionPlan],
    deadline: float,
    log: SessionLog,
) -> None:
    """Run whole sessions (open, windowed submits, result, close) until ``deadline``."""
    while time.perf_counter() < deadline:
        plan = next(stream, None)
        if plan is None:
            break
        log.plans.append(plan)
        log.ops += 3 + len(plan.tasks)
        try:
            session = await client.session_open(plan.spec, plan.m)
            placements = await session.submit_windowed(plan.tasks, ack_every=ACK_EVERY)
            result = await session.result()
            await session.close()
        except WIRE_ERRORS as exc:
            log.errors.append(f"{plan.key}: {exc!r}")
            log.placements.append([])
            log.results.append({})
            continue
        log.tasks += len(placements)
        log.placements.append(placements)
        log.results.append(result)


async def connect(port: int) -> TimedClient:
    return await TimedClient.connect("127.0.0.1", port, trace=False)


async def timed_window(
    port: int,
    seconds: float,
    solve_streams: List[Iterator[Pair]],
    session_streams: List[Iterator[SessionPlan]],
    span=None,
) -> Tuple[float, SolveLog, SessionLog, List[float]]:
    """One closed-loop window over ``len(streams)`` connections.

    Returns the wall time, the merged logs and the ack latencies.
    """
    clients = [await connect(port) for _ in range(len(solve_streams) + len(session_streams))]
    solves, sessions = SolveLog(), SessionLog()
    # The logs grow by thousands of containers per second; a cyclic
    # collection pass over them would stall the load generator mid-window.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        started = time.perf_counter()
        deadline = started + seconds
        loops = [solve_loop(c, s, deadline, solves, span)
                 for c, s in zip(clients, solve_streams)]
        loops += [session_loop(c, s, deadline, sessions)
                  for c, s in zip(clients[len(solve_streams):], session_streams)]
        await asyncio.gather(*loops)
        wall = time.perf_counter() - started
    finally:
        gc.enable()
        gc.unfreeze()
        for client in clients:
            await client.close()
    acks = [lat for client in clients for lat in client.ack_latencies]
    return wall, solves, sessions, acks


async def ping_series(port: int, count: int, span=None) -> List[float]:
    """``count`` sequential pings on one connection; their latencies."""
    client = await connect(port)
    out = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            if span is None:
                await client.ping()
            else:
                with span("wire.ping"):
                    await client.ping()
            out.append(time.perf_counter() - started)
    finally:
        await client.close()
    return out


async def fetch_stats(port: int) -> Dict[str, object]:
    client = await connect(port)
    try:
        return await client.stats()
    finally:
        await client.close()
