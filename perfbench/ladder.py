"""The traced layer ladder: spans around each layer's public functions.

Replays a workload's own requests in-process, layer by layer, with the
same state the deployed server has (pool pre-warmed on ``serve-repeat``
and ``cluster-mixed``, cold on ``serve-unique``):

* ``replay`` — one request down the blocking path of a server, one child
  span per layer: ``protocol.decode`` → ``protocol.instance`` →
  ``protocol.hash`` → ``cache.disk_get`` → on a miss ``kernel.solve`` and
  ``cache.disk_put`` → ``protocol.encode``;
* ``kernel.solve`` / ``cache.disk_put`` on the same pairs for every
  workload (a warm replay never reaches the kernel);
* ``service.solve`` and ``server.handle`` against an in-process
  ``SolverService`` configured like ``repro serve --workers 1 --cache``;
  ``service.solve_cold`` / ``kernel.solve_cold`` on fresh unique pairs
  give the cold dispatch cost;
* ``sessions.submit`` (``handle_request`` of acknowledged
  ``session_submit`` lines) and ``online.place`` (``create_online().submit``);
* ``router.handle`` against an in-process ``ClusterRouter`` over one
  process shard with the router cache off, next to ``wire.direct`` — the
  same warm request sent straight to that shard over TCP.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.cluster import ClusterConfig, ClusterRouter
from repro.online.registry import create_online
from repro.service import ServiceConfig, SolverService
from repro.service.client import ServiceClient
from repro.service.protocol import (
    decode_message,
    encode_message,
    instance_from_payload,
    result_to_payload,
    session_close_request,
    session_open_request,
    session_result_request,
    session_submit_request,
    solve_request,
)
from repro.service.server import handle_request
from repro.solvers import prepare, solve
from repro.solvers.cache import DiskCache, cache_key

from spans import Spans
from workloads import Pair, repeat_pool, session_stream, solve_stream, take, unique_stream

#: Requests per ladder stage, and sessions for the session stages.
STAGE_REQUESTS = 120
STAGE_SESSIONS = 4


def _expect_ok(response, what: str) -> dict:
    if response is None or not response.get("ok"):
        raise RuntimeError(f"{what} failed in the ladder: {response!r}")
    return response


def replay_path(spans: Spans, pairs: List[Pair], cache: DiskCache) -> None:
    """One request at a time down a server's blocking path, one span per layer."""
    for i, pair in enumerate(pairs):
        line = encode_message(solve_request(pair.instance, pair.spec, request_id=i))
        with spans("replay", key=pair.key):
            with spans("protocol.decode"):
                request = decode_message(line)
            with spans("protocol.instance"):
                instance = instance_from_payload(request["instance"])
            with spans("protocol.hash"):
                digest = instance.content_hash()
            key = cache_key(digest, prepare(instance, request["spec"]).canonical)
            with spans("cache.disk_get"):
                result = cache.get(key)
            if result is None:
                with spans("kernel.solve"):
                    result = solve(instance, request["spec"], cache=False)
                with spans("cache.disk_put"):
                    cache.put(key, result)
            with spans("protocol.encode"):
                encode_message({"id": i, "ok": True, "result": result_to_payload(result)})


def kernel_and_put(spans: Spans, pairs: List[Pair], cache: DiskCache) -> None:
    for pair in pairs:
        with spans("kernel.solve"):
            result = solve(pair.instance, pair.spec, cache=False)
        key = cache_key(pair.instance, prepare(pair.instance, pair.spec).canonical)
        with spans("cache.disk_put"):
            cache.put(key, result)


async def service_stages(spans: Spans, workload: str, seed: int, work: Path,
                         warm_pool: bool) -> None:
    config = ServiceConfig(workers=1, cache=str(work / "service-cache"))
    stream = solve_stream(workload, seed, "ladder-service")
    async with SolverService(config) as svc:
        if warm_pool:
            for pair in repeat_pool(seed):
                await svc.solve(pair.instance, pair.spec)
        for pair in take(unique_stream(seed, "ladder-cold"), STAGE_REQUESTS):
            with spans("service.solve_cold"):
                await svc.solve(pair.instance, pair.spec)
            with spans("kernel.solve_cold"):
                solve(pair.instance, pair.spec, cache=False)
        for pair in take(stream, STAGE_REQUESTS):
            with spans("service.solve"):
                await svc.solve(pair.instance, pair.spec)
        for i, pair in enumerate(take(stream, STAGE_REQUESTS)):
            line = encode_message(solve_request(pair.instance, pair.spec, request_id=i))
            request = decode_message(line)
            with spans("server.handle"):
                response = await handle_request(svc, request)
            _expect_ok(response, "solve")
        for plan in take(session_stream(seed, "ladder"), STAGE_SESSIONS):
            opened = _expect_ok(await handle_request(
                svc, session_open_request(plan.spec, plan.m, request_id="o")), "session_open")
            session = str(opened["session"])
            for task in plan.tasks:
                request = decode_message(encode_message(session_submit_request(session, task, "s")))
                with spans("sessions.submit"):
                    response = await handle_request(svc, request)
                _expect_ok(response, "session_submit")
            _expect_ok(await handle_request(svc, session_result_request(session, "r")),
                       "session_result")
            _expect_ok(await handle_request(svc, session_close_request(session, "c")),
                       "session_close")
            scheduler = create_online(plan.spec, plan.m)
            for task in plan.tasks:
                with spans("online.place"):
                    scheduler.submit(task)


async def router_stage(spans: Spans, workload: str, seed: int, work: Path) -> None:
    config = ClusterConfig(shards=1, backend="process", workers=1,
                           cache=str(work / "router-cache"), router_cache=0)
    pairs = take(solve_stream(workload, seed, "ladder-router"), STAGE_REQUESTS)
    async with ClusterRouter(config) as router:
        port = router.shard(router.shard_names()[0]).port
        direct = await ServiceClient.connect("127.0.0.1", port, trace=False)
        try:
            for i, pair in enumerate(pairs):  # warm the shard's cache
                _expect_ok(await router.handle(solve_request(pair.instance, pair.spec, i)),
                           "router solve")
            for i, pair in enumerate(pairs):
                request = solve_request(pair.instance, pair.spec)
                with spans("router.handle"):
                    response = await router.handle({**request, "id": i})
                _expect_ok(response, "router solve")
                with spans("wire.direct"):
                    await direct.request(request)
        finally:
            await direct.close()


async def run_ladder(spans: Spans, workload: str, seed: int, work: Path) -> None:
    """Record every ladder stage of ``workload`` into ``spans``."""
    warm_pool = workload != "serve-unique"
    path_cache = DiskCache(work / "path-cache")
    if warm_pool:
        for pair in repeat_pool(seed):
            key = cache_key(pair.instance, prepare(pair.instance, pair.spec).canonical)
            path_cache.put(key, solve(pair.instance, pair.spec, cache=False))
    pairs = take(solve_stream(workload, seed, "ladder-path"), STAGE_REQUESTS)
    replay_path(spans, pairs, path_cache)
    kernel_and_put(spans, pairs, DiskCache(work / "put-cache"))
    await service_stages(spans, workload, seed, work, warm_pool)
    await router_stage(spans, workload, seed, work)


def ladder_metrics(spans: Spans) -> Dict[str, float]:
    """The span-derived per-layer metrics, in µs."""
    out = {name + "_us": spans.p50_us(name) for name in (
        "kernel.solve", "cache.disk_get", "cache.disk_put", "protocol.decode",
        "protocol.instance", "protocol.hash", "protocol.encode", "server.handle",
        "service.solve", "router.handle", "sessions.submit", "online.place")}
    out["service.dispatch_us"] = spans.p50_us("service.solve_cold") - spans.p50_us(
        "kernel.solve_cold")
    out["router.hop_us"] = out["router.handle_us"] - spans.p50_us("wire.direct")
    return out
