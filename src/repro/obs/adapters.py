"""Adapters: existing stats snapshots → a populated metrics registry.

The serving layers already expose carefully-specified snapshots
(:class:`~repro.service.stats.ServiceStats`, the router counter ledger,
per-tenant QoS slices).  These adapters translate those payload dicts
into typed metrics *without changing the sources* — the `metrics` wire
op and the ``--metrics-port`` scrape endpoint are built on top of the
snapshots plus the live histograms in
:data:`repro.obs.metrics.REGISTRY`.

Metric naming scheme (documented in DESIGN.md):

* ``repro_<counter>_total`` — cumulative counters (``submitted``,
  ``completed``, ``cache_hits``, ...);
* ``repro_<gauge>`` — instantaneous gauges (``queue_depth``,
  ``in_flight``, ``pending``, ``sessions_open``);
* ``repro_family_latency_seconds{family=...,quantile=...}`` — the
  windowed per-family percentile snapshot mirrored as gauges (these are
  window percentiles, not histogram quantiles);
* ``repro_request_latency_seconds`` / ``repro_phase_latency_seconds`` —
  live mergeable histograms (only populated while metrics recording is
  enabled);
* ``repro_tenant_*`` — per-tenant QoS slices;
* ``repro_router_<counter>_total`` / ``repro_shards_alive`` — router
  ledger and shard-set gauges;
* ``repro_profile_seconds_total{family=...,phase=...}`` — profiler
  phase totals.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.profile import PROFILER

__all__ = [
    "registry_from_service_stats",
    "registry_from_router",
    "add_profile_metrics",
    "build_metrics_registry",
]

_STATS_COUNTERS = (
    "submitted", "completed", "failed", "rejected", "timed_out", "cancelled",
    "coalesced", "abandoned", "cache_hits", "cache_misses", "lost",
    "sessions_opened", "sessions_closed", "sessions_expired",
    "sessions_rejected", "sessions_restored", "session_tasks",
)

_STATS_GAUGES = ("queue_depth", "in_flight", "pending", "sessions_open")

_FAMILY_QUANTILES = ("p50", "p90", "p99", "mean", "max")


def _finite(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def registry_from_service_stats(
    payload: Mapping[str, object],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Mirror a ``stats`` op payload (service *or* cluster) into metrics.

    Accepts both the flat :meth:`ServiceStats.to_dict` shape and the
    cluster shape (``{"cluster": true, "totals": {...}, ...}``) — the
    cluster totals/families/tenants are read from their nested keys.
    """
    registry = registry if registry is not None else MetricsRegistry()
    counters = payload.get("totals") if payload.get("cluster") else payload
    if not isinstance(counters, Mapping):
        counters = {}

    for name in _STATS_COUNTERS:
        value = _finite(counters.get(name))
        if value is not None:
            registry.counter(
                f"repro_{name}_total", f"Cumulative {name} count"
            ).set_total(value)
    for name in _STATS_GAUGES:
        value = _finite(counters.get(name))
        if value is not None:
            registry.gauge(f"repro_{name}", f"Instantaneous {name}").set(value)

    latency_count = _finite(counters.get("latency_count"))
    if latency_count is not None:
        registry.counter(
            "repro_latency_observations_total", "Recorded request latencies"
        ).set_total(latency_count)

    families = payload.get("families")
    if isinstance(families, Mapping):
        family_gauge = registry.gauge(
            "repro_family_latency_seconds",
            "Windowed per-family latency percentiles (window snapshot, not histogram)",
            ("family", "quantile"),
        )
        family_count = registry.counter(
            "repro_family_requests_total", "Requests recorded per family", ("family",)
        )
        for family, snap in families.items():
            if not isinstance(snap, Mapping):
                continue
            count = _finite(snap.get("count"))
            if count is not None:
                family_count.set_total(count, family)
            for quantile in _FAMILY_QUANTILES:
                value = _finite(snap.get(quantile))
                if value is not None:
                    family_gauge.set(value, family, quantile)

    tenants = payload.get("tenants")
    if isinstance(tenants, Mapping) and tenants:
        _add_tenant_metrics(registry, tenants)

    router = payload.get("router")
    if isinstance(router, Mapping):
        registry_from_router(router, registry)

    shards = payload.get("shards")
    if isinstance(shards, Mapping) and shards:
        registry.gauge("repro_shards_reporting", "Shards in the stats fan-out").set(
            len(shards)
        )

    return registry


def _add_tenant_metrics(registry: MetricsRegistry,
                        tenants: Mapping[str, object]) -> None:
    admitted = registry.counter(
        "repro_tenant_admitted_total", "Admitted requests per tenant", ("tenant",)
    )
    rejected = registry.counter(
        "repro_tenant_rejected_total", "Rejected requests per tenant", ("tenant",)
    )
    in_flight = registry.gauge(
        "repro_tenant_in_flight", "In-flight requests per tenant", ("tenant",)
    )
    backlog = registry.gauge(
        "repro_tenant_backlog", "Queued requests per tenant", ("tenant",)
    )
    share = registry.gauge(
        "repro_tenant_share", "Configured fair-share weight per tenant", ("tenant",)
    )
    # Keys follow :func:`repro.qos.stats.tenant_snapshot`.
    for tenant, snap in tenants.items():
        if not isinstance(snap, Mapping):
            continue
        for metric, key in ((admitted, "admitted"), (rejected, "rejected")):
            value = _finite(snap.get(key))
            if value is not None:
                metric.set_total(value, tenant)
        config = snap.get("config")
        weight = config.get("weight") if isinstance(config, Mapping) else None
        for metric, raw in ((in_flight, snap.get("in_use")),
                            (backlog, snap.get("queued")), (share, weight)):
            value = _finite(raw)
            if value is not None:
                metric.set(value, tenant)


def registry_from_router(
    counters: Mapping[str, object],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Mirror the router counter ledger into ``repro_router_*`` metrics."""
    registry = registry if registry is not None else MetricsRegistry()
    gauges = {"shards_alive", "shards_draining", "sessions_pinned",
              "sessions_journaled"}
    for name, value in counters.items():
        number = _finite(value)
        if number is None:
            continue
        if name in gauges:
            registry.gauge(f"repro_{name}", f"Instantaneous {name}").set(number)
        else:
            registry.counter(
                f"repro_router_{name}_total", f"Router cumulative {name}"
            ).set_total(number)
    return registry


def add_profile_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Mirror the profiler ledger as ``repro_profile_seconds_total``."""
    snapshot = PROFILER.snapshot()
    if not snapshot:
        return registry
    seconds = registry.counter(
        "repro_profile_seconds_total", "Profiled wall time", ("family", "phase")
    )
    calls = registry.counter(
        "repro_profile_calls_total", "Profiled call count", ("family", "phase")
    )
    for family, phases in snapshot.items():
        for phase, entry in phases.items():
            seconds.set_total(entry["seconds"], family, phase)
            calls.set_total(entry["count"], family, phase)
    return registry


def build_metrics_registry(
    stats_payload: Optional[Mapping[str, object]] = None,
    router_counters: Optional[Mapping[str, object]] = None,
) -> MetricsRegistry:
    """One registry combining snapshots, live histograms, and the profiler.

    This is what the ``metrics`` wire op and the scrape endpoint serve:
    adapter-mirrored counters/gauges from the given snapshot(s), the
    live mergeable histograms accumulated in the global
    :data:`~repro.obs.metrics.REGISTRY` (empty unless metric recording
    is enabled), and profiler totals (empty unless profiling is on).
    """
    registry = MetricsRegistry()
    if stats_payload is not None:
        registry_from_service_stats(stats_payload, registry)
    if router_counters is not None:
        registry_from_router(router_counters, registry)
    registry.merge(REGISTRY.to_dict())
    add_profile_metrics(registry)
    return registry
