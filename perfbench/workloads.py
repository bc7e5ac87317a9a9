"""Seeded request generation for the three benchmark workloads.

Every input the servers see is derived from the run's ``--seed``:

* the **repeat pool** is ``workload_suite(60, 4)`` (five families) crossed
  with :data:`SPECS` — 40 (instance, spec) pairs, all cache hits once
  pre-warmed;
* the **unique stream** draws a fresh instance per request: n over
  40..400 tasks and m over 2..16 (stratified on a log scale), the family
  over the five ``workload_suite`` generators.  Requests come in
  balanced blocks whose composition does not depend on the seed, so any
  prefix of the stream has the same cost profile up to one block — the
  seed changes task values and order only;
* the **session stream** yields online sessions (``online_greedy`` /
  ``online_sbo``) whose arrivals come from ``stochastic_trace``.

Instance seeds of the unique stream live in a range disjoint from the
repeat pool's, and :func:`check_disjoint` re-checks that by content hash.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from repro.core.instance import Instance
from repro.online.arrivals import stochastic_trace
from repro.workloads.independent import (
    anti_correlated_instance,
    bimodal_instance,
    correlated_instance,
    heavy_tailed_instance,
    uniform_instance,
    workload_suite,
)

#: The paper-style spec mix of ``benchmarks/bench_service.py`` (copied, not
#: imported, so an edit there cannot silently change this benchmark).
SPECS = (
    "lpt",
    "multifit",
    "sbo(delta=0.5)",
    "sbo(delta=1.0)",
    "sbo(delta=2.0, inner=multifit)",
    "rls(delta=2.5)",
    "trio(delta=2.5)",
    "pareto_approx(epsilon=0.5)",
)

FAMILIES = {
    "uniform": uniform_instance,
    "correlated": correlated_instance,
    "anti-correlated": anti_correlated_instance,
    "bimodal": bimodal_instance,
    "heavy-tailed": heavy_tailed_instance,
}

#: Unique instances: n in [40, 400] and m in [2, 16], both on a log scale.
#: A block holds N_STRATA size strata per spec; n is skewed toward small
#: instances (so a run holds enough samples for its p99 while the largest
#: still set the tail) and drawn within its stratum, so costs form a smooth
#: distribution without the cliffs a few fixed sizes would put at p50/p99.
N_RANGE = (40, 400)
M_RANGE = (2, 16)
N_STRATA = 12
M_STRATA = 4
N_SKEW = 1.5

ONLINE_SPECS = ("online_greedy", "online_sbo(delta=1.0)")
SESSION_M = (2, 4, 8)
SESSION_TASKS = 256
#: One acknowledged line per window of this many submissions
#: (``submit_windowed``'s default).
ACK_EVERY = 16

#: Instance seeds of the repeat pool are below this; unique seeds above.
_UNIQUE_SEED_BASE = 1 << 40


@dataclass(frozen=True)
class Pair:
    """One one-shot solve request: an instance and a spec string."""

    key: str  # stable label, unique per distinct pair in a run
    instance: Instance
    spec: str


@dataclass(frozen=True)
class SessionPlan:
    """One online session: spec, processor count and arrivals in order."""

    key: str
    spec: str
    m: int
    tasks: tuple


def repeat_pool(seed: int) -> List[Pair]:
    """The 40-pair pool of ``serve-repeat`` (and the repeats of ``cluster-mixed``)."""
    suite = workload_suite(60, 4, seed=seed * 5)
    return [
        Pair(f"pool:{family}:{spec}", inst, spec)
        for family, inst in suite.items()
        for spec in SPECS
    ]


def repeat_stream(seed: int, stream: str = "main") -> Iterator[Pair]:
    """Endless draws from the pool: seeded shuffles of the whole pool."""
    pool = repeat_pool(seed)
    rng = random.Random(f"repeat:{seed}:{stream}")
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def unique_stream(seed: int, stream: str = "main") -> Iterator[Pair]:
    """Endless fresh instances in balanced blocks.

    Every block holds each (size stratum, spec) cell once; the m stratum
    and the family rotate with the cell and block index, so the mix of
    sizes, specs, processor counts and families is the same for every
    seed.  The seed decides the order within a block, the point within
    each stratum and the task values.  ``stream`` names an independent
    sub-stream (the timed run, the warm-up and the traced ladder each take
    their own), disjoint from the others and from the repeat pool.
    """
    rng = random.Random(f"unique:{seed}:{stream}")
    base = _UNIQUE_SEED_BASE + rng.randrange(1 << 32) * (1 << 20)
    families = list(FAMILIES)
    cells = [(k, spec) for k in range(N_STRATA) for spec in SPECS]
    index = itertools.count()
    for block in itertools.count():
        plan = []
        for c, (k, spec) in enumerate(cells):
            x = ((k + rng.random()) / N_STRATA) ** N_SKEW
            y = ((c + block) % M_STRATA + rng.random()) / M_STRATA
            n = round(N_RANGE[0] * (N_RANGE[1] / N_RANGE[0]) ** x)
            m = round(M_RANGE[0] * (M_RANGE[1] / M_RANGE[0]) ** y)
            plan.append((n, m, spec, families[(c + 2 * block) % len(families)]))
        rng.shuffle(plan)
        for n, m, spec, family in plan:
            i = next(index)
            inst = FAMILIES[family](n, m, seed=base + i)
            yield Pair(f"u:{stream}:{i}:{family}:{n}x{m}", inst, spec)


def mixed_stream(seed: int, stream: str = "main") -> Iterator[Pair]:
    """``cluster-mixed`` solves: two repeats to three unique instances.

    Not an even split: with exactly half fast router-cache hits, the median
    would sit on the gap between the two latency modes and jump between
    them from run to run.
    """
    repeats = repeat_stream(seed, stream)
    uniques = unique_stream(seed, stream)
    while True:
        for source in (repeats, uniques, repeats, uniques, uniques):
            yield next(source)


def session_stream(seed: int, stream: str = "main") -> Iterator[SessionPlan]:
    """Endless online sessions alternating the two online specs."""
    rng = random.Random(f"session:{seed}:{stream}")
    for i in itertools.count():
        m = SESSION_M[i % len(SESSION_M)]
        trace = stochastic_trace(SESSION_TASKS, m, seed=rng.randrange(1 << 31))
        tasks = tuple(event.task for event in trace.events)
        yield SessionPlan(f"s:{stream}:{i}", ONLINE_SPECS[i % len(ONLINE_SPECS)], m, tasks)


def solve_stream(workload: str, seed: int, stream: str = "main") -> Iterator[Pair]:
    """The one-shot request stream of a workload (``stream`` names a sub-stream)."""
    if workload == "serve-repeat":
        return repeat_stream(seed, stream)
    if workload == "serve-unique":
        return unique_stream(seed, stream)
    if workload == "cluster-mixed":
        return mixed_stream(seed, stream)
    raise ValueError(f"unknown workload {workload!r}")


def check_disjoint(seed: int, pairs: Iterable[Pair]) -> List[str]:
    """Problems with the held-out property of the pairs a run sent.

    Unique instances must be distinct from each other and from every
    repeat-pool instance (compared by content hash).
    """
    pool_hashes = {p.instance.content_hash() for p in repeat_pool(seed)}
    seen: Dict[str, str] = {}
    problems = []
    for pair in pairs:
        if not pair.key.startswith("u:"):
            continue
        digest = pair.instance.content_hash()
        if digest in pool_hashes:
            problems.append(f"{pair.key}: unique instance equals a repeat-pool instance")
        if seen.setdefault(digest, pair.key) != pair.key:
            problems.append(f"{pair.key}: same instance as {seen[digest]}")
    return problems


def take(stream: Iterator, count: int) -> list:
    return list(itertools.islice(stream, count))

