"""Server process lifecycle: spawn, first ping, tree RSS and teardown.

A server is started as ``python -m repro serve|cluster --port 0`` in a
session of its own.  A cluster's shards put themselves into further
process groups, so teardown does not rely on one group: it walks the
process tree through ``/proc`` (parent links), asks the server to shut
down, then SIGKILLs every process of the tree that is still there and
waits until each one is gone.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.service.client import ServiceClient

_BANNER = re.compile(rb"listening on [\w.\-]+:(\d+)")
SPAWN_TIMEOUT = 60.0
EXIT_TIMEOUT = 15.0


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[1].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def process_tree(root: int) -> List[int]:
    """``root`` and all its live descendants."""
    children = _children_map()
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def tree_hwm_mb(root: int) -> float:
    """Peak resident set (VmHWM) summed over the process tree, in MB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One spawned ``repro serve`` / ``repro cluster`` process tree."""

    def __init__(self, argv: List[str], src: Path, log: Path) -> None:
        self.argv = argv
        self.src = src
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = float("nan")
        self._drain: Optional[asyncio.Future] = None

    async def start(self) -> None:
        """Spawn, read the banner, answer one ``ping``; times all of it."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.argv],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.PIPE,
                env=env, start_new_session=True,
            )
        self.port = await asyncio.wait_for(self._banner(), SPAWN_TIMEOUT)
        client = await ServiceClient.connect("127.0.0.1", self.port)
        try:
            await client.ping()
        finally:
            await client.close()
        self.setup_s = time.perf_counter() - started

    async def _banner(self) -> int:
        assert self.proc is not None and self.proc.stderr is not None
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, self.proc.stderr.readline)
            if not line:
                raise RuntimeError(f"server exited before listening: {self.argv}")
            match = _BANNER.search(line)
            if match:
                # Keep draining stderr so the server can never block on it.
                self._drain = loop.run_in_executor(None, self._drain_stderr)
                return int(match.group(1))

    def _drain_stderr(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        stderr = self.proc.stderr
        try:
            with open(self.log, "ab") as log:
                for line in stderr:
                    log.write(line)
        finally:
            stderr.close()

    def rss_mb(self) -> float:
        return tree_hwm_mb(self.proc.pid) if self.proc is not None else 0.0

    async def stop(self) -> None:
        """Graceful ``shutdown``, then SIGKILL whatever of the tree is left."""
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)
        if self.proc.poll() is None and self.port:
            try:
                client = await asyncio.wait_for(
                    ServiceClient.connect("127.0.0.1", self.port), 5.0)
                try:
                    await asyncio.wait_for(client.shutdown(), 5.0)
                finally:
                    await client.close()
            except (OSError, ConnectionError, asyncio.TimeoutError, RuntimeError):
                pass
        await asyncio.get_running_loop().run_in_executor(None, self._reap, tree)
        if self._drain is not None:
            await self._drain
        elif self.proc.stderr is not None:
            self.proc.stderr.close()
        self.proc = None

    def _reap(self, tree: List[int]) -> None:
        """Wait for the tree to exit; kill stragglers; return when all are gone."""
        assert self.proc is not None
        try:
            self.proc.wait(EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        kill_tree(tree + process_tree(self.proc.pid))
        self.proc.wait()
        wait_gone(tree)


def wait_gone(pids: List[int]) -> None:
    """Wait until every process of ``pids`` has exited, reaping our own children."""
    deadline = time.monotonic() + EXIT_TIMEOUT
    while True:
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        if not any(_alive(pid) for pid in pids) or time.monotonic() > deadline:
            return
        time.sleep(0.02)


def kill_tree(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
