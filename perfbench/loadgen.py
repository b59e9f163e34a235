"""Open-loop load generator for ``repro serve`` (stdlib only).

Requests go out on a fixed schedule whatever the server does, over at
most two pipelined connections, so a stalled server builds a queue
instead of slowing the generator down.  Every request is timed from the
moment it was *due*, which charges a stall to every request queued
behind it.  The generator also records how late it ran itself, so a
run where the client (not the server) fell behind can be thrown out.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Request:
    due: float  #: seconds after the schedule starts
    payload: Dict[str, Any]
    sent: Optional[float] = None  #: monotonic send time
    done: Optional[float] = None  #: monotonic reply time
    ok: bool = False
    result: Any = None
    error: Optional[str] = None


@dataclass
class PhaseResult:
    requests: List[Request]
    start: float  #: monotonic time the schedule started
    #: Requests sent but not answered when the last one was sent.
    backlog_at_end: int = 0
    #: Send time minus due time, per request (seconds).
    lateness: List[float] = field(default_factory=list)

    def latencies_ms(self, op: str) -> List[float]:
        return [
            (r.done - (self.start + r.due)) * 1000.0
            for r in self.requests
            if r.payload["op"] == op and r.ok and r.done is not None
        ]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.ok)


async def _request(host: str, port: int, payload: Dict[str, Any],
                   timeout: float) -> Dict[str, Any]:
    """One request on a short-lived connection (warm-up, stats, shutdown)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((json.dumps(dict(payload, id=0)) + "\n").encode())
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def request(host: str, port: int, payload: Dict[str, Any],
            timeout: float = 60.0) -> Dict[str, Any]:
    return asyncio.run(_request(host, port, payload, timeout))


def gather(host: str, port: int, payloads: List[Dict[str, Any]],
           timeout: float = 120.0) -> List[Dict[str, Any]]:
    """Send ``payloads`` concurrently and return the replies in order."""

    async def _all():
        return await asyncio.gather(
            *(_request(host, port, p, timeout) for p in payloads)
        )

    return asyncio.run(_all())


async def _run_phase(host: str, port: int, schedule: List[Tuple[float, Dict]],
                     connections: int, drain_timeout: float) -> PhaseResult:
    loop = asyncio.get_running_loop()
    requests = [Request(due, payload) for due, payload in schedule]
    conns = [await asyncio.open_connection(host, port)
             for _ in range(connections)]
    outstanding: Dict[int, Request] = {}
    all_done = asyncio.Event()
    sending_done = False

    async def _read(reader: asyncio.StreamReader) -> None:
        nonlocal sending_done
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            message = json.loads(line)
            req = outstanding.pop(message.get("id"), None)
            if req is None:
                continue
            req.done = now
            req.ok = bool(message.get("ok"))
            req.result = message.get("result")
            req.error = message.get("error")
            if sending_done and not outstanding:
                all_done.set()

    readers = [asyncio.ensure_future(_read(r)) for r, _ in conns]
    start = loop.time() + 0.05
    phase = PhaseResult(requests, start)
    try:
        for i, req in enumerate(requests):
            delay = start + req.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[i % connections][1]
            outstanding[i] = req
            req.sent = loop.time()
            phase.lateness.append(req.sent - (start + req.due))
            writer.write((json.dumps(dict(req.payload, id=i)) + "\n").encode())
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        for _, writer in conns:
            await writer.drain()
        phase.backlog_at_end = len(outstanding)
        sending_done = True
        if outstanding:
            try:
                await asyncio.wait_for(all_done.wait(), drain_timeout)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    for req in outstanding.values():
        req.error = req.error or "no reply"
    return phase


def run_phase(host: str, port: int, schedule: List[Tuple[float, Dict]],
              connections: int = 2, drain_timeout: float = 60.0) -> PhaseResult:
    """Drive one open-loop phase; ``schedule`` is ``[(due_s, payload)]``
    sorted by due time."""
    return asyncio.run(
        _run_phase(host, port, schedule, connections, drain_timeout)
    )
