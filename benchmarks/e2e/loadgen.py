"""Open-loop HTTP load generator and the percentile rule it reports by.

One asyncio thread drives a schedule of operations over a fixed number of
keep-alive connections. Operations are released at their due time
whether or not earlier ones have finished; a released operation waits
for a free connection. Each operation is timed from its release, so a
server stall, and the queue it builds behind it, shows up in the latency
of every operation released during it.

The release itself comes a little after the due time: the event loop
wakes on whole-millisecond timer ticks, later when the host delays the
thread. That lateness is the generator's, not the server's, so it is
recorded per operation (``Outcome.late``) instead of being added to the
latency: on a shared 2-vCPU host it was about a millisecond at the
median and set half of a cached answer's measured latency.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Samples a tail percentile needs beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The *q*-quantile of *values* and the sample count behind it.

    A quantile above the median is refused (``ValueError``) unless at
    least :data:`MIN_TAIL_SAMPLES` samples lie beyond it, so a p99 needs
    1000 samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and n * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9:
        need = math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)
        raise ValueError(
            f"p{100 * q:g} needs {need} samples for {MIN_TAIL_SAMPLES} "
            f"beyond it, got {n}"
        )
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)), n


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    """One complete HTTP/1.1 keep-alive request."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Op:
    """One scheduled request: due ``at`` seconds after the phase starts."""

    at: float
    kind: str
    request: bytes


@dataclass
class Outcome:
    """What happened to one :class:`Op` (times in seconds, phase-relative
    except ``late`` and ``latency``). ``late`` is how long after its due
    time the op was released, ``latency`` the time from its release to
    its response."""

    status: int
    body: bytes
    late: float
    sent: float
    done: float
    latency: float


class Connection:
    """One keep-alive client connection speaking the daemon's HTTP subset."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, request: bytes) -> Tuple[int, bytes]:
        self._writer.write(request)
        head = await self._reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


async def _replay(
    port: int, ops: Sequence[Op], connections: int
) -> List[Outcome]:
    loop = asyncio.get_running_loop()
    conns = [await Connection.open(port) for _ in range(connections)]
    queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(ops)
    late = [0.0] * len(ops)
    start = loop.time() + 0.02

    async def dispatch() -> None:
        for i, op in enumerate(ops):
            delay = start + op.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late[i] = loop.time() - (start + op.at)
            queue.put_nowait(i)
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn: Connection) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            sent = loop.time()
            status, body = await conn.send(ops[i].request)
            done = loop.time()
            outcomes[i] = Outcome(
                status, body, late[i], sent - start, done - start,
                done - (start + ops[i].at + late[i]),
            )

    try:
        await asyncio.gather(dispatch(), *(work(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return outcomes  # type: ignore[return-value]


def replay(port: int, ops: Sequence[Op], connections: int) -> List[Outcome]:
    """Run *ops* open loop; returns one outcome per op.

    The collector is off while replaying, so a pause of the generator
    itself never lands in a measured latency.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_replay(port, ops, connections))
    finally:
        gc.enable()


async def _sequential(port: int, requests: Sequence[bytes]):
    conn = await Connection.open(port)
    results = []
    try:
        for request in requests:
            started = time.perf_counter()
            status, body = await conn.send(request)
            results.append((status, body, time.perf_counter() - started))
    finally:
        await conn.close()
    return results


def sequential(port: int,
               requests: Sequence[bytes]) -> List[Tuple[int, bytes, float]]:
    """Send *requests* one after another (closed loop, one connection);
    returns ``(status, body, seconds)`` per request."""
    return asyncio.run(_sequential(port, requests))
