"""The server under test and a keep-alive HTTP client for it.

:class:`Server` runs ``python -m repro.service --serve`` as a child
process in its own session (so its pool workers can be reaped as a
group), on an ephemeral port, with a fresh cache directory.
:class:`Connection` is one persistent HTTP/1.1 connection; the closed
loop holds two of them.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Server", "Connection", "ServerError"]

_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")

#: Bound on server start-up (interpreter, imports, worker forks).
START_TIMEOUT = 60.0
#: Bound on the graceful drain after SIGTERM before the group is killed.
STOP_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The server failed to start, answer, or stop."""


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        """Connect (64 MiB line limit is irrelevant: bodies are sized)."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        """Send one request and read its full response; ``(status, body)``."""
        if self._writer is None:
            await self.open()
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.split(maxsplit=2)
        if len(parts) < 2:
            raise ServerError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                keep_alive = value.strip().lower() != "close"
        data = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, data

    async def close(self) -> None:
        """Close the connection; idempotent."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class Server:
    """``python -m repro.service --serve`` with a 2-process worker pool."""

    def __init__(self, root: Path, cache_dir: Path, pool_workers: int = 2):
        self.root = root
        self.cache_dir = cache_dir
        self.pool_workers = pool_workers
        self.host = "127.0.0.1"
        self.port = 0
        self._process: Optional[asyncio.subprocess.Process] = None
        self._stderr: List[bytes] = []
        self._stderr_task: Optional[asyncio.Task] = None

    async def start(self) -> "Server":
        """Spawn the server and wait until ``/healthz`` answers 200."""
        env = dict(os.environ)
        source = str(self.root / "src")
        env["PYTHONPATH"] = source + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.service", "--serve",
            "--port", "0",
            "--pool-workers", str(self.pool_workers),
            "--cache-dir", str(self.cache_dir),
            cwd=str(self.root),
            env=env,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            start_new_session=True,
        )
        try:
            await asyncio.wait_for(self._await_listening(), START_TIMEOUT)
            self._stderr_task = asyncio.ensure_future(
                self._drain_stderr(self._process.stderr)
            )
            await asyncio.wait_for(self._await_healthy(), START_TIMEOUT)
        except BaseException:
            await self.stop()
            raise
        return self

    async def _await_listening(self) -> None:
        assert self._process is not None and self._process.stderr is not None
        while True:
            line = await self._process.stderr.readline()
            if not line:
                raise ServerError(
                    "server exited before listening: "
                    + b"".join(self._stderr).decode("utf-8", "replace")[-2000:]
                )
            self._stderr.append(line)
            match = _LISTENING.search(line)
            if match:
                self.host = match.group(1).decode("ascii")
                self.port = int(match.group(2))
                return

    async def _drain_stderr(self, stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            self._stderr.append(line)

    async def _await_healthy(self) -> None:
        while True:
            try:
                status, _ = await self.get("/healthz")
            except (ConnectionError, OSError):
                status = 0
            if status == 200:
                return
            await asyncio.sleep(0.005)

    async def get(self, path: str) -> Tuple[int, bytes]:
        """One GET over a fresh connection."""
        connection = await Connection(self.host, self.port).open()
        try:
            return await connection.request("GET", path)
        finally:
            await connection.close()

    async def stats(self) -> Dict[str, Any]:
        """The pool section of ``/stats``."""
        status, body = await self.get("/stats")
        if status != 200:
            raise ServerError(f"/stats answered HTTP {status}")
        return json.loads(body.decode("utf-8"))["pool"]

    def worker_pids(self) -> List[int]:
        """PIDs of the pool workers: forked children sharing the command line."""
        if self._process is None:
            return []
        pid = self._process.pid
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
            children: List[int] = []
            for task in Path(f"/proc/{pid}/task").iterdir():
                text = (task / "children").read_text()
                children.extend(int(child) for child in text.split())
        except OSError:
            return []
        workers = []
        for child in children:
            try:
                if Path(f"/proc/{child}/cmdline").read_bytes() == command:
                    workers.append(child)
            except OSError:
                continue
        return workers

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` over the pool workers, in MiB."""
        peak_kb = 0
        for pid in self.worker_pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        return peak_kb / 1024.0

    async def stop(self) -> None:
        """SIGTERM, wait for the drain, then kill whatever is left."""
        process, self._process = self._process, None
        if process is None:
            return
        try:
            if process.returncode is None:
                process.send_signal(signal.SIGTERM)
                try:
                    await asyncio.wait_for(process.wait(), STOP_TIMEOUT)
                except asyncio.TimeoutError:
                    pass
        finally:
            # The pool workers share the server's session; anything still
            # alive after the drain (or after a failed start) goes too.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if process.returncode is None:
                await process.wait()
            if self._stderr_task is not None:
                await self._stderr_task
                self._stderr_task = None
            elif process.stderr is not None:
                self._stderr.append(await process.stderr.read())
            _wait_group_gone(process.pid)


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of group ``pgid`` is left (reaped by init)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
