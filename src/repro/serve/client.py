"""Blocking socket client for the basecalling service.

Thread-friendly: the load generator and the test suite run one
:class:`ServeClient` per worker thread.  Requests may be pipelined —
:meth:`submit` several reads, then :meth:`recv` responses, which the
server guarantees arrive in submission order per connection.

Single-shot requests (:meth:`basecall`, :meth:`ping`, :meth:`metrics`)
can transparently retry with deterministic backoff when constructed
with ``retries > 0``: a reset connection or a ``draining`` refusal
(server shutting down / rolling restart) reconnects and re-sends the
request up to ``retries`` extra times.  The first connect retries on
the same schedule.  Retries are deliberately *not*
applied to the pipelined primitives (:meth:`submit` / :meth:`recv` /
:meth:`submit_chunked`) — replaying part of a pipeline would reorder
or duplicate in-flight requests, which the caller cannot observe.
"""

from __future__ import annotations

import json
import socket
import struct
import time

import numpy as np

from .protocol import encode

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(RuntimeError):
    """Lost or misbehaving server connection."""


class ServeClient:
    """One NDJSON connection to a :class:`~repro.serve.BasecallServer`.

    Parameters
    ----------
    retries:
        Extra attempts for the first connect and for single-shot
        requests after a connection reset or a ``draining`` response
        (default 0 — fail fast).
    retry_backoff:
        Base delay before retry *n*: ``retry_backoff * 2**(n-1)``
        seconds.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 retries: int = 0, retry_backoff: float = 0.25):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = max(int(retries), 0)
        self.retry_backoff = max(float(retry_backoff), 0.0)
        self._sock: socket.socket | None = None
        self._file = None
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                self._backoff(attempt - 1)
            try:
                self._connect()
                break
            except ServeClientError:
                if attempt > self.retries:
                    raise

    def _backoff(self, retry: int) -> None:
        """Sleep before retry ``retry``: ``retry_backoff * 2**(retry-1)``."""
        delay = self.retry_backoff * (2 ** (retry - 1))
        if delay:
            time.sleep(delay)

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        except OSError as exc:
            self._sock = None
            raise ServeClientError(
                f"cannot connect to {self.host}:{self.port}: "
                f"{exc}") from exc
        self._file = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        self.close()
        self._connect()

    # ------------------------------------------------------------------
    # Raw protocol
    # ------------------------------------------------------------------
    def send(self, payload: dict) -> None:
        if self._sock is None:
            raise ServeClientError("client is closed")
        try:
            self._sock.sendall(encode(payload))
        except OSError as exc:
            raise ServeClientError(f"send failed: {exc}") from exc

    def recv(self) -> dict:
        if self._file is None:
            raise ServeClientError("client is closed")
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ServeClientError(f"recv failed: {exc}") from exc
        if not line:
            raise ServeClientError("server closed the connection")
        return json.loads(line)

    def _roundtrip(self, payload: dict) -> dict:
        """One single-shot request with bounded reconnect-and-retry.

        Retryable outcomes: a :class:`ServeClientError` (reset /
        dropped connection) and a ``draining`` error response.  Other
        error responses are returned to the caller untouched — they
        describe the request, and re-sending it would not help.
        """
        last_error: ServeClientError | None = None
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                self._backoff(attempt - 1)
                try:
                    self._reconnect()
                except ServeClientError as exc:
                    last_error = exc
                    continue
            try:
                self.send(payload)
                response = self.recv()
            except ServeClientError as exc:
                last_error = exc
                continue
            error = response.get("error")
            if (response.get("status") == "error"
                    and isinstance(error, dict)
                    and error.get("code") == "draining"
                    and attempt <= self.retries):
                last_error = ServeClientError("server is draining")
                continue
            return response
        raise ServeClientError(
            f"request failed after {self.retries + 1} attempt(s): "
            f"{last_error}") from last_error

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def submit(self, read_id: str, signal: np.ndarray) -> None:
        """Send one complete read without waiting for its response."""
        self.send({"op": "basecall", "id": read_id,
                   "signal": np.asarray(signal, dtype=float).tolist()})

    def submit_chunked(self, read_id: str, signal: np.ndarray,
                       chunk_samples: int = 512) -> None:
        """Stream one read as ``chunk`` messages (final one flagged)."""
        signal = np.asarray(signal, dtype=float)
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be >= 1")
        pieces = [signal[i:i + chunk_samples]
                  for i in range(0, max(len(signal), 1), chunk_samples)]
        for i, piece in enumerate(pieces):
            self.send({"op": "chunk", "id": read_id,
                       "signal": piece.tolist(),
                       "last": i == len(pieces) - 1})

    def basecall(self, read_id: str, signal: np.ndarray) -> dict:
        """Submit one read and block for its response."""
        return self._roundtrip(
            {"op": "basecall", "id": read_id,
             "signal": np.asarray(signal, dtype=float).tolist()})

    def ping(self) -> dict:
        return self._roundtrip({"op": "ping"})

    def metrics(self) -> str:
        """Scrape the server's Prometheus metrics over the socket."""
        response = self._roundtrip({"op": "metrics"})
        return response.get("metrics", "")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
        finally:
            if self._sock is not None:
                self._sock.close()
            self._file = None
            self._sock = None

    def abort(self) -> None:
        """Hard-drop the connection (RST), as a crashing client would."""
        if self._sock is None:
            return
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                              struct.pack("ii", 1, 0))
        self._sock.close()
        self._file = None
        self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
