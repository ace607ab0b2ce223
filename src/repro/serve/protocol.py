"""Wire protocol for the basecalling service: newline-delimited JSON.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — the
framing every language can speak from a socket with no dependencies.

Client → server operations (``op`` field):

* ``basecall`` — one complete read: ``{"op": "basecall", "id": "r1",
  "signal": [..floats..]}``.
* ``chunk`` — streamed signal: same fields plus ``"last": bool``; the
  server accumulates chunks per read id and basecalls on the final one.
* ``ping`` — liveness probe, answered immediately.
* ``metrics`` — Prometheus text-format scrape of the server's metrics
  registry, answered immediately.

Server → client responses always carry ``status`` (``"ok"`` /
``"error"``) and echo the read ``id`` when one exists.  Errors are
structured — ``{"status": "error", "id": ..., "error": {"code": ...,
"message": ...}}`` — with codes from :data:`ERROR_CODES` so clients can
dispatch on them without parsing prose.

Validation lives here so the server and tests share one notion of a
well-formed request; violations raise :class:`ProtocolError`, which
renders directly to an error response.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BASE_LETTERS",
    "ERROR_CODES",
    "ProtocolError",
    "ProtocolLimits",
    "Request",
    "check_total_samples",
    "encode",
    "encode_bases",
    "error_response",
    "ok_response",
    "parse_request",
]

#: Base-code (0..3) to letter mapping used in responses.
BASE_LETTERS = "ACGT"

#: Structured error codes a response's ``error.code`` may carry.
ERROR_CODES = (
    "malformed",      # unparseable JSON / wrong types / bad op
    "empty_read",     # zero-length signal after assembly
    "oversized",      # signal exceeds ProtocolLimits.max_signal_samples
    "timeout",        # request exceeded the server's response deadline
    "divergence",     # numeric health guard tripped during the VMM pass
    "draining",       # server is shutting down; request not accepted
    "internal",       # unexpected server-side failure
)

_REQUEST_OPS = ("basecall", "chunk", "ping", "metrics")


@dataclass(frozen=True)
class ProtocolLimits:
    """Bounds a server enforces on every request."""

    #: Longest accepted request line, in bytes (also the reader limit).
    max_line_bytes: int = 8 * 1024 * 1024
    #: Longest accepted signal, in samples (accumulated across chunks).
    max_signal_samples: int = 200_000
    #: Longest accepted read id, in characters.
    max_id_chars: int = 256


class ProtocolError(Exception):
    """A malformed or rejected request, with its structured error code."""

    def __init__(self, code: str, message: str,
                 read_id: str | None = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        self.code = code
        self.read_id = read_id
        super().__init__(message)

    def to_response(self) -> dict:
        return error_response(self.read_id, self.code, str(self))


@dataclass
class Request:
    """One validated client request."""

    op: str
    read_id: str | None = None
    signal: np.ndarray | None = None
    last: bool = True
    extra: dict = field(default_factory=dict)


def encode(obj: dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def encode_bases(codes: np.ndarray) -> str:
    """Base codes ``0..3`` to an ``ACGT`` string."""
    if len(codes) == 0:
        return ""
    return "".join(BASE_LETTERS[c] for c in np.asarray(codes, dtype=np.int64))


def ok_response(read_id: str, *, bases: str, frames: int, cached: bool,
                queue_ms: float, compute_ms: float,
                latency_ms: float) -> dict:
    return {
        "id": read_id,
        "status": "ok",
        "bases": bases,
        "frames": int(frames),
        "cached": bool(cached),
        "queue_ms": round(float(queue_ms), 3),
        "compute_ms": round(float(compute_ms), 3),
        "latency_ms": round(float(latency_ms), 3),
    }


def error_response(read_id: str | None, code: str, message: str) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    return {
        "id": read_id,
        "status": "error",
        "error": {"code": code, "message": message},
    }


def _require_read_id(payload: dict) -> str:
    read_id = payload.get("id")
    if not isinstance(read_id, str) or not read_id:
        raise ProtocolError("malformed", "request needs a non-empty "
                                         "string 'id'")
    return read_id


def _parse_signal(payload: dict, read_id: str,
                  limits: ProtocolLimits) -> np.ndarray:
    raw = payload.get("signal")
    if not isinstance(raw, list):
        raise ProtocolError("malformed", "'signal' must be a list of "
                                         "numbers", read_id)
    if len(raw) > limits.max_signal_samples:
        raise ProtocolError(
            "oversized",
            f"signal has {len(raw)} samples; the server accepts at most "
            f"{limits.max_signal_samples}", read_id)
    try:
        signal = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProtocolError("malformed", "'signal' must contain only "
                                         "numbers", read_id) from None
    if signal.ndim != 1:
        raise ProtocolError("malformed", "'signal' must be flat", read_id)
    if signal.size and not np.all(np.isfinite(signal)):
        raise ProtocolError("malformed", "'signal' contains non-finite "
                                         "samples", read_id)
    return signal


def parse_request(line: bytes | str,
                  limits: ProtocolLimits | None = None) -> Request:
    """Validate one request line; raises :class:`ProtocolError`."""
    limits = limits or ProtocolLimits()
    if isinstance(line, bytes):
        if len(line) > limits.max_line_bytes:
            raise ProtocolError(
                "oversized",
                f"request line exceeds {limits.max_line_bytes} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("malformed",
                                "request line is not UTF-8") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("malformed",
                            f"request is not JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("malformed", "request must be a JSON object")

    op = payload.get("op")
    if op not in _REQUEST_OPS:
        raise ProtocolError(
            "malformed",
            f"unknown op {op!r}; expected one of {list(_REQUEST_OPS)}")
    if op in ("ping", "metrics"):
        return Request(op=op)

    read_id = _require_read_id(payload)
    if len(read_id) > limits.max_id_chars:
        raise ProtocolError(
            "malformed",
            f"read id exceeds {limits.max_id_chars} characters")
    signal = _parse_signal(payload, read_id, limits)

    if op == "basecall":
        return Request(op=op, read_id=read_id, signal=signal)

    last = payload.get("last", False)
    if not isinstance(last, bool):
        raise ProtocolError("malformed", "'last' must be a boolean",
                            read_id)
    return Request(op=op, read_id=read_id, signal=signal, last=last)


def check_total_samples(total: int, read_id: str,
                        limits: ProtocolLimits) -> None:
    """Enforce the signal bound on a chunk-assembled total."""
    if total > limits.max_signal_samples:
        raise ProtocolError(
            "oversized",
            f"assembled signal has {total} samples; the server accepts "
            f"at most {limits.max_signal_samples}", read_id)
