"""Content-addressed on-disk result cache for sweep jobs.

A job's cache key is the SHA-256 of a canonical JSON rendering of its
target spec and kwargs, salted with a code-version string — so a second
run of the same figure, or a different figure sharing design points
with a first, resolves instantly, while a version bump (or an explicit
``SWORDFISH_CODE_SALT``) invalidates everything at once.

Values are stored with :mod:`pickle` (results are small dataclasses /
row dicts), sharded two-hex-chars deep, and written atomically so a
killed worker never leaves a truncated entry behind.  Each entry
carries a SHA-256 checksum of its pickled record, verified on
:meth:`ResultCache.lookup`: an entry that was truncated or bit-flipped
on disk is *quarantined* (moved aside for post-mortem) and reported as
a miss, so silent corruption is recomputed instead of unpickled into
results.  Stale temp files from crashed writers are swept on cache
construction and on :meth:`ResultCache.clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Iterator

__all__ = ["canonical_json", "default_salt", "job_key", "ResultCache"]

#: On-disk entry format; bumped with the checksum envelope.
ENTRY_FORMAT = 2

#: Subdirectory corrupt entries are moved into (outside the ``*/*.pkl``
#: namespace, so they never count as live entries again).
QUARANTINE_DIR = "quarantine"


def _jsonable(value: Any) -> Any:
    """Reduce a kwargs value to canonical JSON-compatible data."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for cache hashing; "
        f"job kwargs must be plain data, dataclasses, or have to_dict()")


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def default_salt() -> str:
    """Code-version salt: ``SWORDFISH_CODE_SALT`` or the package version."""
    salt = os.environ.get("SWORDFISH_CODE_SALT")
    if salt:
        return salt
    from .. import __version__
    return f"repro-{__version__}"


def _strip_backend(kwargs: Any) -> Any:
    """Drop backend selection from rendered kwargs.

    The ``vmm_backend`` knob (top-level kwarg or inside a rendered
    config dict) names a bitwise-identical execution path, so explicit
    ``loop`` vs ``batched`` vs unset all share one cache entry.  The
    preference is still resolved here: a garbage value — including one
    set through ``SWORDFISH_VMM_BACKEND`` — fails at key-computation
    time, before any work is scheduled.
    """
    from ..crossbar.engine import resolve_backend

    preference = None
    if isinstance(kwargs, dict):
        preference = kwargs.pop("vmm_backend", None)
        for rendered in kwargs.values():
            if isinstance(rendered, dict) and "vmm_backend" in rendered:
                nested = rendered.pop("vmm_backend")
                if preference is None:
                    preference = nested
    resolve_backend(preference)
    return kwargs


def job_key(job, salt: str | None = None) -> str:
    """Content address of one job (stable across processes and runs).

    The payload carries the code-version ``salt`` and the job spec,
    minus any backend selection (see :func:`_strip_backend`).
    """
    if getattr(job, "key", None):
        return job.key
    payload = canonical_json({
        "fn": job.fn,
        "kwargs": _strip_backend(_jsonable(job.kwargs)),
        "salt": salt if salt is not None else default_salt(),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-level sharded pickle store keyed by content address."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        self.stale_tmp_removed = self._sweep_stale_tmp()

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory.joinpath(QUARANTINE_DIR)

    # ------------------------------------------------------------------
    # Hygiene
    # ------------------------------------------------------------------
    def _sweep_stale_tmp(self) -> int:
        """Remove temp files abandoned by crashed writers."""
        removed = 0
        for tmp in self.directory.glob("*/*.tmp.*"):
            tmp.unlink(missing_ok=True)
            removed += 1
        return removed

    def _quarantine(self, path: Path, reason: str) -> tuple[bool, None]:
        """Move a corrupt entry aside; always reports a miss."""
        quarantine = self.quarantine_dir
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / f"{path.stem}.{os.getpid()}.bad"
        try:
            path.replace(target)
            target.with_suffix(".why").write_text(reason + "\n",
                                                  encoding="utf-8")
        except OSError:
            path.unlink(missing_ok=True)
        self.quarantined += 1
        return False, None

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)``; corrupt entries are quarantined misses."""
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                blob = pickle.load(fh)
        except FileNotFoundError:
            return False, None
        # Arbitrarily corrupted bytes can make the unpickler raise almost
        # anything (ValueError, UnicodeDecodeError, struct.error, ...);
        # every such failure is quarantined, never propagated.
        except Exception as exc:
            return self._quarantine(path, f"unreadable envelope: {exc!r}")
        if not isinstance(blob, dict):
            return self._quarantine(path, f"unexpected envelope type "
                                          f"{type(blob).__name__}")
        if blob.get("format") == ENTRY_FORMAT:
            payload = blob.get("payload")
            if not isinstance(payload, bytes):
                return self._quarantine(path, "missing payload")
            digest = hashlib.sha256(payload).hexdigest()
            if digest != blob.get("checksum"):
                return self._quarantine(path, "checksum mismatch")
            try:
                record = pickle.loads(payload)
            except Exception as exc:
                return self._quarantine(path, f"payload unpickle: {exc!r}")
            if not isinstance(record, dict):
                return self._quarantine(path, "payload is not a record")
            return True, record.get("value")
        if "value" in blob:  # legacy v1 entry (no checksum)
            return True, blob.get("value")
        return self._quarantine(path, "unrecognized entry format")

    def get(self, key: str) -> Any:
        hit, value = self.lookup(key)
        if not hit:
            raise KeyError(key)
        return value

    def put(self, key: str, value: Any, meta: dict | None = None) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"key": key, "value": value, "meta": meta or {},
                  # swd-ok: SWD008 -- wall-clock provenance stamp, not a duration
                  "saved_at": time.time()}
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        blob = {"format": ENTRY_FORMAT,
                "checksum": hashlib.sha256(payload).hexdigest(),
                "payload": payload}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(blob, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        for path in sorted(self.directory.glob("*/*.pkl")):
            if path.parent.name != QUARANTINE_DIR:
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry (and hygiene debris); returns entry count."""
        removed = 0
        for path in self.directory.glob("*/*.pkl"):
            if path.parent.name == QUARANTINE_DIR:
                path.unlink(missing_ok=True)
                continue
            path.unlink(missing_ok=True)
            removed += 1
        self._sweep_stale_tmp()
        quarantine = self.quarantine_dir
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                path.unlink(missing_ok=True)
        return removed
