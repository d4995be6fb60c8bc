"""On-disk result cache, one file per entry.

Byte layout of a cache file:

    bytes 0..7    magic b"NHCACHE1"
    bytes 8..11   big-endian section count (always 2)
    per section   8-byte big-endian length, then the raw bytes
    trailer       32-byte SHA-256 digest of everything before it

Section 0 is the canonical key JSON (schema version, package version,
computation kind, parameters), section 1 the payload JSON.  File name is
the SHA-256 hex of the key, so an entry another release wrote is a miss.
A corrupt or mismatched file reads as a miss and is overwritten on the
next store, never returned.  A store writes a temporary file in the
cache directory and renames it over the entry, so a reader finds the old
entry or the new one, never part of one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from . import __version__

MAGIC = b"NHCACHE1"
SCHEMA_VERSION = 1

__all__ = ["Cache", "SCHEMA_VERSION", "canonical_json"]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Cache:
    """Content-checksummed store keyed by (schema version, package version, kind, parameters)."""

    def __init__(self, directory: str | Path, enabled: bool = True) -> None:
        self.directory = Path(directory)
        self.enabled = enabled

    def _key(self, kind: str, params) -> bytes:
        return canonical_json(
            {"schema_version": SCHEMA_VERSION, "version": __version__, "kind": kind, "params": params}
        ).encode("utf-8")

    def _path(self, key: bytes) -> Path:
        return self.directory / (hashlib.sha256(key).hexdigest() + ".nhc")

    def get(self, kind: str, params):
        if not self.enabled:
            return None
        key = self._key(kind, params)
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            if len(blob) < len(MAGIC) + 4 + 32 or not blob.startswith(MAGIC):
                return None
            body, digest = blob[:-32], blob[-32:]
            if hashlib.sha256(body).digest() != digest:
                return None
            if int.from_bytes(body[8:12], "big") != 2:
                return None
            sections = []
            pos = 12
            for _ in range(2):
                size = int.from_bytes(body[pos : pos + 8], "big")
                pos += 8
                sections.append(body[pos : pos + size])
                pos += size
            if pos != len(body) or sections[0] != key:
                return None
            return json.loads(sections[1].decode("utf-8"))
        except (ValueError, IndexError, RecursionError):  # RecursionError: a payload nested too deeply
            return None

    def put(self, kind: str, params, payload) -> None:
        if not self.enabled:
            return
        key = self._key(kind, params)
        payload_bytes = canonical_json(payload).encode("utf-8")
        body = MAGIC + (2).to_bytes(4, "big")
        for section in (key, payload_bytes):
            body += len(section).to_bytes(8, "big") + section
        self.directory.mkdir(parents=True, exist_ok=True)
        import tempfile  # here, so that a process that only reads the cache does not load it

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body + hashlib.sha256(body).digest())
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise
