"""On-disk result cache, one file per entry.

Each cache file is one record:

    bytes 0..7    magic b"NHCACHE2"
    bytes 8..39   SHA-256 digest of the body
    bytes 40..    body: the canonical key JSON, one b"\\n", the payload JSON

The key JSON holds the schema version, package version, computation kind
and parameters.  Canonical JSON escapes every newline inside a string, so
the body's first newline is the one that ends the key.  File name is the
SHA-256 hex of the key, so an entry another release wrote is a miss.  A
corrupt or mismatched file (a wrong magic, a wrong digest, no separator,
another key, or a payload that does not decode) reads as a miss and is
overwritten on the next store, never returned; so is a file in an older
layout.  A store writes a temporary file in the cache directory and
renames it over the entry, so a reader finds the old entry or the new
one, never part of one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from . import __version__

MAGIC = b"NHCACHE2"
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
        try:
            blob = self._path(key).read_bytes()
        except OSError:
            return None
        header, body = blob[: len(MAGIC) + 32], blob[len(MAGIC) + 32 :]
        if header != MAGIC + hashlib.sha256(body).digest():
            return None
        stored_key, _, payload = body.partition(b"\n")
        if stored_key != key:  # with no newline, stored_key is the whole body
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError):  # RecursionError: a payload nested too deeply
            return None

    def put(self, kind: str, params, payload) -> None:
        if not self.enabled:
            return
        key = self._key(kind, params)
        body = key + b"\n" + canonical_json(payload).encode("utf-8")
        self.directory.mkdir(parents=True, exist_ok=True)
        import tempfile  # here, so that a process that only reads the cache does not load it

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC + hashlib.sha256(body).digest() + body)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise
