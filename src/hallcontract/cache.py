"""Content-addressed disk cache for orbit tables.

Keys are descriptive strings (graph hash, field, dimension vector); the file
name is the sha256 of the key, so renaming inputs can never alias. Writes go
through a temp file and os.replace, so a crashed run leaves no torn entries.
The directory comes from $HALL_CACHE_DIR, default ./.hallcache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


class OrbitCache:
    def __init__(self, directory: str | None = None):
        if directory is None:
            directory = os.environ.get("HALL_CACHE_DIR", os.path.join(".", ".hallcache"))
        self.directory = directory

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def load(self, key: str):
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        return payload.get("value")

    def store(self, key: str, value) -> None:
        os.makedirs(self.directory, exist_ok=True)
        blob = json.dumps({"key": key, "value": value}, sort_keys=True,
                          separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def entries(self) -> list[dict]:
        """Key and size of every cached entry, sorted by key."""
        if not os.path.isdir(self.directory):
            return []
        out = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                out.append({"key": payload.get("key", "?"),
                            "bytes": os.path.getsize(path)})
            except (json.JSONDecodeError, OSError, AttributeError):
                out.append({"key": f"(unreadable: {name})", "bytes": 0})
        out.sort(key=lambda item: item["key"])
        return out

    def purge(self) -> int:
        """Remove every cache file; returns how many were deleted."""
        if not os.path.isdir(self.directory):
            return 0
        removed = 0
        for name in os.listdir(self.directory):
            if name.endswith(".json") or name.endswith(".tmp"):
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        return removed
