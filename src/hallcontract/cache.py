"""Content-addressed disk cache for orbit tables.

Keys are descriptive strings (graph hash, field, dimension vector); the file
name is the sha256 of the key, so renaming inputs can never alias. Writes go
through a temp file and os.replace, so a crashed run leaves no torn entries.
The directory comes from $HALL_CACHE_DIR, default ./.hallcache; listing and
purging touch only the names the cache owns, so other files there are
left alone. An entry
that cannot be read is a miss; a cache that cannot be written raises
FileError. read_json is the one reader of JSON files from outside the
program, cached entries and command-line inputs alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import tempfile


class FileError(Exception):
    """A file from outside the program that cannot be read or written: the
    message names the path and the reason."""


def read_json(path: str):
    """The JSON value in the file at path, read as UTF-8. A file that cannot
    be opened (missing, a directory, under a path that is not a directory),
    is not UTF-8, is not JSON or nests too deep to parse raises FileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except ValueError as exc:
        reason = f"not UTF-8 JSON: {exc}"
    except RecursionError:
        reason = "JSON nested too deep to parse"
    raise FileError(f"cannot read {path}: {reason}")


#: mkstemp prefix and suffix of the temp file store() writes an entry to
#: before renaming it into place.
_TEMP_PREFIX, _TEMP_SUFFIX = "hallcache-", ".tmp"
#: The names the cache owns: its entries, <sha256 hex>.json (the "entry"
#: group), and its temp files. entries() and purge() touch no other file.
_OWNED = re.compile(r"(?P<entry>[0-9a-f]{64}\.json)|" + re.escape(_TEMP_PREFIX)
                    + r"\w+" + re.escape(_TEMP_SUFFIX))


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
            payload = read_json(self._path(key))
        except FileError:
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        return payload.get("value")

    def store(self, key: str, value) -> None:
        """Write the entry; an OSError (the directory is a file, a directory
        sits at the entry's path, ...) raises FileError."""
        blob = json.dumps({"key": key, "value": value}, sort_keys=True,
                          separators=(",", ":"))
        tmp = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=_TEMP_PREFIX,
                                        suffix=_TEMP_SUFFIX)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError as exc:
            raise FileError(f"cannot write the cache {self.directory}: "
                            f"{exc.strerror or exc}") from None
        finally:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

    def entries(self) -> list[dict]:
        """Key and size of every cached entry, sorted by key."""
        if not os.path.isdir(self.directory):
            return []
        out = []
        for name in sorted(os.listdir(self.directory)):
            owned = _OWNED.fullmatch(name)
            if not (owned and owned["entry"]):
                continue
            path = os.path.join(self.directory, name)
            try:
                payload = read_json(path)
            except FileError:
                payload = None
            key = payload.get("key", "?") if isinstance(payload, dict) else None
            if isinstance(key, str):
                out.append({"key": key, "bytes": os.path.getsize(path)})
            else:
                out.append({"key": f"(unreadable: {name})", "bytes": 0})
        out.sort(key=lambda item: item["key"])
        return out

    def purge(self) -> int:
        """Remove every regular file the cache owns (an entry or a temp
        file); returns how many were deleted."""
        if not os.path.isdir(self.directory):
            return 0
        removed = 0
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if _OWNED.fullmatch(name) and os.path.isfile(path):
                os.unlink(path)
                removed += 1
        return removed
