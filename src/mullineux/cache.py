"""Content-checked on-disk cache for the counts payload of `verify`.

Purely an optimization: entries are keyed by the generating command's
parameters, written atomically (temp file in the same directory, then
rename), and checksum-verified on read.  Anything unreadable, malformed or
stale is a miss that the caller regenerates, so the directory is always safe
to delete.  The location comes from MULLINEUX_CACHE_DIR, defaulting to
.mullineux-cache/ in the working directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

ENV_VAR = "MULLINEUX_CACHE_DIR"
DEFAULT_DIR = ".mullineux-cache"
# Leads every entry's file name; bump it whenever a payload's format or the
# code that builds it changes, so that entries from older code are misses.
SCHEMA_VERSION = "v1"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Cache:
    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(ENV_VAR) or DEFAULT_DIR
        self.root = Path(root)

    def _path(self, key: tuple) -> Path:
        slug = "-".join(str(part) for part in (SCHEMA_VERSION, *key))
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in slug)
        return self.root / f"{safe}.json"

    def get(self, key: tuple) -> str | None:
        try:
            blob = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        payload = blob.get("payload") if isinstance(blob, dict) else None
        if not isinstance(payload, str):
            return None
        if blob.get("key") != [str(part) for part in key]:
            return None
        if blob.get("sha256") != _digest(payload):
            return None
        return payload

    def put(self, key: tuple, payload: str) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        blob = {"key": [str(part) for part in key],
                "sha256": _digest(payload),
                "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(blob, handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
