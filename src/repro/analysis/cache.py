"""Incremental analysis cache: skip unchanged files on warm runs.

Entries are keyed by file path and validated by an ``(mtime_ns, size)``
fast path backed by a SHA-256 content hash — touching a file without
changing it stays a cache hit; editing it is always a miss.  The whole
cache is additionally fingerprinted by the registered rule set and an
analysis-version constant, so upgrading the analyzer invalidates
everything at once.

The file format is a single JSON document; a corrupt or incompatible cache
file is treated as empty rather than raised.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

__all__ = ["ANALYSIS_VERSION", "AnalysisCache", "rules_fingerprint"]

#: Bump when diagnostics or summary layout change shape.
ANALYSIS_VERSION = 5


def rules_fingerprint() -> str:
    """Digest of the registered rule ids plus the analysis version."""
    from repro.analysis.core import all_rule_ids

    blob = json.dumps([ANALYSIS_VERSION, sorted(all_rule_ids())])
    return hashlib.sha256(blob.encode()).hexdigest()


class AnalysisCache:
    """On-disk cache mapping file paths to summaries and diagnostics."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.fingerprint = rules_fingerprint()
        self._entries: dict = {}
        self._dirty = False
        if self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
            except (OSError, ValueError):
                payload = {}
            if payload.get("fingerprint") == self.fingerprint:
                self._entries = payload.get("entries", {})

    # ------------------------------------------------------------------
    @staticmethod
    def _digest(path: str) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def lookup(self, path: str):
        """Return ``(entry, digest)``; ``entry`` is None on a cache miss.

        The returned ``digest`` is reused by :meth:`store` so a miss does
        not hash the file twice (and a fast-path hit not at all).
        """
        entry = self._entries.get(path)
        try:
            stat = os.stat(path)
        except OSError:
            return None, None
        if entry is not None:
            if (
                entry.get("mtime_ns") == stat.st_mtime_ns
                and entry.get("size") == stat.st_size
            ):
                return entry, entry.get("sha256")
            digest = self._digest(path)
            if entry.get("sha256") == digest:
                # Content unchanged, stat drifted (e.g. checkout): refresh.
                entry["mtime_ns"] = stat.st_mtime_ns
                entry["size"] = stat.st_size
                self._dirty = True
                return entry, digest
            return None, digest
        return None, None

    def store(self, path: str, digest: Optional[str], payload: dict) -> None:
        """Record ``payload`` for ``path`` (hashing the file if needed)."""
        try:
            stat = os.stat(path)
        except OSError:
            return
        entry = dict(payload)
        entry["sha256"] = digest or self._digest(path)
        entry["mtime_ns"] = stat.st_mtime_ns
        entry["size"] = stat.st_size
        previous = self._entries.get(path)
        if previous != entry:
            self._entries[path] = entry
            self._dirty = True

    def save(self) -> None:
        """Write the cache back to disk if anything changed."""
        if not self._dirty:
            return
        payload = {
            "fingerprint": self.fingerprint,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload))
        self._dirty = False
