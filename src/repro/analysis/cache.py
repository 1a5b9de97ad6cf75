"""mtime-keyed per-file result cache for incremental linting.

``make lint`` runs on every push and before every commit; re-parsing
~200 files to re-derive facts that have not changed is wasted time.  The
cache stores, per file, the local findings *and* the cross-module
:class:`~repro.analysis.project.ModuleSummary`, keyed on the file's
``(mtime_ns, size)``.  A warm re-run after a one-file edit re-analyzes
exactly that file; the project-level rules then replay over the cached
summaries (cheap pure-python dictionaries, no ASTs), so interprocedural
findings stay correct even when the *other* end of a call edge is the
file that changed.

The whole cache is invalidated automatically when the linter itself
changes: the key includes a signature over the rule names and the
``repro.analysis`` package's own file stats.  The manifest is one JSON
file (default ``.lint-cache/lint-cache.json``), written atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import Finding, Rule

__all__ = ["LintCache", "rules_signature"]

CACHE_SCHEMA_VERSION = 2
_MANIFEST_NAME = "lint-cache.json"


def rules_signature(rules: Sequence[Rule]) -> str:
    """Hash identifying the rule set *and* the analyzer implementation.

    Any edit to a module in ``repro.analysis`` -- including the
    ``concurrency/`` subpackage, hence the recursive walk -- bumps the
    signature via the package files' stats, so a stale cache can never
    mask a behavior change in the linter itself.
    """
    digest = hashlib.sha256()
    digest.update(str(CACHE_SCHEMA_VERSION).encode())
    for name in sorted(rule.name for rule in rules):
        digest.update(name.encode())
        digest.update(b"\x00")
    package_dir = os.path.dirname(os.path.abspath(__file__))
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(
            d for d in dirs if d != "__pycache__" and not d.startswith(".")
        )
        for entry in sorted(files):
            if not entry.endswith(".py"):
                continue
            full = os.path.join(root, entry)
            try:
                stat = os.stat(full)
            except OSError:
                continue
            rel = os.path.relpath(full, package_dir)
            digest.update(f"{rel}:{stat.st_mtime_ns}:{stat.st_size}".encode())
    return digest.hexdigest()


class LintCache:
    """One manifest of per-file lint results, keyed by file stats."""

    def __init__(self, cache_dir: str, signature: str):
        self.cache_dir = cache_dir
        self.signature = signature
        self.manifest_path = os.path.join(cache_dir, _MANIFEST_NAME)
        self.hits = 0
        self.misses = 0
        self._files: Dict[str, Dict[str, object]] = {}
        #: one cached cross-module result: {"key": ..., "findings": [...]}
        self._project: Optional[Dict[str, object]] = None
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return
        if (
            data.get("schema") != CACHE_SCHEMA_VERSION
            or data.get("signature") != self.signature
        ):
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = files
        project = data.get("project")
        if isinstance(project, dict):
            self._project = project

    @staticmethod
    def _key(path: str) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return stat.st_mtime_ns, stat.st_size

    def lookup(
        self, path: str
    ) -> Optional[Tuple[List[Finding], Optional[Dict[str, object]]]]:
        """Cached (findings, summary dict) when the file is unchanged."""
        abspath = os.path.abspath(path)
        entry = self._files.get(abspath)
        key = self._key(abspath)
        if (
            entry is None
            or key is None
            or entry.get("mtime_ns") != key[0]
            or entry.get("size") != key[1]
        ):
            self.misses += 1
            return None
        self.hits += 1
        findings = [
            Finding(
                path=f["path"],
                line=f["line"],
                col=f["col"],
                rule=f["rule"],
                message=f["message"],
            )
            for f in entry.get("findings", [])
        ]
        return findings, entry.get("summary")

    def store(
        self,
        path: str,
        findings: Sequence[Finding],
        summary: Optional[Dict[str, object]],
    ) -> None:
        abspath = os.path.abspath(path)
        key = self._key(abspath)
        if key is None:
            return
        self._files[abspath] = {
            "mtime_ns": key[0],
            "size": key[1],
            "findings": [f.to_dict() for f in findings],
            "summary": summary,
        }
        self._dirty = True

    @staticmethod
    def project_key(stats: Sequence[Tuple[str, int, int]]) -> str:
        """Hash of every analyzed file's ``(path, mtime_ns, size)``.

        When nothing under the analyzed roots changed, the cross-module
        pass (symbol resolution, dataflow, the concurrency fixpoints) would
        recompute exactly the same findings -- so a warm run replays
        them from the manifest instead.
        """
        digest = hashlib.sha256()
        for path, mtime_ns, size in sorted(stats):
            digest.update(f"{path}:{mtime_ns}:{size}".encode())
        return digest.hexdigest()

    def lookup_project(self, key: str) -> Optional[List[Finding]]:
        """Cached cross-module findings for an identical file set."""
        if self._project is None or self._project.get("key") != key:
            return None
        return [
            Finding(
                path=f["path"],
                line=f["line"],
                col=f["col"],
                rule=f["rule"],
                message=f["message"],
            )
            for f in self._project.get("findings", [])
        ]

    def store_project(self, key: str, findings: Sequence[Finding]) -> None:
        self._project = {
            "key": key,
            "findings": [f.to_dict() for f in findings],
        }
        self._dirty = True

    def save(self) -> None:
        """Write the manifest atomically (best-effort on read-only dirs).

        A no-op on fully-warm runs: serializing an unchanged manifest is
        the single most expensive step of an incremental run.
        """
        if not self._dirty:
            return
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "signature": self.signature,
            "files": self._files,
            "project": self._project,
        }
        text = json.dumps(payload, separators=(",", ":"))
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, prefix=".lint-cache-", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, self.manifest_path)
        except OSError:
            return
        self._dirty = False
