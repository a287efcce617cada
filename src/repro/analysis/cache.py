"""On-disk cache for incremental repro-lint runs (``.repro-lint-cache/``).

Two layers, both keyed on content hashes (never on mtimes):

**Layer A — full-tree report cache** (``tree.json``). Key = analyzer
version + spec hash + every module's (relpath, sha256). On a hit the
driver reconstructs the complete report from the stored payload without
parsing a single file — this is what makes a warm no-change run ≥5× faster
than cold, and trivially byte-identical in findings.

**Layer B — per-module contribution cache** (``modules.pkl``). For each
module: a *dependency-closure key* (own hash + sorted hashes of every
module transitively reachable through its imports + the spec hash) and the
pickled :class:`~.taint.Contribution` of each of its functions. On a
partial hit the driver seeds the taint engine with the contributions of
unchanged modules and runs the worklist only over the changed cone.

Corruption handling: any unreadable/mismatched cache file is treated as a
cold cache, never an error — the cache is an accelerator, not a data store.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

#: Bump on any change to the analyzer's semantics or cache layout: a stale
#: cache from an older analyzer must never satisfy a newer run. v2 adds
#: per-function protocol/lockset facts next to each module's Contributions.
#: v3: the volume taint domain changes what Contributions record (len()
#: retainting, widened sink params), so v2 summaries are unusable.
#: v4: report flows carry their function's ``def`` line.
CACHE_VERSION = 4

DEFAULT_CACHE_DIRNAME = ".repro-lint-cache"


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_key(
    analyzer_version: str,
    spec_hash: str,
    module_hashes: Iterable[Tuple[str, str]],
) -> str:
    h = hashlib.sha256()
    h.update(f"v{CACHE_VERSION}|{analyzer_version}|{spec_hash}".encode())
    for name, digest in sorted(module_hashes):
        h.update(f"|{name}={digest}".encode())
    return h.hexdigest()


def closure_key(
    analyzer_version: str,
    spec_hash: str,
    closure_hashes: Iterable[Tuple[str, str]],
) -> str:
    """Key for one module: hashes of its whole import closure (incl. self)."""
    return tree_key(analyzer_version, spec_hash, closure_hashes)


class LintCache:
    """Filesystem wrapper around the two cache layers."""

    def __init__(self, cache_dir) -> None:
        self.dir = Path(cache_dir)
        self.tree_path = self.dir / "tree.json"
        self.modules_path = self.dir / "modules.pkl"

    # -- Layer A -----------------------------------------------------------

    def load_tree(self, key: str) -> Optional[Dict]:
        """The cached report payload, iff it was stored under ``key``."""
        try:
            raw = json.loads(self.tree_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(raw, dict)
            or raw.get("version") != CACHE_VERSION
            or raw.get("key") != key
        ):
            return None
        payload = raw.get("payload")
        return payload if isinstance(payload, dict) else None

    def store_tree(self, key: str, payload: Dict) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {"version": CACHE_VERSION, "key": key, "payload": payload}
        )
        self.tree_path.write_text(body, encoding="utf-8")

    # -- Layer B -----------------------------------------------------------

    def load_modules(self, spec_hash: str) -> Dict[str, Dict]:
        """modname -> {"key": closure key, "functions": {qual: Contribution}}."""
        try:
            with open(self.modules_path, "rb") as fh:
                raw = pickle.load(fh)
        except Exception:
            # Pickle from a different interpreter/layout, truncated file,
            # missing file — all equivalent to a cold cache.
            return {}
        if (
            not isinstance(raw, dict)
            or raw.get("version") != CACHE_VERSION
            or raw.get("spec_hash") != spec_hash
        ):
            return {}
        modules = raw.get("modules")
        return modules if isinstance(modules, dict) else {}

    def store_modules(self, spec_hash: str, modules: Dict[str, Dict]) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.modules_path, "wb") as fh:
            pickle.dump(
                {
                    "version": CACHE_VERSION,
                    "spec_hash": spec_hash,
                    "modules": modules,
                },
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
