"""Result records, canonical JSON and the exact-hash run cache.

Every run is identified by the hash of its full configuration (command,
geometry literals, budgets, seed, schedules).  Identical configuration
means identical bytes out: the canonical JSON form is sorted, separator
fixed and floats are rendered with repr round-tripping.  The cache is
append-only; corrupt records are skipped with a warning, never repaired.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field

from . import __version__

CACHE_ENV = "LOUPE_CACHE_DIR"


class CorruptRecord(UserWarning):
    """A cache file failed to parse or verify; it is skipped."""


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, fixed separators."""
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


@dataclass
class ResultRecord:
    """One completed run: its configuration, payload and provenance."""

    config: dict
    command: str
    payload: dict
    wall_time: float
    version: str = __version__
    config_digest: str = field(default="")

    def __post_init__(self):
        if not self.config_digest:
            self.config_digest = config_hash(self.config)

    def artifact_json(self) -> str:
        """The deterministic result artifact (no wall time, which would
        break byte-identity across reruns)."""
        return canonical_json({
            "command": self.command,
            "config": self.config,
            "result": self.payload,
            "version": self.version,
        }) + "\n"

    def cache_json(self) -> str:
        return canonical_json({
            "command": self.command,
            "config": self.config,
            "config_digest": self.config_digest,
            "result": self.payload,
            "version": self.version,
            "wall_time": self.wall_time,
        }) + "\n"


def cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV) or None


def cache_lookup(config: dict) -> ResultRecord | None:
    """Exact-hash retrieval; never approximate matching."""
    root = cache_dir()
    if root is None:
        return None
    digest = config_hash(config)
    path = os.path.join(root, digest + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if raw["config_digest"] != digest or config_hash(raw["config"]) != digest:
            raise ValueError("digest mismatch")
        return ResultRecord(raw["config"], raw["command"], raw["result"],
                            raw["wall_time"], raw["version"],
                            raw["config_digest"])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        warnings.warn(f"skipping corrupt cache record {path}: {exc}",
                      CorruptRecord)
        return None


def cache_store(record: ResultRecord) -> str | None:
    """Append the record to the cache (one immutable file per hash)."""
    root = cache_dir()
    if root is None:
        return None
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, record.config_digest + ".json")
    if os.path.exists(path):
        return path
    # a unique temp file per writer, so concurrent stores of one config
    # never share a partial file; os.link publishes it atomically and fails
    # if the record exists, so exactly one writer publishes and indexes it
    fd, tmp = tempfile.mkstemp(prefix=record.config_digest + ".",
                               suffix=".tmp", dir=root)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(record.cache_json())
        os.link(tmp, path)
    except FileExistsError:
        return path
    finally:
        os.unlink(tmp)
    with open(os.path.join(root, "index.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(canonical_json({"digest": record.config_digest,
                                 "command": record.command,
                                 "wall_time": record.wall_time}) + "\n")
    return path


def write_csv(path: str, header, rows):
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
