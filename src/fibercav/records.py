"""Persistent, tamper-evident run records.

Each analysis run is summarized by a :class:`RunRecord`: what went in
(file paths with content hashes), the full effective configuration, and
the results.  ``record_id`` is a content hash over inputs + config, so
identical runs share an id regardless of when they executed; a second
hash over the whole record (minus itself) makes any later edit of a
stored record detectable on load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParseError, TamperedRecordError, ValidationError

#: Version string embedded in records; the package exports it as ``__version__``.
TOOL_VERSION = "0.1.0"


def _canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace variation."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    """SHA-256 content hash of a file, streamed."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}", path=str(path)) from exc
    return digest.hexdigest()


def compute_record_id(inputs: dict, config_snapshot: dict) -> str:
    """Deterministic id over input hashes + configuration (not timestamps)."""
    return _sha256(_canonical_json({"inputs": inputs, "config": config_snapshot}))


@dataclass(frozen=True)
class RunRecord:
    """One reproducible analysis run.

    Attributes
    ----------
    record_id : str
        SHA-256 over inputs + config; identical runs share it.
    created_at : str
        UTC timestamp (ISO 8601); excluded from ``record_id``.
    inputs : dict
        Mapping of role → {path, sha256} for every ingested file.
    config_snapshot : dict
        Full effective configuration of the run.
    results : dict
        Serialized reports produced by the run.
    tool_version : str
    """

    record_id: str
    created_at: str
    inputs: dict
    config_snapshot: dict
    results: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION

    def __post_init__(self):
        expected = compute_record_id(self.inputs, self.config_snapshot)
        if self.record_id != expected:
            raise ValidationError(
                "record_id does not match its inputs + config",
                expected=expected, stored=self.record_id,
            )

    def as_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "created_at": self.created_at,
            "inputs": self.inputs,
            "config_snapshot": self.config_snapshot,
            "results": self.results,
            "tool_version": self.tool_version,
        }

    @property
    def integrity(self) -> str:
        """Hash over the full record content (everything but itself)."""
        return _sha256(_canonical_json(self.as_dict()))


def make_run_record(
    inputs: dict,
    config_snapshot: dict,
    results: dict,
    created_at: str | None = None,
) -> RunRecord:
    """Assemble a record, computing its id from inputs + config."""
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return RunRecord(
        record_id=compute_record_id(inputs, config_snapshot),
        created_at=created_at,
        inputs=inputs,
        config_snapshot=config_snapshot,
        results=results,
    )


def write_run_record(record: RunRecord, path) -> None:
    """Serialize a record with its integrity hash appended."""
    payload = record.as_dict()
    payload["integrity"] = record.integrity
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_run_record(path) -> RunRecord:
    """Load a record, re-deriving and verifying both hashes.

    Raises
    ------
    TamperedRecordError
        If the stored integrity hash, or the record_id, no longer
        matches the content — i.e. any field was edited after writing.
    ParseError
        If the file is not a well-formed record.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read run record: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: run record is not UTF-8 text: {exc}", path=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}", path=str(path)) from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: record must be a JSON object", path=str(path))
    stored_integrity = payload.pop("integrity", None)
    if stored_integrity is None:
        raise ParseError(f"{path}: record has no integrity hash", path=str(path))
    required = {"record_id", "created_at", "inputs", "config_snapshot", "results"}
    missing = required - payload.keys()
    if missing:
        raise ParseError(f"{path}: record missing fields {sorted(missing)}", path=str(path))
    actual_integrity = _sha256(_canonical_json(payload))
    if actual_integrity != stored_integrity:
        raise TamperedRecordError(
            f"{path}: integrity hash mismatch; the record was modified after writing",
            path=str(path), stored=stored_integrity, computed=actual_integrity,
        )
    expected_id = compute_record_id(payload["inputs"], payload["config_snapshot"])
    if payload["record_id"] != expected_id:
        raise TamperedRecordError(
            f"{path}: record_id mismatch; inputs or config were modified",
            path=str(path), stored=payload["record_id"], computed=expected_id,
        )
    return RunRecord(
        record_id=payload["record_id"],
        created_at=payload["created_at"],
        inputs=payload["inputs"],
        config_snapshot=payload["config_snapshot"],
        results=payload["results"],
        tool_version=payload.get("tool_version", TOOL_VERSION),
    )
