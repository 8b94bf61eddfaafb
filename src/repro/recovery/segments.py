"""The on-disk checkpoint format: manifest plus fingerprinted segments.

A checkpoint is a directory:

    MANIFEST.json        format name/version, job identity, segment index
    <name>.seg           one pickle blob per segment

Every segment's bytes are content-fingerprinted
(:func:`repro.common.hashing.fingerprint_bytes`) at write time; the digest
lives in the manifest, and every read re-hashes the bytes before
unpickling.  A mismatch raises :class:`~repro.common.errors.CorruptionError`
— a truncated or bit-flipped checkpoint can never be silently applied.
Structural problems (missing files, unknown format, version skew) raise
:class:`~repro.common.errors.CheckpointError` instead.

Alias-sensitive state must live inside one segment: pickle preserves
object identity only within a single blob, and the engine's state graph
(tree memo entries aliasing distributed-cache copies, map-memo partitions
aliasing tree leaves) depends on that identity.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any

from repro.common.errors import CheckpointError, CorruptionError
from repro.common.hashing import fingerprint_bytes

FORMAT_NAME = "slider-checkpoint"
#: 2: the uids inside are of uid encoding 2 (``repro.common.hashing``).  Memo
#: keys are hashes of hashes, so version 1 is refused, not converted.
#: 3: a partition pickles as its two fields through
#: ``repro.core.partition._unpickle_partition``, and a tree as its
#: ``state()``.  Uids are those of version 2.
#: 4: a partition whose uid was never made pickles it as ``None``; the
#: restore sweep makes it.  A version 3 checkpoint is a version 4 one whose
#: every uid was made, so both are read; no older version is.
FORMAT_VERSION = 4
#: The versions this build reads.
READABLE_VERSIONS = (3, 4)
#: Why each older version is refused, for the skew message.
_REFUSED = {
    1: "a version 1 checkpoint holds fingerprints of uid encoding 1, which "
    "nothing computes any more",
    2: "a version 2 checkpoint pickled its partitions as slot state, without "
    "the two-field constructor, and no older version has a reader",
}
MANIFEST_FILE = "MANIFEST.json"
#: Pinned so checkpoints written by one interpreter restore on another.
PICKLE_PROTOCOL = 4


def write_segments(
    path: str | Path, segments: dict[str, Any], meta: dict[str, Any]
) -> Path:
    """Serialize ``segments`` under ``path`` and write the manifest.

    ``meta`` is embedded verbatim in the manifest (job identity, run
    index, ...).  Returns the checkpoint directory path.
    """
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(
            f"cannot create checkpoint directory {root}: {exc}"
        ) from exc
    index: dict[str, Any] = {}
    for name, payload in segments.items():
        try:
            blob = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"segment {name!r} is not picklable: {exc!r} — checkpoints "
                "capture engine state only; jobs (which carry user "
                "functions) are re-supplied at restore time"
            ) from exc
        filename = f"{name}.seg"
        (root / filename).write_bytes(blob)
        index[name] = {
            "file": filename,
            "digest": fingerprint_bytes(blob),
            "bytes": len(blob),
        }
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta,
        "segments": index,
    }
    (root / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return root


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load and structurally validate a checkpoint manifest."""
    root = Path(path)
    manifest_path = root / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(
            f"no checkpoint at {root}: {MANIFEST_FILE} is missing "
            "(was the directory written by Slider.checkpoint?)"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise CheckpointError(
            f"unreadable checkpoint manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest "
            f"(a JSON {type(manifest).__name__}, not an object)"
        )
    if manifest.get("format") != FORMAT_NAME:
        raise CheckpointError(
            f"{manifest_path} is not a {FORMAT_NAME} "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version not in READABLE_VERSIONS:
        reason = _REFUSED.get(version, "it was written by another build")
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported: this build "
            f"reads versions 3 and 4 only ({reason}) -- re-run from the "
            "stream"
        )
    if not isinstance(manifest.get("segments"), dict):
        raise CheckpointError(f"{manifest_path} has no segment index")
    if not isinstance(manifest.get("meta"), dict):
        raise CheckpointError(f"{manifest_path} has no meta object")
    return manifest


def read_segment(
    path: str | Path, manifest: dict[str, Any], name: str
) -> Any:
    """Verify one segment's fingerprint and unpickle it."""
    root = Path(path)
    entry = manifest["segments"].get(name)
    if entry is None:
        raise CheckpointError(
            f"checkpoint {root} has no segment {name!r} "
            f"(has: {sorted(manifest['segments'])})"
        )
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("file"), str)
        and isinstance(entry.get("digest"), str)
    ):
        raise CheckpointError(
            f"checkpoint {root} has a malformed index entry for segment "
            f"{name!r} (a file and a digest, both strings, expected; "
            f"got {entry!r})"
        )
    segment_path = root / entry["file"]
    if not segment_path.exists():
        raise CheckpointError(
            f"checkpoint segment file {segment_path} is missing"
        )
    blob = segment_path.read_bytes()
    digest = fingerprint_bytes(blob)
    if digest != entry["digest"]:
        raise CorruptionError(
            f"checkpoint segment {name!r} failed fingerprint verification "
            f"(expected {entry['digest']}, got {digest}); the file was "
            "modified or truncated after the checkpoint was written — "
            "refusing to restore from corrupt state"
        )
    try:
        return pickle.loads(blob)
    except Exception as exc:  # digest matched, so this is a format bug
        raise CheckpointError(
            f"checkpoint segment {name!r} failed to unpickle: {exc!r}"
        ) from exc
