"""Unit tests for the on-disk checkpoint segment format."""

import json

import pytest

from repro.common.errors import CheckpointError, CorruptionError
from repro.recovery.segments import (
    MANIFEST_FILE,
    read_manifest,
    read_segment,
    write_segments,
)


def test_round_trip(tmp_path):
    segments = {"numbers": [1, 2, 3], "state": {"key": (4.0, "x")}}
    write_segments(tmp_path / "ckpt", segments, meta={"job": "j"})
    manifest = read_manifest(tmp_path / "ckpt")
    assert manifest["meta"] == {"job": "j"}
    assert read_segment(tmp_path / "ckpt", manifest, "numbers") == [1, 2, 3]
    assert read_segment(tmp_path / "ckpt", manifest, "state") == {
        "key": (4.0, "x")
    }


def test_segment_preserves_aliasing(tmp_path):
    shared = {"v": 1}
    write_segments(tmp_path, {"state": {"a": shared, "b": shared}}, meta={})
    state = read_segment(tmp_path, read_manifest(tmp_path), "state")
    assert state["a"] is state["b"]


def test_tampered_segment_raises_corruption_error(tmp_path):
    write_segments(tmp_path, {"state": list(range(100))}, meta={})
    blob = (tmp_path / "state.seg").read_bytes()
    (tmp_path / "state.seg").write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(CorruptionError, match="fingerprint"):
        read_segment(tmp_path, read_manifest(tmp_path), "state")


def test_truncated_segment_raises_corruption_error(tmp_path):
    write_segments(tmp_path, {"state": list(range(100))}, meta={})
    blob = (tmp_path / "state.seg").read_bytes()
    (tmp_path / "state.seg").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptionError):
        read_segment(tmp_path, read_manifest(tmp_path), "state")


def test_missing_manifest_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="missing"):
        read_manifest(tmp_path / "nowhere")


def test_missing_segment_raises_checkpoint_error(tmp_path):
    write_segments(tmp_path, {"state": 1}, meta={})
    manifest = read_manifest(tmp_path)
    with pytest.raises(CheckpointError, match="no segment"):
        read_segment(tmp_path, manifest, "stream")
    (tmp_path / "state.seg").unlink()
    with pytest.raises(CheckpointError, match="missing"):
        read_segment(tmp_path, manifest, "state")


def _write_saying_version(path, version):
    write_segments(path, {"state": 1}, meta={})
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    assert manifest["version"] == 3
    manifest["version"] = version
    (path / MANIFEST_FILE).write_text(json.dumps(manifest))


def test_version_skew_raises_checkpoint_error(tmp_path):
    _write_saying_version(tmp_path, 99)
    with pytest.raises(CheckpointError, match="version"):
        read_manifest(tmp_path)


#: Each older version, and the reason its refusal gives.
OLD_VERSIONS = pytest.mark.parametrize(
    "version,reason",
    [(1, "uid encoding 1"), (2, "without the two-field constructor")],
    ids=["1", "2"],
)


@OLD_VERSIONS
def test_an_old_checkpoint_is_refused_with_its_reason(tmp_path, version, reason):
    # Version 1 held uids of encoding 1, version 2 partitions pickled as
    # slot state; there is no reader for either.
    _write_saying_version(tmp_path, version)
    with pytest.raises(CheckpointError, match=f"{reason}.*re-run from the stream"):
        read_manifest(tmp_path)


def test_foreign_format_raises_checkpoint_error(tmp_path):
    (tmp_path / MANIFEST_FILE).write_text(json.dumps({"format": "other"}))
    with pytest.raises(CheckpointError, match="not a"):
        read_manifest(tmp_path)


def test_unpicklable_segment_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="not picklable"):
        write_segments(tmp_path, {"state": lambda: None}, meta={})
