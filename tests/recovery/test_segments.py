"""Unit tests for the on-disk checkpoint segment format."""

import json

import pytest

from repro.common.errors import CheckpointError, CorruptionError
from repro.common.hashing import fingerprint_bytes
from repro.recovery.segments import (
    FORMAT_VERSION,
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
    assert manifest["version"] == FORMAT_VERSION == 4
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


def test_a_version_3_manifest_is_still_read(tmp_path):
    """Version 4 only lets a uid never made be written as ``None``: a
    version 3 checkpoint is a version 4 one whose every uid was made."""
    _write_saying_version(tmp_path, 3)
    manifest = read_manifest(tmp_path)
    assert manifest["version"] == 3
    assert read_segment(tmp_path, manifest, "state") == 1


def test_foreign_format_raises_checkpoint_error(tmp_path):
    (tmp_path / MANIFEST_FILE).write_text(json.dumps({"format": "other"}))
    with pytest.raises(CheckpointError, match="not a"):
        read_manifest(tmp_path)


def test_unpicklable_segment_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="not picklable"):
        write_segments(tmp_path, {"state": lambda: None}, meta={})


def _rewrite_manifest(path, edit):
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    (path / MANIFEST_FILE).write_text(json.dumps(edit(manifest)))


def _state_entry(value):
    def edit(manifest):
        manifest["segments"]["state"] = value
        return manifest

    return edit


def _without_digest(manifest):
    del manifest["segments"]["state"]["digest"]
    return manifest


#: A manifest that parses as JSON but has the wrong shape, and the message.
MALFORMED = pytest.mark.parametrize(
    "edit,message",
    [
        (lambda manifest: [], "JSON list, not an object"),
        (lambda manifest: "x", "JSON str, not an object"),
        (lambda manifest: 1, "JSON int, not an object"),
        (lambda manifest: None, "JSON NoneType, not an object"),
        (lambda manifest: {**manifest, "meta": None}, "no meta object"),
        (_without_digest, "malformed index entry"),
        (_state_entry("state.seg"), "malformed index entry"),
        (_state_entry(["state.seg"]), "malformed index entry"),
        (_state_entry({"file": 7, "digest": "00"}), "malformed index entry"),
    ],
    ids=[
        "list",
        "string",
        "number",
        "null",
        "meta-null",
        "entry-without-digest",
        "entry-string",
        "entry-list",
        "entry-file-not-string",
    ],
)


@MALFORMED
def test_a_malformed_manifest_raises_checkpoint_error(tmp_path, edit, message):
    """Every structural problem is a ``CheckpointError``, never the
    ``AttributeError`` / ``KeyError`` / ``TypeError`` of a field read off
    the wrong shape."""
    write_segments(tmp_path, {"state": 1}, meta={})
    _rewrite_manifest(tmp_path, edit)
    with pytest.raises(CheckpointError, match=message):
        read_segment(tmp_path, read_manifest(tmp_path), "state")


@pytest.mark.parametrize(
    "content", [b"{not json", b"\xff\xfe\x00"], ids=["not-json", "not-utf8"]
)
def test_an_unparsable_manifest_raises_checkpoint_error(tmp_path, content):
    (tmp_path / MANIFEST_FILE).write_bytes(content)
    with pytest.raises(CheckpointError, match="unreadable"):
        read_manifest(tmp_path)


def test_an_unreadable_manifest_file_raises_checkpoint_error(tmp_path):
    (tmp_path / MANIFEST_FILE).mkdir()  # exists, but read_text fails
    with pytest.raises(CheckpointError, match="unreadable"):
        read_manifest(tmp_path)


def test_a_manifest_without_a_segment_index_raises_checkpoint_error(tmp_path):
    write_segments(tmp_path, {"state": 1}, meta={})
    _rewrite_manifest(tmp_path, lambda manifest: {**manifest, "segments": None})
    with pytest.raises(CheckpointError, match="no segment index"):
        read_manifest(tmp_path)


def test_a_directory_that_cannot_be_made_raises_checkpoint_error(tmp_path):
    (tmp_path / "file").write_text("not a directory")
    with pytest.raises(CheckpointError, match="cannot create"):
        write_segments(tmp_path / "file" / "ckpt", {"state": 1}, meta={})


def test_a_segment_that_fails_to_unpickle_after_its_digest_matched(tmp_path):
    """The digest proves the bytes are what was written; bytes that were
    never a pickle are a format bug, reported as such."""
    write_segments(tmp_path, {"state": 1}, meta={})
    blob = b"not a pickle"
    (tmp_path / "state.seg").write_bytes(blob)
    _rewrite_manifest(
        tmp_path, _state_entry({"file": "state.seg", "digest": fingerprint_bytes(blob)})
    )
    with pytest.raises(CheckpointError, match="failed to unpickle"):
        read_segment(tmp_path, read_manifest(tmp_path), "state")
