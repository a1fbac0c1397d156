import json
import os
import re

import numpy as np
import pytest
from conftest import json_form

from handsynth.config import from_json
from handsynth.output import (
    TOOL_VERSION,
    DataError,
    DatasetManifest,
    RecordingEntry,
    frame_path,
    read_frame,
    read_manifest,
    recording_dir,
    slice_by_ratio,
    write_frame,
    write_manifest,
)
from handsynth.render import Frame
from handsynth.scene import CameraKind, CameraSpec, SensorParams, gesture_anchor, preset_camera
from handsynth.skeleton import default_rig
from handsynth.variation import VariantParams


def _entry(gesture="swipe_right", variant=0, camera="depth0", frames=40):
    return RecordingEntry(
        gesture_label=gesture,
        variant_index=variant,
        camera_id=camera,
        kind="depth",
        frame_dir=recording_dir(camera, gesture, variant),
        frame_count=frames,
        fps=30.0,
        resolution=(320, 240),
        label_span=(10, frames - 11),
        variant_params=VariantParams.neutral(variant_index=variant, seed=variant * 7 + 1),
        seed=variant * 7 + 1,
        warnings={"ik_clamps": 0, "arc_clamps": 0},
    )


def test_depth16_round_trip(tmp_path, rng):
    pixels = rng.integers(0, 65536, size=(24, 32), dtype=np.uint16)
    frame = Frame(kind="depth16", pixels=pixels, frame_index=0, camera_id="d")
    path = str(tmp_path / "f.pgm")
    write_frame(frame, path)
    back = read_frame(path)
    assert back.dtype == np.uint16
    assert np.array_equal(back, pixels)


def test_rgb8_round_trip_and_header(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(240, 320, 3), dtype=np.uint8)
    frame = Frame(kind="rgb8", pixels=pixels, frame_index=0, camera_id="c")
    path = str(tmp_path / "f.ppm")
    write_frame(frame, path)
    raw = open(path, "rb").read()
    header = b"P6\n320 240\n255\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 320 * 240 * 3
    assert np.array_equal(read_frame(path), pixels)


def test_all_invalid_depth_writes_zero_samples(tmp_path):
    pixels = np.zeros((16, 16), dtype=np.uint16)
    path = str(tmp_path / "z.pgm")
    write_frame(Frame(kind="depth16", pixels=pixels, frame_index=0, camera_id="d"), path)
    raw = open(path, "rb").read()
    body = raw.split(b"\n65535\n", 1)[1]
    assert body == b"\x00" * (16 * 16 * 2)


def test_pgm_big_endian_sample_order(tmp_path):
    pixels = np.array([[0x1234]], dtype=np.uint16)
    path = str(tmp_path / "be.pgm")
    write_frame(Frame(kind="depth16", pixels=pixels, frame_index=0, camera_id="d"), path)
    raw = open(path, "rb").read()
    assert raw.endswith(b"\x12\x34")


def _read_bytes(tmp_path, raw):
    path = tmp_path / "f.ppm"
    path.write_bytes(raw)
    return read_frame(str(path))


# a 2x1 PPM whose pixels begin with a space and a newline byte, which a
# header reader must not take for whitespace
_PIXELS = bytes([0x20, 0x0A, 0x0A, 0x20, 0x00, 0xFF])


@pytest.mark.parametrize(
    "header",
    [
        b"P6\n2 1\n255\n",  # as write_frame writes it
        b"P6\n# written by hand\n2 1\n# maxval next\n255\n",
        b"P6 # magic\n2 1 # width and height\n255\n",
        b"P6\t2\t1\t255\t",
        b"P6\r\n2 1\r\n255\n",
        b"P6  \r\n\t2 \t 1\r\n\r\n255 ",
    ],
    ids=["plain", "comment_lines", "trailing_comments", "tabs", "crlf", "mixed_runs"],
)
def test_netpbm_header_forms_give_the_same_pixels(tmp_path, header):
    """Comments, tabs and CR/LF runs between the header's tokens all read
    the same pixels; exactly one whitespace byte follows the maxval, so a
    first pixel byte of 0x20 or 0x0A is a pixel, not whitespace."""
    got = _read_bytes(tmp_path, header + _PIXELS)
    assert got.dtype == np.uint8 and got.shape == (1, 2, 3)
    assert got.tobytes() == _PIXELS


def test_netpbm_header_newline_pixels_in_16_bit(tmp_path):
    got = _read_bytes(tmp_path, b"P5\n1 1\n65535\n\x0a\x20")
    assert got.dtype == np.uint16 and got.tolist() == [[0x0A20]]


@pytest.mark.parametrize(
    "raw",
    [b"", b"P6", b"P6\n2 1", b"P6\n2 1\n", b"P6\n# only a comment\n2"],
    ids=["empty", "magic", "size", "size_newline", "comment"],
)
def test_truncated_netpbm_header_is_a_data_error(tmp_path, raw):
    path = tmp_path / "f.ppm"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=re.escape(f"{path}: unreadable frame: truncated netpbm header")):
        read_frame(str(path))


def test_manifest_round_trip(tmp_path):
    entries = tuple(_entry(g, v) for g in ("swipe_right", "peace_sign") for v in range(3))
    manifest = DatasetManifest(config_digest="ab" * 32, entries=entries)
    path = str(tmp_path / "manifest.json")
    write_manifest(manifest, path)
    back = read_manifest(path)
    assert back == manifest
    # canonical: sorted keys
    data = open(path).read()
    parsed = json.loads(data)
    assert list(parsed) == sorted(parsed)


@pytest.mark.parametrize(
    "version, message",
    [
        (None, "malformed manifest: tool_version: required key is missing"),
        ("handsynth-9", "malformed manifest: tool_version: written by 'handsynth-9', this is 'handsynth-0.1.0'"),
    ],
    ids=["missing", "other"],
)
def test_manifest_of_another_version_is_refused(tmp_path, version, message):
    path = tmp_path / "manifest.json"
    write_manifest(DatasetManifest(config_digest="ab" * 32, entries=(_entry(),)), str(path))
    doc = json.loads(path.read_text())
    assert doc["tool_version"] == TOOL_VERSION
    if version is None:
        del doc["tool_version"]
    else:
        doc["tool_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        read_manifest(str(path))


def test_entry_and_manifest_read_back_from_their_json_form():
    cameras = (
        preset_camera("top", "ir0", CameraKind.INFRARED, gesture_anchor(default_rig()), resolution=(64, 48)),
        CameraSpec("d1", position=(1.0, 2.5, -80.0), sensor=SensorParams(depth_jitter=2, flipbook_tile_px=32)),
    )
    entry = _entry("peace_sign", 2)
    manifest = DatasetManifest(config_digest="cd" * 32, entries=(entry, _entry()), cameras=cameras)
    assert from_json(json_form(entry), RecordingEntry) == entry
    assert from_json(json_form(manifest), DatasetManifest) == manifest


def test_failed_manifest_write_leaves_no_manifest(tmp_path, monkeypatch):
    """A write that fails halfway (a full disk) leaves neither a truncated
    manifest.json nor a temporary file."""
    import builtins
    import errno

    import handsynth.output as output

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(output, "open", full_disk_open, raising=False)
    manifest = DatasetManifest(config_digest="ab" * 32, entries=(_entry(),))
    with pytest.raises(OSError, match="No space left"):
        write_manifest(manifest, str(tmp_path / "manifest.json"))
    assert os.listdir(tmp_path) == []


def test_manifest_duplicate_refused(tmp_path):
    entries = (_entry(variant=1), _entry(variant=1))
    manifest = DatasetManifest(config_digest="00" * 32, entries=entries)
    with pytest.raises(ValueError, match="duplicate"):
        write_manifest(manifest, str(tmp_path / "m.json"))


def test_manifest_label_span_validated(tmp_path):
    bad = RecordingEntry(
        gesture_label="g",
        variant_index=0,
        camera_id="c",
        kind="depth",
        frame_dir="c/g/0",
        frame_count=10,
        fps=30.0,
        resolution=(32, 32),
        label_span=(5, 10),  # last == frame_count: out of range
        variant_params=VariantParams.neutral(),
        seed=1,
    )
    with pytest.raises(ValueError, match="label_span"):
        write_manifest(DatasetManifest(config_digest="0", entries=(bad,)), str(tmp_path / "m.json"))


def test_slice_by_ratio_published_counts():
    entries = [_entry(g, v) for g in ("a", "b", "c") for v in range(100)]
    for ratio, expected in [(25, 8), (50, 16), (100, 33), (200, 66)]:
        out = slice_by_ratio(entries, ratio, base_count=33)
        per_gesture = {}
        for e in out:
            per_gesture.setdefault(e.gesture_label, set()).add(e.variant_index)
        assert all(len(v) == expected for v in per_gesture.values())
        # first variants by index
        assert all(max(v) == expected - 1 for v in per_gesture.values())


def test_slice_by_ratio_insufficient_variants():
    entries = [_entry("a", v) for v in range(10)]
    with pytest.raises(ValueError, match="only 10 exist"):
        slice_by_ratio(entries, 200, base_count=33)
    with pytest.raises(ValueError, match="positive"):
        slice_by_ratio(entries, 0, base_count=33)


def test_frame_path_layout():
    assert recording_dir("depth0", "swipe_up", 12) == os.path.join("depth0", "swipe_up", "12")
    assert frame_path("depth0/swipe_up/12", 3, "depth16").endswith("frame_00003.pgm")
    assert frame_path("rgb0/peace_sign/0", 0, "rgb8").endswith("frame_00000.ppm")
