"""Dataset persistence: frame files and the reproducibility manifest.

Frames go to disk as binary netpbm images (16-bit big-endian PGM for
depth, PPM for RGB / infrared) under
``<out>/<camera_id>/<gesture>/<variant_index>/frame_%05d.{pgm,ppm}``.
The manifest is canonical JSON (sorted keys) listing one entry per
recording with the full sampled parameters, seeds and warning counters.
It is the JSON form of ``DatasetManifest``: ``dataclasses.asdict``
written by ``config.canonical_json``, and read back by the recipe's
strict reader, ``config.from_json``, so a malformed manifest is refused
with the path of the field at fault (``entries[3].resolution``).  Its
``config_digest`` identifies the generation recipe, not the output
directory, and every ``frame_dir`` is relative to the manifest's
directory, so a dataset does not depend on where it was written.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import canonical_json, from_json
from .render import Frame
from .scene import CameraSpec
from .variation import VariantParams

TOOL_VERSION = "handsynth-0.1.0"

MANIFEST_NAME = "manifest.json"

_KIND_EXT = {"depth16": "pgm", "rgb8": "ppm", "ir8": "ppm"}

# netpbm layout of each frame kind: magic, maxval, sample type, samples per pixel
_NETPBM = {
    "depth16": ("P5", 65535, ">u2", 1),
    "rgb8": ("P6", 255, "u1", 3),
    "ir8": ("P6", 255, "u1", 3),
}


class DataError(ValueError):
    """A dataset file (frame or manifest) that cannot be read as written;
    the message names the file."""


def frame_extension(kind: str) -> str:
    return _KIND_EXT[kind]


def _netpbm_header(kind: str, w: int, h: int) -> bytes:
    magic, maxval, _, _ = _NETPBM[kind]
    return f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii")


def frame_file_bytes(kind: str, resolution: tuple[int, int]) -> int:
    """Size of the file write_frame writes for one frame of this kind."""
    w, h = resolution
    _, _, sample, channels = _NETPBM[kind]
    return len(_netpbm_header(kind, w, h)) + w * h * channels * np.dtype(sample).itemsize


def write_frame(frame: Frame, path: str) -> None:
    """Binary PGM (16-bit, big-endian sample order) or PPM, bit-exact
    round-trip with read_frame."""
    if frame.kind not in _NETPBM:
        raise ValueError(f"unknown frame kind {frame.kind!r}")
    h, w = frame.pixels.shape[:2]
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(_netpbm_header(frame.kind, w, h))
            fh.write(np.ascontiguousarray(frame.pixels, dtype=_NETPBM[frame.kind][2]))
    except OSError as exc:
        raise OSError(f"writing frame {path}: {exc}") from exc


def read_frame(path: str) -> np.ndarray:
    """Pixel array from a PGM/PPM written by write_frame."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise OSError(f"reading frame {path}: {exc}") from exc
    try:
        return _parse_netpbm(data)
    except ValueError as exc:
        raise DataError(f"{path}: unreadable frame: {exc}") from None


# a netpbm header: magic, width, height and maxval, separated by runs of
# whitespace and ``#`` comment lines, and the single whitespace byte before
# the pixels
_HEADER = re.compile(rb"(P\d)(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)\s")


def _parse_netpbm(data: bytes) -> np.ndarray:
    header = _HEADER.match(data)
    if header is None:
        raise ValueError("truncated netpbm header: no magic, width, height and maxval")
    magic, (w, h, maxval) = header.group(1), map(int, header.group(2, 3, 4))
    body = data[header.end() :]
    if magic == b"P5" and maxval == 65535:
        pixels = np.frombuffer(body, dtype=">u2", count=w * h).reshape(h, w)
        return pixels.astype(np.uint16)
    if magic == b"P6" and maxval == 255:
        pixels = np.frombuffer(body, dtype=np.uint8, count=w * h * 3).reshape(h, w, 3)
        return pixels.copy()
    raise ValueError(f"unsupported netpbm header {magic!r} maxval {maxval}")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordingEntry:
    gesture_label: str
    variant_index: int
    camera_id: str
    kind: str  # rgb | depth | infrared
    frame_dir: str  # relative to the manifest's directory
    frame_count: int
    fps: float
    resolution: tuple[int, int]
    label_span: tuple[int, int]  # inclusive frame indices of the labeled gesture
    variant_params: VariantParams
    seed: int
    warnings: dict[str, int] = field(default_factory=dict)

    def key(self) -> tuple[str, int, str]:
        return (self.gesture_label, self.variant_index, self.camera_id)


@dataclass(frozen=True)
class DatasetManifest:
    config_digest: str
    entries: tuple[RecordingEntry, ...]
    cameras: tuple[CameraSpec, ...] = ()
    tool_version: str = TOOL_VERSION

    def validate(self) -> None:
        keys = [e.key() for e in self.entries]
        if len(set(keys)) != len(keys):
            seen = set()
            for k in keys:
                if k in seen:
                    raise ValueError(f"duplicate manifest entry {k}")
                seen.add(k)
        for e in self.entries:
            first, last = e.label_span
            if not (0 <= first <= last < e.frame_count):
                raise ValueError(
                    f"entry {e.key()}: label_span {e.label_span} outside [0, {e.frame_count})"
                )

    def camera(self, camera_id: str) -> CameraSpec:
        for cam in self.cameras:
            if cam.camera_id == camera_id:
                return cam
        raise KeyError(f"camera {camera_id!r} not in manifest")


def recording_dir(camera_id: str, gesture: str, variant_index: int) -> str:
    return os.path.join(camera_id, gesture, str(variant_index))


def frame_path(frame_dir: str, index: int, kind: str) -> str:
    return os.path.join(frame_dir, f"frame_{index:05d}.{frame_extension(kind)}")


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    """Write the manifest atomically: a temporary file in the same
    directory, then a rename, so a manifest on disk is always complete."""
    manifest.validate()
    payload = canonical_json(asdict(manifest))
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"writing manifest {path}: {exc}") from exc


def read_manifest(path: str) -> DatasetManifest:
    """The manifest at ``path``, read strictly.  It must name the version
    that wrote it, and that must be this one, ``TOOL_VERSION``: the
    dataclass default fills a missing ``tool_version``, so it is checked
    before the reader runs.  Raises DataError naming the file and the
    field at fault."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"reading manifest {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: invalid manifest JSON: {exc}") from None
    try:
        if isinstance(data, dict) and "tool_version" not in data:
            raise ValueError("tool_version: required key is missing")
        manifest = from_json(data, DatasetManifest)
        if manifest.tool_version != TOOL_VERSION:
            raise ValueError(f"tool_version: written by {manifest.tool_version!r}, this is {TOOL_VERSION!r}")
        manifest.validate()
    except ValueError as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from None
    return manifest


def slice_by_ratio(
    entries: list[RecordingEntry] | tuple[RecordingEntry, ...],
    ratio: float,
    base_count: int,
) -> list[RecordingEntry]:
    """Per gesture, the first floor(ratio * base_count / 100) variants.

    Reproduces the published sweep: 25/50/100/200 percent of a 33-variant
    base gives 8/16/33/66 variants per gesture.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    want = int(ratio * base_count / 100.0)
    by_gesture: dict[str, list[RecordingEntry]] = {}
    for entry in entries:
        by_gesture.setdefault(entry.gesture_label, []).append(entry)
    out: list[RecordingEntry] = []
    for gesture in sorted(by_gesture):
        group = sorted(by_gesture[gesture], key=lambda e: (e.variant_index, e.camera_id))
        variant_indices = sorted({e.variant_index for e in group})
        if want > len(variant_indices):
            raise ValueError(
                f"gesture {gesture!r}: ratio {ratio}% of base {base_count} needs "
                f"{want} variants but only {len(variant_indices)} exist"
            )
        keep = set(variant_indices[:want])
        out.extend(e for e in group if e.variant_index in keep)
    return out
