"""What generation holds in memory, measured with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, and the sizes of a
deterministic render are deterministic, so a peak is a fixed number for a
fixed input.  The bounds below are measured peaks with a small margin.
"""

import json
import tracemalloc
from dataclasses import replace

import pytest

from handsynth import pipeline, render
from handsynth.config import parse_config_full
from handsynth.scene import CameraKind, SensorParams, gesture_anchor, preset_camera, static_scene
from handsynth.skeleton import default_rig


def _peak_bytes(fn, *args):
    """Peak of the memory ``fn(*args)`` allocates, what it returns included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Measured: 30.1 MB (wheel) to 31.3 MB (top).  The base it keeps, depth, tag,
# normal rows and changed mask, and the background take 11.4 MB of that.
# Before the normals and shading were chunked the peak was 48.6 MB.
STATIC_RGB_PEAK_BOUND = 33e6


@pytest.mark.parametrize("preset", ["infotainment", "top", "wheel"])
def test_static_rgb_trace_and_background_peak(preset):
    """The 640x480 RGB static trace and its background, the largest
    whole-frame work of a recording, stay under a fixed bound.  The camera's
    ray grid is cached before the measurement, as every worker has it."""
    rig = default_rig()
    cam = preset_camera(preset, "k", CameraKind.RGB, gesture_anchor(rig), resolution=(640, 480))
    scene = static_scene(rig)
    sp = SensorParams()
    noise = render.make_flipbook(sp, 3)
    render._cached_rays(cam)

    def static_frame():
        base = render.trace_depth(scene, cam)
        return base, render.sensor_background(base, cam, sp, noise, 0)

    assert _peak_bytes(static_frame) < STATIC_RGB_PEAK_BOUND


def test_record_one_peak_does_not_grow_with_the_recording(tmp_path, monkeypatch):
    """A recording is written frame by frame: ``peace_sign`` held for 3 s
    (65 frames at 15 fps) peaks less than two frames above the same gesture
    held for 0.2 s (23 frames).  Held poses repeat, so the two recordings
    differ only in how many identical frames they have."""
    resolution = (160, 120)
    cfg = {
        "output_path": str(tmp_path),
        "recordings_per_gesture": 1,
        "resolution": list(resolution),
        "fps": 15,
        "gestures": ["peace_sign"],
        "cameras": [{"camera_id": "rgb0", "kind": "rgb", "preset": "top"}],
    }
    parsed = parse_config_full(json.dumps(cfg))
    cam = parsed.cameras[0]
    job = (cam, "peace_sign", 0)

    def held_for(seconds):
        script = replace(parsed.scripts["peace_sign"], static_hold_s=seconds)
        return replace(parsed, scripts={**parsed.scripts, "peace_sign": script})

    short, long = held_for(0.2), held_for(3.0)
    assert pipeline._frame_count(long, job) - pipeline._frame_count(short, job) > 2 * 20
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    pipeline._record_one(short, str(tmp_path), job)  # the static trace and ray grid, cached in a worker
    frame_bytes = resolution[0] * resolution[1] * 3
    short_peak = _peak_bytes(pipeline._record_one, short, str(tmp_path), job)
    long_peak = _peak_bytes(pipeline._record_one, long, str(tmp_path), job)
    assert long_peak - short_peak < 2 * frame_bytes
