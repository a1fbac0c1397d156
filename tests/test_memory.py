"""What generation holds in memory, measured with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, and the sizes of a
deterministic render are deterministic, so a peak is a fixed number for a
fixed input.  The bounds below are measured peaks with a small margin.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
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


# Measured: 18.5 MB (wheel) to 20.1 MB (top).  The base it returns (depth,
# tag, changed mask, and each changed pixel's primitive and ray parameter)
# and the background take 7.7 MB of that.
STATIC_RGB_PEAK_BOUND = 22e6

# Measured: 8.5 MB.
DYNAMIC_RGB_PEAK_BOUND = 9.5e6

# Measured: 383,568 bytes, the 230,400 of the 8-bit frame and 153,168 of
# the coordinates of 9,573 rim pixels.  The float layers it replaced (colour,
# Fresnel factor and validity per pixel) took 2,534,400.
INFRARED_BACKGROUND_BOUND = 0.45e6

# Measured: 3.2 MB.  Sensing the same frame over the float layers peaked at
# 6.7 MB.
INFRARED_FRAME_PEAK_BOUND = 3.6e6


@pytest.mark.parametrize("preset", ["infotainment", "top", "wheel"])
def test_static_rgb_trace_and_background_peak(preset):
    """The 640x480 RGB static trace and its background, the largest
    whole-frame work of a recording, stay under a fixed bound.  The camera's
    ray grid is cached before the measurement, as every worker has it."""
    rig = default_rig()
    cam = preset_camera(preset, "k", CameraKind.RGB, gesture_anchor(rig), resolution=(640, 480))
    scene = static_scene(rig)
    sp = SensorParams()
    render._cached_rays(cam)

    def static_frame():
        base = render.trace_depth(scene, cam)
        return base, render.sensor_backgrounds(base, cam, sp)

    assert _peak_bytes(static_frame) < STATIC_RGB_PEAK_BOUND


def test_large_window_rgb_frame_peak(monkeypatch):
    """A 640x480 RGB frame whose largest capsule rectangle holds more rays
    than one block, traced and sensed over its window, stays under a fixed
    bound.  The frame is the one of ``swipe_up`` seen from the top with the
    largest capsule rectangle; its static base and background are made
    before the measurement, as every recording of a worker has them."""
    from handsynth.gesture import WarningCounters, builtin_scripts, evaluate_frame
    from handsynth.scene import dynamic_scene
    from handsynth.skeleton import pose_hand
    from handsynth.variation import VariantParams

    rig = default_rig()
    cam = preset_camera("top", "rgb0", CameraKind.RGB, gesture_anchor(rig), resolution=(640, 480), fps=15.0)
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    setup = pipeline._setup_recording(builtin_scripts()["swipe_up"], cam, VariantParams.neutral(), False, True)

    def largest_rect(i):
        wrist, aim, pose = evaluate_frame(setup.timeline, i, WarningCounters())
        rects = render._capsule_screen_bounds(cam, dynamic_scene(pose_hand(setup.rig, wrist, aim, pose)))
        return max((u1 - u0) * (v1 - v0) for u0, u1, v0, v1 in rects)

    frame = max(range(setup.timeline.total_frames), key=largest_rect)
    assert largest_rect(frame) > render.RENDER_CHUNK_PIXELS
    peak = _peak_bytes(pipeline._render_frame, setup, cam, frame, WarningCounters())
    assert peak < DYNAMIC_RGB_PEAK_BOUND


def _infrared_wheel_setup(monkeypatch, gesture):
    from handsynth.gesture import builtin_scripts
    from handsynth.variation import VariantParams

    rig = default_rig()
    cam = preset_camera("wheel", "ir0", CameraKind.INFRARED, gesture_anchor(rig), resolution=(320, 240), fps=15.0)
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    return cam, pipeline._setup_recording(builtin_scripts()[gesture], cam, VariantParams.neutral(), False, True)


def test_infrared_background_is_8_bit_pixels_and_rim_coordinates(monkeypatch):
    """The background every recording of a 320x240 infrared camera shares
    holds the 8-bit frame before the blur and its rim pixels' coordinates."""
    _, setup = _infrared_wheel_setup(monkeypatch, "swipe_up")
    background = setup.backgrounds[0]
    assert background.pixels.dtype == np.uint8 and background.pixels.shape == (240, 320, 3)
    size = background.pixels.nbytes + sum(coords.nbytes for coords in background.rim)
    assert size < INFRARED_BACKGROUND_BOUND


def test_infrared_frame_sensing_peak(monkeypatch):
    """Sensing the frame of ``swipe_right`` seen from the wheel at 320x240
    in which the arm changes the most pixels, over the camera's background,
    stays under a fixed bound."""
    from handsynth.gesture import WarningCounters, evaluate_frame
    from handsynth.scene import dynamic_scene
    from handsynth.skeleton import pose_hand

    cam, setup = _infrared_wheel_setup(monkeypatch, "swipe_right")

    def traced(i):
        wrist, aim, pose = evaluate_frame(setup.timeline, i, WarningCounters())
        return render.trace_depth(dynamic_scene(pose_hand(setup.rig, wrist, aim, pose)), cam, base=setup.static.base)

    frame = max(range(setup.timeline.total_frames), key=lambda i: int(traced(i).changed.sum()))
    buf, background = traced(frame), setup.backgrounds[setup.noise.tile_index(frame)]
    peak = _peak_bytes(render.sensor_frame, buf, cam, setup.sensor, setup.noise, frame, True, background)
    assert peak < INFRARED_FRAME_PEAK_BOUND


def _small_multicam(tmp_path, gestures=("swipe_up", "peace_sign"), variants=2):
    cfg = {
        "output_path": str(tmp_path),
        "recordings_per_gesture": variants,
        "resolution": [64, 48],
        "fps": 10,
        "gestures": list(gestures),
        "cameras": [
            {"camera_id": "rgb0", "kind": "rgb", "preset": "top"},
            {"camera_id": "ir0", "kind": "infrared", "preset": "wheel"},
            {"camera_id": "depth0", "kind": "depth", "preset": "infotainment"},
        ],
    }
    return parse_config_full(json.dumps(cfg))


def test_rgb_and_infrared_backgrounds_are_made_once_per_camera(tmp_path, monkeypatch):
    """Every recording of an RGB or infrared camera shares the camera's
    backgrounds: ``sensor_backgrounds`` runs once for each across four
    recordings, and for depth once per recording."""
    from collections import Counter

    parsed = _small_multicam(tmp_path)
    calls = Counter()
    sensor_backgrounds = render.sensor_backgrounds

    def spy(base, cam, *args, **kwargs):
        calls[cam.kind] += 1
        return sensor_backgrounds(base, cam, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    monkeypatch.setattr(render, "sensor_backgrounds", spy)
    manifest, _ = pipeline.generate_dataset(parsed)
    assert calls[CameraKind.RGB] == calls[CameraKind.INFRARED] == 1
    assert calls[CameraKind.DEPTH] == sum(entry.kind == CameraKind.DEPTH for entry in manifest.entries) == 4
    assert len(pipeline._STATIC_BUFFER_CACHE) == 3


def test_cameras_differing_only_in_ambient_get_their_own_background(monkeypatch):
    """The static cache is keyed on the whole camera: a second camera that
    differs only in ``sensor.ambient`` shares no background with the first,
    though the two trace the same base."""
    rig = default_rig()
    cam = preset_camera("top", "rgb0", CameraKind.RGB, gesture_anchor(rig), resolution=(64, 48))
    brighter = replace(cam, sensor=replace(cam.sensor, ambient=0.6))
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    dim, bright = pipeline._static(cam, False), pipeline._static(brighter, False)
    assert dim is not bright and len(pipeline._STATIC_BUFFER_CACHE) == 2
    assert np.array_equal(dim.base.depth, bright.base.depth)
    assert not np.array_equal(dim.backgrounds[0], bright.backgrounds[0])
    assert dim.base.won_by is None and dim.base.t_won is None  # the cached base keeps no normal inputs


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
