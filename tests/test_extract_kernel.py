"""Trajectory extraction gives the bytes of its earlier, dense form.

``_reference_extract_trajectory`` below is a frozen copy of
``evalkit.extract_trajectory`` as it was before it found the foreground in
depth-code space: it decodes every pixel of every labeled frame to float,
back-projects each frame's hand pixels on their own (with the back-projection
and camera transform of that time) and takes each centroid with
``mean(axis=0)``.  The tests compare points and confidence bit for bit on
rendered recordings, on codes either side of the foreground margin, on random
sensor parameters, on invalid background pixels, on frames with too few
foreground pixels and on spans split over many chunks, with every warning
turned into an error.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from handsynth import evalkit, pipeline
from handsynth.config import VariationConfig
from handsynth.evalkit import FOREGROUND_MARGIN_CM, MIN_FOREGROUND_PIXELS, extract_trajectory
from handsynth.gesture import builtin_scripts
from handsynth.render import decode_depth16
from handsynth.scene import CameraKind, CameraSpec, SensorParams, gesture_anchor, preset_camera
from handsynth.skeleton import default_rig


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _reference_backproject_pixels(cam, us, vs, depths):
    w, h = cam.resolution
    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    x_ndc = ((us + 0.5) / w * 2.0 - 1.0) * tan_half
    y_ndc = -((vs + 0.5) / h * 2.0 - 1.0) * tan_half * (h / w)
    pts_cam = np.stack([x_ndc * depths, y_ndc * depths, -depths], axis=-1)
    return np.asarray(pts_cam, dtype=np.float64) @ cam.rotation_matrix.T + np.asarray(cam.position)


def _reference_extract_trajectory(frames, cam, sensor, label_span):
    if not len(frames):
        raise ValueError("no frames")
    background = decode_depth16(np.asarray(frames[0]), sensor)
    bg_valid = np.isfinite(background)
    if not np.any(bg_valid):
        raise ValueError("first frame has no valid depth to estimate the background floor")

    first, last = label_span
    if not (0 <= first <= last < len(frames)):
        raise ValueError(f"label span {label_span} outside 0..{len(frames) - 1}")

    centroids = []
    good = 0
    for idx in range(first, last + 1):
        depth = decode_depth16(np.asarray(frames[idx]), sensor)
        fg = bg_valid & np.isfinite(depth) & (depth < background - FOREGROUND_MARGIN_CM)
        if np.any(fg):
            fg &= depth < float(depth[fg].min()) + evalkit.HAND_EXTENT_CM
        count = int(np.count_nonzero(fg))
        if count >= MIN_FOREGROUND_PIXELS:
            vs, us = np.nonzero(fg)
            pts = _reference_backproject_pixels(cam, us.astype(np.float64), vs.astype(np.float64), depth[fg])
            centroids.append(pts.mean(axis=0))
            good += 1
        else:
            centroids.append(None)

    if good == 0:
        raise ValueError("zero foreground pixels across all labeled frames")
    for i in range(len(centroids)):
        if centroids[i] is None and i > 0:
            centroids[i] = centroids[i - 1]
    for i in range(len(centroids) - 1, -1, -1):
        if centroids[i] is None:
            centroids[i] = centroids[i + 1]
    points = np.vstack(centroids)
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite trajectory coordinates")
    return evalkit.Trajectory(points=points, confidence=good / len(centroids))


def _assert_same(frames, cam, sensor, span):
    """Both extractors agree to the byte, or raise the same message; the
    new one gets the span as a generator, so it reads each frame once."""
    first, last = span
    try:
        want = _reference_extract_trajectory(frames, cam, sensor, span)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            extract_trajectory(frames[0], (f for f in frames[first : last + 1]), cam, sensor)
        assert str(got.value) == str(exc)
        return None
    got = extract_trajectory(frames[0], (f for f in frames[first : last + 1]), cam, sensor)
    assert got.points.dtype == want.points.dtype and got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()
    assert got.confidence == want.confidence
    return got


def _cam(resolution=(32, 24), rotation=(0.0, 0.0, 0.0)):
    return CameraSpec(
        camera_id="t",
        kind=CameraKind.DEPTH,
        position=(3.0, -2.0, 1.5),
        rotation=rotation,
        fov_deg=60.0,
        resolution=resolution,
    )


# --- rendered recordings ---------------------------------------------------


@pytest.mark.parametrize("resolution", [(64, 48), (160, 120)])
@pytest.mark.parametrize("noise_enabled", [True, False], ids=["noise", "clean"])
def test_rendered_recordings_of_every_gesture(resolution, noise_enabled):
    cam = preset_camera(
        "infotainment",
        camera_id="eval-depth",
        kind=CameraKind.DEPTH,
        anchor=gesture_anchor(default_rig()),
        resolution=resolution,
        fps=15.0,
    )
    for name, script in builtin_scripts().items():
        variant = pipeline._variant(7, VariationConfig(), cam, name, 0)
        rendered = pipeline.render_recording(script, cam, variant, noise_enabled=noise_enabled)
        frames = [f.pixels for f in rendered.frames]
        assert _assert_same(frames, cam, rendered.sensor, rendered.timeline.label_span) is not None, name


@pytest.mark.parametrize("noise_enabled", [True, False], ids=["noise", "clean"])
@pytest.mark.parametrize("gesture_name", ["swipe_up", "peace_sign"])
def test_trajectory_set_streams_the_bytes_of_whole_recordings(monkeypatch, gesture_name, noise_enabled):
    """``render_trajectory_set`` takes frame 0 and the label span from the
    frame stream and renders nothing after the span; its trajectories are
    those of whole recordings, rendered as a list and sliced."""
    resolution, fps, seed = (96, 72), 15.0, 3
    rendered = []
    render_frame = pipeline._render_frame

    def spy(setup, cam, frame_index, *args, **kwargs):
        rendered.append(frame_index)
        return render_frame(setup, cam, frame_index, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_render_frame", spy)
    streamed = pipeline.render_trajectory_set(
        gesture_name, VariationConfig(), 2, seed, resolution=resolution, fps=fps, noise_enabled=noise_enabled
    )
    monkeypatch.undo()
    cam = preset_camera(
        "infotainment",
        camera_id="eval-depth",
        kind=CameraKind.DEPTH,
        anchor=gesture_anchor(default_rig()),
        resolution=resolution,
        fps=fps,
    )
    expected_renders = []
    for v, trajectory in enumerate(streamed):
        variant = pipeline._variant(seed, VariationConfig(), cam, gesture_name, v)
        whole = pipeline.render_recording(builtin_scripts()[gesture_name], cam, variant, noise_enabled=noise_enabled)
        first, last = whole.timeline.label_span
        assert last + 1 < len(whole.frames)  # frames after the span exist, and are not rendered
        expected_renders += range(last + 1)
        span = (f.pixels for f in whole.frames[first : last + 1])
        want = extract_trajectory(whole.frames[0].pixels, span, cam, whole.sensor)
        assert trajectory.points.tobytes() == want.points.tobytes() and len(want) == last - first + 1
        assert trajectory.confidence == want.confidence
    assert rendered == expected_renders


def test_trajectory_set_with_a_label_span_from_frame_0(monkeypatch):
    """Frame 0 is the background and, when the span starts there, its first
    frame too."""
    resolution, fps = (96, 72), 15.0
    setup_recording = pipeline._setup_recording

    def span_from_0(*args, **kwargs):
        setup = setup_recording(*args, **kwargs)
        return replace(setup, timeline=replace(setup.timeline, label_span=(0, 4)))

    monkeypatch.setattr(pipeline, "_setup_recording", span_from_0)
    (streamed,) = pipeline.render_trajectory_set("swipe_up", VariationConfig(), 1, resolution=resolution, fps=fps)
    cam = preset_camera(
        "infotainment",
        camera_id="eval-depth",
        kind=CameraKind.DEPTH,
        anchor=gesture_anchor(default_rig()),
        resolution=resolution,
        fps=fps,
    )
    variant = pipeline._variant(0, VariationConfig(), cam, "swipe_up", 0)
    whole = pipeline.render_recording(builtin_scripts()["swipe_up"], cam, variant)
    assert whole.timeline.label_span == (0, 4)
    want = extract_trajectory(whole.frames[0].pixels, (f.pixels for f in whole.frames[:5]), cam, whole.sensor)
    assert streamed.points.tobytes() == want.points.tobytes() and len(want) == 5


def test_rendered_span_from_frame_0_over_many_chunks(monkeypatch):
    cam = preset_camera(
        "infotainment",
        camera_id="eval-depth",
        kind=CameraKind.DEPTH,
        anchor=gesture_anchor(default_rig()),
        resolution=(160, 120),
        fps=15.0,
    )
    variant = pipeline._variant(3, VariationConfig(), cam, "swipe_up", 1)
    rendered = pipeline.render_recording(builtin_scripts()["swipe_up"], cam, variant)
    frames = [f.pixels for f in rendered.frames]
    span = (0, len(frames) - 1)
    whole = _assert_same(frames, cam, rendered.sensor, span)
    # chunks of a few frames, of one frame, and smaller than any frame's candidates
    for budget in (5000, 2000, 1):
        monkeypatch.setattr(evalkit, "EXTRACT_CHUNK_PIXELS", budget)
        assert _assert_same(frames, cam, rendered.sensor, span).points.tobytes() == whole.points.tobytes()


# --- synthetic codes -------------------------------------------------------


def _boundary_codes(background, sensor):
    """Per pixel, the largest code whose decoded depth passes the
    foreground test, found by decoding every code (0 where none does)."""
    table = decode_depth16(np.arange(65536, dtype=np.uint16), sensor)
    floor = decode_depth16(background, sensor) - FOREGROUND_MARGIN_CM
    passing = np.searchsorted(table[1:], floor.ravel(), side="left")  # codes 1..k pass
    passing[~np.isfinite(floor.ravel())] = 0
    return passing.reshape(background.shape)


def _threshold(background, sensor):
    return evalkit._code_threshold(background, decode_depth16(background, sensor), sensor)


@pytest.mark.parametrize("seed", range(6))
def test_codes_either_side_of_the_margin(seed):
    rng = np.random.default_rng(seed)
    sensor = SensorParams(
        chromaticity_coeff=float(rng.uniform(0.5, 2.0)),
        depth_min=float(rng.uniform(10, 30)),
        depth_max=float(rng.uniform(120, 200)),
    )
    cam = _cam(rotation=(10.0, -20.0, 5.0))
    background = rng.integers(20000, 65536, size=(24, 32)).astype(np.uint16)
    edge = _boundary_codes(background, sensor)
    assert np.all(edge > 0)
    frames = [background]
    for offset in (-2, -1, 0, 1, 2):  # codes around the last one that passes
        frames.append(np.clip(edge + offset, 1, 65535).astype(np.uint16))
    mixed = edge + rng.integers(-1, 2, size=edge.shape)
    frames.append(np.clip(mixed, 1, 65535).astype(np.uint16))
    assert np.all(_threshold(background, sensor) >= edge)
    assert _assert_same(frames, cam, sensor, (1, len(frames) - 1)) is not None


@pytest.mark.parametrize("seed", range(40))
def test_random_sensor_parameters(seed):
    rng = np.random.default_rng(100 + seed)
    depth_min = float(rng.uniform(0.0, 50.0))
    span = float(10 ** rng.uniform(-1.0, 4.0))  # narrow and wide depth ranges
    sensor = SensorParams(
        chromaticity_coeff=float(10 ** rng.uniform(-3.0, 3.0)),
        depth_min=depth_min,
        depth_max=depth_min + span,
    )
    cam = _cam(rotation=tuple(rng.uniform(-40, 40, 3)))
    h, w = 24, 32
    background = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
    background[rng.random((h, w)) < 0.1] = 0  # invalid background pixels
    frames = [background]
    for _ in range(int(rng.integers(1, 8))):
        frame = background.copy()
        blob = rng.random((h, w)) < rng.uniform(0.05, 0.9)
        step = rng.integers(0, int(rng.choice([4, 400, 40000])), size=(h, w))
        frame[blob] = np.clip(frame[blob].astype(np.int64) - step[blob], 0, 65535)
        frame[rng.random((h, w)) < 0.05] = 0  # dropout
        frames.append(frame)
    assert np.all(_threshold(background, sensor) >= _boundary_codes(background, sensor))
    _assert_same(frames, cam, sensor, (1, len(frames) - 1))


def test_margin_too_wide_falls_back_to_the_background_code(monkeypatch):
    rng = np.random.default_rng(9)
    sensor = SensorParams(chromaticity_coeff=1.3, depth_min=15.0, depth_max=140.0)
    background = rng.integers(20000, 65536, size=(24, 32)).astype(np.uint16)
    edge = _boundary_codes(background, sensor)
    frames = [background] + [np.clip(edge + k, 1, 65535).astype(np.uint16) for k in (-3, 0, 1)]
    honest = _threshold(background, sensor)
    for margin in (evalkit._code_margin(sensor) + 3, 60000):  # estimates the check must catch
        monkeypatch.setattr(evalkit, "_code_margin", lambda sp, m=margin: m)
        thr = _threshold(background, sensor)
        assert np.all(thr >= edge)
        assert np.any(thr != honest)
        assert _assert_same(frames, cam=_cam(), sensor=sensor, span=(1, 3)) is not None


def test_float_tests_at_exact_equality():
    # this sensor decodes code c to exactly c - 1 cm, so samples can sit
    # exactly on the foreground margin and exactly on the hand slab's far edge
    sensor = SensorParams(depth_min=0.0, depth_max=65534.0, chromaticity_coeff=1.0)
    cam = _cam()
    background = np.full((24, 32), 1000, dtype=np.uint16)  # 999 cm
    on_margin = background.copy()
    on_margin[:4] = 995  # 994 cm = 999 - FOREGROUND_MARGIN_CM: not foreground
    on_margin[4:8] = 994
    on_slab_edge = background.copy()
    on_slab_edge[:4] = 100  # nearest, 99 cm
    on_slab_edge[4:8] = 114  # 113 cm = 99 + HAND_EXTENT_CM: outside the slab
    on_slab_edge[8:12] = 113
    got = _assert_same([background, on_margin, on_slab_edge], cam, sensor, (1, 2))
    assert got.confidence == 1.0


def test_invalid_background_pixels_never_count():
    sensor = SensorParams()
    cam = _cam()
    background = np.full((24, 32), 40000, dtype=np.uint16)
    background[:, :16] = 0  # left half has no background depth
    hand = np.full((24, 32), 1000, dtype=np.uint16)  # near everywhere
    got = _assert_same([background, hand, hand], cam, sensor, (1, 2))
    assert got.confidence == 1.0
    none_valid = np.zeros((24, 32), dtype=np.uint16)
    _assert_same([none_valid, hand], cam, sensor, (1, 1))  # both raise


@pytest.mark.parametrize("pattern", ["gap_first", "gap_last", "gaps_both_ends", "gap_middle", "all_gaps"])
def test_frames_under_the_pixel_minimum(pattern):
    sensor = SensorParams()
    cam = _cam()
    background = np.full((24, 32), 50000, dtype=np.uint16)
    rng = np.random.default_rng(5)

    def hand(pixels):
        frame = background.copy()
        frame.ravel()[rng.choice(frame.size, pixels, replace=False)] = rng.integers(8000, 9000, pixels)
        return frame

    few, enough = MIN_FOREGROUND_PIXELS - 1, MIN_FOREGROUND_PIXELS
    layout = {
        "gap_first": [few, enough, 200],
        "gap_last": [300, enough, few],
        "gaps_both_ends": [few, 0, 120, enough + 1, few, 3],
        "gap_middle": [90, few, 0, 150],
        "all_gaps": [few, 0, few],
    }[pattern]
    frames = [background] + [hand(n) for n in layout]
    _assert_same(frames, cam, sensor, (1, len(frames) - 1))


def test_frame_of_another_shape_is_refused():
    sensor = SensorParams()
    background = np.full((24, 32), 50000, dtype=np.uint16)
    with pytest.raises(ValueError, match=r"labeled frame 1 has shape \(12, 32\)"):
        extract_trajectory(background, iter([background, background[:12]]), _cam(), sensor)


def test_empty_span_is_refused():
    background = np.full((24, 32), 50000, dtype=np.uint16)
    with pytest.raises(ValueError, match="no labeled frames"):
        extract_trajectory(background, iter([]), _cam(), SensorParams())


# --- centroid means ----------------------------------------------------------


def _reference_chunk_centroids(chunk, floor, cam, sensor):
    """Frozen copy of ``evalkit._chunk_centroids`` as it was when each
    centroid was its frame's ``mean(axis=0)``."""
    frames = len(chunk)
    pixels = np.concatenate([p for _, p in chunk])
    depth = decode_depth16(np.concatenate([c for c, _ in chunk]), sensor)
    fg = depth < floor[pixels]
    depth, pixels = depth[fg], pixels[fg]
    if not len(depth):
        return [None] * frames
    frame_of = np.repeat(np.arange(frames), [len(p) for _, p in chunk])[fg]
    per_frame = np.bincount(frame_of, minlength=frames)
    present = per_frame > 0
    starts = (np.cumsum(per_frame) - per_frame)[present]
    nearest = np.minimum.reduceat(depth, starts)
    hand = depth < np.repeat(nearest + evalkit.HAND_EXTENT_CM, per_frame[present])
    per_frame = np.bincount(frame_of[hand], minlength=frames)
    good = per_frame >= evalkit.MIN_FOREGROUND_PIXELS
    hand &= good[frame_of]
    pts = evalkit.backproject_pixels(cam, pixels[hand], depth[hand])
    ends = np.cumsum(np.where(good, per_frame, 0))
    return [pts[end - n : end].mean(axis=0) if ok else None for end, n, ok in zip(ends, per_frame, good)]


def _assert_same_centroids(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_centroids_are_the_per_frame_means_of_random_segments(monkeypatch):
    """Each centroid has the bytes of ``mean(axis=0)`` over its frame's
    points: segments of 1 to 3,000 rows whose coordinates range over
    magnitudes 1e-3 to 1e3, row by row.  The points stand in for the
    back-projection; every candidate pixel is a hand pixel."""
    rng = np.random.default_rng(31)
    counts = np.concatenate([[1, 2, 3, 3000], rng.integers(1, 3001, size=60)])
    pts = rng.uniform(-1.0, 1.0, (counts.sum(), 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (counts.sum(), 1))
    monkeypatch.setattr(evalkit, "MIN_FOREGROUND_PIXELS", 1)
    monkeypatch.setattr(evalkit, "backproject_pixels", lambda cam, pixels, depth: pts)
    chunk = [(np.full(n, 1000, dtype=np.uint16), np.zeros(n, dtype=np.intp)) for n in counts]
    floor, cam, sensor = np.full(1, np.inf), _cam(), SensorParams()
    got = evalkit._chunk_centroids(chunk, floor, cam, sensor)
    assert all(c is not None for c in got)
    _assert_same_centroids(got, _reference_chunk_centroids(chunk, floor, cam, sensor))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_centroids_of_written_datasets_are_the_per_frame_means(tmp_path, monkeypatch, seed):
    """The trajectories of a written 160x120 depth dataset of every gesture,
    five variants each, equal those with the frozen per-frame means."""
    from handsynth.config import parse_config_full

    doc = {
        "output_path": str(tmp_path / "out"),
        "recordings_per_gesture": 5,
        "fps": 30.0,
        "master_seed": seed,
        "cameras": [{"camera_id": "depth0", "kind": "depth", "preset": "infotainment", "resolution": [160, 120]}],
    }
    manifest, _ = pipeline.generate_dataset(parse_config_full(json.dumps(doc)))
    got = pipeline.trajectories_from_manifest(manifest, doc["output_path"])
    monkeypatch.setattr(evalkit, "_chunk_centroids", _reference_chunk_centroids)
    want = pipeline.trajectories_from_manifest(manifest, doc["output_path"])
    assert len(got) == len(want) == 30
    for g, w in zip(got, want):
        assert g.trajectory.points.tobytes() == w.trajectory.points.tobytes()
        assert g.trajectory.confidence == w.trajectory.confidence
