import math
import re

import numpy as np
import pytest
from conftest import normal_map, normals, window_rays

from handsynth.geom import vec
from handsynth.render import (
    DEPTH_CODE_MAX,
    FlipbookNoise,
    apply_depth_noise,
    decode_depth16,
    depth_to_chromaticity,
    encode_depth16,
    fresnel_factor,
    make_flipbook,
    sensor_backgrounds,
    sensor_frame,
    trace_depth,
    BODY_CENTER_COLOR,
    BODY_EDGE_COLOR,
)
from handsynth.scene import (
    CameraKind,
    CameraSpec,
    SensorParams,
    TAG_BODY,
    camera_rays,
    ray_depth_scale,
    scene_from_primitives,
)

pytestmark = []


def _cam(resolution=(161, 121), fov=60.0, kind=CameraKind.DEPTH):
    """A camera at the origin looking down -Z.  Depth cameras trace no
    normals, so tests that read them use another kind."""
    return CameraSpec(
        camera_id="t",
        kind=kind,
        position=(0.0, 0.0, 0.0),
        rotation=(0.0, 0.0, 0.0),
        fov_deg=fov,
        resolution=resolution,
    )


def _sphere_scene(center, radius):
    return scene_from_primitives(
        capsules=[(np.asarray(center, float), np.asarray(center, float), radius)],
    )


def test_sphere_center_pixel_depth_exact():
    cam = _cam(kind=CameraKind.RGB)
    scene = _sphere_scene((0.0, 0.0, -80.0), 12.0)
    buf = trace_depth(scene, cam)
    w, h = cam.resolution
    assert abs(buf.depth[h // 2, w // 2] - 68.0) < 1e-9
    assert buf.tag[h // 2, w // 2] == TAG_BODY
    # normal at the center pixel faces the camera
    assert np.linalg.norm(normal_map(buf, cam)[h // 2, w // 2] - vec(0, 0, 1)) < 1e-6


def test_empty_scene_all_invalid():
    cam = _cam(resolution=(32, 24))
    scene = scene_from_primitives()
    buf = trace_depth(scene, cam)
    assert not np.any(buf.valid)
    assert np.all(buf.tag == 0)


def test_box_front_face_depth():
    cam = _cam(kind=CameraKind.RGB)
    scene = scene_from_primitives(boxes=[(vec(-20, -20, -90), vec(20, 20, -70))])
    buf = trace_depth(scene, cam)
    w, h = cam.resolution
    assert abs(buf.depth[h // 2, w // 2] - 70.0) < 1e-9
    assert np.linalg.norm(normal_map(buf, cam)[h // 2, w // 2] - vec(0, 0, 1)) < 1e-9


def test_plane_depth_is_perpendicular_distance():
    cam = _cam()
    scene = scene_from_primitives(planes=[(vec(0, 0, -100.0), vec(0, 0, 1.0))])
    buf = trace_depth(scene, cam)
    # camera-Z depth of a fronto-parallel plane is constant everywhere
    assert np.all(buf.valid)
    assert np.abs(buf.depth - 100.0).max() < 1e-9


def _sdf_capsule(p, a, b, r):
    ab = b - a
    t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + t * ab)) - r


def test_capsule_depth_against_sphere_trace_oracle(rng):
    cam = _cam(resolution=(81, 61))
    a = vec(-14.0, -6.0, -70.0)
    b = vec(12.0, 10.0, -95.0)
    r = 7.0
    scene = scene_from_primitives(capsules=[(a, b, r)])
    buf = trace_depth(scene, cam)
    origin, dirs = camera_rays(cam)
    z_scale = ray_depth_scale(cam)

    hits = np.argwhere(buf.valid)
    picks = hits[rng.choice(len(hits), size=min(150, len(hits)), replace=False)]
    for v, u in picks:
        d = dirs[v, u]
        t = 1e-4
        for _ in range(4000):
            dist = _sdf_capsule(origin + t * d, a, b, r)
            if dist < 1e-8:
                break
            t += dist
            if t > 400.0:
                t = np.inf
                break
        assert np.isfinite(t)
        assert abs(t * z_scale[v, u] - buf.depth[v, u]) < 0.01


def _random_capsules(rng, count):
    """Capsules left, right, above and below the optical axis, and across it."""
    capsules = []
    for k in range(count):
        a = np.array([rng.uniform(-35, 35), rng.uniform(-25, 25), rng.uniform(-130, -35)])
        if k % 3 == 0:
            b = np.array([-a[0], -a[1], rng.uniform(-130, -35)])  # crosses the axis
        else:
            b = a + rng.uniform(-15, 15, size=3)
            b[2] = min(b[2], -30.0)
        capsules.append((a, b, float(rng.uniform(1.0, 9.0))))
    return capsules


@pytest.mark.parametrize("rotation", [(0.0, 0.0, 0.0), (12.0, -20.0, 5.0)])
def test_screen_bounds_trace_equals_full_frame_trace(rng, monkeypatch, rotation):
    import handsynth.render as render

    cam = CameraSpec(
        camera_id="t",
        kind=CameraKind.RGB,
        position=(0.0, 0.0, 0.0),
        rotation=rotation,
        fov_deg=70.0,
        resolution=(96, 72),
    )
    w, h = cam.resolution
    counts = []  # the rays of each capsule in each kernel call, batched or alone
    intersect = render._intersect_capsules

    def spy(rows, vectors, scalars, capsule_counts):
        counts.extend(capsule_counts)
        return intersect(rows, vectors, scalars, capsule_counts)

    monkeypatch.setattr(render, "_intersect_capsules", spy)
    for _ in range(8):
        scene = scene_from_primitives(
            capsules=_random_capsules(rng, 9),
            planes=[(vec(0, 0, -160.0), vec(0, 0, 1.0))],
        )
        counts.clear()
        bounded = trace_depth(scene, cam)
        assert counts and all(count != h * w for count in counts)  # every capsule bounded
        counts.clear()
        with monkeypatch.context() as patch:
            patch.setattr(render, "_capsule_screen_bounds", lambda cam, scene: [None] * len(scene.capsule_tag))
            full = trace_depth(scene, cam)
        assert counts == [h * w] * 9  # every capsule intersected over the whole frame
        assert np.array_equal(bounded.tag, full.tag)
        assert np.array_equal(bounded.depth, full.depth)
        assert np.array_equal(normals(bounded, cam), normals(full, cam))


# --- chromaticity / 16-bit encoding -----------------------------------------


def test_chromaticity_anchor_values():
    sp = SensorParams(depth_min=20.0, depth_max=150.0, chromaticity_coeff=1.0)
    assert depth_to_chromaticity(20.0, sp) == 0.0
    assert depth_to_chromaticity(85.0, sp) == pytest.approx(0.5)
    sp2 = SensorParams(depth_min=20.0, depth_max=150.0, chromaticity_coeff=2.0)
    assert depth_to_chromaticity(85.0, sp2) == 1.0  # clamp engages


def test_chromaticity_monotone_in_depth():
    sp = SensorParams(chromaticity_coeff=0.93)
    depths = np.linspace(sp.depth_min, sp.depth_max, 500)
    g = depth_to_chromaticity(depths, sp)
    assert np.all(np.diff(g) >= 0)


def test_encode_fidelity_one_quantization_step():
    cam = _cam()
    sp = SensorParams(depth_min=20.0, depth_max=150.0, chromaticity_coeff=1.0)
    scene = _sphere_scene((0.0, 0.0, -80.0), 15.0)
    buf = trace_depth(scene, cam)
    codes = encode_depth16(buf, sp)
    decoded = decode_depth16(codes, sp)
    step = (sp.depth_max - sp.depth_min) / (DEPTH_CODE_MAX - 1)
    mask = buf.valid
    assert np.nanmax(np.abs(decoded[mask] - buf.depth[mask])) <= step
    assert np.all(codes[~mask] == 0)
    assert np.all(codes[mask] >= 1)


def test_invalid_pixels_encode_to_zero():
    cam = _cam(resolution=(32, 24))
    buf = trace_depth(scene_from_primitives(), cam)
    codes = encode_depth16(buf, SensorParams())
    assert np.all(codes == 0)


# --- flipbook noise ----------------------------------------------------------


def test_flipbook_exact_periodicity():
    sp = SensorParams()
    noise = make_flipbook(sp, seed=321)
    h, w = 48, 64
    period = noise.period
    assert period == sp.flipbook_tile_count * sp.flipbook_frames_per_tile
    for frame in (0, 3, 7, 11):
        a = noise.field(frame, h, w)
        b = noise.field(frame + period, h, w)
        assert np.array_equal(a, b)
    # different tiles within a period differ
    assert not np.array_equal(noise.field(0, h, w), noise.field(sp.flipbook_frames_per_tile, h, w))


def test_flipbook_range_and_determinism():
    sp = SensorParams()
    a = make_flipbook(sp, seed=7)
    b = make_flipbook(sp, seed=7)
    c = make_flipbook(sp, seed=8)
    assert np.array_equal(a.tiles, b.tiles)
    assert not np.array_equal(a.tiles, c.tiles)
    assert a.tiles.min() >= 0.0 and a.tiles.max() <= 1.0


def test_flipbook_tiles_wrap_seamlessly():
    sp = SensorParams()
    noise = make_flipbook(sp, seed=5)
    field = noise.field(0, sp.flipbook_tile_px * 2, sp.flipbook_tile_px * 2)
    px = sp.flipbook_tile_px
    assert np.array_equal(field[:px, :px], field[px:, px:])


# --- depth noise -------------------------------------------------------------


def test_zero_weights_noise_is_identity():
    cam = _cam()
    scene = _sphere_scene((0.0, 0.0, -80.0), 12.0)
    sp = SensorParams(noise_dist_weight=0.0, noise_edge_weight=0.0)
    buf = trace_depth(scene, cam)
    out = apply_depth_noise(buf, make_flipbook(sp, 1), sp, frame_index=0)
    assert np.array_equal(out.depth, buf.depth)
    assert np.array_equal(out.tag, buf.tag)


def test_flat_plane_at_dmin_never_drops():
    cam = _cam()
    sp = SensorParams(depth_min=100.0, depth_max=200.0, dropout_threshold=0.01)
    scene = scene_from_primitives(planes=[(vec(0, 0, -100.0), vec(0, 0, 1.0))])
    buf = trace_depth(scene, cam)
    noise = make_flipbook(sp, 99)
    for frame in range(5):
        out = apply_depth_noise(buf, noise, sp, frame)
        assert np.all(out.valid)  # z = 0 and e = 0 everywhere: intensity 0


def _edge_interior_masks(valid, band=2):
    """Silhouette-adjacent band vs eroded interior, by mask shifting."""
    inside = valid.copy()
    for _ in range(band):
        shrunk = inside.copy()
        shrunk[1:, :] &= inside[:-1, :]
        shrunk[:-1, :] &= inside[1:, :]
        shrunk[:, 1:] &= inside[:, :-1]
        shrunk[:, :-1] &= inside[:, 1:]
        inside = shrunk
    return valid & ~inside, inside


def test_edge_dropout_exceeds_interior():
    cam = _cam(resolution=(161, 121))
    sp = SensorParams()
    scene = scene_from_primitives(
        capsules=[(vec(0, 0, -85.0), vec(0, 0, -85.0), 10.0)],
        planes=[(vec(0, 0, -140.0), vec(0, 0, 1.0))],
    )
    buf = trace_depth(scene, cam)
    sphere_mask = buf.tag == TAG_BODY
    edge, interior = _edge_interior_masks(sphere_mask, band=2)
    noise = make_flipbook(sp, 4242)
    edge_drop = interior_drop = 0
    for frame in range(10):
        out = apply_depth_noise(buf, noise, sp, frame)
        dropped = buf.valid & ~out.valid
        edge_drop += int(np.count_nonzero(dropped & edge))
        interior_drop += int(np.count_nonzero(dropped & interior))
    edge_rate = edge_drop / (10 * max(np.count_nonzero(edge), 1))
    interior_rate = interior_drop / (10 * max(np.count_nonzero(interior), 1))
    assert edge_drop > 0
    assert edge_rate > 2 * interior_rate


def test_jitter_bounded_and_applied():
    cam = _cam()
    sp = SensorParams()
    scene = _sphere_scene((0.0, 0.0, -85.0), 10.0)
    buf = trace_depth(scene, cam)
    out = apply_depth_noise(buf, make_flipbook(sp, 11), sp, 0)
    both = buf.valid & out.valid
    delta = np.abs(out.depth[both] - buf.depth[both])
    assert delta.max() <= sp.depth_jitter + 1e-12
    assert delta.max() > 0.0


# --- shading -----------------------------------------------------------------


def test_fresnel_endpoints_and_quarter():
    assert fresnel_factor(np.array(1.0), 2.0) == 0.0
    assert fresnel_factor(np.array(0.0), 2.0) == 1.0
    assert fresnel_factor(np.array(0.5), 2.0) == 0.25
    for p in (0.5, 1.0, 3.7):
        assert fresnel_factor(np.array(1.0), p) == 0.0
        assert fresnel_factor(np.array(0.0), p) == 1.0


def test_infrared_center_and_edge_colors():
    cam = _cam(kind=CameraKind.INFRARED)
    sp = SensorParams(blur_radius=0.0)
    scene = _sphere_scene((0.0, 0.0, -80.0), 20.0)
    buf = trace_depth(scene, cam)
    frame = sensor_frame(buf, cam, sp, make_flipbook(sp, 3), 0)
    w, h = cam.resolution
    center = frame.pixels[h // 2, w // 2]
    assert np.array_equal(center, BODY_CENTER_COLOR.astype(np.uint8))
    # grazing pixels blend toward green; background is black
    assert np.array_equal(frame.pixels[0, 0], [0, 0, 0])
    cos_nv = np.einsum("...i,...i->...", normal_map(buf, cam), -window_rays(buf, cam))
    grazing = buf.valid & (cos_nv < 0.05)
    if np.any(grazing):
        sample = frame.pixels[grazing][0].astype(float)
        assert np.linalg.norm(sample - BODY_EDGE_COLOR) < 30.0


def test_infrared_environment_dark_blue():
    cam = _cam(kind=CameraKind.INFRARED)
    sp = SensorParams(blur_radius=0.0)
    scene = scene_from_primitives(planes=[(vec(0, 0, -100.0), vec(0, 0, 1.0))])
    buf = trace_depth(scene, cam)
    frame = sensor_frame(buf, cam, sp, make_flipbook(sp, 3), 0)
    w, h = cam.resolution
    b, g, r = frame.pixels[h // 2, w // 2][2], frame.pixels[h // 2, w // 2][1], frame.pixels[h // 2, w // 2][0]
    assert b > g and b > r  # dark blue dominates


def test_rgb_lambert_anchor_cases():
    cam = _cam(resolution=(33, 25), kind=CameraKind.RGB)
    scene = _sphere_scene((0.0, 0.0, -80.0), 10.0)
    buf = trace_depth(scene, cam)
    from handsynth.render import BODY_ALBEDO, LIGHT_DIR

    # facing the light exactly: intensity 1 regardless of ambient 0
    sp0 = SensorParams(ambient=0.0)
    frame = sensor_frame(buf, cam, sp0, make_flipbook(sp0, 0), 0)
    # pick the pixel whose normal is closest to -light
    cos = np.einsum("...i,i->...", normal_map(buf, cam), -LIGHT_DIR)
    v, u = np.unravel_index(np.argmax(np.where(buf.valid, cos, -np.inf)), cos.shape)
    expected = np.rint(BODY_ALBEDO * float(np.clip(cos[v, u], 0, 1)) * 255)
    assert np.abs(frame.pixels[v, u].astype(float) - expected).max() <= 1.0

    # ambient 1.0: image independent of the light direction
    sp1 = SensorParams(ambient=1.0)
    frame1 = sensor_frame(buf, cam, sp1, make_flipbook(sp1, 0), 0)
    lit = frame1.pixels[buf.valid]
    assert np.all(lit == lit[0])


def test_rgb_perpendicular_gets_ambient_only():
    cam = _cam(kind=CameraKind.RGB)
    from handsynth.render import BODY_ALBEDO, LIGHT_DIR

    scene = _sphere_scene((0.0, 0.0, -80.0), 15.0)
    buf = trace_depth(scene, cam)
    sp = SensorParams(ambient=0.2)
    frame = sensor_frame(buf, cam, sp, make_flipbook(sp, 0), 0)
    cos = np.einsum("...i,i->...", normal_map(buf, cam), -LIGHT_DIR)
    perp = buf.valid & (np.abs(cos) < 0.01)
    if np.any(perp):
        got = frame.pixels[perp][0].astype(float)
        expected = np.rint(BODY_ALBEDO * 0.2 * 255)
        assert np.abs(got - expected).max() <= 2.0


# --- sequences ---------------------------------------------------------------


def test_static_hold_frames_identical_noise_off(depth_cam):
    from handsynth.gesture import builtin_scripts
    from handsynth.pipeline import render_recording
    from handsynth.variation import VariantParams

    rec = render_recording(
        builtin_scripts()["peace_sign"], depth_cam, VariantParams.neutral(), noise_enabled=False
    )
    first, last = rec.timeline.label_span
    ref = rec.frames[first].pixels
    for f in range(first + 1, last + 1):
        assert np.array_equal(rec.frames[f].pixels, ref)


def test_render_sequence_deterministic(depth_cam):
    from handsynth.gesture import builtin_scripts
    from handsynth.pipeline import render_recording
    from handsynth.variation import sample_variant, derive_seed
    from handsynth.config import VariationConfig

    variant = sample_variant(VariationConfig(), {}, derive_seed(3, "swipe_up", 1, "depth0"), 1)
    a = render_recording(builtin_scripts()["swipe_up"], depth_cam, variant)
    b = render_recording(builtin_scripts()["swipe_up"], depth_cam, variant)
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.pixels, fb.pixels)


def test_swipe_centroid_column_monotonic(depth_cam):
    from handsynth.gesture import builtin_scripts
    from handsynth.pipeline import render_recording
    from handsynth.variation import VariantParams

    rec = render_recording(
        builtin_scripts()["swipe_right"], depth_cam, VariantParams.neutral(), noise_enabled=False
    )
    first, last = rec.timeline.label_span
    background = decode_depth16(rec.frames[0].pixels, rec.sensor)
    cols = []
    for f in range(first, last + 1):
        depth = decode_depth16(rec.frames[f].pixels, rec.sensor)
        fg = np.isfinite(background) & np.isfinite(depth) & (depth < background - 5.0)
        vs, us = np.nonzero(fg)
        cols.append(us.mean())
    # the camera faces the driver, so the driver's rightward swipe moves
    # right-to-left in the image; strictly monotonic column motion either way
    diffs = np.diff(np.array(cols))
    assert np.all(diffs < 0)


def test_sensor_frame_kinds(depth_cam):
    from dataclasses import replace

    from handsynth.scene import gesture_anchor, static_scene
    from handsynth.skeleton import default_rig

    rig = default_rig()
    rgb_cam = replace(depth_cam, kind=CameraKind.RGB)
    buf = trace_depth(static_scene(rig), rgb_cam)  # with normals, which shading reads
    sp = depth_cam.sensor
    noise = make_flipbook(sp, 0)
    depth_frame = sensor_frame(buf, depth_cam, sp, noise, 0)
    assert depth_frame.kind == "depth16" and depth_frame.pixels.dtype == np.uint16
    ir_cam = replace(depth_cam, kind=CameraKind.INFRARED)
    ir_frame = sensor_frame(buf, ir_cam, sp, noise, 0)
    assert ir_frame.kind == "ir8" and ir_frame.pixels.shape[-1] == 3
    rgb_frame = sensor_frame(buf, rgb_cam, sp, noise, 0)
    assert rgb_frame.kind == "rgb8" and rgb_frame.pixels.dtype == np.uint8


# --- dirty window --------------------------------------------------------------


def _window_camera(case):
    from handsynth.scene import gesture_anchor, preset_camera
    from handsynth.skeleton import default_rig

    anchor = gesture_anchor(default_rig())
    if case == "rgb":
        kind = CameraKind.RGB
    elif case.startswith("infrared"):
        kind = CameraKind.INFRARED
    else:
        kind = CameraKind.DEPTH
    if case.endswith("camera_plane"):
        # just in front of the gesture volume, facing the driver: the hand
        # passes behind the camera plane in some frames
        position = tuple(float(x) for x in anchor + vec(0.0, 0.0, -8.0))
        return CameraSpec("w", kind, position=position, rotation=(0.0, 180.0, 0.0), resolution=(80, 60), fps=10)
    fov = 25.0 if case.endswith("border") else 60.0
    return preset_camera("infotainment", "w", kind, anchor, resolution=(80, 60), fps=10, fov_deg=fov)


@pytest.mark.parametrize(
    "case",
    [
        "depth_noise_on",
        "depth_noise_off",
        "rgb",
        "border",
        "camera_plane",
        "infrared",
        "infrared_border",
        "infrared_camera_plane",
    ],
)
def test_windowed_frames_equal_full_frame_render(monkeypatch, case):
    """Every frame of a recording, rendered through the dirty window, is
    byte-identical to tracing the whole scene and sensing the whole frame."""
    from handsynth import pipeline
    from handsynth.gesture import WarningCounters, builtin_scripts, evaluate_frame
    from handsynth.scene import build_scene
    from handsynth.skeleton import pose_hand
    from handsynth.variation import derive_seed, sample_variant
    from handsynth.config import VariationConfig

    cam = _window_camera(case)
    w, h = cam.resolution
    noise_enabled = case != "depth_noise_off"
    variant = sample_variant(VariationConfig(), {}, derive_seed(5, "swipe_right", 0, cam.camera_id), 0)
    setup = pipeline._setup_recording(builtin_scripts()["swipe_right"], cam, variant, False, noise_enabled)

    windows = []
    traced = pipeline.trace_depth

    def spy(scene, cam, base=None):
        buf = traced(scene, cam, base=base)
        windows.append(buf.window)
        return buf

    monkeypatch.setattr(pipeline, "trace_depth", spy)
    for i in range(setup.timeline.total_frames):
        frame = pipeline._render_frame(setup, cam, i, WarningCounters())
        wrist, aim, pose = evaluate_frame(setup.timeline, i, WarningCounters())
        full = trace_depth(build_scene(setup.rig, pose_hand(setup.rig, wrist, aim, pose)), cam)
        assert full.window == (0, w, 0, h)
        reference = sensor_frame(full, cam, setup.sensor, setup.noise, i, noise_enabled=noise_enabled)
        assert frame.kind == reference.kind
        assert np.array_equal(frame.pixels, reference.pixels), f"frame {i}"

    windowed = [win for win in windows if win != (0, w, 0, h)]
    if case.endswith("camera_plane"):
        assert (0, w, 0, h) in windows and windowed
    elif case.endswith("border"):  # every window reaches the bottom row; these reach a side or the top too
        assert any(win[0] == 0 or win[1] == w or win[2] == 0 for win in windowed)
    else:
        assert len(windowed) == len(windows)


def _pose_runs(setup):
    """Per frame of a recording, whether its pose (wrist target, aim and
    hand pose) repeats the frame before's bit for bit."""
    from handsynth.gesture import WarningCounters, evaluate_frame

    def bits(i):
        wrist, aim, pose = evaluate_frame(setup.timeline, i, WarningCounters())
        angles = np.array(pose.curl + pose.abduction + pose.wrist_rotation, dtype=np.float64)
        return wrist.tobytes(), aim.tobytes(), angles.tobytes(), pose.preset_name

    poses = [bits(i) for i in range(setup.timeline.total_frames)]
    return [i > 0 and poses[i] == poses[i - 1] for i in range(len(poses))]


@pytest.mark.parametrize("kind", [CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED])
def test_one_trace_and_one_sensor_call_per_frame(monkeypatch, kind):
    """The static frames outside the window are not frames of the recording:
    each frame makes at most one windowed trace and one sensor call, and a
    recording one trace per run of frames with one pose.  ``swipe_up``
    moves on every frame; ``peace_sign`` holds its pose for 1 s.  A held
    frame is not traced: RGB does not sense it again, depth (noise on) only
    at a new flipbook tile, and infrared, whose blur pans with the frame,
    always."""
    from collections import Counter
    from dataclasses import replace

    from handsynth import pipeline
    from handsynth.gesture import builtin_scripts
    from handsynth.variation import VariantParams

    cam = replace(_window_camera("depth_noise_on"), kind=kind)
    traced, sensed = pipeline.trace_depth, pipeline.sensor_frame
    for gesture in ("swipe_up", "peace_sign"):
        calls = Counter()

        def count_trace(scene, cam, base=None):
            calls["trace_static" if base is None else "trace_dynamic"] += 1
            return traced(scene, cam, base=base)

        def count_sensor(buf, cam, *args, **kwargs):
            calls["sensor"] += 1
            return sensed(buf, cam, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
        monkeypatch.setattr(pipeline, "trace_depth", count_trace)
        monkeypatch.setattr(pipeline, "sensor_frame", count_sensor)
        script = builtin_scripts()[gesture]
        rec = pipeline.render_recording(script, cam, VariantParams.neutral())
        frames = rec.timeline.total_frames
        assert frames > 2 * cam.sensor.flipbook_frames_per_tile  # more than one flipbook tile
        monkeypatch.undo()
        setup = pipeline._setup_recording(script, cam, VariantParams.neutral(), False, True)
        held = _pose_runs(setup)
        assert (sum(held) > cam.fps // 2) == (gesture == "peace_sign")
        tiles = [setup.noise.tile_index(i) for i in range(frames)]
        reused = {  # held frames whose pixels are the frame before's
            CameraKind.DEPTH: sum(held[i] and tiles[i] == tiles[i - 1] for i in range(frames)),
            CameraKind.RGB: sum(held),
            CameraKind.INFRARED: 0,
        }[kind]
        assert calls == Counter(trace_static=1, trace_dynamic=frames - sum(held), sensor=frames - reused)


@pytest.mark.parametrize("case", ["depth_noise_on", "depth_noise_off", "rgb", "infrared"])
def test_held_poses_render_as_frames_rendered_alone(monkeypatch, case):
    """Every frame of a ``peace_sign`` recording, whose held frames reuse
    the trace (and, but for infrared and a new depth noise tile, the pixels)
    of the frame before, has the bytes of the frame rendered alone, and the
    recording's warning counters are those of its frames rendered alone."""
    from handsynth import pipeline
    from handsynth.gesture import WarningCounters, builtin_scripts
    from handsynth.variation import VariantParams

    cam = _window_camera(case)
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    setup = pipeline._setup_recording(
        builtin_scripts()["peace_sign"], cam, VariantParams.neutral(), False, case != "depth_noise_off"
    )
    held = _pose_runs(setup)
    assert sum(held) >= cam.fps - 1
    counters, alone_counters = WarningCounters(), WarningCounters()
    frames = list(pipeline._frames(setup, cam, counters))
    assert len(frames) == setup.timeline.total_frames
    for i, frame in enumerate(frames):
        alone = pipeline._render_frame(setup, cam, i, alone_counters)
        assert frame.frame_index == i and frame.kind == alone.kind and frame.camera_id == alone.camera_id
        assert frame.pixels.dtype == alone.pixels.dtype and frame.pixels.tobytes() == alone.pixels.tobytes(), i
    assert counters.as_dict() == alone_counters.as_dict()


@pytest.mark.parametrize("kind", [CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED])
@pytest.mark.parametrize("case", ["depth_noise_on", "camera_plane"])
def test_recording_renders_without_floating_point_warnings(monkeypatch, case, kind):
    """The kernels let NaN run through (a missed ray's square root, 0 * inf
    in a slab test) only inside their ``np.errstate``: a whole recording,
    its static trace included, renders with every warning an error."""
    import warnings
    from dataclasses import replace

    from handsynth import pipeline
    from handsynth.gesture import builtin_scripts
    from handsynth.variation import VariantParams

    cam = replace(_window_camera(case), kind=kind)
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = pipeline.render_recording(builtin_scripts()["swipe_up"], cam, VariantParams.neutral())
    assert len(rec.frames) == rec.timeline.total_frames > 0


@pytest.mark.parametrize("kind", [CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED])
def test_capsules_off_screen_give_the_background(kind):
    cam = _cam(resolution=(48, 36), kind=kind)
    sp = SensorParams()
    noise = make_flipbook(sp, 2)
    base = trace_depth(scene_from_primitives(planes=[(vec(0, 0, -100.0), vec(0, 0, 1.0))]), cam)
    static = sensor_frame(base, cam, sp, noise, 5).pixels
    off_screen = scene_from_primitives(capsules=[(vec(400.0, 0, -90.0), vec(420.0, 0, -90.0), 3.0)])
    buf = trace_depth(off_screen, cam, base=base)
    assert buf.window == (0, 0, 0, 0)
    background = sensor_backgrounds(base, cam, sp, noise)[noise.tile_index(5)]
    frame = sensor_frame(buf, cam, sp, noise, 5, background=background)
    assert np.array_equal(frame.pixels, static)


@pytest.mark.parametrize("kind", [CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED])
def test_sensor_backgrounds_are_the_base_sensed_at_each_tile(kind):
    """One background per flipbook tile.  Depth with noise: each tile's is
    the static base sensed over the empty background at the tile's first
    frame; without noise, one clean frame for every tile.  RGB and infrared:
    one object, repeated, the base sensed before any blur."""
    from dataclasses import replace

    from handsynth.scene import gesture_anchor, preset_camera, static_scene
    from handsynth.skeleton import default_rig

    rig = default_rig()
    cam = preset_camera("infotainment", "b", kind, gesture_anchor(rig), resolution=(80, 60))
    sp = replace(cam.sensor, blur_radius=0.0)
    noise = make_flipbook(sp, 7)
    base = trace_depth(static_scene(rig), cam)
    noisy, clean = sensor_backgrounds(base, cam, sp, noise), sensor_backgrounds(base, cam, sp)
    assert len(noisy) == len(clean) == noise.tile_count > 1
    if kind != CameraKind.DEPTH:
        assert all(entry is noisy[0] for entry in noisy) and all(entry is clean[0] for entry in clean)
        pixels = noisy[0] if kind == CameraKind.RGB else noisy[0].pixels
        assert np.array_equal(pixels, sensor_frame(base, cam, sp, noise, 0).pixels)
        return
    for t, entry in enumerate(noisy):
        want = sensor_frame(base, cam, sp, noise, t * noise.frames_per_tile).pixels
        assert entry.dtype == want.dtype and np.array_equal(entry, want), f"tile {t}"
    assert len({entry.tobytes() for entry in noisy}) == noise.tile_count  # each tile its own noise
    assert all(entry is clean[0] for entry in clean)
    assert np.array_equal(clean[0], sensor_frame(base, cam, sp, noise, 0, noise_enabled=False).pixels)


@pytest.mark.parametrize(
    "kind, case",
    [
        pytest.param(kind, case, id=kind if case == "dirty_window" else f"{kind}-{case}")
        for case in ("dirty_window", "camera_plane")
        for kind in (CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED)
    ],
)
def test_windowed_buffer_without_background_is_refused(kind, case):
    """A buffer traced on a base needs the background, whether its window is
    the arm's rectangle or, for a capsule reaching the camera plane, the
    whole frame; the same scene traced without a base needs none."""
    cam = _cam(resolution=(48, 36), kind=kind)
    w, h = cam.resolution
    sp = SensorParams()
    noise = make_flipbook(sp, 2)
    base = trace_depth(scene_from_primitives(planes=[(vec(0, 0, -100.0), vec(0, 0, 1.0))]), cam)
    if case == "dirty_window":
        scene = _sphere_scene((0.0, 0.0, -80.0), 6.0)
    else:  # its near end sphere reaches behind the camera; the far end is on screen, off centre
        scene = scene_from_primitives(capsules=[(vec(5.0, 0, -2.0), vec(5.0, 0, -60.0), 2.5)])
    buf = trace_depth(scene, cam, base=base)
    if case == "dirty_window":
        assert buf.window not in ((0, w, 0, h), (0, 0, 0, 0))
    else:
        assert buf.window == (0, w, 0, h) and buf.changed.any() and not buf.changed.all()
    with pytest.raises(ValueError, match=re.escape(f"windowed to (u0, u1, v0, v1) = {buf.window}")):
        sensor_frame(buf, cam, sp, noise, 0)
    alone = trace_depth(scene, cam)
    assert alone.window == (0, w, 0, h)
    assert sensor_frame(alone, cam, sp, noise, 0).pixels.shape[:2] == (h, w)


def test_windowed_base_is_refused():
    """A base must cover the whole frame: a buffer windowed to a sphere,
    used as the base of a second sphere, is refused, and the message names
    its window."""
    cam = _cam(resolution=(48, 36), kind=CameraKind.RGB)
    base = trace_depth(scene_from_primitives(planes=[(vec(0, 0, -100.0), vec(0, 0, 1.0))]), cam)
    first = trace_depth(_sphere_scene((0.0, 0.0, -80.0), 6.0), cam, base=base)
    assert first.window not in ((0, 48, 0, 36), (0, 0, 0, 0))
    with pytest.raises(ValueError, match=re.escape(f"base buffer windowed to (u0, u1, v0, v1) = {first.window}")):
        trace_depth(_sphere_scene((5.0, 2.0, -70.0), 4.0), cam, base=first)
