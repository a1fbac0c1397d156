"""Tests of the benchmark's own checks.

    python3 -m pytest gesturebench/test_checks.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from handsynth.config import VariationConfig  # noqa: E402
from handsynth.evalkit import Trajectory, TrajectoryRecord, dtw_distance  # noqa: E402
from handsynth.gesture import builtin_scripts, plan_timeline  # noqa: E402
from handsynth.output import RecordingEntry, read_frame, write_frame  # noqa: E402
from handsynth.render import Frame  # noqa: E402
from handsynth.scene import (  # noqa: E402
    CameraKind,
    CameraSpec,
    gesture_anchor,
    preset_camera,
    rest_position,
    scene_from_primitives,
)
from handsynth.skeleton import default_rig  # noqa: E402
from handsynth.variation import derive_seed, sample_variant  # noqa: E402

O = np.zeros(3)


def rays(*directions):
    d = np.array(directions, dtype=np.float64)
    return d, np.einsum("ij,ij->i", d, d)


# ---------------------------------------------------------------------------
# ray cast against closed-form hits
# ---------------------------------------------------------------------------


def test_sphere_closed_form():
    d, dd = rays((0, 0, -1), (0, 0, -2), (0, 3, -1), (0, 0, 1))
    t = checks.hit_sphere(O, d, dd, (0, 0, -10), 2.0)
    # front surface at z = -8; the second ray is twice as long per unit t
    assert t[0] == pytest.approx(8.0)
    assert t[1] == pytest.approx(4.0)
    assert np.isinf(t[2]) and np.isinf(t[3])  # passes beside it; points away


def test_capsule_closed_form():
    a, b, r = (-5.0, 0.0, -10.0), (5.0, 0.0, -10.0), 1.0
    o = np.array([0.0, 0.0, 0.0])
    d, dd = rays((0, 0, -1), (5.8, 0, -10), (7, 0, -10))
    t = checks.hit_capsule(o, d, dd, a, b, r)
    assert t[0] == pytest.approx(9.0)  # side of the cylinder
    # the ray (5.8, 0, -10) t leaves the slab x <= 5 before it reaches the
    # tube, so it enters the end sphere: (5.8 t - 5)^2 + (10 t - 10)^2 = 1
    qa, qb, qc = 5.8**2 + 100.0, -2 * (5.8 * 5 + 100.0), 25.0 + 100.0 - 1.0
    expected = (-qb - math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
    assert t[1] == pytest.approx(expected)
    assert np.isinf(t[2])
    # along the axis from outside the end: enters the cap sphere at x = -6
    d2, dd2 = rays((1, 0, 0))
    assert checks.hit_capsule(np.array([-20.0, 0.0, -10.0]), d2, dd2, a, b, r)[0] == pytest.approx(14.0)


def test_box_closed_form():
    lo, hi = np.array([-1.0, -1.0, -12.0]), np.array([1.0, 1.0, -9.0])
    d, _ = rays((0, 0, -1), (0.05, 0.05, -1), (1, 0, 0), (0, 0.5, -1))
    t = checks.hit_box(O, d, lo, hi)
    assert t[0] == pytest.approx(9.0)
    assert t[1] == pytest.approx(9.0)
    assert np.isinf(t[2])  # parallel to the slab, outside it
    assert np.isinf(t[3])  # y reaches 4.5 before z reaches -9


def test_plane_closed_form():
    d, _ = rays((0, 0, -1), (1, 0, -1), (1, 0, 0), (0, 0, 1))
    t = checks.hit_plane(O, d, (0, 0, -10), (0, 0, 1))
    assert list(t[:2]) == pytest.approx([10.0, 10.0])
    assert np.isinf(t[2]) and np.isinf(t[3])


def test_cast_depth_is_camera_z():
    cam = CameraSpec(camera_id="c", position=(0.0, 0.0, 0.0), rotation=(0.0, 0.0, 0.0), resolution=(32, 24))
    scene = scene_from_primitives(
        capsules=[(np.array([0.0, 0.0, -30.0]), np.array([0.0, 0.0, -30.0]), 4.0)],
        planes=[(np.array([0.0, 0.0, -50.0]), np.array([0.0, 0.0, 1.0]))],
    )
    depth, cls, owner = checks.cast(scene, cam)
    # a wall facing the camera is 50 cm deep at every pixel, however oblique the ray
    wall = cls == checks.ENVIRONMENT
    assert wall.sum() > 0 and np.allclose(depth[wall], 50.0)
    assert cls[12, 16] == checks.BODY and owner[12, 16] == 0
    assert (owner[wall] == -1).all()
    # the pixel centre (16.5, 12.5) ray meets the sphere; closed form in camera space
    tan = math.tan(math.radians(30.0))
    ray = np.array([(16.5 / 32 * 2 - 1) * tan, (1 - 12.5 / 24 * 2) * tan * 24 / 32, -1.0])
    qa, qb, qc = ray @ ray, -2 * ray @ np.array([0, 0, -30.0]), 900.0 - 16.0
    assert depth[12, 16] == pytest.approx((-qb - math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa))


# ---------------------------------------------------------------------------
# the screen-bounds fault's zone
# ---------------------------------------------------------------------------


def _sphere_scene(center, radius):
    c = np.array(center, dtype=np.float64)
    return scene_from_primitives(capsules=[(c, c, radius)])


def test_near_only_rectangle_clips_the_side_facing_the_axis():
    cam = CameraSpec(camera_id="c", position=(0.0, 0.0, 0.0), rotation=(0.0, 0.0, 0.0), resolution=(320, 240))
    for center, toward_axis in (((-12.0, -9.0, -30.0), "right and top"), ((12.0, 9.0, -30.0), "left and bottom")):
        scene = _sphere_scene(center, 6.0)
        _, _, owner = checks.cast(scene, cam)
        vs, us = np.nonzero(owner == 0)
        u0, u1, v0, v1 = checks.capsule_rect(cam, scene.capsule_a[0], scene.capsule_b[0], 6.0, near_only=False)
        assert (u0 <= us).all() and (us < u1).all() and (v0 <= vs).all() and (vs < v1).all()
        n0, n1, m0, m1 = checks.capsule_rect(cam, scene.capsule_a[0], scene.capsule_b[0], 6.0, near_only=True)
        clipped = ~((n0 <= us) & (us < n1) & (m0 <= vs) & (vs < m1))
        assert clipped.sum() > 100
        # the near-depth-only rectangle loses the sphere's side toward the screen centre
        if toward_axis == "right and top":
            assert ((us[clipped] >= n1) | (vs[clipped] < m0)).all()
        else:
            assert ((us[clipped] < n0) | (vs[clipped] >= m1)).all()
        zone = checks.fault_zone(scene, cam, owner)
        assert zone.sum() == clipped.sum() and (owner[zone] == 0).all()
    # a sphere across the optical axis keeps all its pixels
    scene = _sphere_scene((1.0, -1.0, -30.0), 6.0)
    _, _, owner = checks.cast(scene, cam)
    assert (owner == 0).sum() > 1000 and not checks.fault_zone(scene, cam, owner).any()


# ---------------------------------------------------------------------------
# a frame missing body pixels is flagged
# ---------------------------------------------------------------------------


def _entry(gesture="swipe_up", fps=30.0, resolution=(160, 120)):
    rig = default_rig()
    cam = preset_camera("infotainment", "depth0", CameraKind.DEPTH, gesture_anchor(rig), resolution=resolution, fps=fps)
    seed = derive_seed(3, gesture, 0, cam.camera_id)
    variant = sample_variant(VariationConfig(), {}, seed, 0)
    timeline = plan_timeline(builtin_scripts()[gesture], rest_position(rig), gesture_anchor(rig), fps, variant)
    entry = RecordingEntry(
        gesture_label=gesture,
        variant_index=0,
        camera_id=cam.camera_id,
        kind=CameraKind.DEPTH,
        frame_dir="x",
        frame_count=timeline.total_frames,
        fps=fps,
        resolution=resolution,
        label_span=timeline.label_span,
        variant_params=variant,
        seed=seed,
    )
    sensor = cam.sensor.with_variant(variant.chromaticity_coeff, variant.depth_min, variant.depth_max)
    return entry, cam, sensor


def _encode(depth, sensor):
    span = (sensor.depth_max - sensor.depth_min) / sensor.chromaticity_coeff
    g = np.clip((depth - sensor.depth_min) / span, 0.0, 1.0)
    return np.where(np.isfinite(depth), 1 + np.rint(g * (checks.CODE_MAX - 1)), 0).astype(np.uint16)


def _first(mask, count):
    """The first ``count`` set pixels of a mask, in row-major order."""
    return mask & (np.cumsum(mask, axis=None).reshape(mask.shape) <= count)


def test_lost_body_patch_is_flagged():
    entry, cam, sensor = _entry()
    index = entry.label_span[0] + 3
    depth, cls, _ = checks.cast(checks.frame_scene(entry, index), cam)
    codes = _encode(depth, sensor)
    nowhere = np.zeros(cls.shape, dtype=bool)
    assert checks.depth_mismatches(codes, depth, cls, nowhere, sensor) == (0, 0)

    # replace a patch of arm pixels by the cast of the scene without the arm
    scene = checks.frame_scene(entry, index)
    n_static = len(scene.capsule_r) - 18  # upper arm, forearm, palm, 15 phalanges
    no_arm = scene_from_primitives(
        capsules=list(zip(scene.capsule_a[:n_static], scene.capsule_b[:n_static], scene.capsule_r[:n_static])),
        boxes=list(zip(scene.box_min, scene.box_max)),
        planes=list(zip(scene.plane_point, scene.plane_normal)),
    )
    behind, _, _ = checks.cast(no_arm, cam)
    patch = _first((depth < behind - 5.0) & (cls == checks.BODY), 12)
    assert patch.sum() == 12
    spoiled = np.where(patch, _encode(behind, sensor), codes)
    # outside the fault's zone the lost pixels are mismatches of another kind
    assert checks.depth_mismatches(spoiled, depth, cls, nowhere, sensor) == (0, 12)
    assert checks.depth_mismatches(spoiled, depth, cls, patch, sensor) == (12, 0)

    # the same patch in a shaded frame: body shown as cabin
    seen = cls.copy()
    seen[patch] = checks.ENVIRONMENT
    assert checks.class_mismatches(seen, cls, nowhere) == (0, 12)
    assert checks.class_mismatches(seen, cls, patch) == (12, 0)


def test_dropout_only_where_the_noise_model_allows():
    entry, cam, sensor = _entry()
    index = entry.label_span[0] + 3
    depth, cls, _ = checks.cast(checks.frame_scene(entry, index), cam)
    codes = _encode(depth, sensor)
    nowhere = np.zeros(cls.shape, dtype=bool)
    possible = checks.dropout_possible(depth, sensor)
    body = cls == checks.BODY
    # the body's interior is near and smooth: no dropout there; its silhouette may drop
    assert (body & ~possible).sum() > 100 and (body & possible).sum() > 0

    patch = _first(body & ~possible, 12)
    assert checks.depth_mismatches(np.where(patch, 0, codes), depth, cls, nowhere, sensor) == (0, 12)
    assert checks.depth_mismatches(np.where(patch, 0, codes), depth, cls, patch, sensor) == (12, 0)
    allowed = _first(body & possible, 12)
    assert checks.depth_mismatches(np.where(allowed, 0, codes), depth, cls, nowhere, sensor) == (0, 0)
    # a frame of dropouts only is flagged wherever the cast hits and no dropout can happen
    all_dropped = checks.depth_mismatches(np.zeros_like(codes), depth, cls, nowhere, sensor)
    assert all_dropped == (0, int((np.isfinite(depth) & ~possible).sum()))


def test_class_mismatch_allows_blur_radius():
    cast_cls = np.full((10, 10), checks.ENVIRONMENT, dtype=np.uint8)
    cast_cls[4:6, 4:6] = checks.BODY
    nowhere = np.zeros(cast_cls.shape, dtype=bool)
    seen = cast_cls.copy()
    seen[3, 3] = checks.BODY  # one pixel off the rim: blur
    assert checks.class_mismatches(seen, cast_cls, nowhere, radius_px=2) == (0, 0)
    assert checks.class_mismatches(seen, cast_cls, nowhere) == (0, 1)
    seen[4, 4] = checks.MISS  # body shown as a miss
    assert checks.class_mismatches(seen, cast_cls, nowhere) == (0, 2)
    zone = nowhere.copy()
    zone[5, 5] = True  # a blurred frame may show a lost zone pixel up to the radius away
    assert checks.class_mismatches(seen, cast_cls, zone) == (0, 2)
    assert checks.class_mismatches(seen, cast_cls, zone, radius_px=1) == (1, 0)


def test_shaded_classes():
    px = np.array([[[0, 0, 0], [56, 45, 37], [24, 24, 25], [40, 200, 90], [15, 20, 70]]], dtype=np.uint8)
    assert list(checks.rgb_classes(px[:, :3])[0]) == [checks.MISS, checks.BODY, checks.ENVIRONMENT]
    assert list(checks.infrared_classes(px[:, [0, 3, 4]])[0]) == [checks.MISS, checks.BODY, checks.ENVIRONMENT]


def test_netpbm_reader_matches_the_program(tmp_path):
    pixels = (np.arange(12, dtype=np.uint16) * 5000).reshape(3, 4)
    path = str(tmp_path / "f.pgm")
    write_frame(Frame(kind="depth16", pixels=pixels, frame_index=0, camera_id="c"), path)
    assert np.array_equal(checks.frame_pixels(path, "depth", (4, 3)), read_frame(path))
    with pytest.raises(ValueError):
        checks.frame_pixels(path, "depth", (3, 4))
    with pytest.raises(ValueError):
        checks.frame_pixels(path, "rgb", (4, 3))


# ---------------------------------------------------------------------------
# textbook DTW and leave-one-out
# ---------------------------------------------------------------------------


def test_dtw_hand_computed():
    # costs |a_i - b_j| = [[0, 2], [1, 1], [2, 0]]; D[3][2] = 0 + min(1, 3, 1) = 1
    assert checks.dtw([[0], [1], [2]], [[0], [2]]) == 1.0
    assert checks.dtw([[0, 0, 0]], [[3, 4, 0]]) == 5.0
    # every point of the longer sequence is matched: 0 + 1 + 1 + 0
    assert checks.dtw([[0], [1], [1], [0]], [[0], [0]]) == 2.0
    assert checks.dtw([[1], [2], [3]], [[1], [2], [3]]) == 0.0


def test_dtw_equals_program_on_random_sequences():
    rng = np.random.default_rng(7)
    for n, m in ((5, 9), (12, 4), (1, 7)):
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        assert checks.dtw(a, b) == pytest.approx(dtw_distance(a, b), rel=1e-12)


def test_leave_one_out_tie_rule():
    def rec(label, variant, x):
        return TrajectoryRecord(Trajectory(points=np.array([[x, 0.0, 0.0]]), confidence=1.0), label, variant)

    # the query at 1 is equally far from "a" (0) and "b" (2): the lower label wins
    records = [rec("b", 0, 2.0), rec("a", 0, 0.0), rec("c", 0, 1.0), rec("c", 1, 10.0)]
    predictions, confusion = checks.leave_one_out(records)
    assert predictions == ["c", "c", "a", "b"]
    assert confusion["c"] == {"a": 1, "b": 1, "c": 0}
    assert checks.confusion_disagreements(confusion, confusion) == 0
    other = {k: dict(v) for k, v in confusion.items()}
    other["c"] = {"a": 0, "b": 1, "c": 1}
    assert checks.confusion_disagreements(other, confusion) == 1
