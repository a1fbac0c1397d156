import math

import numpy as np
import pytest

from handsynth.geom import look_at_euler_deg, vec
from handsynth.scene import (
    CAMERA_PRESET_POSITIONS,
    CameraKind,
    CameraSpec,
    SensorParams,
    TAG_BODY,
    TAG_ENVIRONMENT,
    build_scene,
    camera_from_dict,
    camera_rays,
    camera_to_dict,
    dynamic_scene,
    gesture_anchor,
    preset_camera,
    rest_position,
    static_scene,
)
from handsynth.render import trace_depth
from handsynth.skeleton import HAND_POSE_PRESETS, default_rig, pose_hand


def _cam(resolution=(321, 241), rotation=(0.0, 0.0, 0.0), fov=90.0, position=(0.0, 0.0, 0.0)):
    return CameraSpec(
        camera_id="test",
        kind=CameraKind.DEPTH,
        position=position,
        rotation=rotation,
        fov_deg=fov,
        resolution=resolution,
    )


def test_center_pixel_is_forward_axis_odd_resolution():
    cam = _cam()
    d = camera_rays(cam)[1][120, 160]
    assert np.linalg.norm(d - vec(0, 0, -1)) < 1e-12


def test_center_is_forward_within_half_pixel_even_resolution():
    cam = _cam(resolution=(320, 240))
    d = camera_rays(cam)[1][120, 160]
    # half a pixel off center at most
    angle = math.degrees(math.acos(min(1.0, -float(d[2]))))
    assert angle <= math.degrees(math.atan(math.tan(math.radians(45)) / 160))


def test_leftmost_column_angle_at_fov90():
    cam = _cam()
    d = camera_rays(cam)[1][120, 0]
    angle = math.degrees(math.atan2(float(d[0]), -float(d[2])))
    half_pixel = 90.0 / 321
    assert abs(angle - (-45.0)) < half_pixel


def test_all_rays_unit_norm():
    cam = _cam(resolution=(64, 48), rotation=(10.0, -30.0, 5.0))
    _, dirs = camera_rays(cam)
    norms = np.linalg.norm(dirs, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_world_camera_round_trip(rng):
    cam = _cam(rotation=(12.0, -40.0, 7.0), position=(5.0, -3.0, 10.0))
    pts = rng.uniform(-100, 100, size=(50, 3))
    back = cam.camera_to_world(cam.world_to_camera(pts))
    assert np.abs(back - pts).max() < 1e-9


def test_presets_view_anchor_centrally():
    rig = default_rig()
    anchor = gesture_anchor(rig)
    for name in CAMERA_PRESET_POSITIONS:
        cam = preset_camera(name, f"{name}0", CameraKind.DEPTH, anchor)
        x, y, z = cam.world_to_camera(anchor)
        w, h = cam.resolution
        tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
        # in front of the camera, inside the central 50 percent of the frame
        assert z < 0
        assert abs(x / -z) < tan_half / 2
        assert abs(y / -z) < tan_half * h / w / 2


def test_look_at_points_camera_minus_z():
    position = vec(10.0, 20.0, 30.0)
    target = vec(-5.0, 4.0, -40.0)
    rotation = look_at_euler_deg(position, target)
    cam = _cam(rotation=rotation, position=tuple(position))
    forward = cam.rotation_matrix @ vec(0, 0, -1)
    expected = (target - position) / np.linalg.norm(target - position)
    assert np.linalg.norm(forward - expected) < 1e-9


def test_rest_and_anchor_mirroring():
    right = default_rig(is_left=False)
    left = default_rig(is_left=True)
    ar, al = gesture_anchor(right), gesture_anchor(left)
    rr, rl = rest_position(right), rest_position(left)
    assert ar[0] == -al[0] and ar[1] == al[1] and ar[2] == al[2]
    assert rr[0] == -rl[0] and rr[1] == rl[1] and rr[2] == rl[2]


def test_build_scene_deterministic_and_tagged(rig):
    posed = pose_hand(
        rig, rig.shoulder_pos + vec(0, 5, -40.0), vec(1, 0, 0), HAND_POSE_PRESETS["open_palm"]
    )
    a = build_scene(rig, posed)
    b = build_scene(rig, posed)
    assert np.array_equal(a.capsule_a, b.capsule_a)
    assert np.array_equal(a.box_min, b.box_min)
    assert np.array_equal(a.plane_point, b.plane_point)
    assert set(np.unique(a.capsule_tag)) == {TAG_BODY}
    assert set(np.unique(a.box_tag)) == {TAG_ENVIRONMENT}


def test_hand_occluded_behind_torso(rig, depth_cam):
    # wrist parked just in front of the torso shell; the camera ray to it
    # must hit the torso first
    target = vec(10.0, 30.0, 12.0)
    posed = pose_hand(rig, target, vec(0, 0, 1.0), HAND_POSE_PRESETS["open_palm"])
    # aimed at the wrist, so the wrist lies on the centre pixel's ray
    position = np.asarray(depth_cam.position)
    cam = _cam(
        resolution=(321, 241),
        rotation=look_at_euler_deg(position, posed.wrist),
        fov=depth_cam.fov_deg,
        position=depth_cam.position,
    )
    buf = trace_depth(build_scene(rig, posed), cam)
    wrist_depth = -float(cam.world_to_camera(posed.wrist)[2])
    # the arm's own surface lies within a forearm radius (3.5 cm) of the wrist
    assert buf.depth[120, 160] < wrist_depth - 10.0
    assert buf.tag[120, 160] == TAG_BODY


def test_static_plus_dynamic_equals_full_trace(rig, depth_cam):
    posed = pose_hand(
        rig, gesture_anchor(rig), vec(1, 0, 0), HAND_POSE_PRESETS["two_finger"]
    )
    full = trace_depth(build_scene(rig, posed), depth_cam)
    base = trace_depth(static_scene(rig), depth_cam)
    split = trace_depth(dynamic_scene(posed), depth_cam, base=base)
    assert np.array_equal(full.depth, split.depth)
    assert np.array_equal(full.tag, split.tag)
    assert np.array_equal(full.normal, split.normal)


def test_camera_serialization_round_trip():
    cam = preset_camera(
        "top", "t0", CameraKind.INFRARED, gesture_anchor(default_rig()), resolution=(64, 48)
    )
    assert camera_from_dict(camera_to_dict(cam)) == cam


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorParams(depth_min=100.0, depth_max=50.0)
    with pytest.raises(ValueError):
        SensorParams(dropout_threshold=0.0)
    with pytest.raises(ValueError):
        SensorParams(fresnel_exponent=0.0)


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraSpec(camera_id="x", fov_deg=5.0)
    with pytest.raises(ValueError):
        CameraSpec(camera_id="x", resolution=(8, 8))
    with pytest.raises(ValueError):
        CameraSpec(camera_id="x", kind="thermal")
