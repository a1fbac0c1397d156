import math

import numpy as np
import pytest

from handsynth.geom import mirror_x, normalize, vec
from handsynth.skeleton import (
    ArmRig,
    HAND_POSE_PRESETS,
    HandPose,
    default_rig,
    pose_hand,
    solve_two_bone_ik,
    target_clamped,
)


def _ccd_planar(l1, l2, d, iterations=2000):
    """Iterative 2D CCD oracle: chain along +x bending in the (x, y) plane
    toward a target at (d, 0), elbow kept on the +y side."""
    a1, a2 = math.radians(30.0), math.radians(-60.0)  # elbow-up initial guess
    target = np.array([d, 0.0])

    def joints(a1, a2):
        elbow = np.array([l1 * math.cos(a1), l1 * math.sin(a1)])
        wrist = elbow + np.array([l2 * math.cos(a1 + a2), l2 * math.sin(a1 + a2)])
        return elbow, wrist

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for _ in range(iterations):
        elbow, wrist = joints(a1, a2)
        # rotate forearm about the elbow toward the target
        v1, v2 = wrist - elbow, target - elbow
        a2 += math.atan2(cross2(v1, v2), np.dot(v1, v2))
        elbow, wrist = joints(a1, a2)
        # rotate whole chain about the shoulder
        v1, v2 = wrist, target
        a1 += math.atan2(cross2(v1, v2), np.dot(v1, v2))
    return joints(a1, a2)


def test_full_extension_collinear():
    rig = ArmRig(shoulder_pos=vec(0, 0, 0), upper_len=30.0, fore_len=28.0)
    elbow, wrist = solve_two_bone_ik(rig, vec(58.0, 0.0, 0.0))
    assert np.linalg.norm(wrist - vec(58.0 - 1e-4, 0, 0)) < 1e-9  # clamped by eps
    # elbow collinear on the shoulder-target axis, 30 cm out
    # the reach clamp leaves a sub-millimeter bend; collinear to that scale
    assert abs(elbow[0] - 30.0 * (58.0 - 1e-4) / 58.0) < 0.05
    assert abs(elbow[1]) < 0.05 and abs(elbow[2]) < 0.05


def test_right_angle_law_of_cosines():
    rig = ArmRig(shoulder_pos=vec(0, 0, 0), upper_len=1.0, fore_len=1.0)
    elbow, wrist = solve_two_bone_ik(rig, vec(math.sqrt(2.0), 0.0, 0.0))
    upper = elbow - rig.shoulder_pos
    fore = wrist - elbow
    cos_interior = float(np.dot(-upper, fore))  # unit bones
    assert abs(cos_interior) < 1e-9  # 90 degrees between bones


def test_random_reachable_targets_and_ccd_oracle(rng, rig):
    lo = rig.reach_min + 2e-4
    hi = rig.reach_max - 2e-4
    for _ in range(300):
        direction = normalize(rng.normal(size=3))
        d = float(rng.uniform(lo + 0.5, hi - 0.5))
        target = rig.shoulder_pos + d * direction
        elbow, wrist = solve_two_bone_ik(rig, target)
        assert np.linalg.norm(wrist - target) < 1e-6
        assert abs(np.linalg.norm(elbow - rig.shoulder_pos) - rig.upper_len) < 1e-6
        assert abs(np.linalg.norm(wrist - elbow) - rig.fore_len) < 1e-6
        # CCD oracle agreement in the bend plane: same elbow distance from
        # the shoulder-target axis and same along-axis offset
        ccd_elbow, ccd_wrist = _ccd_planar(rig.upper_len, rig.fore_len, d)
        assert abs(np.linalg.norm(ccd_wrist - np.array([d, 0.0]))) < 1e-5
        along = float(np.dot(elbow - rig.shoulder_pos, direction))
        perp = math.sqrt(max(np.linalg.norm(elbow - rig.shoulder_pos) ** 2 - along**2, 0.0))
        assert abs(along - ccd_elbow[0]) < 1e-4
        assert abs(perp - abs(ccd_elbow[1])) < 1e-4


def test_degenerate_target_errors(rig):
    with pytest.raises(ValueError, match="shoulder"):
        solve_two_bone_ik(rig, rig.shoulder_pos + vec(1e-12, 0, 0))


def test_target_clamped_detection(rig):
    assert target_clamped(rig, rig.shoulder_pos + vec(100.0, 0, 0))
    assert target_clamped(rig, rig.shoulder_pos + vec(0.5, 0, 0))
    assert not target_clamped(rig, rig.shoulder_pos + vec(40.0, 0, 0))


def test_pole_vector_continuity(rig):
    # straight-line target sweep: elbow must not flip branches
    start = rig.shoulder_pos + vec(10.0, -20.0, -35.0)
    end = rig.shoulder_pos + vec(25.0, 20.0, -30.0)
    n_steps = int(np.linalg.norm(end - start) / 0.5) + 1
    prev = None
    for i in range(n_steps + 1):
        target = start + (end - start) * (i / n_steps)
        elbow, _ = solve_two_bone_ik(rig, target)
        if prev is not None:
            assert np.linalg.norm(elbow - prev) <= 5.0
        prev = elbow


def test_mirror_symmetry():
    right = default_rig(is_left=False)
    left = ArmRig(
        shoulder_pos=mirror_x(right.shoulder_pos),
        elbow_pole=normalize(mirror_x(right.elbow_pole)),
        is_left=True,
    )
    target = right.shoulder_pos + vec(12.0, -18.0, -30.0)
    e_r, w_r = solve_two_bone_ik(right, target)
    e_l, w_l = solve_two_bone_ik(left, mirror_x(target))
    assert np.linalg.norm(e_l - mirror_x(e_r)) < 1e-9
    assert np.linalg.norm(w_l - mirror_x(w_r)) < 1e-9

    pose = HandPose(abduction=(0.0, 10.0, 0.0, -5.0, 0.0), curl=(20.0, 0.0, 30.0, 0.0, 45.0))
    aim = normalize(vec(0.7, 0.1, -0.7))
    sk_r = pose_hand(right, target, aim, pose)
    sk_l = pose_hand(left, mirror_x(target), normalize(mirror_x(aim)), pose)
    assert np.linalg.norm(sk_l.wrist - mirror_x(sk_r.wrist)) < 1e-9
    tips_r_mirrored = sk_r.fingertips.copy()
    tips_r_mirrored[:, 0] = -tips_r_mirrored[:, 0]
    assert np.abs(sk_l.fingertips - tips_r_mirrored).max() < 1e-9


def test_open_palm_straight_chain(rig):
    wrist_target = rig.shoulder_pos + vec(10.0, 5.0, -40.0)
    aim = vec(1.0, 0.0, 0.0)
    sk = pose_hand(rig, wrist_target, aim, HandPose())
    lengths = np.asarray(rig.finger_lengths)
    for finger in range(1, 5):  # non-thumb fingers extend straight along the palm axis
        tip = sk.finger_joints[finger, 3]
        along = float(np.dot(tip - sk.wrist, aim))
        expected = rig.palm_len + lengths[finger].sum()
        assert abs(along - expected) < 1e-9
        # parallel to the palm axis: zero spread beyond the knuckle offset
        knuckle = sk.finger_joints[finger, 0]
        perp = (tip - knuckle) - aim * float(np.dot(tip - knuckle, aim))
        assert np.linalg.norm(perp) < 1e-9


def test_curl_matches_2d_forward_kinematics(rig):
    # independent 2D oracle: equal segment lengths, 90 deg at each joint
    seg = 2.0
    rig_eq = ArmRig(
        shoulder_pos=rig.shoulder_pos,
        finger_lengths=np.full((5, 3), seg),
    )
    wrist_target = rig.shoulder_pos + vec(0.0, 0.0, -40.0)
    aim = vec(0.0, 1.0, 0.0)
    sk = pose_hand(rig_eq, wrist_target, aim, HandPose(curl=(0.0, 90.0, 0.0, 0.0, 0.0)))
    knuckle = sk.finger_joints[1, 0]
    tip = sk.finger_joints[1, 3]

    # 2D composition in the (palm axis, palm normal) plane: direction turns
    # 90 deg toward the palm side at every joint
    direction = np.array([1.0, 0.0])
    pos = np.array([0.0, 0.0])
    for _ in range(3):
        direction = np.array([direction[1], -direction[0]])  # rotate -90 deg
        pos = pos + seg * direction
    # embed: palm axis = aim (+y), palm normal points at the camera side (-z)
    axis3 = np.array([0.0, 1.0, 0.0])
    normal3 = np.array([0.0, 0.0, -1.0])
    expected_tip = knuckle + pos[0] * axis3 + pos[1] * normal3
    assert np.linalg.norm(tip - expected_tip) < 1e-9


def test_abduction_locality(rig):
    wrist_target = rig.shoulder_pos + vec(5.0, 0.0, -42.0)
    aim = vec(1.0, 0.0, 0.0)
    base = pose_hand(rig, wrist_target, aim, HandPose())
    spread = pose_hand(
        rig, wrist_target, aim, HandPose(abduction=(0.0, 10.0, 0.0, 0.0, 0.0))
    )
    moved = np.abs(base.finger_joints - spread.finger_joints).max(axis=(1, 2))
    assert moved[1] > 0.1  # index moved
    assert moved[0] == 0.0 and np.all(moved[2:] == 0.0)  # everything else bit-identical


def test_keypoints_shape_and_extent(rig):
    sk = pose_hand(rig, rig.shoulder_pos + vec(0, 0, -40.0), vec(1, 0, 0), HandPose())
    tips = sk.fingertips
    assert sk.wrist.shape == (3,) and tips.shape == (5, 3)
    # straight open palm along +x: fingertips lead the wrist in x, and the
    # cross-axis spread stays within the knuckle breadth
    assert np.all(tips[:, 0] > sk.wrist[0])
    # non-thumb fingertips stay within the knuckle breadth; the thumb
    # swings out to the side by design
    spread = tips[1:, 1:].max(axis=0) - tips[1:, 1:].min(axis=0)
    assert np.all(spread < 8.0)


def test_pose_clamping():
    pose = HandPose(curl=(500.0,) * 5, abduction=(90.0, -90.0, 0.0, 0.0, 0.0)).clamped()
    assert all(c <= 110.0 for c in pose.curl)
    assert pose.abduction[0] == 25.0 and pose.abduction[1] == -25.0


def test_capsule_count_covers_every_bone(rig):
    sk = pose_hand(rig, rig.shoulder_pos + vec(0, 0, -40.0), vec(1, 0, 0), HandPose())
    # upper arm + forearm + palm + 15 phalanges
    assert len(sk.capsules) == 18
    for a, b, r in sk.capsules:
        assert r > 0


def test_presets_exist():
    assert set(HAND_POSE_PRESETS) == {"open_palm", "two_finger", "peace", "point", "grip"}
