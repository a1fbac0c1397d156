"""Kinematic arm + hand model posed per frame.

The arm is a two-bone chain (upper arm, forearm) solved analytically with
the law of cosines; the elbow lands in the plane spanned by the
shoulder-to-target axis and a fixed pole vector.  The hand is a palm
capsule plus 5 x 3 phalanx capsules, aimed along the path tangent and
articulated by curl / abduction / wrist-rotation angles.  Everything is a
plain capsule so the renderer gets closed-form intersections and exact
normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import Vec3, axis_angle_matrix, euler_deg_to_matrix, norm, normalize, vec

REACH_EPS = 1e-4  # cm, margin kept from both reach limits when clamping

FINGER_NAMES = ("thumb", "index", "middle", "ring", "pinky")

# Lateral knuckle offsets across the palm (cm, +x = thumb side of a right
# hand).  The thumb roots at the side of the mid palm instead of the
# knuckle row.
_KNUCKLE_X = (3.4, 2.4, 0.8, -0.8, -2.4)
_THUMB_REST_SWING_DEG = 50.0  # thumb rest direction, swung from the palm axis

CURL_LIMIT_DEG = (0.0, 110.0)
ABDUCTION_LIMIT_DEG = (-25.0, 25.0)


@dataclass(frozen=True)
class ArmRig:
    """Bone lengths and chain configuration for one arm."""

    shoulder_pos: Vec3
    upper_len: float = 30.0
    fore_len: float = 28.0
    palm_len: float = 9.0
    palm_radius: float = 3.2
    # (5 fingers, 3 phalanges) lengths and radii in cm
    finger_lengths: np.ndarray = field(
        default_factory=lambda: np.array(
            [
                [3.0, 2.2, 1.8],  # thumb
                [4.0, 2.5, 2.0],
                [4.4, 2.8, 2.1],
                [4.0, 2.5, 2.0],
                [3.2, 2.0, 1.7],
            ]
        )
    )
    finger_radius: float = 0.8
    elbow_pole: Vec3 = field(default_factory=lambda: normalize(vec(0.0, -0.8, 0.6)))
    is_left: bool = False

    def __post_init__(self):
        if self.upper_len <= 0 or self.fore_len <= 0:
            raise ValueError("bone lengths must be positive")
        if self.palm_len <= 0 or self.palm_radius <= 0 or self.finger_radius <= 0:
            raise ValueError("palm/finger dimensions must be positive")
        if np.any(np.asarray(self.finger_lengths) <= 0):
            raise ValueError("phalanx lengths must be positive")
        if abs(norm(self.elbow_pole) - 1.0) > 1e-9:
            raise ValueError("elbow_pole must be a unit vector")

    @property
    def reach_min(self) -> float:
        return abs(self.upper_len - self.fore_len)

    @property
    def reach_max(self) -> float:
        return self.upper_len + self.fore_len


def default_rig(is_left: bool = False, shoulder_pos: Vec3 | None = None) -> ArmRig:
    """Plausible adult right/left arm; shoulders sit at x = +/-17, y = 45."""
    if shoulder_pos is None:
        shoulder_pos = vec(-17.0, 45.0, 0.0) if is_left else vec(17.0, 45.0, 0.0)
    pole = normalize(vec(0.0, -0.8, 0.6))
    return ArmRig(shoulder_pos=np.asarray(shoulder_pos, dtype=np.float64), elbow_pole=pole, is_left=is_left)


@dataclass(frozen=True)
class HandPose:
    """Finger curl/spread and wrist rotation, all in degrees.

    ``curl[i]`` is applied at each of finger i's three phalanx joints;
    ``abduction[i]`` spreads the finger in the palm plane.
    """

    curl: tuple[float, float, float, float, float] = (0.0, 0.0, 0.0, 0.0, 0.0)
    abduction: tuple[float, float, float, float, float] = (0.0, 0.0, 0.0, 0.0, 0.0)
    wrist_rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    preset_name: str = "open_palm"

    def clamped(self) -> "HandPose":
        curl = tuple(min(max(c, CURL_LIMIT_DEG[0]), CURL_LIMIT_DEG[1]) for c in self.curl)
        abd = tuple(min(max(a, ABDUCTION_LIMIT_DEG[0]), ABDUCTION_LIMIT_DEG[1]) for a in self.abduction)
        return replace(self, curl=curl, abduction=abd)

    def offset(
        self,
        curl_offsets: tuple[float, ...] = (0.0,) * 5,
        abduction_offsets: tuple[float, ...] = (0.0,) * 5,
        wrist_offsets: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> "HandPose":
        return replace(
            self,
            curl=tuple(c + o for c, o in zip(self.curl, curl_offsets)),
            abduction=tuple(a + o for a, o in zip(self.abduction, abduction_offsets)),
            wrist_rotation=tuple(w + o for w, o in zip(self.wrist_rotation, wrist_offsets)),
        ).clamped()


HAND_POSE_PRESETS: dict[str, HandPose] = {
    "open_palm": HandPose(wrist_rotation=(-20.0, 0.0, 0.0), preset_name="open_palm"),
    # extended index/middle angled forward, the rest curled into the fist
    "two_finger": HandPose(
        curl=(100.0, 0.0, 0.0, 100.0, 100.0),
        abduction=(0.0, 2.0, -2.0, 0.0, 0.0),
        wrist_rotation=(45.0, 20.0, 0.0),
        preset_name="two_finger",
    ),
    "peace": HandPose(
        curl=(100.0, 0.0, 0.0, 100.0, 100.0),
        abduction=(0.0, 12.0, -12.0, 0.0, 0.0),
        preset_name="peace",
    ),
    "point": HandPose(
        curl=(105.0, 0.0, 5.0, 105.0, 105.0),
        abduction=(0.0, 0.0, 0.0, 0.0, 0.0),
        preset_name="point",
    ),
    # wheel grip used at the rest position between gesture phases
    "grip": HandPose(
        curl=(45.0, 55.0, 55.0, 55.0, 55.0),
        preset_name="grip",
    ),
}


@dataclass(frozen=True)
class PosedSkeleton:
    """World-space joints and render capsules for one posed arm + hand.

    ``capsules`` is (endpoint A, endpoint B, radius) per bone: upper arm,
    forearm, palm, then 15 phalanges in finger order.
    """

    shoulder: Vec3
    elbow: Vec3
    wrist: Vec3
    palm_end: Vec3
    finger_joints: np.ndarray  # (5, 4, 3): knuckle + 3 joint/tip points per finger
    capsules: tuple[tuple[Vec3, Vec3, float], ...]

    @property
    def fingertips(self) -> np.ndarray:
        return self.finger_joints[:, 3, :]


def target_clamped(rig: ArmRig, wrist_target: Vec3) -> bool:
    """True when the target lies outside the reachable annulus (IK will clamp)."""
    d = norm(np.asarray(wrist_target, dtype=np.float64) - rig.shoulder_pos)
    return d < rig.reach_min + REACH_EPS or d > rig.reach_max - REACH_EPS


def solve_two_bone_ik(rig: ArmRig, wrist_target: Vec3) -> tuple[Vec3, Vec3]:
    """Analytic two-bone IK: returns (elbow_pos, wrist_pos).

    The target distance is clamped into the reachable annulus with a
    REACH_EPS margin; the returned wrist keeps the target's direction.
    The elbow lies in the plane of the shoulder->target axis and the pole
    vector, on the pole side, so bone lengths hold to float precision.
    """
    target = np.asarray(wrist_target, dtype=np.float64)
    offset = target - rig.shoulder_pos
    d = norm(offset)
    if d < 1e-9:
        raise ValueError("target coincides with shoulder")
    direction = offset / d
    d = min(max(d, rig.reach_min + REACH_EPS), rig.reach_max - REACH_EPS)
    wrist = rig.shoulder_pos + direction * d

    pole = rig.elbow_pole - direction * float(np.dot(rig.elbow_pole, direction))
    pn = norm(pole)
    if pn < 1e-9:
        # target parallel to the pole: fall back to the least-aligned world axis
        seed = vec(1.0, 0.0, 0.0) if abs(direction[0]) < 0.9 else vec(0.0, 1.0, 0.0)
        pole = seed - direction * float(np.dot(seed, direction))
        pn = norm(pole)
    pole = pole / pn

    l1, l2 = rig.upper_len, rig.fore_len
    cos_a = (l1 * l1 + d * d - l2 * l2) / (2.0 * l1 * d)
    cos_a = min(1.0, max(-1.0, cos_a))
    sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    elbow = rig.shoulder_pos + l1 * (cos_a * direction + sin_a * pole)
    return elbow, wrist


def _palm_frame(aim_dir: Vec3, wrist_rotation_deg: tuple[float, float, float]) -> np.ndarray:
    """Orthonormal hand frame: columns (lateral, palm normal, palm axis).

    The palm axis follows aim_dir; the palm normal prefers world -Z (facing
    the cabin front / cameras) and falls back to +Y when aiming along Z.
    The wrist rotation is applied on top, in the local frame.
    """
    axis = normalize(np.asarray(aim_dir, dtype=np.float64))
    ref = vec(0.0, 0.0, -1.0)
    if abs(float(np.dot(axis, ref))) > 0.99:
        ref = vec(0.0, 1.0, 0.0)
    normal = ref - axis * float(np.dot(ref, axis))
    normal = normalize(normal)
    lateral = np.cross(normal, axis)
    frame = np.column_stack([lateral, normal, axis])
    return frame @ euler_deg_to_matrix(*wrist_rotation_deg)


def pose_hand(rig: ArmRig, wrist_pos: Vec3, aim_dir: Vec3, pose: HandPose) -> PosedSkeleton:
    """Pose the full arm + hand with the palm axis along aim_dir.

    Order of articulation: palm frame from aim_dir, wrist rotation, then
    per-finger abduction (spread in the palm plane about the palm normal)
    and curl (equal rotation at each phalanx joint about the lateral
    axis).  Left hands mirror the lateral axis.
    """
    pose = pose.clamped()
    wrist = np.asarray(wrist_pos, dtype=np.float64)
    elbow, wrist = solve_two_bone_ik(rig, wrist)
    frame = _palm_frame(aim_dir, pose.wrist_rotation)
    lateral, normal, axis = frame[:, 0].copy(), frame[:, 1].copy(), frame[:, 2].copy()
    if rig.is_left:
        lateral = -lateral

    palm_end = wrist + axis * rig.palm_len
    capsules: list[tuple[Vec3, Vec3, float]] = [
        (rig.shoulder_pos, elbow, 4.5),
        (elbow, wrist, 3.5),
        (wrist, palm_end, rig.palm_radius),
    ]

    finger_joints = np.zeros((5, 4, 3))
    lengths = np.asarray(rig.finger_lengths, dtype=np.float64)
    for i in range(5):
        if i == 0:
            base = wrist + axis * (0.45 * rig.palm_len) + lateral * (rig.palm_radius + 0.2)
            swing = _THUMB_REST_SWING_DEG if not rig.is_left else -_THUMB_REST_SWING_DEG
            rest = axis_angle_matrix(normal, math.radians(swing)) @ axis
        else:
            base = palm_end + lateral * _KNUCKLE_X[i]
            rest = axis
        # abduction: spread in the palm plane (rotation about the palm normal)
        abd = math.radians(pose.abduction[i] if not rig.is_left else -pose.abduction[i])
        direction = axis_angle_matrix(normal, abd) @ rest
        # curl: equal rotation at every phalanx joint, folding toward the palm side
        curl_axis = normalize(np.cross(normal, direction))
        curl_step = axis_angle_matrix(curl_axis, -math.radians(pose.curl[i]))
        finger_joints[i, 0] = base
        p = base
        for j in range(3):
            direction = curl_step @ direction
            nxt = p + direction * lengths[i, j]
            capsules.append((p, nxt, rig.finger_radius))
            finger_joints[i, j + 1] = nxt
            p = nxt

    return PosedSkeleton(
        shoulder=rig.shoulder_pos,
        elbow=elbow,
        wrist=wrist,
        palm_end=palm_end,
        finger_joints=finger_joints,
        capsules=tuple(capsules),
    )

