"""World composition: seated character proxy, cabin proxy geometry,
gesture anchor and camera rig.

Layout (see geom.py for conventions): the driver sits near the origin
facing -Z, right shoulder at (17, 45, 0).  The gesture anchor floats in
front of the gesturing shoulder; cameras sit toward the cabin front and
look back at the anchor.  Geometry is capsules for the body and
axis-aligned boxes / planes for the environment, each tagged Body or
Environment (the tag drives the infrared shading).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import Vec3, euler_deg_to_matrix, look_at_euler_deg, mirror_x, normalize, vec
from .skeleton import HAND_POSE_PRESETS, ArmRig, PosedSkeleton, default_rig, pose_hand

TAG_NONE = 0
TAG_BODY = 1
TAG_ENVIRONMENT = 2

# offsets from the gesturing shoulder, x mirrored for the left hand
REST_OFFSET = (-10.0, -15.0, -25.0)  # hand resting on the wheel
ANCHOR_OFFSET = (0.0, 5.0, -45.0)  # gesture volume, within arm's reach


def rest_position(rig: ArmRig) -> np.ndarray:
    off = vec(*REST_OFFSET)
    if rig.is_left:
        off = mirror_x(off)
    return rig.shoulder_pos + off


def gesture_anchor(rig: ArmRig) -> np.ndarray:
    off = vec(*ANCHOR_OFFSET)
    if rig.is_left:
        off = mirror_x(off)
    return rig.shoulder_pos + off


class CameraKind:
    RGB = "rgb"
    DEPTH = "depth"
    INFRARED = "infrared"

    ALL = (RGB, DEPTH, INFRARED)


@dataclass(frozen=True)
class SensorParams:
    """Sensor-model constants for one camera."""

    chromaticity_coeff: float = 1.0
    depth_min: float = 20.0  # cm
    depth_max: float = 150.0  # cm
    noise_dist_weight: float = 0.45  # k_d, distance term of the noise intensity
    noise_edge_weight: float = 0.7  # k_e, depth-gradient term
    edge_scale: float = 5.0  # g0, cm of depth gradient treated as a full edge
    dropout_threshold: float = 0.6  # tau, pixels with intensity*noise above it drop
    depth_jitter: float = 1.0  # sigma_d, cm of jitter on surviving pixels
    flipbook_tile_px: int = 64
    flipbook_tile_count: int = 8
    flipbook_frames_per_tile: int = 4
    fresnel_exponent: float = 2.0
    blur_radius: float = 2.0  # px, infrared edge blur offset scale
    ambient: float = 0.25

    def __post_init__(self):
        if self.depth_min >= self.depth_max:
            raise ValueError("depth_min must be below depth_max")
        # the depth decode is monotone in the code only for a positive
        # coefficient, and evalkit's foreground test relies on that
        if not (0.0 < self.chromaticity_coeff < math.inf):
            raise ValueError(f"chromaticity_coeff must be positive and finite, got {self.chromaticity_coeff}")
        if not (0.0 < self.dropout_threshold <= 1.0):
            raise ValueError("dropout_threshold must be in (0, 1]")
        if self.flipbook_tile_count < 1 or self.flipbook_tile_px < 2 or self.flipbook_frames_per_tile < 1:
            raise ValueError("invalid flipbook layout")
        if self.fresnel_exponent <= 0:
            raise ValueError("fresnel_exponent must be positive")

    def with_variant(self, chromaticity: float, depth_min: float, depth_max: float) -> "SensorParams":
        """Sensor with the per-recording sampled camera parameters applied."""
        return replace(
            self, chromaticity_coeff=chromaticity, depth_min=depth_min, depth_max=depth_max
        )


@dataclass(frozen=True)
class CameraSpec:
    camera_id: str
    kind: str = CameraKind.DEPTH
    position: tuple[float, float, float] = (22.0, 42.0, -92.0)
    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)  # Euler deg, see geom
    fov_deg: float = 60.0
    resolution: tuple[int, int] = (320, 240)
    fps: float = 30.0
    sensor: SensorParams = field(default_factory=SensorParams)

    def __post_init__(self):
        if self.kind not in CameraKind.ALL:
            raise ValueError(f"unknown camera kind {self.kind!r}")
        if not (10.0 <= self.fov_deg <= 170.0):
            raise ValueError("fov_deg must be within [10, 170]")
        if self.resolution[0] < 16 or self.resolution[1] < 16:
            raise ValueError("resolution must be at least 16x16")

    @functools.cached_property
    def rotation_matrix(self) -> np.ndarray:
        """Built on first use and kept, read-only: the spec is frozen."""
        r = euler_deg_to_matrix(*self.rotation)
        r.flags.writeable = False
        return r

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        r = self.rotation_matrix
        return (np.asarray(points, dtype=np.float64) - np.asarray(self.position)) @ r

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        world = np.asarray(points, dtype=np.float64) @ self.rotation_matrix.T
        # a column at a time: the bytes of adding the 3-vector, without
        # numpy's slow loop over a length-3 inner axis
        for c in range(3):
            world[..., c] += self.position[c]
        return world

    @functools.cached_property
    def pixel_ndc(self) -> tuple[np.ndarray, np.ndarray]:
        """Image-plane x and y of every pixel centre at unit depth, flat in
        row-major pixel order; built on first use and kept, read-only."""
        w, h = self.resolution
        xs, ys = _ndc_axes(self)
        x_ndc, y_ndc = np.tile(xs, h), np.repeat(ys, w)
        x_ndc.flags.writeable = y_ndc.flags.writeable = False
        return x_ndc, y_ndc


# documented preset positions; rotation is resolved to aim at the active
# gesture anchor when the config is parsed.  The infotainment and top views
# keep the resting hand clearly deeper than the gesture volume, which the
# trajectory extractor's background-floor rule relies on.
CAMERA_PRESET_POSITIONS: dict[str, tuple[float, float, float]] = {
    "infotainment": (22.0, 42.0, -92.0),  # upper dash, right of center
    "top": (12.0, 95.0, -38.0),  # roof liner above the gesture volume
    "wheel": (-5.0, 20.0, -70.0),  # instrument cluster, behind the wheel
}


def preset_camera(
    preset: str,
    camera_id: str,
    kind: str,
    anchor: Vec3,
    resolution: tuple[int, int] = (320, 240),
    fps: float = 30.0,
    fov_deg: float = 60.0,
    sensor: SensorParams | None = None,
) -> CameraSpec:
    if preset not in CAMERA_PRESET_POSITIONS:
        raise ValueError(f"unknown camera preset {preset!r}")
    position = CAMERA_PRESET_POSITIONS[preset]
    rotation = look_at_euler_deg(vec(*position), np.asarray(anchor, dtype=np.float64))
    return CameraSpec(
        camera_id=camera_id,
        kind=kind,
        position=position,
        rotation=rotation,
        fov_deg=fov_deg,
        resolution=resolution,
        fps=fps,
        sensor=sensor or SensorParams(),
    )


# ---------------------------------------------------------------------------
# pinhole rays
# ---------------------------------------------------------------------------


def camera_rays(cam: CameraSpec) -> tuple[np.ndarray, np.ndarray]:
    """Rays for every pixel center: origin (3,), unit directions (h, w, 3)."""
    w, h = cam.resolution
    xs, ys = _ndc_axes(cam)
    dirs = np.empty((h, w, 3), dtype=np.float64)
    dirs[..., 0] = xs[None, :]
    dirs[..., 1] = ys[:, None]
    dirs[..., 2] = -1.0
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs = dirs @ cam.rotation_matrix.T
    return np.asarray(cam.position, dtype=np.float64), dirs


def _ndc_axes(cam: CameraSpec) -> tuple[np.ndarray, np.ndarray]:
    """Image-plane x of each pixel column's centre and y of each row's, at
    unit depth."""
    w, h = cam.resolution
    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    xs = ((np.arange(w) + 0.5) / w * 2.0 - 1.0) * tan_half
    ys = -((np.arange(h) + 0.5) / h * 2.0 - 1.0) * tan_half * (h / w)
    return xs, ys


def ray_depth_scale(cam: CameraSpec) -> np.ndarray:
    """Per-pixel factor converting ray-hit parameter t to camera Z depth."""
    xs, ys = _ndc_axes(cam)
    return 1.0 / np.sqrt(xs[None, :] ** 2 + ys[:, None] ** 2 + 1.0)


def backproject_pixels(cam: CameraSpec, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """World points, (n, 3), for the centres of flat row-major pixel
    indices at camera Z depths."""
    x_ndc, y_ndc = cam.pixel_ndc
    pts_cam = np.empty((len(depths), 3))
    np.multiply(x_ndc[pixels], depths, out=pts_cam[:, 0])
    np.multiply(y_ndc[pixels], depths, out=pts_cam[:, 1])
    np.negative(depths, out=pts_cam[:, 2])
    return cam.camera_to_world(pts_cam)


# ---------------------------------------------------------------------------
# scene assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scene:
    """Flat primitive arrays, deterministic order, one tag per primitive."""

    capsule_a: np.ndarray  # (Nc, 3)
    capsule_b: np.ndarray  # (Nc, 3)
    capsule_r: np.ndarray  # (Nc,)
    capsule_tag: np.ndarray  # (Nc,) uint8
    box_min: np.ndarray  # (Nb, 3)
    box_max: np.ndarray  # (Nb, 3)
    box_tag: np.ndarray  # (Nb,)
    plane_point: np.ndarray  # (Np, 3)
    plane_normal: np.ndarray  # (Np, 3)
    plane_tag: np.ndarray  # (Np,)


def _static_body_capsules(active_rig: ArmRig) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Torso, head and the resting (non-gesturing) arm."""
    caps = [
        (vec(0.0, 2.0, 6.0), vec(0.0, 42.0, 6.0), 15.0),  # torso
        (vec(0.0, 52.0, 4.0), vec(0.0, 60.0, 4.0), 9.0),  # head
    ]
    other = default_rig(is_left=not active_rig.is_left)
    posed = pose_hand(
        other,
        rest_position(other),
        normalize(vec(0.2 if other.is_left else -0.2, -0.4, -1.0)),
        HAND_POSE_PRESETS["open_palm"],
    )
    caps.extend(posed.capsules)
    return caps


def _environment_boxes() -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (vec(-30.0, -55.0, 12.0), vec(30.0, 25.0, 30.0)),  # seat back
        (vec(-14.0, 25.0, 10.0), vec(14.0, 40.0, 24.0)),  # headrest
        (vec(-45.0, -55.0, -95.0), vec(45.0, -18.0, -70.0)),  # dashboard
        (vec(-32.0, 8.0, -42.0), vec(-4.0, 24.0, -34.0)),  # wheel proxy
    ]


def _environment_planes() -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (vec(0.0, 0.0, 55.0), vec(0.0, 0.0, -1.0)),  # cabin rear wall
        (vec(0.0, -60.0, 0.0), vec(0.0, 1.0, 0.0)),  # floor
    ]


def scene_from_primitives(
    capsules: list[tuple[np.ndarray, np.ndarray, float]] | None = None,
    boxes: list[tuple[np.ndarray, np.ndarray]] | None = None,
    planes: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> Scene:
    """Assemble a scene: capsules tagged Body, boxes and planes tagged
    Environment."""
    capsules = capsules or []
    boxes = boxes or []
    planes = planes or []
    return Scene(
        capsule_a=np.array([c[0] for c in capsules]).reshape(-1, 3),
        capsule_b=np.array([c[1] for c in capsules]).reshape(-1, 3),
        capsule_r=np.array([c[2] for c in capsules]).reshape(-1),
        capsule_tag=np.full(len(capsules), TAG_BODY, dtype=np.uint8),
        box_min=np.array([b[0] for b in boxes]).reshape(-1, 3),
        box_max=np.array([b[1] for b in boxes]).reshape(-1, 3),
        box_tag=np.full(len(boxes), TAG_ENVIRONMENT, dtype=np.uint8),
        plane_point=np.array([p[0] for p in planes]).reshape(-1, 3),
        plane_normal=np.array([p[1] for p in planes]).reshape(-1, 3),
        plane_tag=np.full(len(planes), TAG_ENVIRONMENT, dtype=np.uint8),
    )


def build_scene(rig: ArmRig, posed: PosedSkeleton) -> Scene:
    """Static proxies plus the per-frame posed arm, in deterministic order."""
    return scene_from_primitives(
        capsules=_static_body_capsules(rig) + list(posed.capsules),
        boxes=_environment_boxes(),
        planes=_environment_planes(),
    )


def static_scene(rig: ArmRig) -> Scene:
    """Everything except the gesturing arm: the torso, the head and the
    resting arm as capsules, and the cabin's boxes and planes."""
    return scene_from_primitives(
        capsules=_static_body_capsules(rig),
        boxes=_environment_boxes(),
        planes=_environment_planes(),
    )


def dynamic_scene(posed: PosedSkeleton) -> Scene:
    """Just the posed arm capsules for one frame."""
    return scene_from_primitives(capsules=list(posed.capsules))
