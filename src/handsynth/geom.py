"""Small 3D math helpers shared by the skeleton, scene and render modules.

Conventions used throughout the package:

* right-handed world frame, +Y up, lengths in centimeters;
* the seated character faces -Z, so "in front of the driver" means
  decreasing Z;
* cameras look along their local -Z axis;
* Euler rotations are stored in degrees as ``(rx, ry, rz)`` and applied
  as ``R = Ry(ry) @ Rx(rx) @ Rz(rz)`` (columns map local to world).
"""

from __future__ import annotations

import math

import numpy as np

Vec3 = np.ndarray


def vec(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=np.float64)


def norm(v: Vec3) -> float:
    return float(math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2))


def normalize(v: Vec3) -> Vec3:
    n = norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Cross product of two 3-vectors, written out.  Each component is
    np.cross's own expression, so the bytes are np.cross's; np.cross spends
    most of a call on two 3-vectors in its axis handling."""
    a0, a1, a2 = np.asarray(a, dtype=np.float64).tolist()
    b0, b1, b2 = np.asarray(b, dtype=np.float64).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def rot_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_deg_to_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rotation matrix for Euler angles in degrees, R = Ry @ Rx @ Rz."""
    return rot_y(math.radians(ry)) @ rot_x(math.radians(rx)) @ rot_z(math.radians(rz))


def axis_angle_matrix(axis: Vec3, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = float(axis[0]), float(axis[1]), float(axis[2])
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    t = 1.0 - c
    return np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    )


def look_at_euler_deg(position: Vec3, target: Vec3) -> tuple[float, float, float]:
    """Euler angles (deg) that point a camera's -Z axis from position at target.

    Roll is fixed at zero.  Raises for a zero-length view vector; a view
    vector parallel to +Y / -Y keeps yaw = 0 (pitch alone covers it).
    """
    f = normalize(np.asarray(target, dtype=np.float64) - np.asarray(position, dtype=np.float64))
    pitch = math.degrees(math.asin(max(-1.0, min(1.0, float(f[1])))))
    if abs(float(f[0])) < 1e-12 and abs(float(f[2])) < 1e-12:
        yaw = 0.0
    else:
        yaw = math.degrees(math.atan2(-float(f[0]), -float(f[2])))
    return (pitch, yaw, 0.0)


def mirror_x(v: Vec3) -> Vec3:
    """Reflect a point/vector across the YZ plane."""
    out = np.array(v, dtype=np.float64, copy=True)
    out[0] = -out[0]
    return out
