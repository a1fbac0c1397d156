"""Gesture scripting and execution.

A gesture is a Catmull-Rom spline (or a single held point for static
gestures) traversed at constant speed via an arc-length lookup table.
Planning expands a script into a frame-accurate timeline of phases:
pre-gesture transit from the rest position, the labeled gesture (or hold),
and the post-gesture return.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .geom import Vec3
from .skeleton import HAND_POSE_PRESETS, HandPose
from .variation import VariantParams

ARC_SAMPLES_DEFAULT = 256
SPEED_FLOOR = 5.0  # cm/s, lower clamp on the varied gesture speed


class ArmPart(Enum):
    ARM = "arm"
    HAND = "hand"
    FINGER = "finger"


class PhaseKind(Enum):
    PRE_GESTURE = "pre_gesture"
    GESTURE = "gesture"
    HOLD = "hold"
    POST_GESTURE = "post_gesture"


class WarningCounters:
    """Mutable per-recording counters surfaced in the dataset manifest."""

    def __init__(self):
        self.ik_clamps = 0
        self.arc_clamps = 0

    def as_dict(self) -> dict[str, int]:
        return {"ik_clamps": self.ik_clamps, "arc_clamps": self.arc_clamps}


# ---------------------------------------------------------------------------
# spline
# ---------------------------------------------------------------------------


class CatmullRomSpline:
    """Uniform Catmull-Rom spline through every control point.

    Open splines duplicate their endpoints for boundary tangents; closed
    splines wrap.  The two-point open case degenerates to the exact
    straight segment (linear in the parameter), which the transit phases
    rely on.
    """

    def __init__(self, points: np.ndarray, closed: bool = False):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
            raise ValueError("need at least 2 control points of dimension 3")
        if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) < 1e-12):
            raise ValueError("duplicate consecutive control points")
        if closed and np.linalg.norm(pts[0] - pts[-1]) < 1e-12:
            raise ValueError("closed splines must not repeat the first point")
        self.points = pts
        self.closed = closed
        self.linear = not closed and len(pts) == 2
        if closed:
            self.n_segments = len(pts)
            ext = np.vstack([pts[-1:], pts, pts[:2]])
        else:
            self.n_segments = len(pts) - 1
            ext = np.vstack([pts[:1], pts, pts[-1:]])
        self._p0 = ext[:-3]
        self._p1 = ext[1:-2]
        self._p2 = ext[2:-1]
        self._p3 = ext[3:]

    def _segment_local(self, u) -> tuple[np.ndarray, np.ndarray]:
        u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
        scaled = u * self.n_segments
        seg = np.minimum(scaled.astype(np.int64), self.n_segments - 1)
        return seg, scaled - seg

    def position(self, u) -> np.ndarray:
        """Point(s) on the curve at parameter u in [0, 1]."""
        if self.linear:
            u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
            return self.points[0] + np.multiply.outer(u, self.points[1] - self.points[0])
        seg, t = self._segment_local(u)
        t = t[..., None]
        p0, p1, p2, p3 = self._p0[seg], self._p1[seg], self._p2[seg], self._p3[seg]
        m1 = 0.5 * (p2 - p0)
        m2 = 0.5 * (p3 - p1)
        t2 = t * t
        t3 = t2 * t
        return (
            (2 * t3 - 3 * t2 + 1) * p1
            + (t3 - 2 * t2 + t) * m1
            + (-2 * t3 + 3 * t2) * p2
            + (t3 - t2) * m2
        )

    def derivative(self, u) -> np.ndarray:
        """d(position)/du, used for path tangents."""
        if self.linear:
            u = np.asarray(u, dtype=np.float64)
            d = self.points[1] - self.points[0]
            return np.broadcast_to(d, u.shape + (3,)).copy() if u.ndim else d.copy()
        seg, t = self._segment_local(u)
        t = t[..., None]
        p0, p1, p2, p3 = self._p0[seg], self._p1[seg], self._p2[seg], self._p3[seg]
        m1 = 0.5 * (p2 - p0)
        m2 = 0.5 * (p3 - p1)
        t2 = t * t
        return (
            (6 * t2 - 6 * t) * p1
            + (3 * t2 - 4 * t + 1) * m1
            + (-6 * t2 + 6 * t) * p2
            + (3 * t2 - 2 * t) * m2
        ) * self.n_segments


def build_spline(points, closed: bool = False) -> CatmullRomSpline:
    """Interpolating spline through the given control points."""
    return CatmullRomSpline(np.asarray(points, dtype=np.float64), closed=closed)


@dataclass(frozen=True)
class ArcTable:
    """Cumulative chord-length table mapping curve parameter to distance."""

    us: np.ndarray
    cumulative: np.ndarray

    @property
    def total_length(self) -> float:
        return float(self.cumulative[-1])


def arc_length_table(spline: CatmullRomSpline, n_samples: int = ARC_SAMPLES_DEFAULT) -> ArcTable:
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    us = np.linspace(0.0, 1.0, n_samples)
    pts = spline.position(us)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return ArcTable(us=us, cumulative=cum)


def param_at_arclength(table: ArcTable, s: float) -> float:
    """Inverse lookup: curve parameter u at distance s, linearly interpolated."""
    return float(np.interp(s, table.cumulative, table.us))


def position_at_arclength(
    spline: CatmullRomSpline,
    table: ArcTable,
    s: float,
    counters: WarningCounters | None = None,
) -> np.ndarray:
    """Point at traveled distance s; out-of-range s clamps (and counts)."""
    total = table.total_length
    if s < 0.0 or s > total:
        if counters is not None:
            counters.arc_clamps += 1
        s = min(max(s, 0.0), total)
    return spline.position(param_at_arclength(table, s))


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GestureScript:
    """One authored gesture: path, speeds, hand pose and articulation mode.

    Control points are relative to the gesture anchor.  ``turns`` scales
    the traversed distance (closed paths may exceed one lap).  A pose
    track, when present, is a list of (progress, curl offset deg,
    abduction offset deg) keyframes interpolated over the gesture phase.
    """

    name: str
    control_points: tuple[tuple[float, float, float], ...]
    closed: bool = False
    static_hold_s: float = 0.0
    base_speed: float = 30.0
    pre_speed: float = 60.0
    post_speed: float = 60.0
    hand_pose: str = "open_palm"
    pose_track: tuple[tuple[float, float, float], ...] = ()
    arm_part: ArmPart = ArmPart.ARM
    use_left_hand: bool | None = None
    turns: float = 1.0
    default_aim: tuple[float, float, float] = (0.0, 1.0, 0.0)

    def __post_init__(self):
        if self.is_static:
            if len(self.control_points) != 1:
                raise ValueError(f"static gesture {self.name!r} needs exactly 1 control point")
            if self.static_hold_s <= 0:
                raise ValueError(f"static gesture {self.name!r} needs static_hold_s > 0")
        elif len(self.control_points) < 2:
            raise ValueError(f"dynamic gesture {self.name!r} needs >= 2 control points")
        for speed in (self.base_speed, self.pre_speed, self.post_speed):
            if speed <= 0:
                raise ValueError(f"gesture {self.name!r}: speeds must be positive")
        if self.turns <= 0:
            raise ValueError(f"gesture {self.name!r}: turns must be positive")
        if self.hand_pose not in HAND_POSE_PRESETS:
            raise ValueError(f"gesture {self.name!r}: unknown hand pose {self.hand_pose!r}")

    @property
    def is_static(self) -> bool:
        return len(self.control_points) == 1

    def resolved_pose(self, variant: VariantParams | None) -> HandPose:
        pose = HAND_POSE_PRESETS[self.hand_pose]
        if variant is None:
            return pose
        return pose.offset(
            curl_offsets=variant.finger_rotation_offsets,
            abduction_offsets=variant.finger_spacing_offsets,
            wrist_offsets=variant.hand_orientation_offset,
        )


def _circle_points(radius: float, n: int) -> tuple[tuple[float, float, float], ...]:
    return tuple(
        (radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n), 0.0)
        for k in range(n)
    )


def builtin_scripts() -> dict[str, GestureScript]:
    """The six stock gesture classes, keyed by name."""
    swipe_right_path = ((-15.0, 0.0, 0.0), (15.0, 0.0, 0.0))
    return {
        s.name: s
        for s in (
            GestureScript(name="swipe_right", control_points=swipe_right_path),
            GestureScript(name="swipe_up", control_points=((0.0, -12.0, 0.0), (0.0, 12.0, 0.0))),
            GestureScript(
                name="swipe_right_two_finger",
                control_points=swipe_right_path,
                hand_pose="two_finger",
            ),
            # held slightly off the swipe corridors so static and dynamic
            # classes stay geometrically distinct
            GestureScript(
                name="peace_sign",
                control_points=((6.0, -5.0, -6.0),),
                static_hold_s=1.0,
                hand_pose="peace",
            ),
            GestureScript(
                name="rotate_two_finger",
                control_points=_circle_points(8.0, 8),
                closed=True,
                turns=1.25,
                hand_pose="two_finger",
            ),
            GestureScript(
                name="point_two_finger",
                control_points=((0.0, 0.0, 0.0), (0.0, 0.0, -10.0)),
                hand_pose="point",
            ),
        )
    }


def script_from_dict(data: dict, name: str | None = None) -> GestureScript:
    """Build a GestureScript from JSON-shaped data (same field names)."""
    unknown = set(data) - {f.name for f in fields(GestureScript)}
    if unknown:
        raise ValueError(f"unknown gesture script keys: {sorted(unknown)}")
    kwargs = dict(data)
    if name is not None:
        kwargs.setdefault("name", name)
    if "control_points" in kwargs:
        kwargs["control_points"] = tuple(tuple(float(c) for c in p) for p in kwargs["control_points"])
    if "pose_track" in kwargs:
        kwargs["pose_track"] = tuple(tuple(float(c) for c in k) for k in kwargs["pose_track"])
    if "arm_part" in kwargs:
        kwargs["arm_part"] = ArmPart(kwargs["arm_part"])
    if "default_aim" in kwargs:
        kwargs["default_aim"] = tuple(float(c) for c in kwargs["default_aim"])
    return GestureScript(**kwargs)


def parse_scripts(text: str, source: str) -> dict[str, GestureScript]:
    """One script (object) or several (name -> object) from the text of a
    JSON file; ``source`` names the file in errors."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{source}: expected a JSON object")
    if "control_points" in data:
        script = script_from_dict(data)
        return {script.name: script}
    return {name: script_from_dict(obj, name=name) for name, obj in data.items()}


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    kind: PhaseKind
    start_frame: int
    end_frame: int  # half-open
    speed: float  # cm/s along the path (0 for holds)
    travel_len: float  # total distance traversed during the phase
    spline: CatmullRomSpline | None
    table: ArcTable | None
    closed: bool
    hold_pos: np.ndarray | None
    arm_part: ArmPart
    pose: HandPose
    pose_track: tuple[tuple[float, float, float], ...]
    default_aim: tuple[float, float, float]
    snap_end: bool = False  # snap the final frame to the path end (post-gesture)

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame


@dataclass(frozen=True)
class Timeline:
    phases: tuple[Phase, ...]
    total_frames: int
    fps: float
    label_span: tuple[int, int]  # inclusive frame indices of the gesture/hold phase

    def phase_at(self, frame: int) -> Phase:
        if frame < 0 or frame >= self.total_frames:
            raise IndexError(f"frame {frame} outside [0, {self.total_frames})")
        for phase in self.phases:
            if phase.start_frame <= frame < phase.end_frame:
                return phase
        raise AssertionError("phases do not tile the timeline")


def _straight_phase(
    kind: PhaseKind,
    start: Vec3,
    end: Vec3,
    speed: float,
    start_frame: int,
    fps: float,
    script: GestureScript,
    pose: HandPose,
    snap_end: bool = False,
) -> Phase:
    length = float(np.linalg.norm(np.asarray(end) - np.asarray(start)))
    if length < 1e-12:
        n = 0
        spline = None
        table = None
    else:
        n = math.ceil(length / speed * fps)
        spline = build_spline(np.vstack([start, end]))
        table = arc_length_table(spline, 2)
    return Phase(
        kind=kind,
        start_frame=start_frame,
        end_frame=start_frame + n,
        speed=speed,
        travel_len=length,
        spline=spline,
        table=table,
        closed=False,
        hold_pos=np.asarray(start, dtype=np.float64) if n == 0 else None,
        arm_part=ArmPart.ARM,
        pose=pose,
        pose_track=(),
        default_aim=script.default_aim,
        snap_end=snap_end,
    )


def effective_speed(script: GestureScript, variant: VariantParams | None) -> float:
    offset = 0.0 if variant is None else variant.speed_offset
    return max(script.base_speed + offset, SPEED_FLOOR)


def _gesture_world_spline(
    script: GestureScript, anchor: Vec3, variant: VariantParams | None
) -> tuple[np.ndarray, CatmullRomSpline | None, ArcTable | None]:
    shift = np.asarray(anchor, dtype=np.float64)
    if variant is not None:
        shift = shift + np.asarray(variant.position_offset, dtype=np.float64)
    pts = np.asarray(script.control_points, dtype=np.float64) + shift
    if script.is_static:
        return pts, None, None
    spline = build_spline(pts, closed=script.closed)
    table = arc_length_table(spline)
    return pts, spline, table


def _gesture_phase(
    script: GestureScript,
    anchor: Vec3,
    fps: float,
    variant: VariantParams | None,
    start_frame: int,
) -> Phase:
    pts, spline, table = _gesture_world_spline(script, anchor, variant)
    pose = script.resolved_pose(variant)
    if script.is_static:
        n = round(script.static_hold_s * fps)
        return Phase(
            kind=PhaseKind.HOLD,
            start_frame=start_frame,
            end_frame=start_frame + n,
            speed=0.0,
            travel_len=0.0,
            spline=None,
            table=None,
            closed=False,
            hold_pos=pts[0],
            arm_part=script.arm_part,
            pose=pose,
            pose_track=script.pose_track,
            default_aim=script.default_aim,
        )
    speed = effective_speed(script, variant)
    travel = table.total_length * script.turns
    n = math.ceil(travel / speed * fps)
    return Phase(
        kind=PhaseKind.GESTURE,
        start_frame=start_frame,
        end_frame=start_frame + n,
        speed=speed,
        travel_len=travel,
        spline=spline,
        table=table,
        closed=script.closed,
        hold_pos=None,
        arm_part=script.arm_part,
        pose=pose,
        pose_track=script.pose_track,
        default_aim=script.default_aim,
    )


def _phase_endpoints(phase: Phase) -> tuple[np.ndarray, np.ndarray]:
    """World start/end positions of a gesture/hold phase."""
    if phase.kind == PhaseKind.HOLD or phase.spline is None:
        return phase.hold_pos, phase.hold_pos
    start = phase.spline.position(0.0)
    s_end = phase.travel_len % phase.table.total_length if phase.closed else phase.travel_len
    end = position_at_arclength(phase.spline, phase.table, s_end)
    return start, end


def plan_timeline(
    script: GestureScript,
    rest_pos: Vec3,
    anchor: Vec3,
    fps: float,
    variant: VariantParams | None = None,
) -> Timeline:
    """Single-gesture timeline: pre-gesture, gesture (or hold), post-gesture."""
    if fps < 1:
        raise ValueError("fps must be >= 1")
    gesture = _gesture_phase(script, anchor, fps, variant, 0)
    g_start, g_end = _phase_endpoints(gesture)
    pose = gesture.pose
    pre = _straight_phase(
        PhaseKind.PRE_GESTURE, rest_pos, g_start, script.pre_speed, 0, fps, script, pose
    )
    gesture = replace(gesture, start_frame=pre.end_frame, end_frame=pre.end_frame + gesture.n_frames)
    post = _straight_phase(
        PhaseKind.POST_GESTURE,
        g_end,
        rest_pos,
        script.post_speed,
        gesture.end_frame,
        fps,
        script,
        pose,
        snap_end=True,
    )
    phases = (pre, gesture, post)
    label_span = (gesture.start_frame, max(gesture.start_frame, gesture.end_frame - 1))
    return Timeline(phases=phases, total_frames=post.end_frame, fps=fps, label_span=label_span)


def _track_offsets(track, progress: float) -> tuple[float, float]:
    """Interpolate (curl, abduction) offsets from a pose track at progress."""
    if not track:
        return 0.0, 0.0
    keys = sorted(track)
    us = [k[0] for k in keys]
    curls = [k[1] for k in keys]
    abds = [k[2] for k in keys]
    return float(np.interp(progress, us, curls)), float(np.interp(progress, us, abds))


def evaluate_frame(
    timeline: Timeline,
    frame: int,
    counters: WarningCounters | None = None,
) -> tuple[np.ndarray, np.ndarray, HandPose]:
    """Wrist target, hand aim direction and pose for one frame.

    Arm gestures move the wrist along the path with the palm axis on the
    tangent.  Hand gestures hold the wrist at the phase start and aim the
    palm at the traveling path point; finger gestures additionally keep
    the palm fixed and articulate curl toward it.
    """
    phase = timeline.phase_at(frame)
    local = frame - phase.start_frame

    if phase.kind == PhaseKind.HOLD or phase.spline is None:
        pos = phase.hold_pos
        aim = np.asarray(phase.default_aim, dtype=np.float64)
        aim = aim / np.linalg.norm(aim)
        progress = local / max(phase.n_frames - 1, 1)
        curl_off, abd_off = _track_offsets(phase.pose_track, progress)
        pose = phase.pose.offset((curl_off,) * 5, (abd_off,) * 5) if phase.pose_track else phase.pose
        return np.array(pos, copy=True), aim, pose

    s = phase.speed * local / timeline.fps
    if phase.snap_end and local == phase.n_frames - 1:
        s = phase.travel_len
    s = min(s, phase.travel_len)
    total = phase.table.total_length
    s_curve = s % total if phase.closed and phase.travel_len > total else s
    point = position_at_arclength(phase.spline, phase.table, s_curve, counters)
    u = param_at_arclength(phase.table, s_curve)
    tangent = phase.spline.derivative(u)
    t_norm = np.linalg.norm(tangent)
    aim = tangent / t_norm if t_norm > 1e-12 else np.asarray(phase.default_aim, dtype=np.float64)

    progress = s / phase.travel_len if phase.travel_len > 0 else 0.0
    pose = phase.pose
    if phase.pose_track and phase.kind == PhaseKind.GESTURE:
        curl_off, abd_off = _track_offsets(phase.pose_track, progress)
        pose = pose.offset((curl_off,) * 5, (abd_off,) * 5)

    if phase.arm_part == ArmPart.ARM or phase.kind != PhaseKind.GESTURE:
        return point, aim, pose

    # hand/finger gestures: wrist parked at the phase start
    wrist = phase.spline.position(0.0)
    to_point = point - wrist
    dist = np.linalg.norm(to_point)
    if phase.arm_part == ArmPart.HAND:
        hand_aim = to_point / dist if dist > 1e-9 else aim
        return wrist, hand_aim, pose
    # finger-only: palm stays on the initial aim, curl tracks the target
    start_aim = phase.spline.derivative(0.0)
    start_aim = start_aim / np.linalg.norm(start_aim)
    if dist > 1e-9:
        cosang = float(np.clip(np.dot(start_aim, to_point / dist), -1.0, 1.0))
        extra = math.degrees(math.acos(cosang))
    else:
        extra = 0.0
    return wrist, start_aim, pose.offset((extra,) * 5, (0.0,) * 5)
