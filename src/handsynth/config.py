"""Run configuration: parsing, validation, defaulting and range scaling.

The JSON schema is strict — unknown keys anywhere are rejected so a
misspelled variation name cannot silently fall back to its default and
corrupt an ablation.  All lengths are centimeters and all angles degrees
at this surface; radians stay internal to the math modules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import TYPE_CHECKING

from .scene import (
    CameraKind,
    CameraSpec,
    SensorParams,
    camera_to_dict,
    gesture_anchor,
    preset_camera,
)
from .skeleton import default_rig

if TYPE_CHECKING:
    from .gesture import GestureScript


class ConfigError(ValueError):
    """Configuration problem; names the offending field when known."""

    def __init__(self, message: str, field_path: str | None = None):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


class RangeCondition(Enum):
    LOW = "low"
    MEDIAN = "median"
    HIGH = "high"


@dataclass(frozen=True)
class ParamRange:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ConfigError(f"range lo {self.lo} exceeds hi {self.hi}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def as_list(self) -> list[float]:
        return [self.lo, self.hi]


def scale_range(median: ParamRange, cond: RangeCondition) -> ParamRange:
    """Scale a range about its center: Low halves the width, High doubles it.

    Median returns the input unchanged (exactly, not just up to rounding).
    """
    if cond == RangeCondition.MEDIAN:
        return median
    m = median.mid
    w = 0.5 * median.width
    if cond == RangeCondition.LOW:
        w *= 0.5
    else:
        w *= 2.0
    return ParamRange(m - w, m + w)


# Median defaults.  The speed range matches the published recipe; the
# others are tool defaults chosen to keep gestures inside the camera
# frustum and within plausible in-cabin sensing.  All overridable.
PARAM_NAMES: tuple[str, ...] = (
    "speed_offset",
    "position_offset",
    "finger_spacing",
    "finger_rotation",
    "hand_orientation",
    "chromaticity_coeff",
    "depth_min",
    "depth_max",
)

DEFAULT_GESTURES: tuple[str, ...] = (
    "swipe_right",
    "swipe_up",
    "swipe_right_two_finger",
    "peace_sign",
    "rotate_two_finger",
    "point_two_finger",
)


@dataclass(frozen=True)
class VariationConfig:
    """Median ranges for every varied parameter plus range-condition overrides."""

    speed_offset: ParamRange = ParamRange(0.0, 50.0)  # cm/s on top of base speed
    position_offset: ParamRange = ParamRange(-5.0, 5.0)  # cm, per axis
    finger_spacing: ParamRange = ParamRange(-8.0, 8.0)  # deg abduction
    finger_rotation: ParamRange = ParamRange(-10.0, 10.0)  # deg curl
    hand_orientation: ParamRange = ParamRange(-15.0, 15.0)  # deg about wrist axes
    chromaticity_coeff: ParamRange = ParamRange(0.9, 1.1)
    depth_min: ParamRange = ParamRange(15.0, 25.0)  # cm
    depth_max: ParamRange = ParamRange(140.0, 160.0)  # cm
    condition_overrides: dict[str, RangeCondition] = field(default_factory=dict)

    def median_range(self, name: str) -> ParamRange:
        if name not in PARAM_NAMES:
            raise KeyError(f"unknown variation parameter {name!r}")
        return getattr(self, name)

    def scaled_range(self, name: str) -> ParamRange:
        cond = self.condition_overrides.get(name, RangeCondition.MEDIAN)
        return scale_range(self.median_range(name), cond)

    def validate(self) -> None:
        for name in PARAM_NAMES:
            scaled = self.scaled_range(name)
            if scaled.lo > scaled.hi:
                raise ConfigError("scaled range inverted", f"variation.{name}")
        dmin = self.scaled_range("depth_min")
        dmax = self.scaled_range("depth_max")
        if dmin.hi >= dmax.lo:
            raise ConfigError(
                f"depth_min range (scaled, up to {dmin.hi:g}) must stay below the "
                f"depth_max range (scaled, from {dmax.lo:g}) so every sampled camera "
                "has a positive span",
                "variation.depth_min",
            )


@dataclass(frozen=True)
class GeneralSettings:
    output_path: str = "out"
    recordings_per_gesture: int = 100
    resolution: tuple[int, int] = (320, 240)
    fps: float = 30.0
    default_left_hand: bool = False
    master_seed: int = 0
    gesture_names: tuple[str, ...] = DEFAULT_GESTURES

    def validate(self, known_gestures: set[str]) -> None:
        if self.recordings_per_gesture < 1:
            raise ConfigError("must be >= 1", "recordings_per_gesture")
        if self.resolution[0] < 1 or self.resolution[1] < 1:
            raise ConfigError("must be >= 1 px", "resolution")
        if self.fps < 1:
            raise ConfigError("must be >= 1", "fps")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("must be a 64-bit unsigned integer", "master_seed")
        if not self.gesture_names:
            raise ConfigError("must name at least one gesture", "gestures")
        for name in self.gesture_names:
            if name not in known_gestures:
                raise ConfigError(
                    f"unknown gesture name {name!r}; known: {sorted(known_gestures)}",
                    "gestures",
                )


@dataclass(frozen=True)
class ParsedConfig:
    """The whole generation recipe.  Script files are read once, at parse
    time: ``scripts`` holds the built-ins plus every loaded script and
    ``script_digests`` the SHA-256 of each file's bytes; nothing opens a
    script file afterwards.  ``extra_script_paths`` is kept for printing."""

    settings: GeneralSettings
    variation: VariationConfig
    cameras: tuple[CameraSpec, ...]
    scripts: dict[str, GestureScript]
    extra_script_paths: tuple[str, ...] = ()
    script_digests: tuple[str, ...] = ()


_TOP_KEYS = {
    "output_path",
    "recordings_per_gesture",
    "resolution",
    "fps",
    "default_left_hand",
    "master_seed",
    "gestures",
    "variation",
    "cameras",
    "gesture_script_paths",
}

_VARIATION_KEYS = set(PARAM_NAMES) | {"conditions"}

_CAMERA_KEYS = {f.name for f in fields(CameraSpec)} | {"preset"}

_SENSOR_KEYS = {f.name for f in fields(SensorParams)}


def _expect_object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object, got {data!r}", where)
    return data


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    _expect_object(data, where)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", where)


def _as_range(value, where: str) -> ParamRange:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError("expected [lo, hi]", where)
    try:
        return ParamRange(float(value[0]), float(value[1]))
    except ConfigError as exc:
        raise ConfigError(str(exc), where) from None


def _parse_conditions(values: dict, where: str) -> dict[str, RangeCondition]:
    """Range conditions by parameter name, from ``{name: "low"|"median"|"high"}``."""
    if not isinstance(values, dict):
        raise ConfigError("expected an object of parameter: condition", where)
    conditions: dict[str, RangeCondition] = {}
    for name, value in values.items():
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown parameter {name!r}; known: {list(PARAM_NAMES)}", where)
        try:
            conditions[name] = RangeCondition(value)
        except ValueError:
            raise ConfigError(f"{name}: expected one of low/median/high, got {value!r}", where) from None
    return conditions


def _parse_variation(data: dict) -> VariationConfig:
    _reject_unknown(data, _VARIATION_KEYS, "variation")
    kwargs = {}
    for name in PARAM_NAMES:
        if name in data:
            kwargs[name] = _as_range(data[name], f"variation.{name}")
    conditions = _parse_conditions(data.get("conditions", {}), "variation.conditions")
    return VariationConfig(condition_overrides=conditions, **kwargs)


def _parse_sensor(data: dict, where: str) -> SensorParams:
    _reject_unknown(data, _SENSOR_KEYS, where)
    try:
        return SensorParams(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), where) from None


def _parse_camera(data: dict, index: int, settings: GeneralSettings) -> CameraSpec:
    where = f"cameras[{index}]"
    _reject_unknown(data, _CAMERA_KEYS, where)
    kind = data.get("kind", CameraKind.DEPTH)
    if kind not in CameraKind.ALL:
        raise ConfigError(f"unknown camera kind {kind!r}", f"{where}.kind")
    camera_id = data.get("camera_id", f"{kind}{index}")
    sensor = _parse_sensor(data.get("sensor", {}), f"{where}.sensor")
    try:
        resolution = tuple(data.get("resolution", settings.resolution))
        fps = float(data.get("fps", settings.fps))
        fov = float(data.get("fov_deg", 60.0))
        # cameras with no explicit pose fall back to the infotainment preset
        if "preset" in data or ("position" not in data and "rotation" not in data):
            if "preset" in data and ("position" in data or "rotation" in data):
                raise ConfigError("preset and explicit pose are mutually exclusive", where)
            anchor = gesture_anchor(default_rig(is_left=settings.default_left_hand))
            return preset_camera(
                data.get("preset", "infotainment"),
                camera_id=camera_id,
                kind=kind,
                anchor=anchor,
                resolution=resolution,
                fps=fps,
                fov_deg=fov,
                sensor=sensor,
            )
        if "position" not in data or "rotation" not in data:
            raise ConfigError("explicit cameras need both position and rotation", where)
        position = tuple(float(v) for v in data["position"])
        rotation = tuple(float(v) for v in data["rotation"])
        return CameraSpec(
            camera_id=camera_id,
            kind=kind,
            position=position,
            rotation=rotation,
            fov_deg=fov,
            resolution=resolution,
            fps=fps,
            sensor=sensor,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), where) from None


def _load_scripts(script_paths: tuple[str, ...]) -> tuple[dict[str, GestureScript], tuple[str, ...]]:
    """(gesture scripts by name, SHA-256 of each file), from one read of
    each file.  The registry holds the built-ins, then each file's scripts
    in order (a later script replaces an earlier one of the same name)."""
    from .gesture import builtin_scripts, parse_scripts  # lazy: gesture imports config

    registry = builtin_scripts()
    digests = []
    for path in script_paths:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            registry.update(parse_scripts(raw.decode("utf-8"), path))
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc), "gesture_script_paths") from None
        digests.append(hashlib.sha256(raw).hexdigest())
    return registry, tuple(digests)


def parse_config_full(text: str) -> ParsedConfig:
    """Parse + validate a JSON config document into effective settings."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "top level")

    defaults = GeneralSettings()
    try:
        settings = GeneralSettings(
            output_path=str(data.get("output_path", defaults.output_path)),
            recordings_per_gesture=int(data.get("recordings_per_gesture", defaults.recordings_per_gesture)),
            resolution=tuple(int(v) for v in data.get("resolution", defaults.resolution)),
            fps=float(data.get("fps", defaults.fps)),
            default_left_hand=bool(data.get("default_left_hand", defaults.default_left_hand)),
            master_seed=int(data.get("master_seed", defaults.master_seed)),
            gesture_names=tuple(str(g) for g in data.get("gestures", defaults.gesture_names)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed general settings: {exc}") from None
    if len(settings.resolution) != 2:
        raise ConfigError("expected [width, height]", "resolution")

    variation = _parse_variation(data.get("variation", {}))
    camera_list = data.get("cameras", [{"kind": CameraKind.DEPTH, "preset": "infotainment", "camera_id": "depth0"}])
    if not isinstance(camera_list, list) or not camera_list:
        raise ConfigError("must be a non-empty list", "cameras")
    cameras = tuple(_parse_camera(c, i, settings) for i, c in enumerate(camera_list))
    ids = [c.camera_id for c in cameras]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"camera ids must be unique, got {ids}", "cameras")

    script_paths = data.get("gesture_script_paths", [])
    if not isinstance(script_paths, list):
        raise ConfigError(f"expected a list of file paths, got {script_paths!r}", "gesture_script_paths")
    script_paths = tuple(str(p) for p in script_paths)
    scripts, script_digests = _load_scripts(script_paths)
    settings.validate(set(scripts))
    variation.validate()
    return ParsedConfig(
        settings=settings,
        variation=variation,
        cameras=cameras,
        scripts=scripts,
        extra_script_paths=script_paths,
        script_digests=script_digests,
    )


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def config_to_dict(parsed: ParsedConfig) -> dict:
    """Fully defaulted, explicit config document (re-parseable)."""
    s, v = parsed.settings, parsed.variation
    doc = {
        "output_path": s.output_path,
        "recordings_per_gesture": s.recordings_per_gesture,
        "resolution": list(s.resolution),
        "fps": s.fps,
        "default_left_hand": s.default_left_hand,
        "master_seed": s.master_seed,
        "gestures": list(s.gesture_names),
        "variation": {name: v.median_range(name).as_list() for name in PARAM_NAMES},
        "cameras": [camera_to_dict(c) for c in parsed.cameras],
    }
    if v.condition_overrides:
        doc["variation"]["conditions"] = {
            name: cond.value for name, cond in sorted(v.condition_overrides.items())
        }
    if parsed.extra_script_paths:
        doc["gesture_script_paths"] = list(parsed.extra_script_paths)
    return doc


def canonical_json(doc: dict) -> str:
    """Sorted keys, repr floats, 2-space indent; stable for golden files."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_digest(parsed: ParsedConfig) -> str:
    """SHA-256 of the canonical config without ``output_path``, with each
    extra gesture script named by the SHA-256 of the bytes read at parse
    time.

    The digest identifies the generation recipe, not where the output is
    written or how a script file is named: the same recipe generated into
    two directories gives two byte-identical manifests, and a script
    edited before parsing changes the digest.
    """
    doc = config_to_dict(parsed)
    del doc["output_path"]
    if parsed.script_digests:
        doc["gesture_script_paths"] = list(parsed.script_digests)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def apply_overrides(
    parsed: ParsedConfig,
    out: str | None = None,
    seed: int | None = None,
    cameras: list[str] | None = None,
    gestures: list[str] | None = None,
    variants: int | None = None,
    conditions: dict[str, str] | None = None,
) -> ParsedConfig:
    """CLI-level overrides, applied after parsing and re-validated."""
    settings = parsed.settings
    if out is not None:
        settings = replace(settings, output_path=out)
    if seed is not None:
        settings = replace(settings, master_seed=seed)
    if gestures is not None:
        settings = replace(settings, gesture_names=tuple(gestures))
    if variants is not None:
        settings = replace(settings, recordings_per_gesture=variants)

    cams = parsed.cameras
    if cameras is not None:
        known = {c.camera_id for c in parsed.cameras}
        missing = [c for c in cameras if c not in known]
        if missing:
            raise ConfigError(f"unknown camera ids {missing}; configured: {sorted(known)}", "cameras")
        cams = tuple(c for c in parsed.cameras if c.camera_id in set(cameras))

    variation = parsed.variation
    if conditions:
        merged = {**variation.condition_overrides, **_parse_conditions(conditions, "condition")}
        variation = replace(variation, condition_overrides=merged)

    settings.validate(set(parsed.scripts))
    variation.validate()
    return replace(parsed, settings=settings, variation=variation, cameras=cams)
