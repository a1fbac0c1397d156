"""Run configuration: parsing, validation, defaulting and range scaling,
and the one typed JSON form of the program's dataclasses.

The JSON schema is strict — unknown keys anywhere are rejected so a
misspelled variation name cannot silently fall back to its default and
corrupt an ablation.  Every value is checked against the type of the
dataclass field it fills, and used as written or refused with its path
(``cameras[0].resolution[0]``): integers only where the field is an
integer (``2.0`` is refused there), finite numbers only (no ``NaN`` or
``Infinity``), booleans only as ``true``/``false``, strings only as
strings, enum members only as their values, lists of the field's length,
and every key a field without a default needs.  All lengths are
centimeters and all angles degrees at this surface; radians stay
internal to the math modules.

The same strict reader, ``from_json``, reads the recipe, the gesture
scripts it names (``gesture.parse_scripts``) and a dataset's manifest
(``output.read_manifest``); ``dataclasses.asdict`` gives the form it
reads back, which ``canonical_json`` writes.  Only the recipe keeps a
hand-written layout (``config_to_dict``), because its key names and its
omitted empty ``conditions`` are part of the config digest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import Enum

from .scene import (
    CameraKind,
    CameraSpec,
    SensorParams,
    gesture_anchor,
    preset_camera,
)
from .skeleton import default_rig

if typing.TYPE_CHECKING:
    from .gesture import GestureScript


class ConfigError(ValueError):
    """Configuration problem; names the offending field when known."""

    def __init__(self, message: str, field_path: str | None = None):
        self.message = message
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
        chroma = self.scaled_range("chromaticity_coeff")
        if not chroma.lo > 0.0:
            raise ConfigError(
                f"range (scaled, from {chroma.lo:g}) must stay above 0 so every sampled "
                "camera has a positive coefficient",
                "variation.chromaticity_coeff",
            )
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
        repeated = sorted({name for name in self.gesture_names if self.gesture_names.count(name) > 1})
        if repeated:
            raise ConfigError(f"each gesture may be named once, repeated: {repeated}", "gestures")
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


# JSON key of each dataclass field whose name differs from it
_JSON_KEYS = {"gesture_names": "gestures", "condition_overrides": "conditions"}

# JSON check of each scalar field type: (what the message expects, test)
_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # NaN, the infinities and integers beyond the float range all fail the bound
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}


@functools.cache
def _schema(cls) -> dict[str, tuple[str, object]]:
    """JSON key -> (field name, resolved annotation) for dataclass ``cls``;
    shared by every parse, so callers only read it."""
    hints = typing.get_type_hints(cls)
    return {_JSON_KEYS.get(f.name, f.name): (f.name, hints[f.name]) for f in fields(cls)}


def _build(make, path: str, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises names ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from None


def _read_fields(data, cls, path: str, own: tuple[str, ...] = ()) -> dict:
    """Constructor arguments of dataclass ``cls`` for the keys ``data``
    sets, each value checked by ``from_json``.  ``own`` names the keys the
    caller reads itself; any other key that is not a field is rejected."""
    where = path or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object, got {json.dumps(data)}", where)
    schema = _schema(cls)
    unknown = set(data) - set(schema) - set(own)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", where)
    prefix = f"{path}." if path else ""
    return {
        schema[key][0]: from_json(value, schema[key][1], prefix + key)
        for key, value in data.items()
        if key not in own
    }


def from_json(value, annotation, path: str = ""):
    """``value``, the JSON form of a field of type ``annotation``, as the
    field holds it, or a ConfigError naming ``path`` (and showing the value
    as JSON) when it does not fit.  A dataclass's JSON form is the object
    of its fields that ``dataclasses.asdict`` gives (an enum member written
    as its value), so a manifest written as ``canonical_json(asdict(m))``
    reads back equal to ``m``."""
    if annotation in _SCALARS:
        expected, fits = _SCALARS[annotation]
        if not fits(value):
            raise ConfigError(f"expected {expected}, got {json.dumps(value)}", path)
        return float(value) if annotation is float else value
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):  # X | None
        (item,) = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        return None if value is None else from_json(value, item, path)
    if origin is tuple:
        items = typing.get_args(annotation)  # one element type throughout
        length = None if items[-1] is Ellipsis else len(items)
        if not isinstance(value, list) or length not in (None, len(value)):
            expected = "a list" if length is None else f"a list of {length} values"
            raise ConfigError(f"expected {expected}, got {json.dumps(value)}", path)
        return tuple(from_json(v, items[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(annotation, type) and issubclass(annotation, Enum):  # string-valued
        values = [member.value for member in annotation]
        if not (isinstance(value, str) and value in values):
            raise ConfigError(f"expected one of {'/'.join(values)}, got {json.dumps(value)}", path)
        return annotation(value)
    if annotation is ParamRange:
        return _build(ParamRange, path, *from_json(value, tuple[float, float], path))
    if annotation == dict[str, RangeCondition]:
        return _parse_conditions(value, path)
    if origin is dict:  # string keys, as in JSON
        if not isinstance(value, dict):
            raise ConfigError(f"expected an object, got {json.dumps(value)}", path)
        item = typing.get_args(annotation)[1]
        return {key: from_json(v, item, f"{path}.{key}") for key, v in value.items()}
    # what is left is a dataclass
    kwargs = _read_fields(value, annotation, path)
    for f in fields(annotation):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            key = _JSON_KEYS.get(f.name, f.name)
            raise ConfigError("required key is missing", f"{path}.{key}" if path else key)
    # a sensor's numbers stay as written (``2`` stays an integer), so a
    # recipe keeps its canonical form and digest
    return _build(annotation, path, **(value if annotation is SensorParams else kwargs))


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


def _parse_camera(data, index: int, settings: GeneralSettings) -> CameraSpec:
    """One camera: an explicit pose (``position`` and ``rotation``) or a
    preset aimed at the gesture anchor, the infotainment one when neither
    is given.  Resolution and fps default to the general settings."""
    where = f"cameras[{index}]"
    spec = _read_fields(data, CameraSpec, where, own=("preset",))
    kind = spec.setdefault("kind", CameraKind.DEPTH)
    if kind not in CameraKind.ALL:
        raise ConfigError(f"unknown camera kind {kind!r}", f"{where}.kind")
    spec.setdefault("camera_id", f"{kind}{index}")
    spec.setdefault("resolution", settings.resolution)
    spec.setdefault("fps", settings.fps)
    posed = [key for key in ("position", "rotation") if key in spec]
    if "preset" in data or not posed:
        if posed:
            raise ConfigError("preset and explicit pose are mutually exclusive", where)
        preset = from_json(data.get("preset", "infotainment"), str, f"{where}.preset")
        anchor = gesture_anchor(default_rig(is_left=settings.default_left_hand))
        return _build(preset_camera, where, preset, anchor=anchor, **spec)
    if len(posed) < 2:
        raise ConfigError("explicit cameras need both position and rotation", where)
    return _build(CameraSpec, where, **spec)


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
    settings = GeneralSettings(
        **_read_fields(data, GeneralSettings, "", own=("variation", "cameras", "gesture_script_paths"))
    )
    variation = VariationConfig(**_read_fields(data.get("variation", {}), VariationConfig, "variation"))
    camera_list = data.get("cameras", [{"kind": CameraKind.DEPTH, "preset": "infotainment", "camera_id": "depth0"}])
    if not isinstance(camera_list, list) or not camera_list:
        raise ConfigError("must be a non-empty list", "cameras")
    cameras = tuple(_parse_camera(c, i, settings) for i, c in enumerate(camera_list))
    ids = [c.camera_id for c in cameras]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"camera ids must be unique, got {ids}", "cameras")

    script_paths = from_json(data.get("gesture_script_paths", []), tuple[str, ...], "gesture_script_paths")
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
        "cameras": [asdict(c) for c in parsed.cameras],
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
    """CLI-level overrides, applied after parsing and re-validated.  An
    error in an overridden value names the flag that gave it."""
    settings = parsed.settings
    flags = {}  # settings field path -> the flag that overrode it
    if out is not None:
        settings = replace(settings, output_path=out)
    if seed is not None:
        settings = replace(settings, master_seed=seed)
        flags["master_seed"] = "--seed"
    if gestures is not None:
        settings = replace(settings, gesture_names=tuple(gestures))
        flags["gestures"] = "--gestures"
    if variants is not None:
        settings = replace(settings, recordings_per_gesture=variants)
        flags["recordings_per_gesture"] = "--variants"
    try:
        settings.validate(set(parsed.scripts))
    except ConfigError as exc:
        if exc.field_path not in flags:
            raise
        raise ConfigError(exc.message, flags[exc.field_path]) from None

    cams = parsed.cameras
    if cameras is not None:
        known = {c.camera_id for c in parsed.cameras}
        missing = [c for c in cameras if c not in known]
        if missing:
            raise ConfigError(f"unknown camera ids {missing}; configured: {sorted(known)}", "--cameras")
        cams = tuple(c for c in parsed.cameras if c.camera_id in set(cameras))

    variation = parsed.variation
    if conditions:
        merged = {**variation.condition_overrides, **_parse_conditions(conditions, "--condition")}
        variation = replace(variation, condition_overrides=merged)
        try:
            variation.validate()
        except ConfigError as exc:
            raise ConfigError(exc.message, "--condition") from None
    return replace(parsed, settings=settings, variation=variation, cameras=cams)
