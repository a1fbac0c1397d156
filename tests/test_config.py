import copy
import hashlib
import json

import pytest

from handsynth.config import (
    ConfigError,
    ParamRange,
    RangeCondition,
    VariationConfig,
    apply_overrides,
    canonical_json,
    config_to_dict,
    parse_config_full,
    scale_range,
)


def test_minimal_document_defaults():
    parsed = parse_config_full('{"gestures": ["swipe_right"]}')
    settings, variation, cameras = parsed.settings, parsed.variation, parsed.cameras
    assert settings.gesture_names == ("swipe_right",)
    assert settings.master_seed == 0
    assert settings.resolution == (320, 240)
    assert settings.fps == 30.0
    assert settings.recordings_per_gesture == 100
    assert variation.speed_offset == ParamRange(0.0, 50.0)
    assert len(cameras) == 1 and cameras[0].kind == "depth"


def test_recipe_plan_600_recordings():
    parsed = parse_config_full('{"recordings_per_gesture": 100}')
    settings, cameras = parsed.settings, parsed.cameras
    assert len(settings.gesture_names) == 6
    assert settings.recordings_per_gesture * len(settings.gesture_names) == 600
    assert len(cameras) == 1


def test_depth_span_validation_error():
    doc = {"variation": {"depth_min": [100, 160], "depth_max": [150, 200]}}
    with pytest.raises(ConfigError) as exc:
        parse_config_full(json.dumps(doc))
    assert "depth_min" in str(exc.value)


def test_unknown_keys_rejected_everywhere():
    for doc, needle in [
        ({"gesturez": ["swipe_right"]}, "gesturez"),
        ({"variation": {"speed_offzet": [0, 1]}}, "speed_offzet"),
        ({"cameras": [{"kind": "depth", "presett": "top"}]}, "presett"),
        ({"cameras": [{"kind": "depth", "sensor": {"chroma": 1.0}}]}, "chroma"),
    ]:
        with pytest.raises(ConfigError) as exc:
            parse_config_full(json.dumps(doc))
        assert needle in str(exc.value)


def test_unknown_gesture_name():
    with pytest.raises(ConfigError) as exc:
        parse_config_full('{"gestures": ["wave_hello"]}')
    assert "wave_hello" in str(exc.value)


def test_syntax_error_reports_position():
    with pytest.raises(ConfigError) as exc:
        parse_config_full('{"gestures": [}')
    msg = str(exc.value)
    assert "line" in msg and "column" in msg


def test_invariant_violations_name_fields():
    cases = [
        ('{"recordings_per_gesture": 0}', "recordings_per_gesture"),
        ('{"fps": 0}', "fps"),
        ('{"master_seed": -1}', "master_seed"),
        ('{"gestures": []}', "gestures"),
        ('{"resolution": [0, 240]}', "resolution"),
        ('{"variation": {"conditions": ["low"]}}', "variation.conditions"),
        ('{"variation": {"conditions": {"speed_offset": "extreme"}}}', "variation.conditions"),
    ]
    for doc, field in cases:
        with pytest.raises(ConfigError) as exc:
            parse_config_full(doc)
        assert field in str(exc.value)


# --- scale_range -----------------------------------------------------------


def test_scale_range_published_speed_values():
    median = ParamRange(0.0, 50.0)
    low = scale_range(median, RangeCondition.LOW)
    high = scale_range(median, RangeCondition.HIGH)
    assert (low.lo, low.hi) == (12.5, 37.5)
    assert (high.lo, high.hi) == (-25.0, 75.0)


def test_scale_range_median_identity(rng):
    for _ in range(50):
        lo = float(rng.uniform(-100, 100))
        hi = lo + float(rng.uniform(0, 100))
        r = ParamRange(lo, hi)
        out = scale_range(r, RangeCondition.MEDIAN)
        assert out == r


def test_scale_range_center_and_width(rng):
    for _ in range(100):
        lo = float(rng.uniform(-100, 100))
        hi = lo + float(rng.uniform(0, 100))
        r = ParamRange(lo, hi)
        for cond, factor in [
            (RangeCondition.LOW, 0.5),
            (RangeCondition.MEDIAN, 1.0),
            (RangeCondition.HIGH, 2.0),
        ]:
            out = scale_range(r, cond)
            assert out.mid == pytest.approx(r.mid, abs=1e-9)
            assert out.width == pytest.approx(factor * r.width, abs=1e-9)


# --- serialization ---------------------------------------------------------


def test_parse_is_idempotent_on_canonical_output():
    doc = json.dumps(
        {
            "gestures": ["swipe_up", "peace_sign"],
            "recordings_per_gesture": 7,
            "master_seed": 42,
            "variation": {"speed_offset": [5, 20], "conditions": {"speed_offset": "high"}},
            "cameras": [
                {"camera_id": "d0", "kind": "depth", "preset": "top"},
                {"camera_id": "ir0", "kind": "infrared", "preset": "infotainment"},
            ],
        }
    )
    first = parse_config_full(doc)
    serialized = canonical_json(config_to_dict(first))
    second = parse_config_full(serialized)
    assert first.settings == second.settings
    assert first.variation == second.variation
    assert first.cameras == second.cameras
    assert canonical_json(config_to_dict(second)) == serialized


def test_canonical_json_sorted_and_stable():
    parsed = parse_config_full("{}")
    a = canonical_json(config_to_dict(parsed))
    b = canonical_json(config_to_dict(parse_config_full("{}")))
    assert a == b
    assert json.loads(a) == json.loads(b)


def test_apply_overrides_validation():
    parsed = parse_config_full("{}")
    out = apply_overrides(parsed, seed=7, variants=3, conditions={"speed_offset": "low"})
    assert out.settings.master_seed == 7
    assert out.settings.recordings_per_gesture == 3
    assert out.variation.condition_overrides["speed_offset"] is RangeCondition.LOW
    with pytest.raises(ConfigError):
        apply_overrides(parsed, cameras=["nonexistent"])
    with pytest.raises(ConfigError):
        apply_overrides(parsed, conditions={"speed_offset": "extreme"})
    with pytest.raises(ConfigError):
        apply_overrides(parsed, conditions={"warp_factor": "low"})


def test_condition_scaling_applies_to_validation():
    # scaled High ranges still leave a positive depth span with defaults
    parsed = parse_config_full(
        '{"variation": {"conditions": {"depth_min": "high", "depth_max": "high"}}}'
    )
    assert parsed.variation.scaled_range("depth_min").hi < parsed.variation.scaled_range("depth_max").lo


def test_variation_config_scaled_range_override():
    cfg = VariationConfig(condition_overrides={"speed_offset": RangeCondition.LOW})
    assert cfg.scaled_range("speed_offset") == ParamRange(12.5, 37.5)
    assert cfg.scaled_range("position_offset") == cfg.position_offset


@pytest.mark.parametrize(
    "doc, field_path",
    [
        ({"variation": 5}, "variation"),
        ({"cameras": [5]}, "cameras[0]"),
        ({"gesture_script_paths": 5}, "gesture_script_paths"),
        ({"cameras": [{"camera_id": "c", "sensor": 5}]}, "cameras[0].sensor"),
    ],
)
def test_section_of_wrong_json_type_is_config_error(tmp_path, capsys, doc, field_path):
    from handsynth.cli import EXIT_CONFIG, main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field_path}: expected ")
    assert "Traceback" not in err


# --- JSON types of values -------------------------------------------------


def _fields(node, keys=()):
    """(keys, value) of every field of a config document, list elements included."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield keys + (key,), value
        if isinstance(value, (dict, list)):
            yield from _fields(value, keys + (key,))


def _field_path(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _get(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _json_kind(value) -> set[str]:
    """The JSON kinds that fit the field ``value`` fills."""
    if isinstance(value, bool):
        return {"bool"}
    if isinstance(value, int):
        return {"integer"}
    if isinstance(value, float):
        return {"integer", "decimal"}
    if isinstance(value, str):
        return {"string"}
    return {"list"} if isinstance(value, list) else {"object"}


_JSON_VALUES = {
    "integer": 7,
    "decimal": 2.5,
    "NaN": float("nan"),
    "string": "x",
    "bool": True,
    "null": None,
    "list": [],
    "object": {},
}
# the fully defaulted document as ``handsynth validate`` prints it
_DEFAULT_DOC = json.loads(canonical_json(config_to_dict(parse_config_full("{}"))))


def _validate(tmp_path, capsys, doc) -> tuple[int, str, str]:
    from handsynth.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("keys", [keys for keys, _ in _fields(_DEFAULT_DOC)], ids=_field_path)
def test_every_field_refuses_every_wrong_json_type(tmp_path, capsys, keys):
    """Each field of the fully defaulted document, cameras and sensor
    included, given each JSON value that does not fit its type."""
    from handsynth.cli import EXIT_CONFIG

    fits = _json_kind(_get(_DEFAULT_DOC, keys))
    failures = []
    for kind, wrong in _JSON_VALUES.items():
        if kind in fits:
            continue
        doc = copy.deepcopy(_DEFAULT_DOC)
        _get(doc, keys[:-1])[keys[-1]] = wrong
        code, _, err = _validate(tmp_path, capsys, doc)
        if code != EXIT_CONFIG or not err.startswith(f"config error: {_field_path(keys)}: ") or "Traceback" in err:
            failures.append((kind, code, err))
    assert not failures


@pytest.mark.parametrize(
    "doc, field_path",
    [
        ('{"default_left_hand": "false"}', "default_left_hand"),
        ('{"recordings_per_gesture": 2.7}', "recordings_per_gesture"),
        ('{"master_seed": true}', "master_seed"),
        ('{"cameras": [{"camera_id": 5}]}', "cameras[0].camera_id"),
        ('{"cameras": [{"resolution": [32.5, 24]}]}', "cameras[0].resolution[0]"),
        ('{"cameras": [{"sensor": {"flipbook_tile_px": 16.5}}]}', "cameras[0].sensor.flipbook_tile_px"),
        ('{"fps": NaN}', "fps"),
        ('{"cameras": [{"sensor": {"depth_jitter": NaN}}]}', "cameras[0].sensor.depth_jitter"),
        ('{"resolution": 5}', "resolution"),
        ('{"cameras": [{"resolution": 5}]}', "cameras[0].resolution"),
        ('{"gestures": 5}', "gestures"),
        ('{"gestures": ["swipe_up", "swipe_up"]}', "gestures"),
        ('{"variation": {"chromaticity_coeff": [0, 0]}}', "variation.chromaticity_coeff"),
        ('{"variation": {"chromaticity_coeff": [-1.0, -0.5]}}', "variation.chromaticity_coeff"),
        (
            '{"variation": {"chromaticity_coeff": [0.1, 1.0], "conditions": {"chromaticity_coeff": "high"}}}',
            "variation.chromaticity_coeff",
        ),
        ('{"cameras": [{"sensor": {"chromaticity_coeff": 0}}]}', "cameras[0].sensor"),
    ],
)
def test_value_that_does_not_fit_is_refused_before_any_frame(tmp_path, capsys, doc, field_path):
    from handsynth.cli import EXIT_CONFIG, main

    config = tmp_path / "config.json"
    config.write_text(doc)
    out = tmp_path / "out"
    for args in (["validate"], ["generate", "--variants", "1", "--out", str(out)]):
        assert main(args + ["--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field_path}: ")
        assert "Traceback" not in err
    assert not out.exists()


def test_repeated_gesture_override_is_refused_before_any_frame(tmp_path, capsys):
    from handsynth.cli import EXIT_CONFIG, main

    out = tmp_path / "out"
    args = ["generate", "--gestures", "swipe_up", "swipe_up", "--variants", "1", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --gestures: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, field_path",
    [
        ("base_speed", "fast", "wave.base_speed"),
        ("turns", None, "wave.turns"),
        ("closed", "no", "wave.closed"),
        ("control_points", [[0, 0, 0], [8, 4]], "wave.control_points[1]"),
        ("arm_part", "elbow", "wave.arm_part"),
    ],
    ids=["string_speed", "null_turns", "string_closed", "two_coordinate_point", "unknown_arm_part"],
)
def test_malformed_gesture_script_names_file_and_field(tmp_path, capsys, key, value, field_path):
    from handsynth.cli import EXIT_CONFIG

    script = tmp_path / "wave.json"
    script.write_text(json.dumps({"wave": {"control_points": [[0, 0, 0], [8, 4, 0]], key: value}}))
    code, _, err = _validate(tmp_path, capsys, {"gesture_script_paths": [str(script)]})
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: gesture_script_paths: {script}: {field_path}: expected ")
    assert err.count("\n") == 1 and "Traceback" not in err


_POSED_DOC = {
    "recordings_per_gesture": 3,
    "resolution": [200, 150],
    "fps": 25,
    "default_left_hand": True,
    "master_seed": 99,
    "gestures": ["swipe_up", "peace_sign"],
    "variation": {
        "speed_offset": [5, 20],
        "depth_min": [10.5, 20],
        "conditions": {"speed_offset": "high", "finger_spacing": "low"},
    },
    "cameras": [
        {
            "camera_id": "rgb1",
            "kind": "rgb",
            "position": [1, 2.5, -80],
            "rotation": [0, 10, 0],
            "fov_deg": 55,
            "resolution": [64, 48],
            "fps": 15,
            "sensor": {"ambient": 0.3, "depth_jitter": 2, "flipbook_tile_px": 32},
        },
        {"kind": "infrared", "preset": "wheel"},
    ],
}


@pytest.mark.parametrize(
    "doc, digest",
    [
        ({}, "bc34fc06adaa8be777495de2cff9df12ca548d9ace86744919a181c1dee6827d"),
        (_POSED_DOC, "be7113af112114d336e3e178babf125e5409f19d9940578bb30192c78436a48c"),
    ],
    ids=["defaults", "posed_camera_sensor_conditions"],
)
def test_validate_output_is_pinned(tmp_path, capsys, doc, digest):
    """SHA-256 of ``handsynth validate``'s output as the hand-written
    section readers printed it: a sensor number written as an integer still
    prints as one."""
    code, out, _ = _validate(tmp_path, capsys, doc)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
