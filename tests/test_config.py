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
