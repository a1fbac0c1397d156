import math

import numpy as np
import pytest

from handsynth.gesture import (
    ArmPart,
    GestureScript,
    PhaseKind,
    WarningCounters,
    arc_length_table,
    build_spline,
    builtin_scripts,
    evaluate_frame,
    param_at_arclength,
    parse_scripts,
    plan_timeline,
    position_at_arclength,
    script_from_dict,
)
from handsynth.variation import VariantParams

REST = np.array([7.0, 30.0, -25.0])
ANCHOR = np.array([17.0, 50.0, -45.0])


def _variant(speed=0.0, position=(0.0, 0.0, 0.0)):
    base = VariantParams.neutral()
    return VariantParams(
        variant_index=base.variant_index,
        seed=base.seed,
        speed_offset=speed,
        position_offset=position,
        finger_spacing_offsets=base.finger_spacing_offsets,
        finger_rotation_offsets=base.finger_rotation_offsets,
        hand_orientation_offset=base.hand_orientation_offset,
        chromaticity_coeff=base.chromaticity_coeff,
        depth_min=base.depth_min,
        depth_max=base.depth_max,
    )


# --- spline ------------------------------------------------------------------


def test_two_point_spline_is_exact_segment():
    spline = build_spline([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0]])
    us = np.linspace(0, 1, 17)
    pts = spline.position(us)
    assert np.abs(pts[:, 1:]).max() == 0.0
    assert np.abs(pts[:, 0] - 30.0 * us).max() < 1e-12


def test_closed_square_interpolates_all_points():
    square = np.array([[0, 0, 0], [10, 0, 0], [10, 10, 0], [0, 10, 0]], dtype=float)
    spline = build_spline(square, closed=True)
    for k in range(4):
        p = spline.position(k / 4.0)
        assert np.linalg.norm(p - square[k]) < 1e-9
    assert np.linalg.norm(spline.position(1.0) - square[0]) < 1e-9


def test_random_spline_interpolates_control_points(rng):
    pts = rng.uniform(-20, 20, size=(5, 3))
    spline = build_spline(pts)
    for k in range(5):
        assert np.linalg.norm(spline.position(k / 4.0) - pts[k]) < 1e-9


def test_duplicate_consecutive_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_spline([[0, 0, 0], [0, 0, 0], [1, 1, 1]])


# --- arc length --------------------------------------------------------------


def test_straight_segment_length_exact():
    spline = build_spline([[0, 0, 0], [30, 0, 0]])
    table = arc_length_table(spline)
    assert abs(table.total_length - 30.0) < 1e-9
    assert np.all(np.diff(table.cumulative) >= 0)


def test_circle_length_against_dense_oracle():
    pts = [[8 * math.cos(2 * math.pi * k / 8), 8 * math.sin(2 * math.pi * k / 8), 0.0] for k in range(8)]
    spline = build_spline(np.array(pts), closed=True)
    table = arc_length_table(spline)  # default sample count
    oracle = arc_length_table(spline, n_samples=100_000)
    assert abs(table.total_length - oracle.total_length) / oracle.total_length < 0.005
    # curve through 8 points on a circle stays within 2% of the circle length
    assert abs(table.total_length - 2 * math.pi * 8) / (2 * math.pi * 8) < 0.02


def test_arc_table_monotone_on_random_splines(rng):
    for _ in range(10):
        pts = rng.uniform(-15, 15, size=(6, 3))
        table = arc_length_table(build_spline(pts))
        assert np.all(np.diff(table.cumulative) >= 0)
        assert table.cumulative[-1] == table.total_length


def test_position_at_arclength_midpoint_and_ends():
    spline = build_spline([[0, 0, 0], [30, 0, 0]])
    table = arc_length_table(spline)
    assert np.linalg.norm(position_at_arclength(spline, table, 15.0) - [15, 0, 0]) < 1e-9
    assert np.array_equal(position_at_arclength(spline, table, 0.0), spline.points[0])
    assert np.linalg.norm(position_at_arclength(spline, table, 30.0) - spline.points[1]) < 1e-12


def test_position_at_arclength_uniform_spacing(rng):
    # against the dense-table oracle: a uniform s grid through the default
    # table lands at arc positions spaced step +/- 2 percent
    for _ in range(5):
        xs = np.sort(rng.uniform(-15, 15, size=5))
        xs += np.arange(5) * 4.0  # keep waypoints apart
        pts = np.column_stack([xs, rng.uniform(-5, 5, size=5), rng.uniform(-2.5, 2.5, size=5)])
        spline = build_spline(pts)
        table = arc_length_table(spline)
        fine = arc_length_table(spline, n_samples=100_000)
        assert abs(table.total_length - fine.total_length) / fine.total_length < 0.005
        step = table.total_length / 40
        us = [param_at_arclength(table, k * step) for k in range(41)]
        arc = np.interp(us, fine.us, fine.cumulative)
        gaps = np.diff(arc)
        assert np.all(np.abs(gaps - step) < 0.02 * step + 1e-9)
        # and straight-ish stretches keep chord spacing too
        chords = np.linalg.norm(
            np.diff(np.array([position_at_arclength(spline, table, k * step) for k in range(41)]), axis=0),
            axis=1,
        )
        assert np.all(chords <= step * 1.02)


def test_out_of_range_arclength_clamps_and_counts():
    spline = build_spline([[0, 0, 0], [10, 0, 0]])
    table = arc_length_table(spline)
    counters = WarningCounters()
    p = position_at_arclength(spline, table, 25.0, counters)
    assert np.linalg.norm(p - [10, 0, 0]) < 1e-12
    assert counters.arc_clamps == 1


# --- timelines ---------------------------------------------------------------


def test_plan_timeline_frame_counts():
    # straight 30 cm gesture at 30 cm/s, 30 fps, rest 24 cm from both ends,
    # pre/post at 60 cm/s -> 12 + 30 + 12 frames
    script = GestureScript(
        name="probe",
        control_points=((-15.0, 0.0, 0.0), (15.0, 0.0, 0.0)),
        base_speed=30.0,
        pre_speed=60.0,
        post_speed=60.0,
    )
    y = math.sqrt(24.0**2 - 15.0**2)
    rest = ANCHOR + np.array([0.0, -y, 0.0])
    tl = plan_timeline(script, rest, ANCHOR, 30.0, None)
    kinds = [(p.kind, p.n_frames) for p in tl.phases]
    assert kinds == [
        (PhaseKind.PRE_GESTURE, 12),
        (PhaseKind.GESTURE, 30),
        (PhaseKind.POST_GESTURE, 12),
    ]
    assert tl.total_frames == 54
    assert tl.label_span == (12, 41)


def test_static_hold_frame_count():
    tl = plan_timeline(builtin_scripts()["peace_sign"], REST, ANCHOR, 30.0, None)
    hold = [p for p in tl.phases if p.kind == PhaseKind.HOLD]
    assert len(hold) == 1 and hold[0].n_frames == 30


def test_speed_floor_clamp():
    script = GestureScript(name="slow", control_points=((0.0, 0.0, 0.0), (30.0, 0.0, 0.0)), base_speed=25.0)
    tl = plan_timeline(script, REST, ANCHOR, 30.0, _variant(speed=-25.0))
    gesture = [p for p in tl.phases if p.kind == PhaseKind.GESTURE][0]
    assert gesture.speed == 5.0
    assert gesture.n_frames == math.ceil(30.0 / 5.0 * 30.0)


def test_timeline_tiling():
    for name, script in builtin_scripts().items():
        tl = plan_timeline(script, REST, ANCHOR, 30.0, _variant(speed=13.7, position=(2.0, -1.0, 3.0)))
        cursor = 0
        for phase in tl.phases:
            assert phase.start_frame == cursor
            assert phase.end_frame >= phase.start_frame
            cursor = phase.end_frame
        assert cursor == tl.total_frames
        first, last = tl.label_span
        assert 0 <= first <= last < tl.total_frames


# --- frame evaluation --------------------------------------------------------


def test_first_and_last_frames_at_rest():
    for script in builtin_scripts().values():
        tl = plan_timeline(script, REST, ANCHOR, 30.0, _variant(speed=7.0))
        w0, _, _ = evaluate_frame(tl, 0)
        wl, _, _ = evaluate_frame(tl, tl.total_frames - 1)
        assert np.linalg.norm(w0 - REST) < 1e-12
        assert np.linalg.norm(wl - REST) < 1e-9


def test_midpoint_of_straight_gesture():
    script = GestureScript(name="probe", control_points=((-15.0, 0.0, 0.0), (15.0, 0.0, 0.0)), base_speed=30.0)
    y = math.sqrt(24.0**2 - 15.0**2)
    rest = ANCHOR + np.array([0.0, -y, 0.0])
    tl = plan_timeline(script, rest, ANCHOR, 30.0, None)
    first, last = tl.label_span
    mid_frame = first + 15  # 15 frames into a 30-frame phase = 15 cm along
    w, _, _ = evaluate_frame(tl, mid_frame)
    assert np.linalg.norm(w - ANCHOR) < 1e-9


def test_constant_speed_property_builtin_gestures():
    for name, script in builtin_scripts().items():
        if script.is_static:
            continue
        variant = _variant(speed=17.0, position=(1.5, -2.0, 1.0))
        tl = plan_timeline(script, REST, ANCHOR, 30.0, variant)
        gesture = [p for p in tl.phases if p.kind == PhaseKind.GESTURE][0]
        v = gesture.speed
        targets = [evaluate_frame(tl, f)[0] for f in range(gesture.start_frame, gesture.end_frame)]
        gaps = np.linalg.norm(np.diff(np.array(targets), axis=0), axis=1)
        interior = gaps[1:-1] if len(gaps) > 3 else gaps
        expected = v / 30.0
        assert np.all(np.abs(interior - expected) < 0.02 * expected), name


def test_determinism_bit_identical():
    script = builtin_scripts()["rotate_two_finger"]
    variant = _variant(speed=9.0, position=(0.5, 0.5, 0.5))
    tl1 = plan_timeline(script, REST, ANCHOR, 30.0, variant)
    tl2 = plan_timeline(script, REST, ANCHOR, 30.0, variant)
    assert tl1.total_frames == tl2.total_frames
    for f in range(tl1.total_frames):
        w1, a1, p1 = evaluate_frame(tl1, f)
        w2, a2, p2 = evaluate_frame(tl2, f)
        assert np.array_equal(w1, w2) and np.array_equal(a1, a2) and p1 == p2


def test_hand_and_finger_modes_hold_wrist():
    for part in (ArmPart.HAND, ArmPart.FINGER):
        script = GestureScript(
            name="aimed",
            control_points=((0.0, 0.0, 0.0), (6.0, 8.0, 0.0), (12.0, 0.0, 0.0)),
            arm_part=part,
        )
        tl = plan_timeline(script, REST, ANCHOR, 30.0, None)
        first, last = tl.label_span
        wrists = np.array([evaluate_frame(tl, f)[0] for f in range(first, last + 1)])
        assert np.abs(wrists - wrists[0]).max() < 1e-12
        aims = np.array([evaluate_frame(tl, f)[1] for f in range(first, last + 1)])
        if part == ArmPart.HAND:
            assert np.abs(aims - aims[0]).max() > 1e-3  # the palm re-aims


def test_pose_track_interpolation():
    script = GestureScript(
        name="tracked",
        control_points=((0.0, 0.0, 0.0), (30.0, 0.0, 0.0)),
        base_speed=30.0,
        pose_track=((0.0, 0.0, 0.0), (1.0, 60.0, 0.0)),
    )
    tl = plan_timeline(script, REST, ANCHOR, 30.0, None)
    first, last = tl.label_span
    _, _, pose_start = evaluate_frame(tl, first)
    _, _, pose_mid = evaluate_frame(tl, first + (last - first) // 2)
    assert pose_mid.curl[1] > pose_start.curl[1]


def test_frame_out_of_range():
    tl = plan_timeline(builtin_scripts()["swipe_right"], REST, ANCHOR, 30.0, None)
    with pytest.raises(IndexError):
        evaluate_frame(tl, tl.total_frames)
    with pytest.raises(IndexError):
        evaluate_frame(tl, -1)


# --- scripts -----------------------------------------------------------------


def test_builtin_registry_contents():
    scripts = builtin_scripts()
    assert set(scripts) == {
        "swipe_right",
        "swipe_up",
        "swipe_right_two_finger",
        "peace_sign",
        "rotate_two_finger",
        "point_two_finger",
    }
    assert scripts["peace_sign"].is_static
    assert scripts["rotate_two_finger"].closed
    assert scripts["rotate_two_finger"].turns == 1.25
    assert scripts["swipe_right_two_finger"].control_points == scripts["swipe_right"].control_points


def test_script_validation_errors():
    with pytest.raises(ValueError, match="2 control points"):
        GestureScript(name="bad", control_points=((0.0, 0.0, 0.0),) * 0)
    with pytest.raises(ValueError, match="static_hold_s"):
        GestureScript(name="bad", control_points=((0.0, 0.0, 0.0),), static_hold_s=0.0)
    with pytest.raises(ValueError, match="speeds"):
        GestureScript(name="bad", control_points=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), base_speed=0.0)
    with pytest.raises(ValueError, match="hand pose"):
        GestureScript(name="bad", control_points=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), hand_pose="fist_bump")


def test_script_json_round_trip(tmp_path):
    path = tmp_path / "wave.json"
    path.write_text(
        '{"name": "wave", "control_points": [[0,0,0],[8,4,0],[16,0,0]], '
        '"base_speed": 22.5, "arm_part": "hand"}'
    )
    scripts = parse_scripts(path.read_text(), str(path))
    assert scripts["wave"].arm_part == ArmPart.HAND
    assert scripts["wave"].base_speed == 22.5
    with pytest.raises(ValueError, match="unknown gesture script keys"):
        script_from_dict({"name": "x", "control_points": [[0, 0, 0], [1, 1, 1]], "speedy": 1})
