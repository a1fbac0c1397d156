import itertools
import math

import numpy as np
import pytest

from handsynth.config import ParamRange, VariationConfig
from handsynth.evalkit import (
    Trajectory,
    TrajectoryRecord,
    classify_1nn,
    dtw_distance,
    extract_trajectory,
    leave_one_out_accuracy,
    mean_pairwise_dispersion,
    pairwise_dtw,
)
from handsynth.geom import vec
from handsynth.render import encode_depth16, trace_depth
from handsynth.scene import CameraKind, CameraSpec, SensorParams, scene_from_primitives


def _cam():
    return CameraSpec(
        camera_id="t",
        kind=CameraKind.DEPTH,
        position=(0.0, 0.0, 0.0),
        rotation=(0.0, 0.0, 0.0),
        fov_deg=60.0,
        resolution=(161, 121),
    )


def _depth_codes(scene, cam, sp):
    return encode_depth16(trace_depth(scene, cam), sp)


def _traj(points):
    return Trajectory(points=np.asarray(points, dtype=float), confidence=1.0)


def _extract(frames, cam, sp, span):
    """Trajectory of a recording's label span, its frames handed over one
    at a time."""
    first, last = span
    return extract_trajectory(frames[0], (f for f in frames[first : last + 1]), cam, sp)


# --- extraction --------------------------------------------------------------


def test_translating_sphere_centroid_tracks_motion():
    cam = _cam()
    sp = SensorParams(depth_min=20.0, depth_max=150.0, chromaticity_coeff=1.0)
    background = scene_from_primitives(planes=[(vec(0, 0, -120.0), vec(0, 0, 1.0))])
    frames = [_depth_codes(background, cam, sp)]
    n_steps = 12
    for k in range(n_steps):
        scene = scene_from_primitives(
            capsules=[(vec(-6.0 + k, 0.0, -70.0), vec(-6.0 + k, 0.0, -70.0), 6.0)],
            planes=[(vec(0, 0, -120.0), vec(0, 0, 1.0))],
        )
        frames.append(_depth_codes(scene, cam, sp))
    traj = _extract(frames, cam, sp, (1, n_steps))
    assert len(traj) == n_steps
    steps = np.diff(traj.points[:, 0])
    assert np.all(np.abs(steps - 1.0) < 0.2)  # ~1 cm per frame in +x
    assert traj.confidence == 1.0


def test_static_scene_centroid_variance_tiny():
    cam = _cam()
    sp = SensorParams()
    scene = scene_from_primitives(
        capsules=[(vec(2.0, 1.0, -75.0), vec(2.0, 1.0, -75.0), 7.0)],
        planes=[(vec(0, 0, -130.0), vec(0, 0, 1.0))],
    )
    background = scene_from_primitives(planes=[(vec(0, 0, -130.0), vec(0, 0, 1.0))])
    frames = [_depth_codes(background, cam, sp)] + [_depth_codes(scene, cam, sp)] * 10
    traj = _extract(frames, cam, sp, (1, 10))
    assert np.all(traj.points.var(axis=0) < 0.01)


def test_all_invalid_frames_error():
    cam = _cam()
    sp = SensorParams()
    empty = scene_from_primitives(planes=[(vec(0, 0, -120.0), vec(0, 0, 1.0))])
    frames = [_depth_codes(empty, cam, sp)] * 5
    with pytest.raises(ValueError, match="zero foreground"):
        _extract(frames, cam, sp, (1, 4))


def test_low_pixel_frames_reuse_neighbor_centroid():
    cam = _cam()
    sp = SensorParams()
    plane = [(vec(0, 0, -120.0), vec(0, 0, 1.0))]
    with_sphere = scene_from_primitives(
        capsules=[(vec(0, 0, -70.0), vec(0, 0, -70.0), 6.0)], planes=plane
    )
    background = scene_from_primitives(planes=plane)
    bg = _depth_codes(background, cam, sp)
    ball = _depth_codes(with_sphere, cam, sp)
    frames = [bg, ball, bg, ball]  # middle labeled frame has no foreground
    traj = _extract(frames, cam, sp, (1, 3))
    assert np.array_equal(traj.points[1], traj.points[0])
    assert traj.confidence == pytest.approx(2 / 3)


# --- DTW ---------------------------------------------------------------------


def _dtw_bruteforce(a, b):
    """Exhaustive enumeration of monotone boundary-aligned alignments.

    The point cost uses the same arithmetic expression as the DP code so
    that exact float equality is meaningful; the alignment search itself
    is fully independent."""
    n, m = len(a), len(b)
    best = [np.inf]

    def cost(i, j):
        return float(np.sqrt(((a[i] - b[j]) ** 2).sum()))

    def walk(i, j, acc):
        acc = acc + cost(i, j)
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def test_dtw_identity_and_symmetry(rng):
    for _ in range(10):
        a = _traj(rng.uniform(-10, 10, size=(rng.integers(2, 12), 3)))
        b = _traj(rng.uniform(-10, 10, size=(rng.integers(2, 12), 3)))
        assert dtw_distance(a, a) == 0.0
        assert dtw_distance(a, b) == dtw_distance(b, a)
        assert dtw_distance(a, b) >= 0.0


def test_dtw_single_points():
    assert dtw_distance(_traj([[0, 0, 0]]), _traj([[3, 4, 0]])) == 5.0


def test_dtw_matches_bruteforce_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.uniform(-5, 5, size=(n, 3))
        b = rng.uniform(-5, 5, size=(m, 3))
        assert dtw_distance(_traj(a), _traj(b)) == _dtw_bruteforce(a, b)


def test_dtw_rejects_empty():
    with pytest.raises(ValueError):
        dtw_distance(_traj(np.zeros((0, 3))), _traj([[1, 2, 3]]))


def _dtw_textbook(a, b):
    """D[i][j] = cost(i, j) + min(D[i-1][j], D[i][j-1], D[i-1][j-1]), row by
    row in plain Python floats."""
    prev = [0.0] + [np.inf] * len(b)
    for p in a:
        cur = [np.inf] * (len(b) + 1)
        for j, q in enumerate(b, start=1):
            cost = math.sqrt(sum((float(x) - float(y)) * (float(x) - float(y)) for x, y in zip(p, q)))
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return prev[len(b)]


def test_pairwise_dtw_equals_textbook_and_per_pair(rng, monkeypatch):
    import handsynth.evalkit as evalkit

    lengths = [1, 1, 40] + [int(n) for n in rng.integers(1, 41, size=15)]
    trajectories = [_traj(rng.uniform(-10, 10, size=(n, 3))) for n in lengths]
    whole = pairwise_dtw(trajectories)
    monkeypatch.setattr(evalkit, "DTW_CHUNK_CELLS", 700)  # several chunks, some of one pair
    chunked = pairwise_dtw(trajectories)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(whole, whole.T)
    assert np.all(np.diag(whole) == 0.0)
    for i, j in itertools.combinations(range(len(trajectories)), 2):
        a, b = trajectories[i].points, trajectories[j].points
        assert whole[i, j] == _dtw_textbook(a, b)
        assert whole[i, j] == dtw_distance(trajectories[i], trajectories[j])


def test_leave_one_out_tie_goes_to_lowest_label_then_variant():
    records = [
        TrajectoryRecord(_traj([[1, 0, 0]]), "zeta", 0),
        TrajectoryRecord(_traj([[0, 1, 0]]), "beta", 3),
        TrajectoryRecord(_traj([[0, -1, 0]]), "beta", 1),
        TrajectoryRecord(_traj([[0, 0, 0]]), "mid", 0),
        TrajectoryRecord(_traj([[0, 0, 30]]), "mid", 1),
    ]
    # mid/0 sits at distance 1 from zeta/0, beta/3 and beta/1: beta wins;
    # beta/3 and beta/1 are each other's neighbours at distance 2, but
    # mid/0 is nearer at 1
    report = leave_one_out_accuracy(records)
    confusion = report["confusion"]
    assert confusion["mid"]["beta"] == 1
    assert confusion["beta"]["mid"] == 2
    assert confusion["zeta"]["mid"] == 1


def test_mean_pairwise_dispersion_sums_in_upper_triangle_order(rng):
    trajectories = [_traj(rng.uniform(-5, 5, size=(int(rng.integers(1, 12)), 3))) for _ in range(7)]
    total = 0.0
    for i, j in itertools.combinations(range(len(trajectories)), 2):
        total += dtw_distance(trajectories[i], trajectories[j])
    assert mean_pairwise_dispersion(trajectories) == total / 21


# --- classification ----------------------------------------------------------


def test_classify_exact_match_wins():
    records = [
        TrajectoryRecord(_traj([[0, 0, 0], [1, 0, 0]]), "a", 0),
        TrajectoryRecord(_traj([[5, 5, 5], [6, 5, 5]]), "b", 0),
    ]
    assert classify_1nn(records, records[0].trajectory) == "a"
    assert classify_1nn(records, records[1].trajectory) == "b"


def test_classify_single_class():
    records = [TrajectoryRecord(_traj([[i, 0, 0]]), "only", i) for i in range(3)]
    assert classify_1nn(records, _traj([[99, 99, 99]])) == "only"


def test_classify_tie_breaks_lexicographically():
    q = _traj([[0, 0, 0]])
    records = [
        TrajectoryRecord(_traj([[1, 0, 0]]), "zeta", 0),
        TrajectoryRecord(_traj([[-1, 0, 0]]), "alpha", 5),
    ]
    assert classify_1nn(records, q) == "alpha"


def test_leave_one_out_on_separated_clusters(rng):
    records = []
    for label, center in [("a", (0, 0, 0)), ("b", (50, 0, 0)), ("c", (0, 50, 0))]:
        for i in range(4):
            pts = np.asarray(center, float) + rng.normal(scale=0.5, size=(6, 3))
            records.append(TrajectoryRecord(_traj(pts), label, i))
    report = leave_one_out_accuracy(records)
    assert report["accuracy"] == 1.0
    assert report["n_records"] == 12


# --- dispersion --------------------------------------------------------------


def test_degenerate_ranges_zero_dispersion():
    from handsynth.pipeline import render_trajectory_set

    cfg = VariationConfig(
        speed_offset=ParamRange(10.0, 10.0),
        position_offset=ParamRange(0.0, 0.0),
        finger_spacing=ParamRange(0.0, 0.0),
        finger_rotation=ParamRange(0.0, 0.0),
        hand_orientation=ParamRange(0.0, 0.0),
        chromaticity_coeff=ParamRange(1.0, 1.0),
        depth_min=ParamRange(20.0, 20.0),
        depth_max=ParamRange(150.0, 150.0),
    )
    trajectories = render_trajectory_set(
        "swipe_right", cfg, 3, resolution=(161, 121), noise_enabled=False
    )
    assert mean_pairwise_dispersion(trajectories) == 0.0


def test_mean_pairwise_dispersion_simple():
    a = _traj([[0, 0, 0]])
    b = _traj([[3, 0, 0]])
    c = _traj([[6, 0, 0]])
    assert mean_pairwise_dispersion([a, b, c]) == pytest.approx((3 + 6 + 3) / 3)
