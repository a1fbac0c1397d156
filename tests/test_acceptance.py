"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  The full default dataset run
(criteria 2 and 4) renders twice and is the slow part; everything else is
desk-scale."""

import hashlib
import math
import os
import shutil
import tempfile
import time

import numpy as np
import pytest

from handsynth.config import ParamRange, RangeCondition, parse_config_full, scale_range
from handsynth.evalkit import (
    TrajectoryRecord,
    dtw_distance,
    leave_one_out_accuracy,
    run_variance_ablation,
)
from handsynth.gesture import PhaseKind, builtin_scripts, evaluate_frame, plan_timeline
from handsynth.output import read_manifest, slice_by_ratio
from handsynth.pipeline import generate_dataset, render_trajectory_set
from handsynth.render import (
    DEPTH_CODE_MAX,
    apply_depth_noise,
    decode_depth16,
    depth_to_chromaticity,
    encode_depth16,
    fresnel_factor,
    make_flipbook,
    trace_depth,
)
from handsynth.scene import (
    SensorParams,
    TAG_BODY,
    gesture_anchor,
    rest_position,
    scene_from_primitives,
)
from handsynth.skeleton import default_rig, solve_two_bone_ik
from handsynth.variation import sample_variant, derive_seed
from handsynth.config import VariationConfig
from handsynth.geom import normalize, vec

JOBS = min(4, os.cpu_count() or 1)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _tree_digests(root: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests[rel] = h.hexdigest()
    return digests


@pytest.fixture(scope="module")
def full_run():
    """One default-recipe run: six gestures x 100 variants x one depth
    camera at 320x240 / 30 fps.

    The run's per-file digests are taken and the run (about 4.9 GB) is
    deleted before the tests start, so criterion 4's second run is the
    only full dataset on disk.  The work directory is removed however the
    set-up or the tests end."""
    workdir = tempfile.mkdtemp(prefix="handsynth-accept-")
    try:
        out = os.path.join(workdir, "run_a")
        parsed = parse_config_full('{"output_path": "%s"}' % out)
        t0 = time.monotonic()
        manifest, summary = generate_dataset(parsed, jobs=JOBS)
        wall = time.monotonic() - t0
        digests = _tree_digests(out)
        shutil.rmtree(out)
        yield {
            "digests": digests,
            "manifest": manifest,
            "summary": summary,
            "wall_s": wall,
            "workdir": workdir,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_criterion_1_range_scaling_exactness():
    t0 = time.monotonic()
    median = ParamRange(0.0, 50.0)
    low = scale_range(median, RangeCondition.LOW)
    high = scale_range(median, RangeCondition.HIGH)
    ok = (low.lo, low.hi) == (12.5, 37.5) and (high.lo, high.hi) == (-25.0, 75.0)
    _report(1, ok and time.monotonic() - t0 < 1.0, f"low={low.as_list()} high={high.as_list()}")


@pytest.mark.full_run
def test_criterion_2_dataset_recipe(full_run):
    manifest = full_run["manifest"]
    entries = manifest.entries
    ok = len(entries) == 600
    per_gesture = {}
    for e in entries:
        per_gesture[e.gesture_label] = per_gesture.get(e.gesture_label, 0) + 1
        ok &= e.resolution == (320, 240) and e.fps == 30.0 and e.kind == "depth"
    ok &= set(per_gesture.values()) == {100} and len(per_gesture) == 6
    manifest.validate()
    wall = full_run["wall_s"]
    ok &= wall < 900.0
    _report(
        2,
        ok,
        f"{len(entries)} recordings ({sum(e.frame_count for e in entries)} frames), "
        f"wall {wall:.0f}s on {JOBS} jobs (limit 900s)",
    )


@pytest.mark.full_run
def test_criterion_3_ratio_slicing(full_run):
    entries = list(full_run["manifest"].entries)
    counts = {}
    for ratio in (25, 50, 100, 200):
        sliced = slice_by_ratio(entries, ratio, base_count=33)
        per_gesture = {}
        for e in sliced:
            per_gesture.setdefault(e.gesture_label, set()).add(e.variant_index)
        sizes = {len(v) for v in per_gesture.values()}
        assert len(sizes) == 1
        counts[ratio] = sizes.pop()
    ok = counts == {25: 8, 50: 16, 100: 33, 200: 66}
    _report(3, ok, f"slice counts {counts} (expected 8/16/33/66)")


@pytest.mark.full_run
def test_criterion_4_full_run_determinism(full_run):
    out_b = os.path.join(full_run["workdir"], "run_b")
    parsed = parse_config_full('{"output_path": "%s"}' % out_b)
    t0 = time.monotonic()
    generate_dataset(parsed, jobs=JOBS)
    wall_b = time.monotonic() - t0
    digests_a = full_run["digests"]
    digests_b = _tree_digests(out_b)
    shutil.rmtree(out_b, ignore_errors=True)
    same = digests_a == digests_b
    ok = same and wall_b < 2 * max(full_run["wall_s"], 1.0)
    _report(
        4,
        ok,
        f"{len(digests_a)} files byte-identical={same}, second run {wall_b:.0f}s "
        f"(< 2x first {full_run['wall_s']:.0f}s)",
    )


def test_criterion_5_ik_suite(rng):
    t0 = time.monotonic()
    rig = default_rig()
    lo, hi = rig.reach_min + 2e-4, rig.reach_max - 2e-4
    max_wrist_err = 0.0
    max_len_drift = 0.0
    for _ in range(10_000):
        direction = normalize(rng.normal(size=3))
        d = float(rng.uniform(lo + 2e-4, hi - 2e-4))
        target = rig.shoulder_pos + d * direction
        elbow, wrist = solve_two_bone_ik(rig, target)
        max_wrist_err = max(max_wrist_err, float(np.linalg.norm(wrist - target)))
        max_len_drift = max(
            max_len_drift,
            abs(float(np.linalg.norm(elbow - rig.shoulder_pos)) - rig.upper_len),
            abs(float(np.linalg.norm(wrist - elbow)) - rig.fore_len),
        )

    # CCD oracle agreement on a subset: planar 2-joint CCD to convergence
    def ccd(l1, l2, d):
        a1, a2 = math.radians(30.0), math.radians(-60.0)
        target = np.array([d, 0.0])
        for _ in range(3000):
            e = np.array([l1 * math.cos(a1), l1 * math.sin(a1)])
            w = e + np.array([l2 * math.cos(a1 + a2), l2 * math.sin(a1 + a2)])
            v1, v2 = w - e, target - e
            a2 += math.atan2(v1[0] * v2[1] - v1[1] * v2[0], float(np.dot(v1, v2)))
            e = np.array([l1 * math.cos(a1), l1 * math.sin(a1)])
            w = e + np.array([l2 * math.cos(a1 + a2), l2 * math.sin(a1 + a2)])
            a1 += math.atan2(w[0] * target[1] - w[1] * target[0], float(np.dot(w, target)))
            if np.linalg.norm(w - target) < 1e-9:
                break
        e = np.array([l1 * math.cos(a1), l1 * math.sin(a1)])
        return e

    max_ccd_err = 0.0
    for _ in range(120):
        direction = normalize(rng.normal(size=3))
        d = float(rng.uniform(lo + 0.5, hi - 0.5))
        elbow, _ = solve_two_bone_ik(rig, rig.shoulder_pos + d * direction)
        ccd_elbow = ccd(rig.upper_len, rig.fore_len, d)
        along = float(np.dot(elbow - rig.shoulder_pos, direction))
        perp = math.sqrt(max(float(np.linalg.norm(elbow - rig.shoulder_pos)) ** 2 - along**2, 0.0))
        max_ccd_err = max(max_ccd_err, abs(along - ccd_elbow[0]), abs(perp - abs(ccd_elbow[1])))

    elapsed = time.monotonic() - t0
    ok = max_wrist_err < 1e-6 and max_len_drift < 1e-6 and max_ccd_err < 1e-4 and elapsed < 10.0
    _report(
        5,
        ok,
        f"wrist err {max_wrist_err:.2e}, bone drift {max_len_drift:.2e}, "
        f"ccd err {max_ccd_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_constant_speed():
    t0 = time.monotonic()
    rig = default_rig()
    rest, anchor = rest_position(rig), gesture_anchor(rig)
    worst = 0.0
    for name, script in builtin_scripts().items():
        if script.is_static:
            continue
        seed = derive_seed(0, name, 0, "depth0")
        variant = sample_variant(VariationConfig(), {}, seed, 0)
        tl = plan_timeline(script, rest, anchor, 30.0, variant)
        phase = [p for p in tl.phases if p.kind == PhaseKind.GESTURE][0]
        targets = np.array(
            [evaluate_frame(tl, f)[0] for f in range(phase.start_frame, phase.end_frame)]
        )
        gaps = np.linalg.norm(np.diff(targets, axis=0), axis=1)
        interior = gaps[1:-1] if len(gaps) > 3 else gaps
        expected = phase.speed / 30.0
        worst = max(worst, float(np.abs(interior - expected).max() / expected))
    elapsed = time.monotonic() - t0
    ok = worst < 0.02 and elapsed < 10.0
    _report(6, ok, f"worst relative spacing error {100 * worst:.2f}% (< 2%), {elapsed:.1f}s")


def test_criterion_7_sensor_suite():
    from handsynth.scene import CameraKind, CameraSpec

    t0 = time.monotonic()
    cam = CameraSpec(
        camera_id="t",
        kind=CameraKind.DEPTH,
        position=(0.0, 0.0, 0.0),
        rotation=(0.0, 0.0, 0.0),
        fov_deg=60.0,
        resolution=(161, 121),
    )
    sp = SensorParams(depth_min=20.0, depth_max=150.0, chromaticity_coeff=1.0)

    # (a) noise-off 16-bit fidelity on the sphere scene
    scene = scene_from_primitives(
        capsules=[(vec(0, 0, -85.0), vec(0, 0, -85.0), 10.0)],
        planes=[(vec(0, 0, -140.0), vec(0, 0, 1.0))],
    )
    buf = trace_depth(scene, cam)
    decoded = decode_depth16(encode_depth16(buf, sp), sp)
    step = (sp.depth_max - sp.depth_min) / (DEPTH_CODE_MAX - 1)
    fid_err = float(np.nanmax(np.abs(decoded[buf.valid] - buf.depth[buf.valid])))
    ok_a = fid_err <= step

    # (b) chromaticity monotone
    depths = np.linspace(sp.depth_min, sp.depth_max, 2000)
    ok_b = bool(np.all(np.diff(depth_to_chromaticity(depths, sp)) >= 0))

    # (c) flipbook periodicity
    noise = make_flipbook(sp, seed=77)
    period = sp.flipbook_tile_count * sp.flipbook_frames_per_tile
    ok_c = all(
        np.array_equal(noise.field(f, 121, 161), noise.field(f + period, 121, 161))
        for f in range(0, period, 3)
    )

    # (d) edge-concentrated dropout over 10 frames
    sphere_mask = buf.tag == TAG_BODY
    inside = sphere_mask.copy()
    for _ in range(2):
        s = inside.copy()
        s[1:, :] &= inside[:-1, :]
        s[:-1, :] &= inside[1:, :]
        s[:, 1:] &= inside[:, :-1]
        s[:, :-1] &= inside[:, 1:]
        inside = s
    edge = sphere_mask & ~inside
    sp_noise = SensorParams(depth_min=20.0, depth_max=150.0)
    fb = make_flipbook(sp_noise, seed=99)
    e_drop = i_drop = 0
    for f in range(10):
        out = apply_depth_noise(buf, fb, sp_noise, f)
        dropped = buf.valid & ~out.valid
        e_drop += int(np.count_nonzero(dropped & edge))
        i_drop += int(np.count_nonzero(dropped & inside))
    e_rate = e_drop / (10 * np.count_nonzero(edge))
    i_rate = i_drop / (10 * np.count_nonzero(inside))
    ok_d = e_drop > 0 and e_rate > 2 * i_rate

    # (e) Fresnel endpoints
    ok_e = (
        fresnel_factor(np.array(1.0), 2.0) == 0.0
        and fresnel_factor(np.array(0.0), 2.0) == 1.0
        and fresnel_factor(np.array(0.5), 2.0) == 0.25
    )

    elapsed = time.monotonic() - t0
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and elapsed < 30.0
    _report(
        7,
        ok,
        f"fidelity {fid_err:.2e}<= step {step:.2e} ({ok_a}), monotone {ok_b}, periodic {ok_c}, "
        f"edge rate {e_rate:.3f} vs interior {i_rate:.4f} ({ok_d}), fresnel {ok_e}, {elapsed:.1f}s",
    )


def test_criterion_8_separability():
    t0 = time.monotonic()
    records = []
    for gesture in builtin_scripts():
        trajectories = render_trajectory_set(
            gesture, VariationConfig(), {}, 10, noise_enabled=True
        )
        records += [TrajectoryRecord(t, gesture, i) for i, t in enumerate(trajectories)]
    report = leave_one_out_accuracy(records)
    elapsed = time.monotonic() - t0
    ok = report["accuracy"] >= 0.8 and elapsed < 300.0
    _report(
        8,
        ok,
        f"leave-one-out 1-NN accuracy {report['accuracy']:.3f} (>= 0.80) "
        f"on 6x10 median variants, {elapsed:.0f}s",
    )


def test_criterion_9_dispersion_ordering():
    t0 = time.monotonic()
    report = run_variance_ablation(n_variants=20)
    elapsed = time.monotonic() - t0
    lines = []
    ok = elapsed < 600.0
    for param, r in report["parameters"].items():
        d = r["dispersion"]
        margin_lm = r["low_to_median_ratio"] - 1.0
        margin_mh = r["median_to_high_ratio"] - 1.0
        ok &= d["low"] < d["median"] < d["high"] and margin_lm >= 0.05 and margin_mh >= 0.05
        lines.append(f"{param}: L{d['low']:.2f} M{d['median']:.2f} H{d['high']:.2f} "
                     f"(+{100 * margin_lm:.1f}%, +{100 * margin_mh:.1f}%)")
    _report(9, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_10_dtw_oracle(rng):
    t0 = time.monotonic()

    def brute(a, b):
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

    corpus = [rng.uniform(-10, 10, size=(int(rng.integers(1, 9)), 3)) for _ in range(24)]
    checked = 0
    exact = True
    for i in range(len(corpus)):
        for j in range(i, len(corpus)):
            from handsynth.evalkit import Trajectory

            d = dtw_distance(Trajectory(corpus[i], 1.0), Trajectory(corpus[j], 1.0))
            exact &= d == brute(corpus[i], corpus[j])
            checked += 1
    elapsed = time.monotonic() - t0
    ok = exact and elapsed < 5.0
    _report(10, ok, f"{checked} pairs of length <= 8 exactly equal to exhaustive search, {elapsed:.1f}s")
