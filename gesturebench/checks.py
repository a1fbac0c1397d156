"""Independent checks of the program's outputs.

Nothing here reuses the program's tracer, screen bounds, frame reader,
depth decoding, noise model or DTW: the ray cast, the capsule
rectangles, the netpbm parsing, the depth decoding, the dropout bound and
the dynamic time warping are written out again from their definitions,
so a fault in the program's version shows up as a mismatch instead of
being repeated.  Only the scene of a frame (the posed capsules, boxes and
planes) comes from the program's public gesture, skeleton and scene
functions, and the sensor constants from the camera.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

import numpy as np

from handsynth.gesture import builtin_scripts, evaluate_frame, plan_timeline
from handsynth.scene import build_scene, gesture_anchor, rest_position
from handsynth.skeleton import default_rig, pose_hand

MISS = 0  # per-pixel class of a ray that hits nothing
BODY = 1
ENVIRONMENT = 2

CODE_MAX = 65535  # 16-bit depth codes; code 0 is a dropout
EXTENSION = {"depth": "pgm", "rgb": "ppm", "infrared": "ppm"}
INTERIOR_SAMPLES = 2  # seeded frames per recording besides the first and last
DROPOUT_MARGIN = 1e-6  # noise intensity below the dropout threshold by less than this may still drop


# ---------------------------------------------------------------------------
# brute-force ray cast
# ---------------------------------------------------------------------------


def camera_rays(cam) -> tuple[np.ndarray, np.ndarray]:
    """Origin and unnormalised world directions, one per pixel centre in
    row-major order.  Each direction has camera-space z = -1, so the ray
    parameter of a hit is its camera depth."""
    w, h = cam.resolution
    tan_x = math.tan(math.radians(cam.fov_deg) / 2.0)
    tan_y = tan_x * h / w
    x = ((np.arange(w) + 0.5) / w * 2.0 - 1.0) * tan_x
    y = (1.0 - (np.arange(h) + 0.5) / h * 2.0) * tan_y
    d_cam = np.empty((h * w, 3))
    d_cam[:, 0] = np.tile(x, h)
    d_cam[:, 1] = np.repeat(y, w)
    d_cam[:, 2] = -1.0
    # the camera's axes are the columns of its rotation matrix
    return np.asarray(cam.position, dtype=np.float64), d_cam @ cam.rotation_matrix.T


def _entry(t_in, t_out):
    """First t > 0 of the interval [t_in, t_out], inf when it lies behind."""
    return np.where(t_in > 0.0, t_in, np.where(t_out > 0.0, t_out, np.inf))


def hit_sphere(o, d, dd, center, radius):
    """Nearest t > 0 of rays o + t d against a solid sphere; inf on a miss.
    ``dd`` holds d . d per ray."""
    w = o - np.asarray(center, dtype=np.float64)
    b = d @ w
    c = float(w @ w) - radius * radius
    disc = b * b - dd * c
    root = np.sqrt(np.maximum(disc, 0.0))
    return np.where(disc >= 0.0, _entry((-b - root) / dd, (-b + root) / dd), np.inf)


def meets_sphere(o, d, dd, center, radius):
    """Mask of the rays that hit a solid sphere at some t > 0."""
    w = o - np.asarray(center, dtype=np.float64)
    b = d @ w
    c = float(w @ w) - radius * radius
    # from outside (c > 0) both roots share the sign of -b
    return (b * b >= dd * c) & (b < 0.0) if c > 0.0 else np.ones(len(d), dtype=bool)


def hit_cylinder(o, d, dd, p0, p1, radius):
    """Nearest t > 0 against the solid finite cylinder around segment p0-p1:
    the tube interval intersected with the slab between the end planes."""
    p0 = np.asarray(p0, dtype=np.float64)
    axis = np.asarray(p1, dtype=np.float64) - p0
    length = float(np.linalg.norm(axis))
    if length == 0.0:
        return np.full(len(d), np.inf)
    u = axis / length
    w = o - p0
    w_along = float(w @ u)
    w_perp = w - w_along * u
    d_along = d @ u
    # with d_perp = d - (d.u) u:  d_perp . d_perp = d.d - (d.u)^2,  d_perp . w_perp = d . w_perp
    a = np.maximum(dd - d_along * d_along, 0.0)
    b = d @ w_perp
    c = float(w_perp @ w_perp) - radius * radius
    disc = b * b - a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    inside_tube = c <= 0.0
    inside_slab = 0.0 <= w_along <= length
    with np.errstate(divide="ignore", invalid="ignore"):
        # a ray parallel to the axis stays inside (or outside) the tube for all t
        tube_in = np.where(a > 0.0, (-b - root) / a, -np.inf if inside_tube else np.inf)
        tube_out = np.where(a > 0.0, (-b + root) / a, np.inf if inside_tube else -np.inf)
        s0 = -w_along / d_along
        s1 = (length - w_along) / d_along
    slab_in = np.where(d_along != 0.0, np.minimum(s0, s1), -np.inf if inside_slab else np.inf)
    slab_out = np.where(d_along != 0.0, np.maximum(s0, s1), np.inf if inside_slab else -np.inf)
    t_in = np.maximum(tube_in, slab_in)
    t_out = np.minimum(tube_out, slab_out)
    return np.where((disc >= 0.0) & (t_in <= t_out), _entry(t_in, t_out), np.inf)


def hit_capsule(o, d, dd, p0, p1, radius):
    """A capsule is the union of its cylinder and two end spheres, so its
    entry point is the nearest of the three entries."""
    return np.minimum(
        hit_cylinder(o, d, dd, p0, p1, radius),
        np.minimum(hit_sphere(o, d, dd, p0, radius), hit_sphere(o, d, dd, p1, radius)),
    )


def hit_box(o, d, lo, hi):
    """Nearest t > 0 against an axis-aligned solid box, one slab at a time."""
    t_in = np.full(len(d), -np.inf)
    t_out = np.full(len(d), np.inf)
    for k in range(3):
        inside = lo[k] <= o[k] <= hi[k]
        dk = d[:, k]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo[k] - o[k]) / dk
            tb = (hi[k] - o[k]) / dk
        moving = dk != 0.0
        t_in = np.maximum(t_in, np.where(moving, np.minimum(ta, tb), -np.inf if inside else np.inf))
        t_out = np.minimum(t_out, np.where(moving, np.maximum(ta, tb), np.inf if inside else -np.inf))
    return np.where(t_in <= t_out, _entry(t_in, t_out), np.inf)


def hit_plane(o, d, point, normal):
    """t > 0 where rays cross an infinite plane; inf when parallel or behind."""
    normal = np.asarray(normal, dtype=np.float64)
    denom = d @ normal
    num = float((np.asarray(point, dtype=np.float64) - o) @ normal)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / denom
    return np.where((denom != 0.0) & (t > 0.0), t, np.inf)


def cast(scene, cam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Camera depth (inf on a miss), hit class and, for capsule hits, the
    index of the capsule hit (-1 elsewhere) of every pixel.

    Every ray is tested against every primitive: no screen-space bounds
    and no cached base buffer.  A capsule's or box's full test runs on
    the rays that hit its bounding sphere, an exact per-ray test.
    """
    w, h = cam.resolution
    o, d = camera_rays(cam)
    dd = np.einsum("ij,ij->i", d, d)
    depth = np.full(len(d), np.inf)
    cls = np.full(len(d), MISS, dtype=np.uint8)
    owner = np.full(len(d), -1, dtype=np.int64)

    def keep(rows, t, kind, index=-1):
        nearer = t < depth[rows]
        rows = rows[nearer]
        depth[rows] = t[nearer]
        cls[rows] = kind
        owner[rows] = index

    every = np.arange(len(d))
    for i, (p0, p1, r) in enumerate(zip(scene.capsule_a, scene.capsule_b, scene.capsule_r)):
        r = float(r)
        rows = every[meets_sphere(o, d, dd, 0.5 * (p0 + p1), 0.5 * float(np.linalg.norm(p1 - p0)) + r)]
        keep(rows, hit_capsule(o, d[rows], dd[rows], p0, p1, r), BODY, i)
    for lo, hi in zip(scene.box_min, scene.box_max):
        rows = every[meets_sphere(o, d, dd, 0.5 * (lo + hi), 0.5 * float(np.linalg.norm(hi - lo)))]
        keep(rows, hit_box(o, d[rows], lo, hi), ENVIRONMENT)
    for point, normal in zip(scene.plane_point, scene.plane_normal):
        keep(every, hit_plane(o, d, point, normal), ENVIRONMENT)
    return depth.reshape(h, w), cls.reshape(h, w), owner.reshape(h, w)


# ---------------------------------------------------------------------------
# where the screen-bounds fault can drop body pixels
# ---------------------------------------------------------------------------


def capsule_rect(cam, a, b, radius, near_only: bool):
    """Pixel rectangle (u0, u1, v0, v1) bounding a capsule on screen, with
    the margins of the program's tracer; None when an end sphere reaches
    the camera plane (the tracer then tests the whole screen).

    Each end sphere's camera-space box [x-r, x+r] x [y-r, y+r] is divided
    by a depth.  ``near_only`` divides by the near depth only, as
    ``render._capsule_screen_bounds`` does, which is too narrow for a
    negative numerator; otherwise the wider of the near- and far-depth
    quotients is taken, which bounds the capsule for either sign.
    """
    w, h = cam.resolution
    tan_x = math.tan(math.radians(cam.fov_deg) / 2.0)
    tan_y = tan_x * h / w
    u_lo = v_lo = math.inf
    u_hi = v_hi = -math.inf
    for x, y, z in (np.vstack([a, b]).astype(np.float64) - np.asarray(cam.position)) @ cam.rotation_matrix:
        near = -z - radius
        if near <= 1e-6:
            return None
        depths = (near,) if near_only else (near, -z + radius)
        x_lo = min((x - radius) / s for s in depths)
        x_hi = max((x + radius) / s for s in depths)
        y_lo = min((y - radius) / s for s in depths)
        y_hi = max((y + radius) / s for s in depths)
        u_lo = min(u_lo, (x_lo / tan_x + 1.0) / 2.0 * w)
        u_hi = max(u_hi, (x_hi / tan_x + 1.0) / 2.0 * w)
        v_lo = min(v_lo, (1.0 - (y_hi / tan_y + 1.0) / 2.0) * h)
        v_hi = max(v_hi, (1.0 - (y_lo / tan_y + 1.0) / 2.0) * h)
    return (
        max(math.floor(u_lo) - 1, 0),
        min(math.ceil(u_hi) + 2, w),
        max(math.floor(v_lo) - 1, 0),
        min(math.ceil(v_hi) + 2, h),
    )


def fault_zone(scene, cam, owner) -> np.ndarray:
    """Pixels whose nearest capsule (``owner``, from ``cast``) lies outside
    that capsule's near-depth-only rectangle: the only pixels the
    screen-bounds fault can take from the body.  A capsule pixel outside
    even the near/far rectangle is left out, so that it counts as a
    mismatch of another kind."""
    h, w = owner.shape
    zone = np.zeros((h, w), dtype=bool)
    for i, (a, b, r) in enumerate(zip(scene.capsule_a, scene.capsule_b, scene.capsule_r)):
        mine = owner == i
        wide = capsule_rect(cam, a, b, float(r), near_only=False)
        if wide is None or not mine.any():
            continue  # both rectangles are the whole screen, or nothing to lose
        u0, u1, v0, v1 = capsule_rect(cam, a, b, float(r), near_only=True)
        outside = np.zeros((h, w), dtype=bool)
        outside[wide[2] : wide[3], wide[0] : wide[1]] = True
        outside[v0:v1, u0:u1] = False
        zone |= mine & outside
    return zone


def dilate(mask, radius_px: int) -> np.ndarray:
    """Pixels within ``radius_px`` (Chebyshev distance) of a set pixel."""
    if radius_px <= 0:
        return mask
    h, w = mask.shape
    r = radius_px
    padded = np.pad(mask, r)
    out = np.zeros_like(mask)
    for dv in range(-r, r + 1):
        for du in range(-r, r + 1):
            out |= padded[r + dv : r + dv + h, r + du : r + du + w]
    return out


def frame_scene(entry, frame_index: int):
    """The full scene of one written frame, rebuilt from its manifest entry
    with the program's public gesture, skeleton and scene functions.  The
    workloads keep the config's default right hand."""
    script = builtin_scripts()[entry.gesture_label]
    rig = default_rig(is_left=bool(script.use_left_hand))
    timeline = plan_timeline(script, rest_position(rig), gesture_anchor(rig), entry.fps, entry.variant_params)
    if timeline.total_frames != entry.frame_count or tuple(timeline.label_span) != tuple(entry.label_span):
        raise ValueError(f"{entry.frame_dir}: replanned timeline does not match the manifest entry")
    wrist, aim, pose = evaluate_frame(timeline, frame_index)
    return build_scene(rig, pose_hand(rig, wrist, aim, pose))


# ---------------------------------------------------------------------------
# frame comparisons: (pixels showing the screen-bounds fault, other pixels)
# ---------------------------------------------------------------------------


def dropout_possible(cast_depth, sensor) -> np.ndarray:
    """Cast-hit pixels where the depth sensor model can drop the sample.

    The model drops a pixel when I * n > tau, with flipbook noise n < 1
    and noise intensity I = clip(k_d * z + k_e * e): z the depth
    normalised into the sensor range, e the central-difference depth
    gradient over ``edge_scale`` (1 beside a miss).  Where I, taken from
    the cast depth, is at most tau a dropout is impossible; a small margin
    absorbs rounding between the cast and the program's depth.
    """
    hit = np.isfinite(cast_depth)
    depth = np.where(hit, cast_depth, 0.0)
    z = np.clip((depth - sensor.depth_min) / (sensor.depth_max - sensor.depth_min), 0.0, 1.0)
    p = np.pad(depth, 1, mode="edge")
    grad = np.hypot(0.5 * (p[1:-1, 2:] - p[1:-1, :-2]), 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1]))
    q = np.pad(hit, 1, mode="edge")
    beside_miss = ~(q[1:-1, 2:] & q[1:-1, :-2] & q[2:, 1:-1] & q[:-2, 1:-1])
    e = np.where(beside_miss, 1.0, np.minimum(grad / sensor.edge_scale, 1.0))
    intensity = np.clip(sensor.noise_dist_weight * z + sensor.noise_edge_weight * e, 0.0, 1.0)
    return hit & (intensity > sensor.dropout_threshold - DROPOUT_MARGIN)


def depth_mismatches(codes, cast_depth, cast_cls, zone, sensor) -> tuple[int, int]:
    """Compare a 16-bit depth frame with the cast; ``sensor`` carries the
    recording's depth range and the noise model's constants.

    A nonzero code must decode to within the jitter plus one quantisation
    step of the cast depth clamped into the sensor range, and no nonzero
    code may appear where the cast misses.  Code 0 (a dropout) is allowed
    only where the cast hits and ``dropout_possible`` holds.  Body pixels
    shown deeper inside the fault ``zone``, and dropouts within one pixel
    of it (the fault changes the program's clean depth there, and with it
    the edge term of the noise intensity), are counted apart from all
    other mismatches.
    """
    span = (sensor.depth_max - sensor.depth_min) / sensor.chromaticity_coeff
    step = span / (CODE_MAX - 1)
    codes = np.asarray(codes)
    decoded = sensor.depth_min + (codes.astype(np.float64) - 1.0) * step
    expected = np.clip(cast_depth, sensor.depth_min, sensor.depth_min + span)
    hit = np.isfinite(cast_depth)
    present = codes != 0
    off = present & hit & (np.abs(decoded - expected) > sensor.depth_jitter + step)
    dropped = ~present & hit & ~dropout_possible(cast_depth, sensor)
    deeper = off & (cast_cls == BODY) & (decoded > expected)
    fault = (deeper & zone) | (dropped & dilate(zone, 1))
    other = (off | dropped | (present & ~hit)) & ~fault
    return int(np.count_nonzero(fault)), int(np.count_nonzero(other))


def rgb_classes(pixels) -> np.ndarray:
    """Hit class of a Lambertian RGB frame: black is a miss, skin is more
    red than blue, the cabin more blue than red."""
    px = np.asarray(pixels).astype(np.int32)
    cls = np.where(px[..., 0] > px[..., 2], BODY, ENVIRONMENT).astype(np.uint8)
    cls[~px.any(axis=-1)] = MISS
    return cls


def infrared_classes(pixels) -> np.ndarray:
    """Hit class of an infrared frame: black is a miss, the body is bright
    green-to-orange (green >= 120), the cabin dark blue (green <= 20)."""
    px = np.asarray(pixels).astype(np.int32)
    cls = np.where(px[..., 1] > 60, BODY, ENVIRONMENT).astype(np.uint8)
    cls[~px.any(axis=-1)] = MISS
    return cls


def class_mismatches(seen, cast_cls, zone, radius_px: int = 0) -> tuple[int, int]:
    """Compare per-pixel hit classes of a shaded frame with the cast.

    A pixel may show any class the cast has within ``radius_px`` of it
    (the infrared rim blur copies pixels by up to that offset).  Body
    pixels shown as cabin or as a miss within ``radius_px`` of the fault
    ``zone`` are counted apart from all other mismatches.
    """
    bad = seen != cast_cls
    if radius_px > 0 and bad.any():
        h, w = cast_cls.shape
        r = radius_px
        padded = np.pad(cast_cls, r, mode="edge")
        for dv in range(-r, r + 1):
            for du in range(-r, r + 1):
                bad &= padded[r + dv : r + dv + h, r + du : r + du + w] != seen
    lost = bad & (cast_cls == BODY) & (seen != BODY) & dilate(zone, radius_px)
    return int(np.count_nonzero(lost)), int(np.count_nonzero(bad & ~lost))


# ---------------------------------------------------------------------------
# written files
# ---------------------------------------------------------------------------


def read_netpbm(path: str) -> tuple[bytes, int, int, int, bytes]:
    """(magic, width, height, maxval, pixel bytes) of a binary PGM/PPM."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated netpbm header")
        fields.append(data[start:pos])
    return fields[0], int(fields[1]), int(fields[2]), int(fields[3]), data[pos + 1 :]


def frame_pixels(path: str, kind: str, resolution) -> np.ndarray:
    """Pixels of one written frame, after checking its header and size
    against the camera's kind and resolution."""
    magic, w, h, maxval, body = read_netpbm(path)
    want = (b"P5", 65535, 2) if kind == "depth" else (b"P6", 255, 3)
    if (magic, maxval) != want[:2] or (w, h) != tuple(resolution):
        raise ValueError(f"{path}: header {magic!r} {w}x{h} maxval {maxval} does not match a {kind} frame at {resolution}")
    if len(body) != w * h * want[2]:
        raise ValueError(f"{path}: {len(body)} pixel bytes, expected {w * h * want[2]}")
    if kind == "depth":
        return np.frombuffer(body, dtype=">u2").reshape(h, w).astype(np.uint16)
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)


def frame_file(entry, index: int) -> str:
    return os.path.join(entry.frame_dir, f"frame_{index:05d}.{EXTENSION[entry.kind]}")


def check_manifest(manifest, root: str, cameras: int, gestures: int, variants: int) -> None:
    """Entry count, label spans, and per recording exactly ``frame_count``
    frame files whose header and size match the camera's kind and resolution."""
    want = cameras * gestures * variants
    keys = {e.key() for e in manifest.entries}
    if len(manifest.entries) != want or len(keys) != want:
        raise ValueError(f"manifest has {len(manifest.entries)} entries ({len(keys)} distinct), expected {want}")
    for e in manifest.entries:
        first, last = e.label_span
        if not (0 <= first <= last < e.frame_count):
            raise ValueError(f"{e.frame_dir}: label span {e.label_span} outside 0..{e.frame_count - 1}")
        names = sorted(os.listdir(os.path.join(root, e.frame_dir)))
        expected = sorted(os.path.basename(frame_file(e, i)) for i in range(e.frame_count))
        if names != expected:
            raise ValueError(f"{e.frame_dir}: {len(names)} files, expected frames 0..{e.frame_count - 1}")
        for i in range(e.frame_count):
            frame_pixels(os.path.join(root, frame_file(e, i)), e.kind, e.resolution)


def sample_frames(entry, seed: int) -> list[int]:
    """First and last frame (the hand at rest) plus seeded interior frames."""
    last = entry.frame_count - 1
    interior = range(1, last)
    rng = random.Random(f"{seed}:{entry.frame_dir}")
    picked = rng.sample(interior, min(INTERIOR_SAMPLES, len(interior)))
    return sorted({0, last, *picked})


def check_recording(entry, cam, root: str, seed: int) -> tuple[int, int]:
    """(fault pixels, other mismatching pixels) over a recording's sample."""
    v = entry.variant_params
    sensor = cam.sensor.with_variant(v.chromaticity_coeff, v.depth_min, v.depth_max)
    fault = other = 0
    for index in sample_frames(entry, seed):
        pixels = frame_pixels(os.path.join(root, frame_file(entry, index)), entry.kind, entry.resolution)
        scene = frame_scene(entry, index)
        cast_depth, cast_cls, owner = cast(scene, cam)
        zone = fault_zone(scene, cam, owner)
        if entry.kind == "depth":
            f, o = depth_mismatches(pixels, cast_depth, cast_cls, zone, sensor)
        elif entry.kind == "rgb":
            f, o = class_mismatches(rgb_classes(pixels), cast_cls, zone)
        else:
            f, o = class_mismatches(infrared_classes(pixels), cast_cls, zone, math.ceil(sensor.blur_radius))
        fault += f
        other += o
    return fault, other


def tree_digest(root: str) -> tuple[str, int]:
    """(sha256 over every relative path and file body, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                body = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + len(body).to_bytes(8, "little"))
            h.update(body)
            total += len(body)
    return h.hexdigest(), total


# ---------------------------------------------------------------------------
# leave-one-out 1-NN with a textbook DTW
# ---------------------------------------------------------------------------


def dtw(a, b) -> float:
    """DTW by the textbook O(n*m) recurrence with Euclidean point cost:
    D[i][j] = cost(i, j) + min(D[i-1][j], D[i][j-1], D[i-1][j-1])."""
    a = [tuple(map(float, p)) for p in a]
    b = [tuple(map(float, p)) for p in b]
    if not a or not b:
        raise ValueError("sequences must be non-empty")
    inf = math.inf
    prev = [0.0] + [inf] * len(b)
    for p in a:
        cur = [inf] * (len(b) + 1)
        for j, q in enumerate(b, start=1):
            cost = math.sqrt(sum((x - y) * (x - y) for x, y in zip(p, q)))
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return prev[len(b)]


def leave_one_out(records) -> tuple[list[str], dict]:
    """(prediction per record, confusion) of leave-one-out 1-NN, ties
    going to the lowest (label, variant index) as in the program."""
    points = [r.trajectory.points for r in records]
    n = len(records)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = dtw(points[i], points[j])
    order = sorted(range(n), key=lambda k: (records[k].label, records[k].variant_index))
    labels = sorted({r.label for r in records})
    confusion = {a: {b: 0 for b in labels} for a in labels}
    predictions = []
    for i in range(n):
        candidates = [k for k in order if k != i]
        best_label, best = records[candidates[0]].label, math.inf
        for k in candidates:
            if dist[i][k] < best:
                best, best_label = dist[i][k], records[k].label
        predictions.append(best_label)
        confusion[records[i].label][best_label] += 1
    return predictions, confusion


def confusion_disagreements(program: dict, reference: dict) -> int:
    """Fewest queries whose prediction must differ for two confusion
    matrices over the same true labels to disagree."""
    if set(program) != set(reference):
        return sum(sum(row.values()) for row in reference.values())
    return sum(
        max(0, reference[true][pred] - program[true].get(pred, 0))
        for true in reference
        for pred in reference[true]
    )
