"""Desk-scale dataset verification.

Rendered depth recordings are reduced to 3D hand trajectories (foreground
centroid per labeled frame, back-projected through the pinhole model) and
compared with dynamic time warping: a 1-NN leave-one-out pass checks that
the generated classes are geometrically separable, and the variance
ablation checks that Low / Median / High range conditions order intra-class
dispersion the way the range widths say they should.

Extraction works on the foreground only.  ``decode_depth16`` is
nondecreasing in the code whenever the chromaticity coefficient is
positive and depth_min < depth_max, which ``SensorParams`` enforces, so a
sample that passes the float test ``depth < background - margin`` has a
code no larger than a per-pixel threshold found once per recording from
the background codes.  Each frame takes one integer pass against that
threshold; the float test, the hand slab and the back-projection then run
on the candidate pixels only, batched over chunks of frames.  The
threshold is checked, not assumed: where one code above it could still
pass the float test, it falls back to the background code itself.  So the
candidates hold every pixel the float test keeps, and every output byte
equals a decode of the whole frame.

One DTW kernel serves every caller.  It sweeps the cost tables of a batch
of pairs anti-diagonal by anti-diagonal, vectorised across the pairs, with
batches bounded by DTW_CHUNK_CELLS.  ``pairwise_dtw`` runs it once over
the N(N-1)/2 unordered pairs, and the leave-one-out pass and the
dispersion both read that matrix; ``classify_1nn`` is one query against a
batch and ``dtw_distance`` the one-pair case.  Every cell is
cost + min(three neighbours), so batching and padding cannot change a
bit: the results equal the textbook recurrence exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import RangeCondition, VariationConfig, ParamRange
from .render import DEPTH_CODE_MAX, decode_depth16
from .scene import CameraSpec, SensorParams, backproject_pixels

FOREGROUND_MARGIN_CM = 5.0  # hand must sit this far in front of the background
HAND_EXTENT_CM = 14.0  # depth slab kept behind the nearest foreground pixel
MIN_FOREGROUND_PIXELS = 50
# Candidate pixels per chunk of labeled frames.  A chunk's arrays (decoded
# depth, pixel coordinates, back-projected points) take about 150 bytes per
# pixel, so extraction needs a few MB of scratch memory at any resolution
# and span length.
EXTRACT_CHUNK_PIXELS = 1 << 15


@dataclass(frozen=True)
class Trajectory:
    """Per-frame 3D centroid of foreground depth pixels over the label span."""

    points: np.ndarray  # (n, 3) cm, world frame
    confidence: float  # fraction of frames with enough foreground pixels

    def __len__(self) -> int:
        return len(self.points)


def _code_margin(sensor: SensorParams) -> int:
    """FOREGROUND_MARGIN_CM in depth codes, rounded down and less one."""
    codes_per_cm = (DEPTH_CODE_MAX - 1) * sensor.chromaticity_coeff / (sensor.depth_max - sensor.depth_min)
    return max(int(min(FOREGROUND_MARGIN_CM * codes_per_cm, DEPTH_CODE_MAX)) - 1, 0)


def _code_threshold(bg_codes: np.ndarray, background: np.ndarray, sensor: SensorParams) -> np.ndarray:
    """Per pixel, a code no foreground sample can exceed (0 where the
    background is invalid): the background code less ``_code_margin``.

    decode_depth16 is nondecreasing in the code, so where the code one
    above the threshold fails the float test, every larger code fails it
    too.  Where it does not, the threshold falls back to the background
    code, which no foreground sample can reach.
    """
    margin = _code_margin(sensor)
    bg_valid = np.isfinite(background)
    bg = bg_codes.astype(np.int32)
    thr = np.where(bg_valid, np.maximum(bg - margin, 0), 0)
    passes = bg_valid & (decode_depth16(thr + 1, sensor) < background - FOREGROUND_MARGIN_CM)
    return np.where(passes, bg, thr).astype(np.uint16)


def _chunk_centroids(
    chunk: list[tuple[np.ndarray, np.ndarray]],
    floor: np.ndarray,
    cam: CameraSpec,
    sensor: SensorParams,
) -> list[np.ndarray | None]:
    """Centroids of a chunk of frames, each given as the codes and flat
    pixel indices of its candidates; None for a frame with fewer than
    MIN_FOREGROUND_PIXELS hand pixels."""
    frames = len(chunk)
    pixels = np.concatenate([p for _, p in chunk])
    depth = decode_depth16(np.concatenate([c for c, _ in chunk]), sensor)
    fg = depth < floor[pixels]
    depth, pixels = depth[fg], pixels[fg]
    if not len(depth):
        return [None] * frames
    frame_of = np.repeat(np.arange(frames), [len(p) for _, p in chunk])[fg]
    per_frame = np.bincount(frame_of, minlength=frames)
    present = per_frame > 0
    starts = (np.cumsum(per_frame) - per_frame)[present]
    # the front slab of each frame: behind its nearest foreground sample
    nearest = np.minimum.reduceat(depth, starts)
    hand = depth < np.repeat(nearest + HAND_EXTENT_CM, per_frame[present])
    per_frame = np.bincount(frame_of[hand], minlength=frames)
    good = per_frame >= MIN_FOREGROUND_PIXELS
    hand &= good[frame_of]
    coords = backproject_pixels(cam, pixels[hand], depth[hand]).T  # (3, hand pixels)
    ends = np.cumsum(np.where(good, per_frame, 0))
    # a frame's centroid is mean(axis=0) of its rows: per coordinate, one
    # sequential sum over the rows, divided by their count.  A cumulative
    # sum is sequential by definition; its last element is that sum.
    return [
        np.cumsum(coords[:, end - n : end], axis=1)[:, -1] / n if ok else None
        for end, n, ok in zip(ends, per_frame, good)
    ]


def extract_trajectory(
    background: np.ndarray,
    frames: Iterable[np.ndarray],
    cam: CameraSpec,
    sensor: SensorParams,
) -> Trajectory:
    """Hand trajectory from the 16-bit depth frames of one label span.

    ``background`` is the recording's first frame (hand still at rest),
    the per-pixel environment depth floor; ``frames`` are the labeled
    frames, consumed one at a time.  Foreground pixels are valid samples
    at least FOREGROUND_MARGIN_CM in front of the floor.  Of those, only
    the front HAND_EXTENT_CM depth slab enters the centroid, so the
    trailing forearm does not wash out the hand motion.  Frames with too
    few foreground pixels reuse the neighboring centroid.

    Only candidate pixels are decoded: codes from 1 up to the per-pixel
    threshold of ``_code_threshold``, which holds every code the float
    test can keep because decode_depth16 is monotone in the code.  The
    float test then runs on the candidates exactly as on a whole decoded
    frame, so the result is the same to the byte.  Candidates are batched
    over frames, at most EXTRACT_CHUNK_PIXELS at a time unless one frame
    alone has more.
    """
    bg_codes = np.asarray(background)
    bg_depth = decode_depth16(bg_codes, sensor)
    if not np.any(np.isfinite(bg_depth)):
        raise ValueError("first frame has no valid depth to estimate the background floor")
    thr = _code_threshold(bg_codes, bg_depth, sensor).ravel()
    floor = (bg_depth - FOREGROUND_MARGIN_CM).ravel()

    centroids: list[np.ndarray | None] = []
    chunk: list[tuple[np.ndarray, np.ndarray]] = []  # candidates of frames not yet reduced
    pending = 0
    for frame in frames:
        frame = np.asarray(frame)
        if frame.shape != bg_codes.shape:
            raise ValueError(
                f"labeled frame {len(centroids) + len(chunk)} has shape {frame.shape}, "
                f"the first frame {bg_codes.shape}"
            )
        flat = frame.ravel()
        cand = np.flatnonzero((flat - 1) < thr)  # 1 <= code <= thr: code 0 wraps to the top
        if chunk and pending + len(cand) > EXTRACT_CHUNK_PIXELS:
            centroids += _chunk_centroids(chunk, floor, cam, sensor)
            chunk, pending = [], 0
        chunk.append((flat[cand], cand))
        pending += len(cand)
    if chunk:
        centroids += _chunk_centroids(chunk, floor, cam, sensor)
    if not centroids:
        raise ValueError("no labeled frames")

    good = sum(c is not None for c in centroids)
    if good == 0:
        raise ValueError("zero foreground pixels across all labeled frames")
    # fill gaps: reuse the previous centroid, backfill leading gaps
    for i in range(len(centroids)):
        if centroids[i] is None and i > 0:
            centroids[i] = centroids[i - 1]
    for i in range(len(centroids) - 1, -1, -1):
        if centroids[i] is None:
            centroids[i] = centroids[i + 1]
    points = np.vstack(centroids)
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite trajectory coordinates")
    return Trajectory(points=points, confidence=good / len(centroids))


# ---------------------------------------------------------------------------
# dynamic time warping
# ---------------------------------------------------------------------------

# Cost-table cells per batch of pairs.  The kernel's arrays scale with it
# (cost table plus one coordinate difference at a time, ~1 MB each), so
# all-pairs DTW over any dataset stays within a few MB of scratch memory.
DTW_CHUNK_CELLS = 1 << 17


def _points(t: Trajectory | np.ndarray) -> np.ndarray:
    pts = t.points if isinstance(t, Trajectory) else np.asarray(t, dtype=np.float64)
    if len(pts) == 0:
        raise ValueError("trajectories must be non-empty")
    return pts[:, None] if pts.ndim == 1 else pts


def _dtw_chunk(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """DTW of the pairs (left[p], right[p]) in one anti-diagonal sweep.

    Points are padded to the longest member on each side and padded cells
    get infinite cost; a cell inside a pair's own table only reads cells
    inside it, so each result at (n_p - 1, m_p - 1) is that pair's exact
    recurrence.
    """
    count = len(left)
    n = np.array([len(p) for p in left])
    m = np.array([len(p) for p in right])
    la, lb = int(n.max()), int(m.max())
    dims = left[0].shape[1]
    pa = np.zeros((count, la, dims))
    pb = np.zeros((count, lb, dims))
    for p in range(count):
        pa[p, : n[p]] = left[p]
        pb[p, : m[p]] = right[p]

    # cost table built one coordinate at a time: no (P, La, Lb, d) temporary
    sq = np.zeros((count, la, lb))
    for c in range(dims):
        diff = pa[:, :, None, c] - pb[:, None, :, c]
        diff *= diff
        sq += diff
    del diff
    padded = (np.arange(la)[None, :, None] >= n[:, None, None]) | (
        np.arange(lb)[None, None, :] >= m[:, None, None]
    )
    sq[padded] = np.inf
    cost = np.sqrt(sq, out=sq).reshape(count, la * lb)

    # D along anti-diagonal k, indexed by row i + 1 (column 0 is the i = -1
    # border); three rotating buffers, so a slot is only ever read after
    # the diagonal it belongs to wrote it, or while it still holds inf
    bufs = [np.full((count, la + 1), np.inf) for _ in range(3)]
    ends = n + m - 2  # diagonal holding each pair's last cell
    out = np.empty(count)
    step = max(lb - 1, 1)
    for k in range(la + lb - 1):
        prev2, prev, cur = bufs[(k - 2) % 3], bufs[(k - 1) % 3], bufs[k % 3]
        lo = max(0, k - lb + 1)
        hi = min(la - 1, k)
        start = k + lo * (lb - 1)
        c = cost[:, start : start + (hi - lo) * step + 1 : step]  # cells (i, k - i)
        if k == 0:
            cur[:, 1] = c[:, 0]
        else:
            best = np.minimum(prev[:, lo : hi + 1], prev[:, lo + 1 : hi + 2])  # up, left
            np.minimum(best, prev2[:, lo : hi + 1], out=best)  # diagonal
            cur[:, lo + 1 : hi + 2] = c + best
        done = np.flatnonzero(ends == k)
        if len(done):
            out[done] = cur[done, n[done]]
    return out


def _dtw_pairs(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """DTW of every pair (left[p], right[p]), batched by DTW_CHUNK_CELLS.

    DTW is exactly symmetric, so each pair is oriented longer side first
    and pairs are batched in order of their lengths, which keeps padding
    small.
    """
    count = len(left)
    longer, shorter = [], []
    for a, b in zip(left, right):
        if len(a) < len(b):
            a, b = b, a
        longer.append(a)
        shorter.append(b)
    out = np.empty(count)
    batch: list[int] = []
    la = lb = 0
    for p in sorted(range(count), key=lambda p: (len(longer[p]), len(shorter[p]))):
        grown_a, grown_b = max(la, len(longer[p])), max(lb, len(shorter[p]))
        if batch and (len(batch) + 1) * grown_a * grown_b > DTW_CHUNK_CELLS:
            out[batch] = _dtw_chunk([longer[q] for q in batch], [shorter[q] for q in batch])
            batch, grown_a, grown_b = [], len(longer[p]), len(shorter[p])
        batch.append(p)
        la, lb = grown_a, grown_b
    if batch:
        out[batch] = _dtw_chunk([longer[q] for q in batch], [shorter[q] for q in batch])
    return out


def dtw_distance(a: Trajectory | np.ndarray, b: Trajectory | np.ndarray) -> float:
    """Classic DTW with Euclidean point cost, full window, symmetric
    match/insert/delete steps and aligned boundaries.

    The one-pair case of the batched anti-diagonal kernel; distances are
    exactly the textbook recurrence's.
    """
    return float(_dtw_pairs([_points(a)], [_points(b)])[0])


def pairwise_dtw(trajectories: Sequence[Trajectory | np.ndarray]) -> np.ndarray:
    """(N, N) matrix of DTW distances, each unordered pair computed once.

    The N(N-1)/2 upper-triangle pairs run through the batched kernel; the
    matrix is exactly symmetric with a zero diagonal.
    """
    pts = [_points(t) for t in trajectories]
    count = len(pts)
    rows, cols = np.triu_indices(count, k=1)
    upper = _dtw_pairs([pts[i] for i in rows], [pts[j] for j in cols])
    dist = np.zeros((count, count))
    dist[rows, cols] = upper
    dist[cols, rows] = upper
    return dist


class TrajectoryRecord(NamedTuple):
    trajectory: Trajectory
    label: str
    variant_index: int = 0
    frame_dir: str = ""  # the recording's frames, relative to its manifest


def _tie_order(dataset: Sequence[TrajectoryRecord]) -> np.ndarray:
    """Dataset indices sorted by (label, variant index): the first minimum
    in this order wins a distance tie."""
    return np.array(
        sorted(range(len(dataset)), key=lambda k: (dataset[k].label, dataset[k].variant_index)),
        dtype=np.int64,
    )


def classify_1nn(dataset: Sequence[TrajectoryRecord], query: Trajectory) -> str:
    """Label of the nearest dataset trajectory; ties resolve to the lowest
    (gesture label, variant index)."""
    if not dataset:
        raise ValueError("empty dataset")
    order = _tie_order(dataset)
    q = _points(query)
    dist = _dtw_pairs([q] * len(order), [_points(dataset[k].trajectory) for k in order])
    return dataset[order[int(np.argmin(dist))]].label


def leave_one_out_accuracy(dataset: Sequence[TrajectoryRecord]) -> dict:
    """1-NN leave-one-out over the whole set; returns accuracy + confusion.

    All-pairs DTW is computed once; each query's nearest neighbour is the
    first minimum of its row in tie order, with the query itself left out.
    """
    if len(dataset) < 2:
        raise ValueError("need at least 2 records")
    order = _tie_order(dataset)
    dist = pairwise_dtw([r.trajectory for r in dataset])[:, order]
    dist[order, np.arange(len(order))] = np.inf  # a query is not its own neighbour
    nearest = order[np.argmin(dist, axis=1)]

    labels = sorted({r.label for r in dataset})
    confusion = {a: {b: 0 for b in labels} for a in labels}
    correct = 0
    for record, k in zip(dataset, nearest):
        predicted = dataset[k].label
        confusion[record.label][predicted] += 1
        if predicted == record.label:
            correct += 1
    return {
        "accuracy": correct / len(dataset),
        "n_records": len(dataset),
        "confusion": confusion,
    }


def mean_pairwise_dispersion(trajectories: Sequence[Trajectory]) -> float:
    """Mean DTW distance over all unordered pairs, summed in i < j order."""
    n = len(trajectories)
    if n < 2:
        raise ValueError("need at least 2 trajectories")
    dist = pairwise_dtw(trajectories)
    total = 0.0
    for i, j in zip(*np.triu_indices(n, k=1)):
        total += float(dist[i, j])
    return total / (n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# variance ablation
# ---------------------------------------------------------------------------

# Ablation protocol: the examined parameter gets a wide, measurable median
# range while the non-examined gesture parameters keep tight medians, so
# halving / doubling the examined range is what moves the dispersion
# instead of drowning in the co-varied background.  Speed and position run
# on a dynamic swipe; finger spacing runs on the static peace sign where
# trajectory length does not confound the finger geometry signal.
ABLATION_PARAMS = ("speed_offset", "position_offset", "finger_spacing")

_TIGHT = {
    "speed_offset": ParamRange(0.0, 10.0),
    "position_offset": ParamRange(-0.1, 0.1),
    "finger_spacing": ParamRange(-2.0, 2.0),
    "finger_rotation": ParamRange(-0.25, 0.25),
    "hand_orientation": ParamRange(-0.25, 0.25),
    "chromaticity_coeff": ParamRange(1.0, 1.0),
    "depth_min": ParamRange(20.0, 20.0),
    "depth_max": ParamRange(150.0, 150.0),
}

_EXAMINED = {
    "speed_offset": ParamRange(0.0, 50.0),
    "position_offset": ParamRange(-2.0, 2.0),
    "finger_spacing": ParamRange(-14.0, 14.0),
}

_ABLATION_GESTURE = {
    "speed_offset": "swipe_right",
    "position_offset": "swipe_right",
    "finger_spacing": "peace_sign",
}


def ablation_protocol_config(param: str) -> tuple[VariationConfig, str]:
    """(variation config, gesture name) for one examined parameter."""
    if param not in ABLATION_PARAMS:
        raise ValueError(f"ablation covers {ABLATION_PARAMS}, not {param!r}")
    medians = dict(_TIGHT)
    medians[param] = _EXAMINED[param]
    return VariationConfig(**medians), _ABLATION_GESTURE[param]


def run_variance_ablation(
    n_variants: int = 20,
    params: Iterable[str] = ABLATION_PARAMS,
    master_seed: int = 0,
    resolution: tuple[int, int] = (320, 240),
    fps: float = 30.0,
) -> dict:
    """Dispersion per range condition for each examined parameter.

    For each parameter only its condition is scaled Low/Median/High; all
    other parameters keep sampling their (protocol) median ranges.
    Recordings render in memory with sensor noise disabled and reduce to
    trajectories before the pairwise DTW dispersion is taken.
    """
    from .pipeline import render_trajectory_set  # lazy: pipeline imports evalkit

    report: dict = {"n_variants": n_variants, "parameters": {}}
    for param in params:
        cfg, gesture_name = ablation_protocol_config(param)
        per_condition = {}
        for cond in (RangeCondition.LOW, RangeCondition.MEDIAN, RangeCondition.HIGH):
            trajectories = render_trajectory_set(
                gesture_name=gesture_name,
                variation=replace(cfg, condition_overrides={param: cond}),
                n_variants=n_variants,
                master_seed=master_seed,
                resolution=resolution,
                fps=fps,
                noise_enabled=False,
            )
            per_condition[cond.value] = mean_pairwise_dispersion(trajectories)
        low, median, high = (
            per_condition["low"],
            per_condition["median"],
            per_condition["high"],
        )
        report["parameters"][param] = {
            "gesture": gesture_name,
            "dispersion": per_condition,
            "low_to_median_ratio": median / low if low > 0 else float("inf"),
            "median_to_high_ratio": high / median if median > 0 else float("inf"),
            "ordered": low < median < high,
        }
    return report
