"""Per-pixel raycasting and camera sensor models.

The tracer intersects every camera ray with the scene's capsules, boxes
and planes in closed form and keeps the nearest hit (depth is camera-Z,
matching commodity depth sensors).  On top of the clean buffer sit the
sensor models: 16-bit chromaticity-mapped depth with flipbook noise,
dropout and jitter; infrared Fresnel shading with panned-noise edge blur;
and plain Lambertian RGB.

Everything here is pure numpy over immutable inputs; per-frame renders
are deterministic functions of (scene, camera, seed, frame index).

There is one tracing and one sensing path.  Every traced buffer covers a
window of the frame: the whole frame for a trace without a base (an empty
base) and for scenes with boxes or planes, else the dirty window of a
trace on a base, the union of the arm capsules' screen rectangles (plus,
for depth, the reach of the noise model).  The tracer composites only ray
parameters and the index of the winning primitive, and derives depth and
tag once, at the pixels the new primitives win; for RGB and infrared it
keeps each such pixel's primitive and ray parameter, what its normal is
computed from with the camera's cached rays.  The sensor writes a
buffer's window into a background, what the sensor makes of the base at
the frame's flipbook tile (``sensor_backgrounds``, one per tile): depth is
sensed over the window, RGB and infrared shade only the changed pixels,
gathering their rays and tags and writing their 8-bit colours by flat
pixel index.  Infrared then blurs its rim pixels, the base's less those
the arm changed plus the arm's own, by copying 8-bit pixels.  The output
is byte-identical to tracing and sensing the whole scene.

A capsule is intersected with the rays of its screen rectangle, or, when
that holds _WEDGE_MIN_RAYS rays or more, only with those between the image
lines of the two planes through the eye that touch its infinite cylinder,
gathered by flat index (``_wedge_spans``).  The wedge only chooses which
rays are tested: each ray's bytes are those the rectangle gives it.  The
capsules' ray sets of fewer than _BATCH_MAX_RAYS rays, the fingers', are
copied into one buffer and traced in one kernel call, a larger set alone
(``_intersect_capsules``): a ray's bytes do not depend on the rays or
capsules it is traced with, and the sets are composited in capsule order,
so a tie, as at a joint sphere two capsules share, goes to the lower index.

No step of a whole-frame trace holds whole-frame temporaries: boxes and
planes are intersected in bands of whole image rows, capsules at most
RENDER_CHUNK_PIXELS rays a kernel call, and the normals are computed and
shaded RENDER_CHUNK_PIXELS changed pixels at a time, each chunk shaded as
it is made, so no buffer holds a normal array.
Depth cameras keep no normal inputs, which no depth sensor reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import SplitMix64
from .scene import (
    CameraKind,
    CameraSpec,
    Scene,
    SensorParams,
    TAG_BODY,
    TAG_ENVIRONMENT,
    TAG_NONE,
    camera_rays,
    ray_depth_scale,
)

_T_EPS = 1e-6  # minimum ray parameter accepted as a hit

# pixels a kernel takes at a time: the changed pixels whose normals are
# computed and shaded, the rays of one capsule kernel call, and (in whole
# image rows) the rays of a box or plane intersection.  Bounds the per-pixel
# temporaries of a whole-frame trace and of its background, and is more than
# a dynamic frame changes, so a frame of the arm runs one chunk
RENDER_CHUNK_PIXELS = 1 << 15

# a capsule whose screen rectangle holds at least this many rays is traced
# only at the rays of its cylinder's tangent wedge (``_wedge_spans``).  The
# cull costs about 60 us per capsule and saves about 70 ns per ray it drops,
# often half a rectangle's, so it breaks even near 4,000 rays.  Measured on
# the multi-camera benchmark's arm frames: with every capsule culled,
# 320x240 depth traces took 1.5x as long (2.1 -> 3.1 ms per frame); from
# 4,096 or 16,384 rays on, the 640x480 RGB trace fell alike (5.3 -> 4.5-4.7
# ms), and the 320x240 cameras, whose capsules seldom reach this size,
# stayed flat
_WEDGE_MIN_RAYS = 1 << 14
_WEDGE_MARGIN = 2  # px the wedge's column spans are widened by on each side

# a capsule ray set (a block of its rectangle, or of its wedge's rays) of
# fewer rays than this is traced in one _intersect_capsules call with the
# frame's other such sets, up to RENDER_CHUNK_PIXELS rays; a larger one is
# traced alone, with scalar constants.  A batched ray costs about a third
# more than a ray of a set alone (its capsule's constants repeated over it),
# and a call alone about 50 us more than a capsule's share of a batch.
# Measured on the arm frames of the two generation benchmarks at seed 1,
# trace_depth per frame against the unbatched tracer, interleaved, best of
# 5: 1,024 / 2,048 / 4,096 / 8,192 rays gave 320x240 depth -28 / -30 / -31 /
# -28 %, 640x480 RGB -1 / -8 / -9 / -8 % and 320x240 infrared -21 / -24 /
# -25 / -24 %; batching every set made RGB 2 % slower than unbatched
_BATCH_MAX_RAYS = 1 << 12

# per-camera ray grids are pose/intrinsics functions only; cache them
_RAY_CACHE: dict = {}


def _cached_rays(cam: CameraSpec):
    key = (cam.position, cam.rotation, cam.fov_deg, cam.resolution)
    hit = _RAY_CACHE.get(key)
    if hit is None:
        origin, dirs = camera_rays(cam)
        z_scale = ray_depth_scale(cam)
        dirs.flags.writeable = False
        z_scale.flags.writeable = False
        hit = (origin, dirs, z_scale)
        _RAY_CACHE[key] = hit
    return hit

INVALID_DEPTH_CODE = 0  # 16-bit code reserved for "no data"
DEPTH_CODE_MAX = 65535

BODY_CENTER_COLOR = np.array([230.0, 120.0, 30.0])  # infrared orange
BODY_EDGE_COLOR = np.array([40.0, 200.0, 90.0])  # infrared green
ENV_BASE_COLOR = np.array([15.0, 20.0, 70.0])  # infrared dark blue
BODY_ALBEDO = np.array([225.0, 180.0, 150.0]) / 255.0
ENV_ALBEDO = np.array([95.0, 95.0, 100.0]) / 255.0
LIGHT_DIR = np.array([0.35, -0.75, -0.56])  # direction light travels, normalized below
LIGHT_DIR = LIGHT_DIR / np.linalg.norm(LIGHT_DIR)


@dataclass
class DepthBuffer:
    """Nearest-hit result over the pixel rectangle ``window`` = (u0, u1,
    v0, v1) of a frame, columns u0:u1 and rows v0:v1 ((0, w, 0, h) for the
    whole frame): camera-Z depth (inf = miss) and hit tag per pixel of the
    window.

    ``changed`` marks the pixels that a primitive traced into this buffer
    won, over the base if there is one.  ``won_at``, ``won_by`` and
    ``t_won`` give, per changed pixel in the row-major order of
    ``changed``, its flat row-major index into the window (one
    ``np.flatnonzero`` of ``changed``, taken once by the tracer), the
    primitive of ``scene`` that won it and the ray parameter of the hit
    along the camera's ray: what the sensor gathers the pixel's tag and ray
    by and computes its surface normal from, a chunk at a time, with the
    camera's cached rays (``_won_normal_chunks``).  Buffers of depth
    cameras keep none of the three: no depth sensor model reads normals.
    """

    depth: np.ndarray  # (h, w) float64 over the window, np.inf where no hit
    tag: np.ndarray  # (h, w) uint8
    changed: np.ndarray  # (h, w) bool
    window: tuple[int, int, int, int]
    scene: Scene  # the primitives traced into this buffer
    won_at: np.ndarray | None  # (changed count,) int32 flat index into the window; None for depth cameras
    won_by: np.ndarray | None  # (changed count,) int32 primitive index; None for depth cameras
    t_won: np.ndarray | None  # (changed count,) float64 ray parameter; None for depth cameras

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.depth)


@dataclass(frozen=True)
class Frame:
    """One rendered image, kind-tagged like the files it will become."""

    kind: str  # "depth16" | "rgb8" | "ir8"
    pixels: np.ndarray  # uint16 (h, w) or uint8 (h, w, 3)
    frame_index: int
    camera_id: str


# the frame kind each camera kind's sensor produces
FRAME_KIND = {CameraKind.DEPTH: "depth16", CameraKind.INFRARED: "ir8", CameraKind.RGB: "rgb8"}


# ---------------------------------------------------------------------------
# intersection helpers (all vectorized over a pixel sub-grid)
# ---------------------------------------------------------------------------


def _vector_dots(x, y):
    """The dot products x[j] . y[j] of the 3-vectors of (k, 3) arrays, one
    stacked ``matmul``: per pair the bytes of ``np.dot``, which no
    elementwise order of the three products gives."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


# the scalars of a capsule whose axis is shorter than 1e-9, two spheres, from
# its cylinder's length on: no z lies within a length of NaN, and every point
# of either sphere is in its cap's hemisphere
_TWO_SPHERES = np.array([[np.nan], [np.inf], [-np.inf]])


def _capsule_constants(origin, a, b, radius):
    """What ``_intersect_capsules`` reads of the capsules a[j]-b[j] of
    ``radius[j]`` (k of each), seen from ``origin``: their vectors, (k, 5, 3),
    per capsule the axis's unit vector, o_perp, the axis, oa and ob, and
    their scalars, (11, k), a row each: the axis's unit vector's three
    components, o_par, cc, the two caps' c_s, oa . axis, the cylinder's
    length and the caps' two hemisphere bounds on p_axis.  The names are
    those of the kernel's formulas; every 3-vector dot product is
    ``_vector_dots``'s."""
    axis = b - a
    oa, ob = origin - a, origin - b
    r2 = radius * radius
    axis_len2 = _vector_dots(axis, axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        axis_n = axis / np.sqrt(axis_len2)[:, None]
        o_par = _vector_dots(oa, axis_n)
        o_perp = oa - o_par[:, None] * axis_n
        scalars = np.stack(
            [
                *axis_n.T,
                o_par,
                _vector_dots(o_perp, o_perp) - r2,
                _vector_dots(oa, oa) - r2,
                _vector_dots(ob, ob) - r2,
                _vector_dots(oa, axis),
                np.sqrt(axis_len2),
                np.zeros_like(axis_len2),
                axis_len2,
            ]
        )
    np.copyto(scalars[8:], _TWO_SPHERES, where=axis_len2 <= 1e-18)
    return np.stack([axis_n, o_perp, axis, oa, ob], axis=1), scalars


def _intersect_capsules(rows, vectors, scalars, counts):
    """Nearest positive t of rays ``rows`` (n, 3), C-contiguous, from the
    camera's origin against capsules: the first ``counts[0]`` rows against
    the first capsule of ``vectors`` and ``scalars`` (``_capsule_constants``),
    the next ``counts[1]`` against the second, and so on; inf where missed.

    Every elementwise step runs once over all rows, with each capsule's
    scalars repeated over its rows (``np.repeat`` by ``counts``; a single
    capsule's stay scalars).  The dot products of the rays with a capsule
    vector run per capsule, as ``np.matmul(rows[lo:hi], vector, out=...)``.
    That keeps a ray's bytes whatever it is traced with: a matrix-vector
    product gives a row the bytes it gives it in any other set of two rows
    or more holding it, which a per-row dot (``einsum``, ``vecdot``) or
    ``@`` with a (3, k) matrix does not, and elementwise arithmetic gives
    the same bytes with a scalar operand as with an array of its value.  A
    capsule with a single row among more takes numpy's one-row product,
    a dot product, as it would alone.  The squared length of the rays' part
    across the axis is summed a column at a time, ``d0*d0 + d2*d2``, then
    ``+ d1*d1``: the bytes of ``einsum`` over the rows, in a third of its
    time.

    A missed ray takes the square root of a negative discriminant, NaN,
    which fails every comparison below, so it ends as inf.  The arithmetic
    is done in place where an operand is not needed again, and (n, 3)
    arithmetic a column at a time; each formula is noted above its steps.
    """
    ends = list(itertools.accumulate(counts))
    capsule_rows = [slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends)]

    def products(x, m):  # x[rows of capsule j] @ vectors[j, m], per capsule
        out = np.empty(len(x))
        for sl, vector in zip(capsule_rows, vectors[:, m]):
            np.matmul(x[sl], vector, out=out[sl])
        return out

    rowwise = scalars[:, 0] if len(counts) == 1 else np.repeat(scalars, counts, axis=1)
    *axis_n, o_par, cc, c_a, c_b, oa_axis, length, a_max, b_min = rowwise
    with np.errstate(divide="ignore", invalid="ignore"):
        d_par = products(rows, 0)
        # d_perp = rows - d_par[:, None] * axis_n, a column at a time: numpy
        # broadcasts slowly over a length-3 axis
        d_perp = np.empty_like(rows)
        for k in range(3):
            np.subtract(rows[:, k], d_par * axis_n[k], out=d_perp[:, k])
        aa = d_perp[:, 0] * d_perp[:, 0]
        aa += d_perp[:, 2] * d_perp[:, 2]
        aa += d_perp[:, 1] * d_perp[:, 1]
        bb = products(d_perp, 1)
        # t_cyl = (-bb - sqrt(bb * bb - aa * cc)) / aa, z = o_par + t_cyl * d_par
        sq = bb * bb
        sq -= aa * cc
        np.sqrt(sq, out=sq)
        t_cyl = np.subtract(np.negative(bb, out=bb), sq, out=sq)
        t_cyl /= aa
        z = t_cyl * d_par
        z += o_par
        on_body = aa > 1e-18  # else the ray runs along the axis
        on_body &= z >= 0.0
        on_body &= z <= length
        on_body &= t_cyl > _T_EPS
        t_best = np.where(on_body, t_cyl, np.inf)
        d_axis = products(rows, 2)

        for m, c_s in ((3, c_a), (4, c_b)):
            b_s = products(rows, m)
            # t1, t2 = -b_s -+ sqrt(b_s * b_s - c_s), c_s = oc . oc - r2
            sq = b_s * b_s
            sq -= c_s
            np.sqrt(sq, out=sq)
            minus_b = np.negative(b_s, out=b_s)
            t1 = minus_b - sq
            t2 = np.add(minus_b, sq, out=sq)
            t_sph = np.where(t1 > _T_EPS, t1, np.where(t2 > _T_EPS, t2, np.inf))
            # accept only points in the cap's hemisphere (outside the cylinder
            # span): p_axis = oa . axis + t_sph * d_axis
            p_axis = t_sph * d_axis
            p_axis += oa_axis
            in_cap = p_axis <= a_max if m == 3 else p_axis >= b_min
            np.minimum(t_best, t_sph, out=t_best, where=in_cap)
    return t_best


def _spans(lo: int, hi: int, step: int):
    """(a, b) ranges cutting lo:hi into ranges of ``step``, the edge before
    a last single element moved back by one where the range before it
    keeps two or more."""
    spans = []
    while lo < hi:
        b = min(lo + step, hi)
        if hi - b == 1 and b - lo > 2:
            b -= 1
        spans.append((lo, b))
        lo = b
    return spans


def _ray_blocks(v0: int, v1: int, u0: int, u1: int) -> list:
    """Slices cutting the rays of rows v0:v1 and columns u0:u1 of a window
    into blocks of at most RENDER_CHUNK_PIXELS rays (three when it is
    smaller): bands of whole rows, or where one row is more, one row cut
    into column ranges.  Each kernel gives a ray the bytes it gives it in
    any block but one of a single ray: numpy takes a one-row matrix-vector
    product through a dot product, whose last bit can differ from that
    row's in a longer product.  So no block is a single ray, unless the
    rays are one."""
    step = max(RENDER_CHUNK_PIXELS, 3)
    if u1 - u0 > step:
        return [np.s_[v : v + 1, a:b] for v in range(v0, v1) for a, b in _spans(u0, u1, step)]
    return [np.s_[a:b, u0:u1] for a, b in _spans(v0, v1, step // (u1 - u0))]


def _capsule_normals(points, a, b, counts):
    """Unit normals at surface ``points`` (n, 3) of capsules, the first
    ``counts[0]`` rows on the capsule a[0]-b[0], the next ``counts[1]`` on
    a[1]-b[1], and so on: away from the nearest point of the axis segment.
    The elementwise steps run over all rows at once, on each row's capsule
    ends repeated into contiguous (n, 3) rows, and a column at a time where
    a length-3 axis would broadcast, which numpy does slowly.  Only each
    capsule's ``n @ axis`` and its 3-vector ``dot``, whose bytes no
    elementwise order gives, run per capsule, over its own rows.  The norm
    sums its three squares left to right, as ``np.linalg.norm`` does."""
    axis = b - a
    a_rows, axis_rows = np.repeat(a, counts, axis=0), np.repeat(axis, counts, axis=0)
    n = points - a_rows
    s = np.zeros(len(points))
    lo = 0
    for j, count in enumerate(counts):
        axis_len2 = float(np.dot(axis[j], axis[j]))
        if axis_len2 > 1e-18:
            np.clip((n[lo : lo + count] @ axis[j]) / axis_len2, 0.0, 1.0, out=s[lo : lo + count])
        lo += count
    for k in range(3):  # a + s * axis
        axis_rows[:, k] *= s
    a_rows += axis_rows
    np.subtract(points, a_rows, out=n)
    squares = np.multiply(n, n, out=a_rows)
    norm = squares[:, 0] + squares[:, 1]
    norm += squares[:, 2]
    norm = np.maximum(np.sqrt(norm, out=norm), 1e-12)
    for k in range(3):
        n[:, k] /= norm
    return n


def _intersect_box(origin, dirs, bmin, bmax):
    """Nearest positive t against one AABB (slab method), a slab at a time.
    A ray parallel to a slab with its origin on the slab's plane gets a NaN
    there (0 * inf), which ``fmax``/``fmin`` skip."""
    t_near = t_far = None
    for k in range(3):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs[..., k]
            t1 = (bmin[k] - origin[k]) * inv
            t2 = np.multiply(bmax[k] - origin[k], inv, out=inv)
        lo, hi = np.minimum(t1, t2), np.maximum(t1, t2, out=t1)
        t_near = lo if t_near is None else np.fmax(t_near, lo, out=t_near)
        t_far = hi if t_far is None else np.fmin(t_far, hi, out=t_far)
    hit = (t_near <= t_far) & (t_far > _T_EPS)
    t = np.where(t_near > _T_EPS, t_near, t_far)
    return np.where(hit, t, np.inf)


def _box_normal(points, bmin, bmax):
    center = 0.5 * (bmin + bmax)
    half = np.maximum(0.5 * (bmax - bmin), 1e-12)
    rel = (points - center) / half
    idx = np.argmax(np.abs(rel), axis=-1)
    n = np.zeros_like(points)
    rows = np.indices(idx.shape)
    signs = np.sign(np.take_along_axis(rel, idx[..., None], axis=-1))[..., 0]
    n[(*rows, idx)] = np.where(signs == 0, 1.0, signs)
    return n


def _intersect_plane(origin, dirs, point, normal):
    denom = dirs @ normal
    num = float((point - origin) @ normal)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / denom
    return np.where((np.abs(denom) > 1e-12) & (t > _T_EPS), t, np.inf)


# px the depth noise model reads around a pixel (its four neighbours)
_NOISE_REACH = 1

# px by which the dirty window grows around the capsules' rectangles, per
# camera kind.  Depth: a changed depth changes the output _NOISE_REACH px
# around it, and sensing a window edge-pads it, so the window's outer
# _NOISE_REACH ring is wrong and dropped (``_patch``).  RGB and infrared
# shade per pixel; the infrared blur, which moves pixels, runs over the rim
# pixels of the whole frame after the arm's pixels are written in.
_WINDOW_MARGIN = {CameraKind.DEPTH: 2 * _NOISE_REACH, CameraKind.RGB: 0, CameraKind.INFRARED: 0}


def _capsule_screen_bounds(cam: CameraSpec, scene: Scene) -> list:
    """Pixel rectangle (u0, u1, v0, v1) covering each capsule of ``scene``:
    (0, 0, 0, 0) when it is fully off screen, None when it can sit anywhere
    on screen (an end sphere reaches the camera plane).

    A capsule is the convex hull of its two end spheres and x/z, y/z are
    linear-fractional, so the union of the spheres' exact projected
    extents bounds it.  A sphere at camera (x, y) and depth z > r spans
    x/z in (x*z -+ r*sqrt(x^2 + z^2 - r^2)) / (z^2 - r^2): the two planes
    through the eye that touch it, and likewise in y.  All capsules are
    bounded in one pass; axis 1 of the arrays below is the end sphere.
    """
    w, h = cam.resolution
    n = len(scene.capsule_tag)
    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    tan_v = tan_half * h / w
    ends = np.stack([scene.capsule_a, scene.capsule_b], axis=1).reshape(-1, 3)
    pts = cam.world_to_camera(ends).reshape(n, 2, 3)
    x, y, z = pts[..., 0], pts[..., 1], -pts[..., 2]
    radius = np.asarray(scene.capsule_r, dtype=np.float64)[:, None]
    r2 = radius * radius
    reaches = np.any(z - radius <= 1e-6, axis=1)  # no safe bound
    with np.errstate(divide="ignore", invalid="ignore"):  # the spheres that reach the plane
        denom = z * z - r2
        sx = radius * np.sqrt(x * x + z * z - r2)
        sy = radius * np.sqrt(y * y + z * z - r2)
        x_lo = (x * z - sx) / denom
        x_hi = (x * z + sx) / denom
        y_lo = (y * z - sy) / denom
        y_hi = (y * z + sy) / denom
        u_lo = np.min((x_lo / tan_half + 1.0) / 2.0 * w, axis=1)
        u_hi = np.max((x_hi / tan_half + 1.0) / 2.0 * w, axis=1)
        v_lo = np.min((1.0 - (y_hi / tan_v + 1.0) / 2.0) * h, axis=1)
        v_hi = np.max((1.0 - (y_lo / tan_v + 1.0) / 2.0) * h, axis=1)
    # clipped to the frame before the integer cast, which a far-off bound
    # could overflow; a rectangle empty before the clip stays empty
    rects = np.stack(
        [
            np.clip(np.floor(u_lo) - 1, 0, w),
            np.clip(np.ceil(u_hi) + 2, 0, w),
            np.clip(np.floor(v_lo) - 1, 0, h),
            np.clip(np.ceil(v_hi) + 2, 0, h),
        ],
        axis=1,
    )
    rects[reaches] = 0.0  # NaN or meaningless where a sphere reaches the plane
    rects = rects.astype(np.int64)
    rects[(rects[:, 0] >= rects[:, 1]) | (rects[:, 2] >= rects[:, 3])] = 0  # fully off screen
    return [None if r else tuple(rect) for r, rect in zip(reaches.tolist(), rects.tolist())]


def _dirty_window(bounds, margin: int, w: int, h: int):
    """Union of the capsules' screen rectangles grown by ``margin`` px and
    clipped to the frame, as (u0, u1, v0, v1); the whole frame when a
    capsule has no bound."""
    if any(b is None for b in bounds):
        return (0, w, 0, h)
    drawn = [b for b in bounds if b != (0, 0, 0, 0)]
    if not drawn:
        return (0, 0, 0, 0)
    return (
        max(min(b[0] for b in drawn) - margin, 0),
        min(max(b[1] for b in drawn) + margin, w),
        max(min(b[2] for b in drawn) - margin, 0),
        min(max(b[3] for b in drawn) + margin, h),
    )


def _keep_nearer(t_best, winner, sl, t, index: int) -> None:
    """Composite one primitive's ray parameters ``t`` into the pixels ``sl``:
    where they are nearer than ``t_best``, they replace it and the pixel is
    won by primitive ``index``."""
    closer = t < t_best[sl]
    np.copyto(t_best[sl], t, where=closer)
    np.copyto(winner[sl], index, where=closer)


def _keep_nearer_at(t_best, winner, at, t, index: int) -> None:
    """``_keep_nearer`` at the flat row-major indices ``at`` of the
    C-contiguous ``t_best`` and ``winner``."""
    t_best, winner = t_best.reshape(-1), winner.reshape(-1)  # views
    closer = t < np.take(t_best, at)
    at = at[closer]
    t_best[at] = t[closer]  # a third faster than np.put
    winner[at] = index


def _wedge_spans(cam: CameraSpec, a, b, radius: float, rect):
    """Per row v0 + i of the pixel rectangle ``rect`` = (u0, u1, v0, v1),
    the columns lo[i]:hi[i] of the rays that can hit the capsule a-b of
    ``radius``, as int64 arrays; None when there is no such bound: the eye
    is inside or on the capsule's infinite cylinder, or its axis is
    degenerate.

    The two planes through the eye that touch the cylinder hold its axis
    direction n.  In the plane across n, with the eye at distance D from
    the axis and e1 the unit direction from the axis to the eye, their
    normals are m = (r / D) e1 -+ sqrt(1 - r^2 / D^2) e2, e2 = n x e1, and
    the cylinder lies where m . p <= 0 for both, p taken from the eye: its
    cross-section, a disk about -D e1, reaches m . p = 0 and no further.
    The capsule lies inside the cylinder, so a ray that hits it has
    m . d <= 0 for both.  In camera coordinates a pixel's ray is along
    (x, y, -1), so on each row each plane bounds the columns from one side,
    at its image line; the bound is widened by _WEDGE_MARGIN px against
    rounding.  A line within 1e-9 of horizontal (m_x near 0) bounds no
    row's columns."""
    w, h = cam.resolution
    u0, u1, v0, v1 = rect
    (ax, ay, az), (bx, by, bz) = cam.world_to_camera(np.stack([a, b])).tolist()
    nx, ny, nz = bx - ax, by - ay, bz - az
    length = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not length > 1e-6 * radius:
        return None
    nx, ny, nz = nx / length, ny / length, nz / length
    along = -(ax * nx + ay * ny + az * nz)  # the eye, at the camera's origin, along the axis from a
    px, py, pz = -ax - along * nx, -ay - along * ny, -az - along * nz
    dist = math.sqrt(px * px + py * py + pz * pz)
    if dist <= radius * (1.0 + 1e-9):
        return None
    px, py, pz = px / dist, py / dist, pz / dist  # e1
    qx, qy, qz = ny * pz - nz * py, nz * px - nx * pz, nx * py - ny * px  # e2 = n x e1
    cos_part = radius / dist
    sin_part = math.sqrt((dist - radius) * (dist + radius)) / dist
    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    ys = -((np.arange(v0, v1) + 0.5) / h * 2.0 - 1.0) * (tan_half * h / w)
    lo = np.full(v1 - v0, float(u0))
    hi = np.full(v1 - v0, float(u1))
    for sign in (1.0, -1.0):
        mx = cos_part * px + sign * sin_part * qx
        if abs(mx) <= 1e-9:
            continue
        my = cos_part * py + sign * sin_part * qy
        mz = cos_part * pz + sign * sin_part * qz
        # mx * x + my * y - mz <= 0, x = ((u + 0.5) / w * 2 - 1) * tan_half
        edge = ((mz - my * ys) / (mx * tan_half) + 1.0) * (w / 2.0) - 0.5
        if mx > 0.0:
            np.minimum(hi, np.floor(edge) + (1 + _WEDGE_MARGIN), out=hi)
        else:
            np.maximum(lo, np.ceil(edge) - _WEDGE_MARGIN, out=lo)
    # clipped to the rectangle before the integer cast, which a far-off
    # line could overflow
    return np.clip(lo, u0, u1).astype(np.int64), np.clip(hi, u0, u1).astype(np.int64)


def _span_rays(rect, lo, hi, width: int, window):
    """The rays of the column spans lo:hi (``_wedge_spans``) of the rows of
    ``rect``, as flat row-major indices into a frame ``width`` px wide and
    into ``window``; None when they are a single ray and the rectangle is
    more, as a one-ray call can differ from the rectangle's in the last bit
    (``_ray_blocks``)."""
    u0, u1, v0, v1 = rect
    wu0, wu1, wv0, _ = window
    count = np.maximum(hi - lo, 0)
    total = int(count.sum())
    if total == 1 and (u1 - u0) * (v1 - v0) > 1:
        return None
    rows = np.arange(v0, v1)
    before = np.cumsum(count) - count  # rays of the rows above
    # int32, as a frame has fewer pixels: a whole-frame trace holds them
    ray = np.arange(total, dtype=np.int32)
    frame = ray + np.repeat((rows * width + lo - before).astype(np.int32), count)
    ray += np.repeat(((rows - wv0) * (wu1 - wu0) + lo - wu0 - before).astype(np.int32), count)
    return frame, ray


def _capsule_ray_sets(cam: CameraSpec, scene: Scene, bounds, window):
    """The rays each capsule of ``scene`` with screen rectangle ``bounds``
    is traced at, in capsule order, as (capsule index, rays, ray count):
    the blocks of its rectangle (``_ray_blocks``; the window's when it has
    none), 2-D slices of ``window``, or, when the rectangle holds
    _WEDGE_MIN_RAYS rays or more and the wedge gives a bound, the rays of
    its tangent wedge (``_wedge_spans``), pairs of flat indices into the
    frame and into the window, at most RENDER_CHUNK_PIXELS at a time."""
    w = cam.resolution[0]
    wu0, wu1, wv0, wv1 = window
    for i, rect in enumerate(bounds):
        if rect == (0, 0, 0, 0):
            continue
        u0, u1, v0, v1 = window if rect is None else rect
        rays = None
        if rect is not None and (u1 - u0) * (v1 - v0) >= _WEDGE_MIN_RAYS:
            spans = _wedge_spans(cam, scene.capsule_a[i], scene.capsule_b[i], float(scene.capsule_r[i]), rect)
            rays = None if spans is None else _span_rays(rect, *spans, w, window)
        if rays is None:
            for rows, cols in _ray_blocks(v0 - wv0, v1 - wv0, u0 - wu0, u1 - wu0):
                yield i, (rows, cols), (rows.stop - rows.start) * (cols.stop - cols.start)
        else:
            frame_at, window_at = rays
            for lo, hi in _spans(0, len(frame_at), max(RENDER_CHUNK_PIXELS, 3)):
                yield i, (frame_at[lo:hi], window_at[lo:hi]), hi - lo


def _batches(ray_sets):
    """The capsules' ray sets (``_capsule_ray_sets``) in batches, in order:
    consecutive sets of fewer than _BATCH_MAX_RAYS rays together, up to
    RENDER_CHUNK_PIXELS rays a batch, and every larger set alone."""
    batch, size = [], 0
    for ray_set in ray_sets:
        count = ray_set[2]
        alone = count >= _BATCH_MAX_RAYS
        if batch and (alone or size + count > RENDER_CHUNK_PIXELS):
            yield batch
            batch, size = [], 0
        if alone:
            yield [ray_set]
        else:
            batch.append(ray_set)
            size += count
    if batch:
        yield batch


def _trace_capsules(constants, dirs, grid, t_best, winner, batch) -> None:
    """Trace the ray sets of ``batch`` (``_capsule_ray_sets``) with one
    ``_intersect_capsules`` call and composite each into ``t_best`` and
    ``winner``, over the window, in order.  A block's rays are taken from
    the window's rays ``dirs``, a wedge's by flat index from the frame's
    ray grid ``grid``, into one contiguous (n, 3) buffer."""
    vectors, scalars = constants
    counts = [count for _, _, count in batch]
    rows = np.empty((sum(counts), 3))
    lo = 0
    for _, (first, second), count in batch:
        if isinstance(first, slice):  # a block of the window
            block = dirs[first, second]
            np.copyto(rows[lo : lo + count].reshape(block.shape), block)
        else:
            # the flat indices are in range; the default mode would buffer ``out``
            np.take(grid, first, axis=0, out=rows[lo : lo + count], mode="clip")
        lo += count
    ids = [i for i, _, _ in batch]
    t = _intersect_capsules(rows, vectors[ids], scalars[:, ids], counts)
    lo = 0
    for i, (first, second), count in batch:
        if isinstance(first, slice):
            shape = (first.stop - first.start, second.stop - second.start)
            _keep_nearer(t_best, winner, (first, second), t[lo : lo + count].reshape(shape), i)
        else:
            _keep_nearer_at(t_best, winner, second, t[lo : lo + count], i)
        lo += count


def _primitive_normals(scene: Scene, index: int, points, rays):
    """Surface normals of one box or plane at world ``points`` (n, 3) hit
    by ``rays`` (n, 3).  Primitives are numbered as ``trace_depth`` numbers
    them: capsules, whose normals ``_capsule_normals`` gives, then boxes,
    then planes."""
    nc, nb = len(scene.capsule_tag), len(scene.box_tag)
    if index < nc + nb:
        return _box_normal(points, scene.box_min[index - nc], scene.box_max[index - nc])
    normal = scene.plane_normal[index - nc - nb]
    return np.where((rays @ normal)[:, None] > 0, -normal, normal)


def _normal_chunks(winner: np.ndarray):
    """(lo, hi) ranges of the rows, sorted by primitive ``winner``, that
    ``_won_normal_chunks`` takes at a time: RENDER_CHUNK_PIXELS rows or the
    rest, each edge moved on while it would leave a single row of a
    primitive on either side.  numpy takes a one-row matrix-vector product through a dot
    product, whose last bit can differ from that row's in a longer product,
    so a primitive with more rows is never given one alone."""
    n, lo = len(winner), 0
    while lo < n:
        hi = min(lo + RENDER_CHUNK_PIXELS, n)
        while hi < n and winner[hi - 1] == winner[hi]:  # a primitive's rows cut
            if hi - 2 >= lo and winner[hi - 2] == winner[hi] and hi + 1 < n and winner[hi + 1] == winner[hi]:
                break  # two rows or more on each side
            hi += 1
        yield lo, hi
        lo = hi


def _won_normal_chunks(buf: DepthBuffer, cam: CameraSpec):
    """The normals of the changed pixels of ``buf``, traced by ``cam``, a
    chunk at a time: per chunk, the positions of its pixels among the
    changed pixels in row-major order, their tags, their flat indices in
    the frame, their rays and their normals.  The pixels are sorted by the
    primitive that won them, so that each primitive's normals come from its
    own contiguous (k, 3) rows: a dot product over those gives the bytes it
    gives over a pixel rectangle, which a per-pixel elementwise dot does
    not.  The sorted pixels are taken in ``_normal_chunks``, each chunk
    taking its tags by the buffer's flat indices into the window
    (``won_at``) and its rays by flat index into the camera's cached
    (H * W, 3) ray grid, whose origin the hits are measured from.  The
    capsules' normals of a chunk are made in one ``_capsule_normals``
    call."""
    # held while the chunks run, so int32: a frame has fewer pixels.  They
    # index through np.take, as indexing would first convert them to intp
    order = np.argsort(buf.won_by.astype(np.int16), kind="stable").astype(np.int32)  # a radix sort
    winner = np.take(buf.won_by, order)
    u0, u1, v0, _ = buf.window
    origin, dirs, _ = _cached_rays(cam)
    width = dirs.shape[1]
    grid = dirs.reshape(-1, 3)
    scene = buf.scene
    n_capsules = len(scene.capsule_tag)
    for lo, hi in _normal_chunks(winner):
        rows = order[lo:hi]
        at = np.take(buf.won_at, rows)
        flat = at // (u1 - u0)  # the row in the window
        flat *= width - (u1 - u0)
        flat += at
        flat += v0 * width + u0
        tags = np.take(buf.tag, at)
        rays = np.take(grid, flat, axis=0)
        t = np.take(buf.t_won, rows)
        points = np.empty_like(rays)
        for k in range(3):  # origin + t * rays, a column at a time
            np.add(origin[k], t * rays[:, k], out=points[:, k])
        normals = np.empty_like(points)
        chunk = winner[lo:hi]
        starts = np.flatnonzero(np.diff(chunk, prepend=-1))  # first row of each primitive
        ends = [*starts[1:].tolist(), len(chunk)]
        capsules = int(np.searchsorted(chunk[starts], n_capsules))  # primitives that are capsules
        if capsules:
            ids, end = chunk[starts[:capsules]], ends[capsules - 1]
            counts = np.diff(starts[:capsules], append=end)
            normals[:end] = _capsule_normals(points[:end], scene.capsule_a[ids], scene.capsule_b[ids], counts)
        for a, b in zip(starts[capsules:].tolist(), ends[capsules:]):
            normals[a:b] = _primitive_normals(scene, int(chunk[a]), points[a:b], rays[a:b])
        yield rows, tags, flat, rays, normals


def trace_depth(scene: Scene, cam: CameraSpec, base: DepthBuffer | None = None) -> DepthBuffer:
    """Nearest-hit depth buffer for the scene.

    ``base`` seeds the result with an already-traced whole-frame buffer
    (the static part of a scene); tracing the remainder on top is exact
    because nearest-hit composition is an elementwise minimum.  No base is
    an empty one, and gives a whole-frame buffer.  On a base, the buffer
    covers the scene's dirty window: the union of its capsules' screen
    rectangles, grown by the pixels the sensor model reads around them
    (``_WINDOW_MARGIN``).  The frame outside the window is ``base``.  Scenes
    with boxes or planes, and capsules with no screen bound, get the whole
    frame as their window.  Each primitive is intersected in the blocks of
    ``_ray_blocks``, bands of whole image rows of its rectangle (of the
    whole frame for boxes and planes), which give the bytes of one pass:
    the box test is elementwise, and the capsule's and the plane's dot
    products are matrix-vector products, whose rows do not depend on the
    rows beside them.  A capsule whose rectangle holds _WEDGE_MIN_RAYS rays
    or more is intersected only at the rays of its cylinder's tangent wedge,
    per row a span of columns (``_wedge_spans``), gathered by flat index
    into blocks of at most RENDER_CHUNK_PIXELS rays and composited by flat
    window index; every ray it can hit lies in the wedge, so the buffer is
    that of the rectangle.  The rectangle's blocks are taken where the
    wedge gives no bound (the eye inside the cylinder, a degenerate axis)
    and where its spans hold a single ray of a larger rectangle.  The
    capsules' blocks are traced in ``_batches``: consecutive blocks of fewer
    than _BATCH_MAX_RAYS rays, up to RENDER_CHUNK_PIXELS rays, in one
    ``_intersect_capsules`` call, and a larger block alone, with the
    capsules' constants computed once per trace (``_capsule_constants``).
    A ray's t does not depend on its batch, and the blocks are composited
    in capsule order, a batch before the block after it, so a tie goes to
    the lower capsule index, as when each capsule was traced alone.  RGB and
    infrared buffers keep each changed pixel's flat index, primitive and
    ray parameter, what the sensor computes normals from; depth cameras'
    buffers keep none.  A base that does not cover the whole frame is
    refused with ValueError.
    """
    origin, dirs, z_scale = _cached_rays(cam)
    w, h = cam.resolution
    if base is not None and base.window != (0, w, 0, h):
        raise ValueError(
            f"base buffer windowed to (u0, u1, v0, v1) = {base.window}: a base must cover "
            f"the whole frame, (0, {w}, 0, {h})"
        )
    bounds = _capsule_screen_bounds(cam, scene)
    n_boxes, n_planes = len(scene.box_tag), len(scene.plane_tag)
    window = (0, w, 0, h)
    if base is not None and not (n_boxes or n_planes):
        window = _dirty_window(bounds, _WINDOW_MARGIN[cam.kind], w, h)
    wu0, wu1, wv0, wv1 = window
    win = np.s_[wv0:wv1, wu0:wu1]
    grid = dirs.reshape(-1, 3)
    scene_tags = np.concatenate([scene.capsule_tag, scene.box_tag, scene.plane_tag])
    dirs, z_scale = dirs[win], z_scale[win]

    if base is None:
        depth = np.full((h, w), np.inf)
        tag = np.full((h, w), TAG_NONE, dtype=np.uint8)
    else:
        depth, tag = base.depth[win].copy(), base.tag[win].copy()
    t_best = depth / z_scale  # inf where no hit: z_scale is positive and finite
    winner = np.full(depth.shape, -1, dtype=np.int32)  # primitive index; -1: the base

    constants = _capsule_constants(origin, scene.capsule_a, scene.capsule_b, scene.capsule_r)
    for batch in _batches(_capsule_ray_sets(cam, scene, bounds, window)):
        _trace_capsules(constants, dirs, grid, t_best, winner, batch)
    blocks = _ray_blocks(0, h, 0, w) if n_boxes or n_planes else []  # only whole-frame windows have them
    for block in blocks:
        first = len(bounds)
        for i in range(n_boxes):
            t = _intersect_box(origin, dirs[block], scene.box_min[i], scene.box_max[i])
            _keep_nearer(t_best, winner, block, t, first + i)
        first += n_boxes
        for i in range(n_planes):
            t = _intersect_plane(origin, dirs[block], scene.plane_point[i], scene.plane_normal[i])
            _keep_nearer(t_best, winner, block, t, first + i)

    changed = winner >= 0
    won_at = won_by = t_won = None
    if cam.kind == CameraKind.DEPTH:  # no depth sensor reads which pixels changed
        t, by = t_best[changed], winner[changed]
    else:
        won_at = np.flatnonzero(changed).astype(np.int32)  # held while the sensor runs: a frame has fewer pixels
        won_by = by = np.take(winner, won_at)
        t_won = t = np.take(t_best, won_at)
    # boolean-mask writes: a third of the time of writing by flat index
    depth[changed] = t * z_scale[changed]
    tag[changed] = np.take(scene_tags, by)
    return DepthBuffer(
        depth=depth,
        tag=tag,
        changed=changed,
        window=window,
        scene=scene,
        won_at=won_at,
        won_by=won_by,
        t_won=t_won,
    )


# ---------------------------------------------------------------------------
# flipbook noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipbookNoise:
    """Animated grayscale noise: a fixed set of tiles cycled every few frames."""

    tiles: np.ndarray  # (tile_count, tile_px, tile_px) in [0, 1]
    frames_per_tile: int

    @property
    def tile_count(self) -> int:
        return self.tiles.shape[0]

    @property
    def tile_px(self) -> int:
        return self.tiles.shape[1]

    @property
    def period(self) -> int:
        return self.tile_count * self.frames_per_tile

    def tile_index(self, frame_index: int) -> int:
        """The tile active at a frame."""
        return (frame_index // self.frames_per_tile) % self.tile_count

    def field(self, frame_index: int, h: int, w: int, top: int = 0, left: int = 0) -> np.ndarray:
        """Noise value per pixel at a frame: the active tile, wrapped, over
        rows top:top+h and columns left:left+w of the frame."""
        tile = self.tiles[self.tile_index(frame_index)]
        us = np.arange(left, left + w) % self.tile_px
        vs = np.arange(top, top + h) % self.tile_px
        return tile[np.ix_(vs, us)]


_VALUE_NOISE_LATTICE_STEP = 8  # px between random lattice values


def make_flipbook(sp: SensorParams, seed: int) -> FlipbookNoise:
    """Value-noise tiles (bilinear over a wrapped random lattice), seeded."""
    px = sp.flipbook_tile_px
    cells = max(px // _VALUE_NOISE_LATTICE_STEP, 1)
    stream = SplitMix64(seed ^ 0x5EED_F11B)
    tiles = np.empty((sp.flipbook_tile_count, px, px))
    coords = np.arange(px) / (px / cells)
    i0 = coords.astype(np.int64) % cells
    i1 = (i0 + 1) % cells
    frac = coords - np.floor(coords)
    for t in range(sp.flipbook_tile_count):
        lattice = np.array(stream.uniforms(cells * cells)).reshape(cells, cells)
        v00 = lattice[np.ix_(i0, i0)]
        v01 = lattice[np.ix_(i0, i1)]
        v10 = lattice[np.ix_(i1, i0)]
        v11 = lattice[np.ix_(i1, i1)]
        fy = frac[:, None]
        fx = frac[None, :]
        tiles[t] = (
            v00 * (1 - fy) * (1 - fx) + v01 * (1 - fy) * fx + v10 * fy * (1 - fx) + v11 * fy * fx
        )
    return FlipbookNoise(tiles=tiles, frames_per_tile=sp.flipbook_frames_per_tile)


# ---------------------------------------------------------------------------
# depth sensor model
# ---------------------------------------------------------------------------


def depth_to_chromaticity(depth, sp: SensorParams):
    """Normalized gray in [0, 1]: clamp(c * (d - d_min) / (d_max - d_min))."""
    g = sp.chromaticity_coeff * (depth - sp.depth_min) / (sp.depth_max - sp.depth_min)
    return np.clip(g, 0.0, 1.0)


def encode_depth16(buf: DepthBuffer, sp: SensorParams) -> np.ndarray:
    """16-bit depth image: code 0 = no data, valid grays span [1, 65535]."""
    valid = buf.valid
    g = depth_to_chromaticity(np.where(valid, buf.depth, sp.depth_min), sp)
    codes = 1 + np.rint(g * (DEPTH_CODE_MAX - 1)).astype(np.uint16)
    return np.where(valid, codes, INVALID_DEPTH_CODE).astype(np.uint16)


def decode_depth16(codes: np.ndarray, sp: SensorParams) -> np.ndarray:
    """Inverse of encode_depth16 on its linear region; 0 maps to nan."""
    g = (codes.astype(np.float64) - 1) / (DEPTH_CODE_MAX - 1)
    d = sp.depth_min + g * (sp.depth_max - sp.depth_min) / sp.chromaticity_coeff
    return np.where(codes == INVALID_DEPTH_CODE, np.nan, d)


def noise_intensity(buf: DepthBuffer, sp: SensorParams) -> np.ndarray:
    """Noise intensity I = clamp(k_d * z + k_e * e): distance plus edges.

    z is the depth normalized into the sensor range; e saturates when the
    central-difference depth gradient reaches edge_scale.  Pixels next to
    an invalid sample count as full edges.
    """
    valid = buf.valid
    depth = np.where(valid, buf.depth, 0.0)
    z = np.clip((depth - sp.depth_min) / (sp.depth_max - sp.depth_min), 0.0, 1.0)

    padded = np.pad(depth, 1, mode="edge")
    pad_valid = np.pad(valid, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    grad = np.hypot(gx, gy)
    neighbor_invalid = ~(
        pad_valid[1:-1, 2:] & pad_valid[1:-1, :-2] & pad_valid[2:, 1:-1] & pad_valid[:-2, 1:-1]
    )
    e = np.where(neighbor_invalid, 1.0, np.minimum(grad / sp.edge_scale, 1.0))
    return np.clip(sp.noise_dist_weight * z + sp.noise_edge_weight * e, 0.0, 1.0)


def apply_depth_noise(
    buf: DepthBuffer,
    noise: FlipbookNoise,
    sp: SensorParams,
    frame_index: int,
    intensity: np.ndarray | None = None,
) -> DepthBuffer:
    """Flipbook-modulated dropout and jitter on a clean depth buffer.

    A pixel drops out when I*n exceeds the threshold (equivalently, its
    alpha 1 - I*n falls below 1 - tau); survivors get jittered by
    sigma_d * I * (2n - 1).  ``intensity`` is ``noise_intensity(buf, sp)``
    when the caller already has it.  A buffer gets the noise of its window;
    the window's outer ring is exact only where it is a frame border, as
    ``noise_intensity`` edge-pads the window.
    """
    h, w = buf.depth.shape
    u0, _, v0, _ = buf.window
    n = noise.field(frame_index, h, w, top=v0, left=u0)
    if intensity is None:
        intensity = noise_intensity(buf, sp)
    valid = buf.valid
    drop = valid & (intensity * n > sp.dropout_threshold)
    jitter = sp.depth_jitter * intensity * (2.0 * n - 1.0)
    depth = np.where(valid, buf.depth + jitter, np.inf)
    depth[drop] = np.inf
    tag = buf.tag.copy()
    tag[drop] = TAG_NONE
    return replace(buf, depth=depth, tag=tag)


# ---------------------------------------------------------------------------
# shading
# ---------------------------------------------------------------------------


def fresnel_factor(cos_nv, exponent: float):
    """(1 - max(0, n.v))^p: 0 head-on, 1 at grazing."""
    return (1.0 - np.maximum(cos_nv, 0.0)) ** exponent


@dataclass(frozen=True)
class InfraredLayers:
    """An infrared frame before its panned blur: its 8-bit pixels, each
    the rounded and clipped colour of ``_infrared_shading``, and the (row,
    column) coordinates of its rim pixels, the hit pixels whose Fresnel
    factor is above 0.6, in no set order.  The blur only copies pixels,
    and the 8-bit conversion works pixel by pixel, so converting before
    the blur gives the bytes of converting after it."""

    pixels: np.ndarray  # (h, w, 3) uint8
    rim: tuple[np.ndarray, np.ndarray]  # (k,) intp rows and (k,) intp columns


def _infrared_shading(normal, ray_dir, tag, sp: SensorParams):
    """Colour and Fresnel factor of pixels with normals and ray directions
    (..., 3) and tags (...): body orange fading to green toward
    silhouettes, environment dark blue.  The colour is built a channel at
    a time, as numpy broadcasts slowly over a length-3 axis."""
    cos_nv = np.einsum("...i,...i->...", normal, -ray_dir)
    fr = fresnel_factor(cos_nv, sp.fresnel_exponent)
    body, env = tag == TAG_BODY, tag == TAG_ENVIRONMENT
    center, env_scale = 1 - fr, 0.4 + 0.6 * fr
    img = np.empty(tag.shape + (3,))
    for c in range(3):
        img[..., c] = np.where(
            body,
            BODY_CENTER_COLOR[c] * center + BODY_EDGE_COLOR[c] * fr,
            np.where(env, ENV_BASE_COLOR[c] * env_scale, 0.0),
        )
    return img, fr


def _pixel_items(pixels: np.ndarray) -> np.ndarray:
    """The C-contiguous 8-bit colour ``pixels`` (..., 3) as a flat view with
    one 3-byte item per pixel, which numpy takes and puts by index a few
    times faster than (n, 3) rows."""
    return pixels.reshape(-1).view(np.dtype((np.void, 3)))


def _infrared_pixels(layers: InfraredLayers, noise: FlipbookNoise, sp: SensorParams, frame_index: int):
    """The 8-bit infrared frame: panned-noise UV blur on strong rims, run in
    place on ``layers.pixels``.  Each rim pixel takes the pre-blur pixel
    ``offset`` rows and columns away, clipped to the frame.  The noise is
    the first flipbook tile panned by (frame, frame) pixels, read only at
    the rim pixels."""
    pixels = layers.pixels
    h, w = pixels.shape[:2]
    if sp.blur_radius > 0:
        vs, us = layers.rim
        tp = noise.tile_px
        n = noise.tiles[0][(vs + frame_index) % tp, (us + frame_index) % tp]
        offset = np.rint(sp.blur_radius * (2.0 * n - 1.0)).astype(np.intp)
        source = np.clip(vs + offset, 0, h - 1)
        source *= w
        source += np.clip(us + offset, 0, w - 1)
        items = _pixel_items(pixels)
        np.put(items, vs * w + us, np.take(items, source))
    return pixels


def _rgb_pixels(normal, tag, sp: SensorParams):
    """8-bit colour (..., 3) of pixels with normals (..., 3) and tags (...),
    a channel at a time, as numpy broadcasts slowly over a length-3 axis."""
    diffuse = np.maximum(np.einsum("...i,...i->...", normal, -LIGHT_DIR), 0.0)
    intensity = np.clip(sp.ambient + (1.0 - sp.ambient) * diffuse, 0.0, 1.0)
    body, env = tag == TAG_BODY, tag == TAG_ENVIRONMENT
    pixels = np.empty(tag.shape + (3,), dtype=np.uint8)
    for c in range(3):
        albedo = np.where(body, BODY_ALBEDO[c], np.where(env, ENV_ALBEDO[c], 0.0))
        pixels[..., c] = np.clip(np.rint(albedo * intensity * 255.0), 0, 255)
    return pixels


def _patch(background: np.ndarray, pixels: np.ndarray, window, trim: int) -> np.ndarray:
    """A copy of the whole frame ``background`` with ``pixels``, sensed over
    ``window``, written in, less a ``trim``-px ring on each side of the
    window that is not a frame border."""
    u0, u1, v0, v1 = window
    h, w = background.shape[:2]
    top, bottom = (trim if v0 > 0 else 0), (trim if v1 < h else 0)
    left, right = (trim if u0 > 0 else 0), (trim if u1 < w else 0)
    out = background.copy()
    out[v0 + top : v1 - bottom, u0 + left : u1 - right] = pixels[
        top : pixels.shape[0] - bottom, left : pixels.shape[1] - right
    ]
    return out


def _empty_background(cam: CameraSpec):
    """What the sensor makes of a frame with nothing in it: depth codes 0,
    black RGB, or infrared layers with black pixels and no rim."""
    w, h = cam.resolution
    if cam.kind == CameraKind.DEPTH:
        return np.full((h, w), INVALID_DEPTH_CODE, dtype=np.uint16)
    if cam.kind == CameraKind.RGB:
        return np.zeros((h, w, 3), dtype=np.uint8)
    no_rim = np.zeros(0, dtype=np.intp)
    return InfraredLayers(np.zeros((h, w, 3), dtype=np.uint8), (no_rim, no_rim))


def _sense_window(buf: DepthBuffer, cam: CameraSpec, sp: SensorParams, background):
    """A copy of ``background`` with what an RGB or infrared sensor makes of
    the changed pixels of ``buf`` written in.  RGB: the changed pixels
    shaded.  Infrared: the changed pixels shaded and converted to 8 bits,
    and the rim of the background less the changed pixels, plus the changed
    pixels whose Fresnel factor is above 0.6: the layers before the blur.
    Both shade each chunk of ``_won_normal_chunks`` as it is made,
    RENDER_CHUNK_PIXELS changed pixels at a time, and write it into a copy
    of the background by flat pixel index."""
    if cam.kind == CameraKind.RGB:
        pixels = background.copy()
        items = _pixel_items(pixels)
        for _, tags, flat, _, normals in _won_normal_chunks(buf, cam):
            np.put(items, flat, _pixel_items(_rgb_pixels(normals, tags, sp)))
        return pixels
    u0, u1, v0, v1 = buf.window
    pixels = background.pixels.copy()
    items = _pixel_items(pixels)
    vs, us = background.rim
    covered = (vs >= v0) & (vs < v1) & (us >= u0) & (us < u1)  # in the window, so far
    covered[covered] = buf.changed[vs[covered] - v0, us[covered] - u0]  # changed by the arm
    rim_vs, rim_us = [vs[~covered]], [us[~covered]]
    for _, tags, flat, rays, normals in _won_normal_chunks(buf, cam):
        image, fresnel = _infrared_shading(normals, rays, tags, sp)
        np.put(items, flat, _pixel_items(np.clip(np.rint(image), 0, 255).astype(np.uint8)))
        v, u = np.divmod(flat[fresnel > 0.6], pixels.shape[1])
        rim_vs.append(v)
        rim_us.append(u)
    return InfraredLayers(pixels, (np.concatenate(rim_vs), np.concatenate(rim_us)))


def sensor_backgrounds(base: DepthBuffer, cam: CameraSpec, sp: SensorParams, noise: FlipbookNoise | None = None):
    """``sensor_frame``'s ``background`` at each flipbook tile, for buffers
    traced on the whole-frame static ``base``: what the sensor makes of
    ``base``, as a tuple with one entry per tile of ``sp``'s flipbook,
    indexed by ``FlipbookNoise.tile_index``.  Depth: the frame sensed with
    ``noise`` at the tile; the base's noise intensity, which no tile
    changes, is computed once.  Without ``noise``, the clean frame,
    repeated.  RGB: the frame, and infrared: the ``InfraredLayers`` before
    the blur (the 8-bit frame and its rim), one object repeated: they read
    only ``sp.ambient`` and ``sp.fresnel_exponent``, and no noise."""
    tiles = sp.flipbook_tile_count
    if cam.kind != CameraKind.DEPTH:
        return (_sense_window(base, cam, sp, _empty_background(cam)),) * tiles
    if noise is None:
        return (encode_depth16(base, sp),) * tiles
    intensity = noise_intensity(base, sp)
    return tuple(
        encode_depth16(apply_depth_noise(base, noise, sp, t * noise.frames_per_tile, intensity), sp)
        for t in range(tiles)
    )


def sensor_frame(
    buf: DepthBuffer,
    cam: CameraSpec,
    sp: SensorParams,
    noise: FlipbookNoise,
    frame_index: int,
    noise_enabled: bool = True,
    background=None,
) -> Frame:
    """Run the camera-kind-specific sensor pipeline on a clean buffer.

    The buffer's window is written into ``background``, the entry of
    ``sensor_backgrounds`` of the base it was traced on at this frame's
    flipbook tile: depth is sensed over the window, less the ring ``_patch``
    trims, RGB and infrared shade only the buffer's changed pixels
    (``_sense_window``), and infrared then blurs the rim pixels of the whole
    frame.  Without a background the buffer is sensed over an empty one,
    which is allowed only where no base can show through: the window is the
    whole frame and every valid pixel is changed, as for a trace without a
    base.  Any other buffer is refused.
    """
    if background is None:
        w, h = cam.resolution
        if buf.window != (0, w, 0, h) or np.any(buf.valid & ~buf.changed):
            raise ValueError(
                f"buffer windowed to (u0, u1, v0, v1) = {buf.window}: sensing it needs the background, "
                "what the sensor makes of the static base"
            )
        background = _empty_background(cam)
    if cam.kind != CameraKind.DEPTH:
        pixels = _sense_window(buf, cam, sp, background)
        if cam.kind == CameraKind.INFRARED:
            pixels = _infrared_pixels(pixels, noise, sp, frame_index)
    elif not buf.depth.size:
        pixels = background.copy()  # no capsule on screen
    else:
        if noise_enabled:
            buf = apply_depth_noise(buf, noise, sp, frame_index)
        pixels = _patch(background, encode_depth16(buf, sp), buf.window, _NOISE_REACH)
    return Frame(kind=FRAME_KIND[cam.kind], pixels=pixels, frame_index=frame_index, camera_id=cam.camera_id)
