"""Per-pixel raycasting and camera sensor models.

The tracer intersects every camera ray with the scene's capsules, boxes
and planes in closed form and keeps the nearest hit (depth is camera-Z,
matching commodity depth sensors).  On top of the clean buffer sit the
sensor models: 16-bit chromaticity-mapped depth with flipbook noise,
dropout and jitter; infrared Fresnel shading with panned-noise edge blur;
and plain Lambertian RGB.

Everything here is pure numpy over immutable inputs; per-frame renders
are deterministic functions of (scene, camera, seed, frame index).

Per-frame work is limited to the gesturing arm's dirty window: traced on
top of a static base buffer, a depth or RGB frame is traced and sensed only
over the union of the arm capsules' screen rectangles (plus the reach of
the depth noise model), and the rest of the frame is copied from what the
sensor makes of the static base (``sensor_frame``'s ``background``; for
depth one per flipbook tile).  The output is byte-identical to tracing and
sensing the whole frame.  Infrared frames stay whole-frame: the panned
blur moves pixels by per-frame offsets, so no part of an infrared frame is
static.  Depth cameras trace no normals, which no depth sensor reads.
"""

from __future__ import annotations

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
    """Nearest-hit result per pixel: camera-Z depth (inf = miss), hit tag,
    world-space surface normal, and the ray directions used.

    A buffer covers the whole frame, or only the pixel rectangle ``window``
    = (u0, u1, v0, v1) of it: columns u0:u1, rows v0:v1 (``trace_depth``
    with a base).  Buffers of depth cameras carry no normals: no depth
    sensor model reads them.
    """

    depth: np.ndarray  # (h, w) float64, np.inf where no hit
    tag: np.ndarray  # (h, w) uint8
    normal: np.ndarray | None  # (h, w, 3) float64; None for depth cameras
    ray_dir: np.ndarray  # (h, w, 3) float64, unit world-space directions
    window: tuple[int, int, int, int] | None = None  # None: the whole frame

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


def _intersect_capsule(origin, dirs, a, b, radius):
    """Nearest positive t of rays against one capsule; inf where missed."""
    axis = b - a
    axis_len2 = float(np.dot(axis, axis))
    h, w = dirs.shape[:2]
    t_best = np.full((h, w), np.inf)

    oa = origin - a
    if axis_len2 > 1e-18:
        axis_n = axis / np.sqrt(axis_len2)
        d_par = dirs @ axis_n
        o_par = float(oa @ axis_n)
        d_perp = dirs - d_par[..., None] * axis_n
        o_perp = oa - o_par * axis_n
        aa = np.einsum("...i,...i->...", d_perp, d_perp)
        bb = d_perp @ o_perp
        cc = float(o_perp @ o_perp) - radius * radius
        disc = bb * bb - aa * cc
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cyl = np.where(hit & (aa > 1e-18), (-bb - sq) / aa, np.inf)
        z = o_par + t_cyl * d_par
        seg_len = np.sqrt(axis_len2)
        on_body = (z >= 0.0) & (z <= seg_len) & (t_cyl > _T_EPS)
        t_best = np.where(on_body, t_cyl, t_best)

    for cap_center in (a, b):
        oc = origin - cap_center
        b_s = dirs @ oc
        c_s = float(oc @ oc) - radius * radius
        disc = b_s * b_s - c_s
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t1 = -b_s - sq
        t2 = -b_s + sq
        t_sph = np.where(t1 > _T_EPS, t1, np.where(t2 > _T_EPS, t2, np.inf))
        t_sph = np.where(hit, t_sph, np.inf)
        if axis_len2 > 1e-18:
            # accept only points in the cap's hemisphere (outside the cylinder span)
            p_axis = float(oa @ axis) + t_sph * (dirs @ axis)
            if cap_center is a:
                in_cap = p_axis <= 0.0
            else:
                in_cap = p_axis >= axis_len2
            t_sph = np.where(np.isfinite(t_sph) & in_cap, t_sph, np.inf)
        t_best = np.minimum(t_best, t_sph)
    return t_best


def _capsule_normal(points, a, b, radius):
    axis = b - a
    axis_len2 = float(np.dot(axis, axis))
    if axis_len2 > 1e-18:
        s = np.clip(((points - a) @ axis) / axis_len2, 0.0, 1.0)
    else:
        s = np.zeros(points.shape[:-1])
    closest = a + s[..., None] * axis
    n = points - closest
    return n / np.maximum(np.linalg.norm(n, axis=-1, keepdims=True), 1e-12)


def _intersect_box(origin, dirs, bmin, bmax):
    """Nearest positive t against one AABB (slab method)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    t1 = (bmin - origin) * inv
    t2 = (bmax - origin) * inv
    t_near = np.nanmax(np.minimum(t1, t2), axis=-1)
    t_far = np.nanmin(np.maximum(t1, t2), axis=-1)
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
# camera kind whose frames are sensed over a window.  Depth: a changed depth
# changes the output _NOISE_REACH px around it, and sensing a window
# edge-pads it, so the window's outer _NOISE_REACH ring is wrong and dropped
# (``_patch``).  RGB shading is per pixel.  Infrared is absent: its panned
# blur moves pixels by per-frame offsets, so no part of its frame is static.
_WINDOW_MARGIN = {CameraKind.DEPTH: 2 * _NOISE_REACH, CameraKind.RGB: 0}


def _capsule_screen_bounds(cam: CameraSpec, a, b, radius, w, h):
    """Pixel rectangle covering one capsule, or None if the capsule can sit
    anywhere on screen (an end sphere reaches the camera plane).

    A capsule is the convex hull of its two end spheres and x/z, y/z are
    linear-fractional, so the union of the spheres' exact projected
    extents bounds it.  A sphere at camera (x, y) and depth z > r spans
    x/z in (x*z -+ r*sqrt(x^2 + z^2 - r^2)) / (z^2 - r^2): the two planes
    through the eye that touch it, and likewise in y.
    """
    import math

    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    tan_v = tan_half * h / w
    pts = cam.world_to_camera(np.vstack([a, b]))
    r2 = radius * radius
    u_lo, u_hi, v_lo, v_hi = np.inf, -np.inf, np.inf, -np.inf
    for x, y, z_cam in pts.tolist():
        z = -z_cam
        if z - radius <= 1e-6:
            return None  # sphere reaches the camera plane: no safe bound
        denom = z * z - r2
        sx = radius * math.sqrt(x * x + z * z - r2)
        sy = radius * math.sqrt(y * y + z * z - r2)
        x_lo = (x * z - sx) / denom
        x_hi = (x * z + sx) / denom
        y_lo = (y * z - sy) / denom
        y_hi = (y * z + sy) / denom
        u_lo = min(u_lo, (x_lo / tan_half + 1.0) / 2.0 * w)
        u_hi = max(u_hi, (x_hi / tan_half + 1.0) / 2.0 * w)
        v_lo = min(v_lo, (1.0 - (y_hi / tan_v + 1.0) / 2.0) * h)
        v_hi = max(v_hi, (1.0 - (y_lo / tan_v + 1.0) / 2.0) * h)
    u0 = max(int(np.floor(u_lo)) - 1, 0)
    u1 = min(int(np.ceil(u_hi)) + 2, w)
    v0 = max(int(np.floor(v_lo)) - 1, 0)
    v1 = min(int(np.ceil(v_hi)) + 2, h)
    if u0 >= u1 or v0 >= v1:
        return (0, 0, 0, 0)  # fully off screen
    return (u0, u1, v0, v1)


def _dirty_window(bounds, margin: int, w: int, h: int):
    """Union of the capsules' screen rectangles grown by ``margin`` px and
    clipped to the frame, as (u0, u1, v0, v1); None when that is the whole
    frame or a capsule has no bound."""
    if any(b is None for b in bounds):
        return None
    drawn = [b for b in bounds if b != (0, 0, 0, 0)]
    if not drawn:
        return (0, 0, 0, 0)
    window = (
        max(min(b[0] for b in drawn) - margin, 0),
        min(max(b[1] for b in drawn) + margin, w),
        max(min(b[2] for b in drawn) - margin, 0),
        min(max(b[3] for b in drawn) + margin, h),
    )
    return None if window == (0, w, 0, h) else window


def _hit_points(origin, dirs, t):
    """World points at ray parameters t; misses (inf) map to the origin."""
    return origin + np.where(np.isfinite(t), t, 0.0)[..., None] * dirs


def _keep_nearer(buf: DepthBuffer, t_best, z_scale, sl, t, tag, normal_at) -> None:
    """Composite one primitive's ray parameters ``t`` into the pixels ``sl``
    of ``buf`` and ``t_best`` wherever they are nearer than ``t_best``.

    ``normal_at()`` returns the primitive's surface normals over ``sl``;
    it is called only when at least one pixel is kept and ``buf`` has
    normals.
    """
    closer = t < t_best[sl]
    if not np.any(closer):
        return
    t_best[sl] = np.where(closer, t, t_best[sl])
    buf.depth[sl] = np.where(closer, t * z_scale[sl], buf.depth[sl])
    buf.tag[sl] = np.where(closer, tag, buf.tag[sl])
    if buf.normal is not None:
        buf.normal[sl] = np.where(closer[..., None], normal_at(), buf.normal[sl])


def trace_depth(scene: Scene, cam: CameraSpec, base: DepthBuffer | None = None) -> DepthBuffer:
    """Nearest-hit depth buffer for the scene.

    ``base`` seeds the result with an already-traced whole-frame buffer
    (the static part of a scene); tracing the remainder on top is exact
    because nearest-hit composition is an elementwise minimum.  With a
    base, a depth or RGB camera's buffer covers only the scene's dirty
    window: the union of its capsules' screen rectangles, grown by the
    pixels the sensor model reads around them (``_WINDOW_MARGIN``).  The
    frame outside the window is ``base``.  Infrared buffers, scenes with
    boxes or planes, and capsules with no screen bound cover the whole
    frame.  Depth cameras' buffers carry no normals.
    """
    origin, dirs, z_scale = _cached_rays(cam)
    w, h = cam.resolution
    bounds = [
        _capsule_screen_bounds(cam, a, b, float(r), w, h)
        for a, b, r in zip(scene.capsule_a, scene.capsule_b, scene.capsule_r)
    ]
    window = None
    if base is not None and cam.kind in _WINDOW_MARGIN and not (len(scene.box_tag) or len(scene.plane_tag)):
        window = _dirty_window(bounds, _WINDOW_MARGIN[cam.kind], w, h)
    wu0, wu1, wv0, wv1 = window or (0, w, 0, h)
    win = np.s_[wv0:wv1, wu0:wu1]
    dirs, z_scale = dirs[win], z_scale[win]
    with_normals = cam.kind != CameraKind.DEPTH

    if base is not None:
        buf = DepthBuffer(
            depth=base.depth[win].copy(),
            tag=base.tag[win].copy(),
            normal=base.normal[win].copy() if with_normals else None,
            ray_dir=dirs,
            window=window,
        )
        t_best = np.where(np.isfinite(buf.depth), buf.depth / z_scale, np.inf)
    else:
        buf = DepthBuffer(
            depth=np.full((h, w), np.inf),
            tag=np.full((h, w), TAG_NONE, dtype=np.uint8),
            normal=np.zeros((h, w, 3)) if with_normals else None,
            ray_dir=dirs,
        )
        t_best = np.full((h, w), np.inf)

    full = np.s_[:, :]
    for i, rect in enumerate(bounds):
        if rect == (0, 0, 0, 0):
            continue
        if rect is None:
            sl = full
        else:
            u0, u1, v0, v1 = rect
            sl = np.s_[v0 - wv0 : v1 - wv0, u0 - wu0 : u1 - wu0]
        a, b, r = scene.capsule_a[i], scene.capsule_b[i], float(scene.capsule_r[i])
        t = _intersect_capsule(origin, dirs[sl], a, b, r)
        _keep_nearer(
            buf, t_best, z_scale, sl, t, scene.capsule_tag[i],
            lambda: _capsule_normal(_hit_points(origin, dirs[sl], t), a, b, r),
        )

    for i in range(len(scene.box_tag)):
        bmin, bmax = scene.box_min[i], scene.box_max[i]
        t = _intersect_box(origin, dirs, bmin, bmax)
        _keep_nearer(
            buf, t_best, z_scale, full, t, scene.box_tag[i],
            lambda: _box_normal(_hit_points(origin, dirs, t), bmin, bmax),
        )

    for i in range(len(scene.plane_tag)):
        normal = scene.plane_normal[i]
        t = _intersect_plane(origin, dirs, scene.plane_point[i], normal)
        _keep_nearer(
            buf, t_best, z_scale, full, t, scene.plane_tag[i],
            lambda: np.where((dirs @ normal)[..., None] > 0, -normal, normal),
        )

    return buf


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

    def panned_field(self, frame_index: int, h: int, w: int) -> np.ndarray:
        """First tile panned by (frame, frame) pixels; drives infrared blur."""
        tile = self.tiles[0]
        us = (np.arange(w) + frame_index) % self.tile_px
        vs = (np.arange(h) + frame_index) % self.tile_px
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
    g = depth_to_chromaticity(np.where(buf.valid, buf.depth, sp.depth_min), sp)
    codes = 1 + np.rint(g * (DEPTH_CODE_MAX - 1)).astype(np.uint16)
    return np.where(buf.valid, codes, INVALID_DEPTH_CODE).astype(np.uint16)


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
    depth = np.where(buf.valid, buf.depth, 0.0)
    z = np.clip((depth - sp.depth_min) / (sp.depth_max - sp.depth_min), 0.0, 1.0)

    padded = np.pad(depth, 1, mode="edge")
    pad_valid = np.pad(buf.valid, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    grad = np.hypot(gx, gy)
    neighbor_invalid = ~(
        pad_valid[1:-1, 2:] & pad_valid[1:-1, :-2] & pad_valid[2:, 1:-1] & pad_valid[:-2, 1:-1]
    )
    e = np.where(neighbor_invalid, 1.0, np.minimum(grad / sp.edge_scale, 1.0))
    return np.clip(sp.noise_dist_weight * z + sp.noise_edge_weight * e, 0.0, 1.0)


def apply_depth_noise(
    buf: DepthBuffer, noise: FlipbookNoise, sp: SensorParams, frame_index: int
) -> DepthBuffer:
    """Flipbook-modulated dropout and jitter on a clean depth buffer.

    A pixel drops out when I*n exceeds the threshold (equivalently, its
    alpha 1 - I*n falls below 1 - tau); survivors get jittered by
    sigma_d * I * (2n - 1).  A windowed buffer gets the noise of its
    window; its outer ring is exact only where it is a frame border, as
    ``noise_intensity`` edge-pads the window.
    """
    h, w = buf.depth.shape
    u0, _, v0, _ = buf.window or (0, w, 0, h)
    n = noise.field(frame_index, h, w, top=v0, left=u0)
    intensity = noise_intensity(buf, sp)
    valid = buf.valid
    drop = valid & (intensity * n > sp.dropout_threshold)
    jitter = sp.depth_jitter * intensity * (2.0 * n - 1.0)
    depth = np.where(valid, buf.depth + jitter, np.inf)
    depth[drop] = np.inf
    tag = buf.tag.copy()
    tag[drop] = TAG_NONE
    normal = None if buf.normal is None else np.where(drop[..., None], 0.0, buf.normal)
    return replace(buf, depth=depth, tag=tag, normal=normal)


# ---------------------------------------------------------------------------
# shading
# ---------------------------------------------------------------------------


def fresnel_factor(cos_nv, exponent: float):
    """(1 - max(0, n.v))^p: 0 head-on, 1 at grazing."""
    return (1.0 - np.maximum(cos_nv, 0.0)) ** exponent


def shade_infrared(
    buf: DepthBuffer, noise: FlipbookNoise, sp: SensorParams, frame_index: int, camera_id: str = ""
) -> Frame:
    """Infrared look: body orange fading to green toward silhouettes,
    environment dark blue, plus panned-noise UV blur on strong rims."""
    h, w = buf.depth.shape
    view = -buf.ray_dir
    cos_nv = np.einsum("...i,...i->...", buf.normal, view)
    fr = fresnel_factor(cos_nv, sp.fresnel_exponent)

    img = np.zeros((h, w, 3))
    body = buf.tag == TAG_BODY
    env = buf.tag == TAG_ENVIRONMENT
    f3 = fr[..., None]
    img[body] = (BODY_CENTER_COLOR * (1 - f3) + BODY_EDGE_COLOR * f3)[body]
    img[env] = (ENV_BASE_COLOR * (0.4 + 0.6 * f3))[env]

    if sp.blur_radius > 0:
        n = noise.panned_field(frame_index, h, w)
        offset = np.rint(sp.blur_radius * (2.0 * n - 1.0)).astype(np.int64)
        blur_mask = (fr > 0.6) & buf.valid
        vs, us = np.nonzero(blur_mask)
        sv = np.clip(vs + offset[vs, us], 0, h - 1)
        su = np.clip(us + offset[vs, us], 0, w - 1)
        img[vs, us] = img[sv, su]

    return Frame(
        kind=FRAME_KIND[CameraKind.INFRARED],
        pixels=np.clip(np.rint(img), 0, 255).astype(np.uint8),
        frame_index=frame_index,
        camera_id=camera_id,
    )


def shade_rgb(buf: DepthBuffer, sp: SensorParams, frame_index: int = 0, camera_id: str = "") -> Frame:
    """Lambertian shading under one directional light plus an ambient term."""
    h, w = buf.depth.shape
    diffuse = np.maximum(np.einsum("...i,...i->...", buf.normal, -LIGHT_DIR), 0.0)
    intensity = np.clip(sp.ambient + (1.0 - sp.ambient) * diffuse, 0.0, 1.0)

    img = np.zeros((h, w, 3))
    body = buf.tag == TAG_BODY
    env = buf.tag == TAG_ENVIRONMENT
    img[body] = (BODY_ALBEDO * intensity[..., None])[body]
    img[env] = (ENV_ALBEDO * intensity[..., None])[env]
    return Frame(
        kind=FRAME_KIND[CameraKind.RGB],
        pixels=np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8),
        frame_index=frame_index,
        camera_id=camera_id,
    )


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


def sensor_frame(
    buf: DepthBuffer,
    cam: CameraSpec,
    sp: SensorParams,
    noise: FlipbookNoise,
    frame_index: int,
    noise_enabled: bool = True,
    background: np.ndarray | None = None,
) -> Frame:
    """Run the camera-kind-specific sensor pipeline on a clean buffer.

    A windowed buffer (``trace_depth`` with a base) is sensed over its
    window only.  ``background`` gives the rest of the frame: what this
    sensor makes of the whole static base buffer at this frame.  For depth
    that depends on the flipbook tile only, for RGB on nothing.
    """
    if cam.kind == CameraKind.INFRARED:
        return shade_infrared(buf, noise, sp, frame_index, camera_id=cam.camera_id)
    if buf.window is not None and not buf.depth.size:
        pixels = background.copy()  # no capsule on screen
    else:
        if cam.kind == CameraKind.DEPTH:
            if noise_enabled:
                buf = apply_depth_noise(buf, noise, sp, frame_index)
            pixels = encode_depth16(buf, sp)
        else:
            pixels = shade_rgb(buf, sp).pixels
        if buf.window is not None:
            pixels = _patch(background, pixels, buf.window, _NOISE_REACH if cam.kind == CameraKind.DEPTH else 0)
    return Frame(kind=FRAME_KIND[cam.kind], pixels=pixels, frame_index=frame_index, camera_id=cam.camera_id)
