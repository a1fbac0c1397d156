"""The ray caster's kernels give the bytes of their earlier, slower forms.

Each ``_reference_*`` function below is a frozen copy of the kernel as it
was before it was rewritten for fewer array passes; the tests compare the
two bit for bit on inputs that reach every branch: zero-length capsule
axes, a camera inside an end sphere, grazing rays, rays parallel to a box
slab, an origin on a slab plane, capsules reaching the camera plane and
capsules fully off screen.  The normals and the RGB and infrared shading,
rewritten to run a column at a time, are compared the same way, and so
is what the sensor makes of each preset's static base, which was shaded
from a whole-frame normal map before buffers carried normals as rows.
That static base's normal rows, RGB background and infrared frame are
also compared, chunk size by chunk size, with their unchunked forms, and
the capsule, box and plane kernels taken in the tracer's blocks of rays
with one pass over the whole frame.  Infrared frames, held in 8 bits with
their rim pixels' coordinates before the blur, are compared with the
frozen float shading and blur of the whole scene, and the rays and tags
the sensor takes by flat index with a gather by (row, column).  The
capsule kernel, which traces several capsules' rays in one call, is
compared capsule by capsule with the frozen one-capsule kernel, traces
with the frozen trace, which composites each capsule alone, and the numpy
behaviour the kernel's bytes rest on is checked on its own.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from conftest import normal_map, normals, window_rays

from handsynth import render
from handsynth.geom import vec
from handsynth.scene import (
    TAG_BODY,
    TAG_ENVIRONMENT,
    CameraKind,
    CameraSpec,
    SensorParams,
    camera_rays,
    gesture_anchor,
    preset_camera,
    scene_from_primitives,
    static_scene,
)
from handsynth.skeleton import default_rig

_T_EPS = render._T_EPS


def _reference_intersect_capsule(origin, dirs, a, b, radius):
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
            p_axis = float(oa @ axis) + t_sph * (dirs @ axis)
            if cap_center is a:
                in_cap = p_axis <= 0.0
            else:
                in_cap = p_axis >= axis_len2
            t_sph = np.where(np.isfinite(t_sph) & in_cap, t_sph, np.inf)
        t_best = np.minimum(t_best, t_sph)
    return t_best


def _reference_intersect_box(origin, dirs, bmin, bmax):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    t1 = (bmin - origin) * inv
    t2 = (bmax - origin) * inv
    t_near = np.nanmax(np.minimum(t1, t2), axis=-1)
    t_far = np.nanmin(np.maximum(t1, t2), axis=-1)
    hit = (t_near <= t_far) & (t_far > _T_EPS)
    t = np.where(t_near > _T_EPS, t_near, t_far)
    return np.where(hit, t, np.inf)


def _reference_capsule_screen_bounds(cam, a, b, radius, w, h):
    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    tan_v = tan_half * h / w
    pts = cam.world_to_camera(np.vstack([a, b]))
    r2 = radius * radius
    u_lo, u_hi, v_lo, v_hi = np.inf, -np.inf, np.inf, -np.inf
    for x, y, z_cam in pts.tolist():
        z = -z_cam
        if z - radius <= 1e-6:
            return None
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
        return (0, 0, 0, 0)
    return (u0, u1, v0, v1)


def _reference_capsule_normal(points, a, b):
    axis = b - a
    axis_len2 = float(np.dot(axis, axis))
    if axis_len2 > 1e-18:
        s = np.clip(((points - a) @ axis) / axis_len2, 0.0, 1.0)
    else:
        s = np.zeros(points.shape[:-1])
    closest = a + s[..., None] * axis
    n = points - closest
    return n / np.maximum(np.linalg.norm(n, axis=-1, keepdims=True), 1e-12)


def _reference_infrared_shading(normal, ray_dir, tag, sp):
    cos_nv = np.einsum("...i,...i->...", normal, -ray_dir)
    fr = render.fresnel_factor(cos_nv, sp.fresnel_exponent)
    img = np.zeros(tag.shape + (3,))
    body = tag == TAG_BODY
    env = tag == TAG_ENVIRONMENT
    f3 = fr[..., None]
    img[body] = (render.BODY_CENTER_COLOR * (1 - f3) + render.BODY_EDGE_COLOR * f3)[body]
    img[env] = (render.ENV_BASE_COLOR * (0.4 + 0.6 * f3))[env]
    return img, fr


# an infrared frame before its blur as it was before it was held in 8 bits:
# float colour, Fresnel factor and validity per pixel
_FloatLayers = namedtuple("_FloatLayers", "image fresnel valid")


def _eight_bit_layers(layers):
    """``render.InfraredLayers`` of ``_FloatLayers``: the colour rounded and
    clipped to 8 bits, and the rim coordinates of ``_reference_infrared_pixels``."""
    pixels = np.clip(np.rint(layers.image), 0, 255).astype(np.uint8)
    return render.InfraredLayers(pixels, np.nonzero((layers.fresnel > 0.6) & layers.valid))


def _reference_infrared_pixels(layers, noise, sp, frame_index):
    img, fr = layers.image, layers.fresnel
    h, w = fr.shape
    if sp.blur_radius > 0:
        tile = noise.tiles[0]  # panned by (frame, frame) pixels
        us = (np.arange(w) + frame_index) % noise.tile_px
        vs = (np.arange(h) + frame_index) % noise.tile_px
        n = tile[np.ix_(vs, us)]
        offset = np.rint(sp.blur_radius * (2.0 * n - 1.0)).astype(np.int64)
        blur_mask = (fr > 0.6) & layers.valid
        vs, us = np.nonzero(blur_mask)
        sv = np.clip(vs + offset[vs, us], 0, h - 1)
        su = np.clip(us + offset[vs, us], 0, w - 1)
        img[vs, us] = img[sv, su]
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _reference_rgb_pixels(normal, tag, sp):
    diffuse = np.maximum(np.einsum("...i,...i->...", normal, -render.LIGHT_DIR), 0.0)
    intensity = np.clip(sp.ambient + (1.0 - sp.ambient) * diffuse, 0.0, 1.0)
    img = np.zeros(tag.shape + (3,))
    body = tag == TAG_BODY
    env = tag == TAG_ENVIRONMENT
    img[body] = (render.BODY_ALBEDO * intensity[..., None])[body]
    img[env] = (render.ENV_ALBEDO * intensity[..., None])[env]
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def _reference_primitive_normals(scene, index, points, rays):
    """A primitive's normals as they were before capsules' normals were taken
    several capsules at a time: the frozen per-capsule kernel, or the box's
    or plane's."""
    if index < len(scene.capsule_tag):
        return _reference_capsule_normal(points, scene.capsule_a[index], scene.capsule_b[index])
    return render._primitive_normals(scene, index, points, rays)


def _reference_won_normals(scene, origin, rays, t, winner):
    """The normals of a buffer's changed pixels before they were taken in chunks:
    every changed pixel's ray gathered at once, the rows sorted by
    primitive and one ``_reference_primitive_normals`` call per primitive."""
    order = np.argsort(winner.astype(np.int16), kind="stable")
    winner, rays, t = winner[order], rays[order], t[order]
    points = np.empty_like(rays)
    for k in range(3):
        np.add(origin[k], t * rays[:, k], out=points[:, k])
    grouped = np.empty_like(points)
    starts = np.flatnonzero(np.diff(winner, prepend=-1)).tolist()
    for lo, hi in zip(starts, [*starts[1:], len(winner)]):
        grouped[lo:hi] = _reference_primitive_normals(scene, int(winner[lo]), points[lo:hi], rays[lo:hi])
    normal = np.empty_like(grouped)
    normal[order] = grouped
    return normal


def _reference_keep_nearer(t_best, winner, sl, t, index):
    """``render._keep_nearer`` as it was: where ``t`` is strictly nearer, so
    that a tie keeps the primitive composited first."""
    closer = t < t_best[sl]
    t_best[sl] = np.where(closer, t, t_best[sl])
    winner[sl] = np.where(closer, index, winner[sl])


def _reference_trace_depth(scene, cam, base=None):
    """``render.trace_depth`` as it was before capsules were culled to their
    tangent wedge and traced in batches, and before the buffer carried the
    flat indices of its changed pixels: every capsule alone over the blocks
    of its screen rectangle, with the frozen capsule kernel, composited in
    capsule order by the frozen ``_reference_keep_nearer``, and five
    boolean-mask passes at the end.  Returns (depth, tag, changed, won_by,
    t_won)."""
    origin, dirs, z_scale = render._cached_rays(cam)
    w, h = cam.resolution
    bounds = render._capsule_screen_bounds(cam, scene)
    n_boxes, n_planes = len(scene.box_tag), len(scene.plane_tag)
    window = (0, w, 0, h)
    if base is not None and not (n_boxes or n_planes):
        window = render._dirty_window(bounds, render._WINDOW_MARGIN[cam.kind], w, h)
    wu0, wu1, wv0, wv1 = window
    win = np.s_[wv0:wv1, wu0:wu1]
    dirs, z_scale = dirs[win], z_scale[win]
    if base is None:
        depth = np.full((h, w), np.inf)
        tag = np.full((h, w), render.TAG_NONE, dtype=np.uint8)
    else:
        depth, tag = base.depth[win].copy(), base.tag[win].copy()
    t_best = depth / z_scale
    winner = np.full(depth.shape, -1, dtype=np.int32)
    for i, rect in enumerate(bounds):
        if rect == (0, 0, 0, 0):
            continue
        u0, u1, v0, v1 = (wu0, wu1, wv0, wv1) if rect is None else rect
        a, b, r = scene.capsule_a[i], scene.capsule_b[i], float(scene.capsule_r[i])
        for block in render._ray_blocks(v0 - wv0, v1 - wv0, u0 - wu0, u1 - wu0):
            with np.errstate(invalid="ignore"):  # the frozen kernel's inf * 0 on rays along the axis
                t = _reference_intersect_capsule(origin, dirs[block], a, b, r)
            _reference_keep_nearer(t_best, winner, block, t, i)
    for block in render._ray_blocks(0, h, 0, w) if n_boxes or n_planes else []:
        first = len(bounds)
        for i in range(n_boxes):
            t = render._intersect_box(origin, dirs[block], scene.box_min[i], scene.box_max[i])
            _reference_keep_nearer(t_best, winner, block, t, first + i)
        first += n_boxes
        for i in range(n_planes):
            t = render._intersect_plane(origin, dirs[block], scene.plane_point[i], scene.plane_normal[i])
            _reference_keep_nearer(t_best, winner, block, t, first + i)
    changed = winner >= 0
    won_by, t_won = winner[changed], t_best[changed]
    depth[changed] = t_won * z_scale[changed]
    tag[changed] = np.concatenate([scene.capsule_tag, scene.box_tag, scene.plane_tag])[won_by]
    return depth, tag, changed, won_by, t_won


def _check_trace(scene, cam, base=None):
    """``render.trace_depth`` gives the frozen trace's bytes: depth, tag and
    changed mask, and for RGB and infrared the flat indices of the changed
    pixels, their primitives, their ray parameters and the normals of the
    frozen per-capsule kernel.  Returns the buffer."""
    got = _strict(render.trace_depth, scene, cam, base)
    depth, tag, changed, won_by, t_won = _reference_trace_depth(scene, cam, base)
    _assert_same_bytes(got.depth, depth)
    _assert_same_bytes(got.tag, tag)
    _assert_same_bytes(got.changed, changed)
    if cam.kind == CameraKind.DEPTH:
        assert got.won_at is None and got.won_by is None and got.t_won is None
        return got
    _assert_same_bytes(got.won_at, np.flatnonzero(changed).astype(np.int32))
    _assert_same_bytes(got.won_by, won_by)
    _assert_same_bytes(got.t_won, t_won)
    rays = window_rays(got, cam)[changed]
    _assert_same_bytes(normals(got, cam), _reference_won_normals(scene, render._cached_rays(cam)[0], rays, t_won, won_by))
    return got


def _camera(rotation=(12.0, -20.0, 5.0), position=(3.0, -2.0, 1.0), resolution=(96, 72), fov=70.0):
    return CameraSpec(
        camera_id="k",
        kind=CameraKind.RGB,
        position=position,
        rotation=rotation,
        fov_deg=fov,
        resolution=resolution,
    )


def _ray_blocks(dirs):
    """The shapes of ray array the tracer hands a kernel: the whole frame,
    a strided rectangle of it, one row and two columns at the border.

    Not one column: a capsule's rectangle is one column wide only when the
    capsule lies wholly beyond the right border, so none of its rays hits.
    There the reference's ``(k, 1, 3) @ v`` took another numpy path than
    wider blocks and could differ in the last bit (see
    ``test_capsule_kernel_does_not_depend_on_the_block``)."""
    return [dirs, dirs[10:50, 7:61], dirs[33:34, 5:80], dirs[4:70, -2:]]


def _strict(kernel, *args):
    """``kernel(*args)`` with every warning an error: NaN may run through a
    kernel only inside its ``np.errstate``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kernel(*args)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _intersect(origin, dirs, a, b, radius):
    """``render._intersect_capsules`` of one capsule over the rays ``dirs``
    (..., 3), as the tracer takes a block of a large capsule: the rays copied
    into contiguous rows, a batch of one, t in the shape of the rays."""
    rows = np.ascontiguousarray(dirs).reshape(-1, 3)
    constants = render._capsule_constants(origin, a[None], b[None], np.array([radius]))
    return render._intersect_capsules(rows, *constants, [len(rows)]).reshape(dirs.shape[:-1])


def _check_capsule(origin, dirs, a, b, radius):
    for block in _ray_blocks(dirs):
        _assert_same_bytes(
            _strict(_intersect, origin, block, a, b, radius),
            _reference_intersect_capsule(origin, block, a, b, radius),
        )


def test_capsule_kernel_matches_reference_on_random_capsules(rng):
    cam = _camera()
    origin, dirs = camera_rays(cam)
    for k in range(40):
        a = origin + rng.uniform(-40, 40, size=3) + vec(0, 0, -rng.uniform(20, 120))
        # every fourth a zero-length axis, every eighth from the fourth one under 1e-9 long
        b = a + rng.uniform(-25, 25, size=3) * (k % 4 != 0 or 1e-11 * (k % 8 == 4))
        _check_capsule(origin, dirs, a, b, float(rng.uniform(0.5, 15.0)))


def test_capsule_kernel_matches_reference_with_the_camera_inside_an_end_sphere():
    origin, dirs = camera_rays(_camera())
    for radius in (3.0, 12.0):
        for a, b in (
            (origin + vec(0.5, -0.4, 0.3), origin + vec(10.0, 4.0, -60.0)),  # inside the first sphere
            (origin + vec(-30.0, 2.0, -50.0), origin + vec(0.2, 0.1, -0.4)),  # inside the second
            (origin + vec(0.3, 0.2, -0.1), origin + vec(0.3, 0.2, -0.1)),  # inside a sphere
        ):
            if a is b or np.array_equal(a, b):
                # every ray leaves the sphere through the far root
                assert np.isfinite(_intersect(origin, dirs, a, b, radius)).all()
            _check_capsule(origin, dirs, a, b, radius)


def test_capsule_kernel_matches_reference_on_grazing_rays(rng):
    """Capsules placed so that one ray of the frame is tangent to an end
    sphere or to the cylinder: their discriminants are within rounding of
    zero, on either side."""
    origin, dirs = camera_rays(_camera())
    h, w = dirs.shape[:2]
    for _ in range(30):
        d = dirs[rng.integers(h), rng.integers(w)]
        perp = np.cross(d, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        radius = float(rng.uniform(1.0, 8.0))
        touch = origin + rng.uniform(30, 90) * d + radius * perp  # a sphere's centre
        _check_capsule(origin, dirs, touch, touch, radius)
        _check_capsule(origin, dirs, touch, touch + rng.uniform(-20, 20, size=3), radius)
        along = np.cross(d, perp)  # a cylinder whose side touches the ray
        _check_capsule(origin, dirs, touch - 20.0 * along, touch + 20.0 * along, radius)


def _ragged_spans(rng, rect):
    """Per row of ``rect``, a span of random width inside it, some empty."""
    u0, u1, v0, v1 = rect
    lo = rng.integers(u0, u1 + 1, size=v1 - v0)
    hi = np.minimum(lo + rng.integers(0, u1 - u0 + 1, size=v1 - v0), u1)
    return lo, hi


def test_capsule_kernel_does_not_depend_on_the_block(rng):
    """A ray's t is the same bytes in every block of rays that holds it,
    one column included: windowed and whole-frame traces agree.  So are
    rays gathered by flat index from per-row spans of random widths, and a
    gathered set of two rays: each gives the frozen kernel's bytes over the
    whole frame."""
    origin, dirs = camera_rays(_camera())
    h, w = dirs.shape[:2]
    grid = dirs.reshape(-1, 3)
    for k in range(20):
        a = origin + rng.uniform(-40, 40, size=3) + vec(0, 0, -rng.uniform(20, 120))
        b = a + rng.uniform(-25, 25, size=3) * (k % 4 != 0)
        radius = float(rng.uniform(0.5, 15.0))
        whole = _intersect(origin, dirs, a, b, radius)
        for block in (np.s_[10:50, 7:61], np.s_[33:34, 5:80], np.s_[4:70, 40:41], np.s_[:, 95:]):
            _assert_same_bytes(_intersect(origin, dirs[block], a, b, radius), whole[block])
        frozen = _reference_intersect_capsule(origin, dirs, a, b, radius).reshape(-1)
        for rect in ((0, w, 0, h), (7, 61, 10, 50), (40, 42, 4, 70)):
            rays = render._span_rays(rect, *_ragged_spans(rng, rect), w, (0, w, 0, h))
            if rays is None:
                continue  # a single ray: the tracer takes the rectangle's blocks instead
            frame = rays[0]
            got = _strict(_intersect, origin, np.take(grid, frame, axis=0), a, b, radius)
            _assert_same_bytes(got, frozen[frame])
        pair = rng.choice(h * w, size=2, replace=False)
        _assert_same_bytes(_intersect(origin, np.take(grid, pair, axis=0), a, b, radius), frozen[pair])


def test_numpy_products_keep_the_bytes_the_kernels_rest_on(rng):
    """The numpy behaviour the capsule kernels' bytes rest on, checked on its
    own, so that a numpy or BLAS change fails here with a message rather
    than as a digest mismatch.  A stacked ``matmul`` of 3-vectors
    (``render._vector_dots``) gives per pair the bytes of ``np.dot`` and of
    1-D ``@``, what each capsule's constants were computed with one capsule
    at a time.  ``np.matmul(rows[lo:hi], v, out=...)`` gives two rows or
    more the bytes the product over all the rows gives them, at any offset
    of the rows and of ``out`` and with ``v`` a row of a larger array, as
    ``_intersect_capsules`` takes each capsule's rows of a batch."""
    n = 200_000
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    x, y = rng.normal(size=(n, 3)) * scale, rng.normal(size=(n, 3)) * scale[::-1]
    stacked = render._vector_dots(x, y)
    by_dot = np.array([np.dot(p, q) for p, q in zip(x, y)])
    by_matmul = np.array([p @ q for p, q in zip(x[:20_000], y[:20_000])])
    assert stacked.tobytes() == by_dot.tobytes(), (
        f"stacked matmul differs from np.dot in {np.sum(stacked != by_dot)} of {n} pairs of 3-vectors: "
        "batched capsule constants no longer give the bytes of one capsule's"
    )
    assert stacked[:20_000].tobytes() == by_matmul.tobytes(), "stacked matmul differs from 1-D @ on 3-vectors"

    rows = rng.normal(size=(60_000, 3)) * scale[:60_000]
    vectors = rng.normal(size=(40, 5, 3))
    differ = []
    for k in range(1500):
        v = vectors[k % 40, k % 5]  # a row of a larger array, as _intersect_capsules takes it
        lo = int(rng.integers(0, len(rows) - 2))
        hi = int(rng.integers(lo + 2, min(lo + 6000, len(rows)) + 1))
        out = np.empty(hi - lo + 9)
        pad = int(rng.integers(0, 10))
        np.matmul(rows[lo:hi], v, out=out[pad : pad + hi - lo])
        whole = rows @ v
        if out[pad : pad + hi - lo].tobytes() != whole[lo:hi].tobytes():
            differ.append((lo, hi))
    assert not differ, (
        f"a matrix-vector product over rows lo:hi differs from the same rows of the whole product for "
        f"{len(differ)} of 1500 slices, such as {differ[:3]}: a ray's t would depend on the rays traced with it"
    )


def _batch_capsules(rng, origin, dirs):
    """Capsules of every case the capsule kernel meets: random ones, a
    zero-length axis, an axis shorter than 1e-9, the camera inside an end
    sphere, and a sphere and a cylinder that graze a ray of the frame."""
    h, w = dirs.shape[:2]
    out = []
    for _ in range(6):
        a = origin + rng.uniform(-40, 40, size=3) + vec(0, 0, -rng.uniform(20, 120))
        out.append((a, a + rng.uniform(-25, 25, size=3), float(rng.uniform(0.5, 15.0))))
    a = origin + rng.uniform(-30, 30, size=3) + vec(0, 0, -60.0)
    out.append((a, a.copy(), float(rng.uniform(2.0, 10.0))))
    out.append((a, a + 1e-10 * rng.normal(size=3), float(rng.uniform(2.0, 10.0))))
    out.append((origin + vec(0.5, -0.4, 0.3), origin + vec(10.0, 4.0, -60.0), 3.0))
    out.append((origin + vec(-30.0, 2.0, -50.0), origin + vec(0.2, 0.1, -0.4), 12.0))
    d = dirs[rng.integers(h), rng.integers(w)]
    perp = np.cross(d, rng.normal(size=3))
    perp /= np.linalg.norm(perp)
    radius = float(rng.uniform(1.0, 8.0))
    touch = origin + rng.uniform(30, 90) * d + radius * perp
    along = np.cross(d, perp)
    out += [(touch, touch, radius), (touch - 20.0 * along, touch + 20.0 * along, radius)]
    return out


def test_batched_capsule_kernel_matches_reference_capsule_by_capsule(rng):
    """Random batches of the capsules of ``_batch_capsules``, each with its
    own rays (a rectangle of the frame, rays gathered at random, or a single
    ray beside larger sets), traced in one ``_intersect_capsules`` call, give
    capsule by capsule the frozen kernel's bytes: over the whole frame, and
    for a single ray over its one-ray block."""
    origin, dirs = camera_rays(_camera())
    h, w = dirs.shape[:2]
    grid = dirs.reshape(-1, 3)
    single = 0
    for _ in range(30):
        capsules = _batch_capsules(rng, origin, dirs)
        chosen = rng.permutation(len(capsules))[: rng.integers(2, len(capsules) + 1)]
        frames, wants = [], []
        for j in chosen.tolist():
            a, b, radius = capsules[j]
            case = rng.integers(3)
            if case == 0:
                u0, v0 = int(rng.integers(0, w - 1)), int(rng.integers(0, h))
                u1, v1 = int(rng.integers(u0 + 2, w + 1)), int(rng.integers(v0 + 1, h + 1))
                frame = (np.arange(v0, v1)[:, None] * w + np.arange(u0, u1)).reshape(-1)
            elif case == 1:
                frame = rng.choice(h * w, size=int(rng.integers(2, 400)), replace=False)
            else:
                frame = rng.integers(h * w, size=1)
            with np.errstate(invalid="ignore"):  # the frozen kernel's inf * 0 on rays along the axis
                if len(frame) == 1:
                    v, u = divmod(int(frame[0]), w)
                    ray = dirs[v : v + 1, u : u + 1]
                    wants.append(_reference_intersect_capsule(origin, ray, a, b, radius).reshape(-1))
                else:
                    wants.append(_reference_intersect_capsule(origin, dirs, a, b, radius).reshape(-1)[frame])
            frames.append(frame)
        single += sum(len(frame) == 1 for frame in frames) * (len(frames) > 1)
        a, b, radius = (np.array([capsules[j][k] for j in chosen.tolist()]) for k in range(3))
        counts = [len(frame) for frame in frames]
        rows = np.take(grid, np.concatenate(frames), axis=0)
        constants = render._capsule_constants(origin, a, b, radius)
        got = _strict(lambda: render._intersect_capsules(rows, *constants, counts))
        ends = np.cumsum(counts)
        for want, lo, hi in zip(wants, ends - counts, ends):
            _assert_same_bytes(got[lo:hi], want)
    assert single > 0


def test_capsule_kernel_takes_an_axis_under_1e_9_as_two_spheres(rng):
    """A capsule whose axis is shorter than 1e-9 is its two end spheres, as
    in the frozen kernel, also for rays that hit the band between the two
    caps' hemispheres, where a capsule's cylinder would take them: rays aimed
    at that band, traced in a batch beside a capsule of ordinary length."""
    origin = vec(1.0, -2.0, 0.5)
    for _ in range(10):
        a = origin + rng.uniform(-10, 10, size=3) + vec(0, 0, -60.0)
        axis = rng.normal(size=3)
        axis *= 1e-10 / np.linalg.norm(axis)
        radius = float(rng.uniform(3.0, 12.0))
        side = np.cross(axis, rng.normal(size=(200, 3)))
        side /= np.linalg.norm(side, axis=1, keepdims=True)
        band = a + 0.5 * axis + radius * side  # points of the band, halfway along the axis
        rays = band - origin
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            want = _reference_intersect_capsule(origin, rays[None], a, a + axis, radius)[0]
        assert np.isfinite(want).sum() > 50  # the near half of the band
        other = (a + vec(20.0, 0, 0), a + vec(30.0, 5.0, 0), 4.0)
        rows = np.concatenate([rays, rays[:7]])
        ends = [np.array([a, other[0]]), np.array([a + axis, other[1]]), np.array([radius, other[2]])]
        got = _strict(lambda: render._intersect_capsules(rows, *render._capsule_constants(origin, *ends), [200, 7]))
        _assert_same_bytes(got[:200], want)


def _arm_recording(kind, resolution, gesture="swipe_right"):
    """A camera of ``kind`` at ``resolution`` and the scenes of every fourth
    frame of a recording of the arm it sees."""
    from handsynth.gesture import WarningCounters, builtin_scripts, evaluate_frame
    from handsynth.pipeline import _setup_recording
    from handsynth.scene import dynamic_scene
    from handsynth.skeleton import pose_hand
    from handsynth.variation import VariantParams

    rig = default_rig()
    cam = preset_camera("wheel", "k", kind, gesture_anchor(rig), resolution=resolution, fps=10)
    setup = _setup_recording(builtin_scripts()[gesture], cam, VariantParams.neutral(), False, True)
    scenes = [
        dynamic_scene(pose_hand(setup.rig, *evaluate_frame(setup.timeline, i, WarningCounters())))
        for i in range(0, setup.timeline.total_frames, 4)
    ]
    return cam, scenes


@pytest.mark.parametrize("kind", [CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED])
@pytest.mark.parametrize("chunk", [31, 200, 1 << 15])
def test_batched_arm_traces_match_the_frozen_trace(monkeypatch, kind, chunk):
    """Arm frames on the static base, whose fingers' ray sets are traced
    in batches, give the frozen trace's bytes, with batches cut at
    RENDER_CHUNK_PIXELS of 31 and 200 rays as well.  Some kernel calls take
    several capsules, and none more than RENDER_CHUNK_PIXELS rays unless it
    takes one block of rays (three rays at the least)."""
    cam, scenes = _arm_recording(kind, (96, 72))
    base = render.trace_depth(static_scene(default_rig()), cam)
    monkeypatch.setattr(render, "RENDER_CHUNK_PIXELS", chunk)
    calls = []
    intersect = render._intersect_capsules
    monkeypatch.setattr(render, "_intersect_capsules", lambda rows, *c: calls.append(c[-1]) or intersect(rows, *c))
    for scene in scenes:
        _check_trace(scene, cam, base)
    assert any(len(counts) > 1 for counts in calls)
    assert all(sum(counts) <= chunk or len(counts) == 1 and counts[0] <= max(chunk, 3) for counts in calls)


def _joint_chains(rng, cam):
    """Chains of capsules that share their end spheres, of one radius per
    chain, as a finger's phalanges do: bent at each joint, with long links
    (traced alone at 320x240) between short ones (traced in batches)."""
    chains = []
    for _ in range(5):
        point = cam.camera_to_world(vec(rng.uniform(-15, 15), rng.uniform(-10, 10), -rng.uniform(45, 80)))
        radius = float(rng.uniform(1.5, 4.0))
        heading = rng.normal(size=3)
        capsules = []
        for k in range(6):
            heading = heading / np.linalg.norm(heading) + rng.uniform(0.3, 0.9) * rng.normal(size=3)
            step = heading / np.linalg.norm(heading) * (rng.uniform(18, 30) if k % 3 == 2 else rng.uniform(3, 8))
            capsules.append((point, point + step, radius))
            point = point + step
        chains.append(capsules)
    return chains


@pytest.mark.parametrize("kind", [CameraKind.RGB, CameraKind.INFRARED])
def test_tied_joint_spheres_keep_the_frozen_winner(rng, kind):
    """Where two linked capsules of a chain share an end sphere, a ray that
    hits the sphere outside both capsules' axis spans gets the same t from
    both: the tie goes to the lower index, the frozen trace's ``won_by``,
    whether the two are batched together, batched apart or traced alone,
    without a base and on a plane's base.  The frozen kernel shows ties on
    the chains."""
    cam = replace(_camera(resolution=(320, 240)), kind=kind)
    origin, dirs = camera_rays(cam)
    plane = (vec(0, 0, -150.0), vec(0.1, 0.2, 1.0) / np.linalg.norm([0.1, 0.2, 1.0]))
    base = render.trace_depth(scene_from_primitives(planes=[plane]), cam)
    ties = alone = 0
    for capsules in _joint_chains(rng, cam):
        scene = scene_from_primitives(capsules=capsules)
        _check_trace(scene, cam)
        _check_trace(scene, cam, base)
        sets = list(render._capsule_ray_sets(cam, scene, render._capsule_screen_bounds(cam, scene), (0, 320, 0, 240)))
        alone += sum(count >= render._BATCH_MAX_RAYS for _, _, count in sets)
        with np.errstate(invalid="ignore"):
            t = [_reference_intersect_capsule(origin, dirs, a, b, r) for a, b, r in capsules]
        ties += sum(int(np.sum(np.isfinite(t0) & (t0 == t1))) for t0, t1 in zip(t, t[1:]))
    assert ties > 0 and alone > 0


def test_span_rays_index_the_frame_and_the_window():
    """The rays of per-row column spans, as flat indices into the frame and
    into a window holding the rectangle; a single ray of a larger
    rectangle is refused."""
    rect, window = (5, 9, 3, 6), (4, 12, 2, 7)
    frame, at = render._span_rays(rect, np.array([5, 8, 6]), np.array([7, 8, 9]), 20, window)
    want = [(3, 5), (3, 6), (5, 6), (5, 7), (5, 8)]  # (row, column); row 4 is empty
    assert frame.tolist() == [v * 20 + u for v, u in want]
    assert at.tolist() == [(v - 2) * 8 + u - 4 for v, u in want]
    assert render._span_rays(rect, np.array([5, 6, 6]), np.array([5, 7, 6]), 20, window) is None
    assert render._span_rays((5, 6, 3, 4), np.array([5]), np.array([6]), 20, window)[0].tolist() == [65]
    frame, at = render._span_rays(rect, np.array([9, 9, 9]), np.array([9, 9, 9]), 20, window)
    assert len(frame) == len(at) == 0


def _blocked(kernel, origin, dirs, *primitive):
    """``kernel`` over the rays ``dirs`` (h, w, 3) taken in the blocks of
    ``render._ray_blocks``, as the tracer takes them; each block at most
    RENDER_CHUNK_PIXELS rays (three when it is smaller), none one ray alone,
    and every ray in exactly one."""
    h, w = dirs.shape[:2]
    t = np.full((h, w), np.nan)
    covered = np.zeros((h, w), dtype=int)
    for block in render._ray_blocks(0, h, 0, w):
        n = covered[block].size
        assert 2 <= n <= max(render.RENDER_CHUNK_PIXELS, 3) or h * w == 1
        covered[block] += 1
        t[block] = kernel(origin, dirs[block], *primitive)
    assert (covered == 1).all()
    return t


# blocks of rays: a row of 2 * 7 + 1 rays, a column of as many, rows of 7 + 1
# rays (a remainder of one ray at 7 per block), a few rows of 3, a strided
# rectangle and a whole frame
_BLOCK_SHAPES = [np.s_[20:21, 10:25], np.s_[10:25, 40:41], np.s_[30:39, 50:58], np.s_[5:10, 3:6], np.s_[10:50, 7:61]]


@pytest.mark.parametrize("chunk", [1, 7, 6911, 1 << 15])
def test_blocked_capsule_calls_match_reference(monkeypatch, rng, chunk):
    """Capsule intersections taken ``chunk`` rays at a time give the bytes
    of the frozen kernel over the whole frame; at 6911 the 96x72 frame's
    6912 rays leave a remainder of one ray."""
    monkeypatch.setattr(render, "RENDER_CHUNK_PIXELS", chunk)
    origin, dirs = camera_rays(_camera())
    for k in range(12):
        a = origin + rng.uniform(-40, 40, size=3) + vec(0, 0, -rng.uniform(20, 120))
        b = a + rng.uniform(-25, 25, size=3) * (k % 4 != 0)  # every fourth: a zero-length axis
        radius = float(rng.uniform(0.5, 15.0))
        whole = _reference_intersect_capsule(origin, dirs, a, b, radius)
        for block in [*_BLOCK_SHAPES, np.s_[:, :]]:
            want = whole[block]  # not the reference over one column: see _ray_blocks in this file
            _assert_same_bytes(_strict(_blocked, _intersect, origin, dirs[block], a, b, radius), want)


def test_ray_blocks_leave_no_single_ray():
    """A remainder of one ray moves the edge before it back by one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "RENDER_CHUNK_PIXELS", 7)
        assert render._ray_blocks(0, 1, 0, 15) == [np.s_[0:1, 0:7], np.s_[0:1, 7:13], np.s_[0:1, 13:15]]
        assert render._ray_blocks(0, 15, 0, 1) == [np.s_[0:7, 0:1], np.s_[7:13, 0:1], np.s_[13:15, 0:1]]
        assert render._ray_blocks(2, 5, 4, 6) == [np.s_[2:5, 4:6]]  # three rows of two: 6 rays
        assert render._ray_blocks(0, 1, 0, 1) == [np.s_[0:1, 0:1]]  # one ray is one block


@pytest.mark.parametrize("chunk", [1, 7, 3 * 97 + 5])
def test_banded_box_and_plane_match_one_whole_frame_pass(monkeypatch, rng, chunk):
    """Boxes and planes intersected in bands of whole image rows (at 7 and
    1 per block, in parts of a row) give the bytes of one pass over the
    whole frame, and so does a trace of a scene with boxes and planes."""
    cam = _camera(rotation=(0.0, 0.0, 0.0), position=(0.0, 0.0, 0.0), resolution=(97, 73))
    origin, dirs = camera_rays(cam)
    boxes = [tuple(np.sort(rng.uniform(-60, 60, size=(2, 3)), axis=0) + vec(0, 0, -80)) for _ in range(6)]
    boxes.append((vec(-20, -20, -90), vec(20, 20, -70)))  # rays parallel to its slabs
    tilted = vec(0.1, 1.0, 0.2) / np.linalg.norm([0.1, 1.0, 0.2])
    planes = [(vec(0, 0, -160.0), vec(0, 0, 1.0)), (vec(0, -30, 0), tilted)]
    scene = scene_from_primitives(capsules=[(vec(-10, 5, -60), vec(15, -5, -75), 6.0)], boxes=boxes, planes=planes)
    whole = {kind: render.trace_depth(scene, replace(cam, kind=kind)) for kind in (CameraKind.DEPTH, CameraKind.RGB)}
    monkeypatch.setattr(render, "RENDER_CHUNK_PIXELS", chunk)
    for bmin, bmax in boxes:
        want = render._intersect_box(origin, dirs, bmin, bmax)
        _assert_same_bytes(_strict(_blocked, render._intersect_box, origin, dirs, bmin, bmax), want)
    for point, normal in planes:
        want = render._intersect_plane(origin, dirs, point, normal)
        _assert_same_bytes(_strict(_blocked, render._intersect_plane, origin, dirs, point, normal), want)
    for kind, want in whole.items():
        kind_cam = replace(cam, kind=kind)
        got = render.trace_depth(scene, kind_cam)
        fields = ("depth", "tag", "changed") if kind == CameraKind.DEPTH else ("won_by", "t_won")
        for field in fields:
            _assert_same_bytes(getattr(got, field), getattr(want, field))
        if kind != CameraKind.DEPTH:
            _assert_same_bytes(normals(got, kind_cam), normals(want, kind_cam))


def _unit_rays_with_zero_components(rng):
    rays = rng.normal(size=(40, 3))
    rays[0:10, 0] = 0.0  # parallel to the x slabs
    rays[10:20, 1] = -0.0  # parallel to the y slabs, negative zero
    rays[20:24, 0:2] = 0.0  # along z
    rays[24:28, 1:3] = 0.0  # along x
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays.reshape(5, 8, 3)


@pytest.mark.parametrize(
    "origin",
    [
        vec(0.0, 0.0, 0.0),  # inside the box
        vec(-5.0, 1.0, 2.0),  # on the plane of the x = -5 slab
        vec(-5.0, 4.0, 2.0),  # on the x = -5 slab plane and the y = 4 slab plane, at the box's edge
        vec(-20.0, -30.0, 40.0),  # outside
        vec(-20.0, 4.0, 40.0),  # outside, on a slab plane
    ],
)
def test_box_kernel_matches_reference_on_parallel_rays_and_slab_planes(rng, origin):
    bmin, bmax = vec(-5.0, -3.0, -8.0), vec(6.0, 4.0, 9.0)
    rays = _unit_rays_with_zero_components(rng)
    with np.errstate(invalid="ignore"):  # the reference's 0 * inf
        want = _reference_intersect_box(origin, rays, bmin, bmax)
    _assert_same_bytes(_strict(render._intersect_box, origin, rays, bmin, bmax), want)


def test_box_kernel_matches_reference_over_a_frame(rng):
    cam = _camera(rotation=(0.0, 0.0, 0.0), position=(0.0, 0.0, 0.0), resolution=(97, 73))
    origin, dirs = camera_rays(cam)
    assert (dirs[:, 48, 0] == 0.0).all() and (dirs[36, :, 1] == 0.0).all()  # rays parallel to slabs
    boxes = [(vec(-20, -20, -90), vec(20, 20, -70)), (vec(0.0, -10, -80), vec(30, 0.0, -40))]
    boxes += [tuple(np.sort(rng.uniform(-60, 60, size=(2, 3)), axis=0) + vec(0, 0, -80)) for _ in range(20)]
    for bmin, bmax in boxes:
        for block in _ray_blocks(dirs):
            with np.errstate(invalid="ignore"):
                want = _reference_intersect_box(origin, block, bmin, bmax)
            _assert_same_bytes(_strict(render._intersect_box, origin, block, bmin, bmax), want)


def test_screen_bounds_match_reference(rng):
    """Capsules in front of the camera, across its plane (None), behind it
    and fully off screen, for cameras of several poses and sizes."""
    for cam in (_camera(), _camera(rotation=(0, 0, 0), position=(0, 0, 0), resolution=(320, 240), fov=60.0)):
        w, h = cam.resolution
        capsules = []
        for k in range(2500):
            a = rng.uniform(-150, 150, size=3) + vec(0, 0, -60)
            b = a + rng.uniform(-40, 40, size=3) * (k % 5 != 0)
            capsules.append((a, b, float(rng.uniform(0.5, 20.0))))
        capsules.append((vec(0, 0, -1.0), vec(0, 0, -40.0), 2.0))  # reaches the camera plane
        capsules.append((vec(400.0, 0, -90.0), vec(420.0, 0, -90.0), 3.0))  # fully off screen
        scene = scene_from_primitives(
            capsules=[(cam.camera_to_world(a), cam.camera_to_world(b), r) for a, b, r in capsules]
        )
        got = _strict(render._capsule_screen_bounds, cam, scene)
        want = [
            _reference_capsule_screen_bounds(cam, a, b, float(r), w, h)
            for a, b, r in zip(scene.capsule_a, scene.capsule_b, scene.capsule_r)
        ]
        assert got == want
        assert got[-2] is None and got[-1] == (0, 0, 0, 0)
        assert all(isinstance(v, int) for rect in got if rect for v in rect)
        assert sum(rect is None for rect in got) > 100 and sum(rect == (0, 0, 0, 0) for rect in got) > 100


def test_screen_bounds_of_a_scene_without_capsules():
    assert render._capsule_screen_bounds(_camera(), scene_from_primitives()) == []


def test_capsule_normals_match_reference(rng):
    """Normals of several capsules' rows taken in one call give, capsule by
    capsule, the bytes of the frozen per-capsule kernel: zero-length axes,
    points on the axis and capsules of one row included."""
    for _ in range(6):
        a = rng.uniform(-50, 50, size=(8, 3))
        b = a + rng.uniform(-20, 20, size=(8, 3)) * (np.arange(8) % 4 != 0)[:, None]  # every fourth: a zero-length axis
        counts = rng.integers(1, 3000, size=8)
        counts[[1, 6]] = 1
        points = rng.uniform(-60, 60, size=(int(counts.sum()), 3))
        starts = np.cumsum(counts) - counts
        for j, (lo, count) in enumerate(zip(starts, counts)):
            if count >= 3:
                points[lo : lo + 3] = [a[j], b[j], 0.5 * (a[j] + b[j])]  # on the axis: a zero normal, clamped
        got = _strict(render._capsule_normals, points, a, b, counts)
        for j, (lo, count) in enumerate(zip(starts, counts)):
            want = _reference_capsule_normal(points[lo : lo + count], a[j], b[j])
            _assert_same_bytes(got[lo : lo + count], want)


def _shading_inputs(rng, shape):
    normal = rng.normal(size=shape + (3,))
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    normal.reshape(-1, 3)[::7] = 0.0  # the zero normal of a pixel nothing hit
    ray_dir = rng.normal(size=shape + (3,))
    ray_dir /= np.linalg.norm(ray_dir, axis=-1, keepdims=True)
    tag = rng.integers(0, 3, size=shape).astype(np.uint8)  # none, body, environment
    return normal, ray_dir, tag


@pytest.mark.parametrize("shape", [(1000,), (24, 32)])  # a windowed buffer's changed pixels; a whole frame
def test_rgb_and_infrared_shading_match_reference(rng, shape):
    sp = SensorParams()
    normal, ray_dir, tag = _shading_inputs(rng, shape)
    _assert_same_bytes(_strict(render._rgb_pixels, normal, tag, sp), _reference_rgb_pixels(normal, tag, sp))
    got = _strict(render._infrared_shading, normal, ray_dir, tag, sp)
    for got_layer, want_layer in zip(got, _reference_infrared_shading(normal, ray_dir, tag, sp)):
        _assert_same_bytes(got_layer, want_layer)


def test_infrared_blur_matches_reference(rng):
    sp = SensorParams()
    noise = render.make_flipbook(sp, 3)
    normal, ray_dir, tag = _shading_inputs(rng, (60, 80))
    for frame_index in (0, 7, noise.tile_px + 5):
        image, fresnel = _reference_infrared_shading(normal, ray_dir, tag, sp)
        valid = tag != 0
        want = _reference_infrared_pixels(_FloatLayers(image.copy(), fresnel, valid), noise, sp, frame_index)
        layers = _eight_bit_layers(_FloatLayers(image, fresnel, valid))
        got = _strict(render._infrared_pixels, layers, noise, sp, frame_index)
        _assert_same_bytes(got, want)


def _check_static_base(preset, resolution):
    """The static base's normal rows are those of the frozen
    ``_reference_won_normals`` on the trace's own winners and ray
    parameters.  Scattered into a whole-frame map that is zero where
    nothing was hit, shaded by the frozen RGB and infrared kernels and
    blurred by the frozen blur, they give the bytes of the RGB background
    and of the blurred infrared frame.  Returns the primitive each changed
    pixel of the infrared base shows."""
    rig = default_rig()
    scene = static_scene(rig)
    sp = SensorParams()
    noise = render.make_flipbook(sp, 3)
    for kind in (CameraKind.RGB, CameraKind.INFRARED):
        cam = preset_camera(preset, "k", kind, gesture_anchor(rig), resolution=resolution)
        base = render.trace_depth(scene, cam)
        origin, rays = render._cached_rays(cam)[0], window_rays(base, cam)[base.changed]
        t, winner = base.t_won, base.won_by
        _assert_same_bytes(normals(base, cam), _reference_won_normals(scene, origin, rays, t, winner))
        if kind == CameraKind.RGB:
            got = _strict(render.sensor_backgrounds, base, cam, sp, noise)[0]
            _assert_same_bytes(got, _reference_rgb_pixels(normal_map(base, cam), base.tag, sp))
            continue
        assert np.array_equal(base.changed, base.valid)
        for frame_index in (0, 7, noise.tile_px + 5):
            rays = window_rays(base, cam)
            image, fresnel = _reference_infrared_shading(normal_map(base, cam), rays, base.tag, sp)
            layers = _FloatLayers(image, fresnel, base.valid)
            want = _reference_infrared_pixels(layers, noise, sp, frame_index)
            _assert_same_bytes(_strict(render.sensor_frame, base, cam, sp, noise, frame_index).pixels, want)
    return winner


@pytest.mark.parametrize("preset", ["infotainment", "top", "wheel"])
def test_static_base_senses_as_the_whole_frame_shaders_did(preset):
    _check_static_base(preset, (640, 480))


@pytest.mark.parametrize("preset", ["infotainment", "top", "wheel"])
@pytest.mark.parametrize("chunk, resolution", [(1, (64, 48)), (7, (64, 48)), (4096, (640, 480))], ids=["1", "7", "4096"])
def test_chunked_static_base_gives_the_unchunked_bytes(monkeypatch, preset, chunk, resolution):
    """Normals and shading taken ``chunk`` changed pixels at a time give the
    bytes of one pass over all of them, including where a chunk edge cuts
    one primitive's rows in two.  Chunks of 1 and 7 pixels run at 64x48:
    at 640x480 they would take seconds per frame."""
    monkeypatch.setattr(render, "RENDER_CHUNK_PIXELS", chunk)
    by_primitive = np.sort(_check_static_base(preset, resolution))
    edges = [hi for _, hi in render._normal_chunks(by_primitive)][:-1]
    assert any(by_primitive[hi - 1] == by_primitive[hi] for hi in edges)


def _float_layers(buf, cam, sp):
    """The frozen infrared shading of a whole-frame trace, as float layers."""
    image, fresnel = _reference_infrared_shading(normal_map(buf, cam), window_rays(buf, cam), buf.tag, sp)
    return _FloatLayers(image, fresnel, buf.valid)


def _source_outside(rim, window, noise, sp, frame_index, shape):
    """How many of the ``rim`` pixels (a mask) inside ``window`` take their
    blurred colour from a pixel outside it, by the reference's offsets."""
    u0, u1, v0, v1 = window
    h, w = shape
    vs, us = np.nonzero(rim)
    inside = (vs >= v0) & (vs < v1) & (us >= u0) & (us < u1)
    vs, us = vs[inside], us[inside]
    n = noise.tiles[0][(vs + frame_index) % noise.tile_px, (us + frame_index) % noise.tile_px]
    offset = np.rint(sp.blur_radius * (2.0 * n - 1.0)).astype(np.int64)
    sv, su = np.clip(vs + offset, 0, h - 1), np.clip(us + offset, 0, w - 1)
    return int(np.sum((sv < v0) | (sv >= v1) | (su < u0) | (su >= u1)))


@pytest.mark.parametrize("blur_radius", [0.0, 3.0])
def test_windowed_infrared_frames_match_the_frozen_blur(blur_radius):
    """Infrared frames of the arm, sensed over the camera's 8-bit static
    background and its rim, give the bytes of the frozen float shading and
    blur of the whole scene.  Their rim is the reference's: the static rim
    pixels the arm covers leave it unless the arm's own Fresnel factor
    there is above 0.6.  Across the frames, some covered static rim pixels
    leave the rim and some rim pixels inside the window take their colour
    from outside it (only when the blur moves pixels)."""
    from handsynth.gesture import WarningCounters, builtin_scripts, evaluate_frame
    from handsynth.pipeline import _setup_recording
    from handsynth.scene import build_scene, dynamic_scene
    from handsynth.skeleton import pose_hand
    from handsynth.variation import VariantParams

    rig = default_rig()
    cam = preset_camera("wheel", "k", CameraKind.INFRARED, gesture_anchor(rig), resolution=(160, 120), fps=10)
    sp = replace(cam.sensor, blur_radius=blur_radius)
    noise = render.make_flipbook(sp, 3)
    base = render.trace_depth(static_scene(rig), cam)
    background = render.sensor_backgrounds(base, cam, sp)[0]
    static = _float_layers(base, cam, sp)
    static_rim = (static.fresnel > 0.6) & static.valid
    assert np.array_equal(np.flatnonzero(static_rim), np.sort(np.ravel_multi_index(background.rim, static_rim.shape)))

    setup = _setup_recording(builtin_scripts()["swipe_up"], cam, VariantParams.neutral(), False, True)
    left_rim = from_outside = 0
    for i in range(0, setup.timeline.total_frames, 2):
        wrist, aim, pose = evaluate_frame(setup.timeline, i, WarningCounters())
        posed = pose_hand(setup.rig, wrist, aim, pose)
        buf = render.trace_depth(dynamic_scene(posed), cam, base=base)
        full = _float_layers(render.trace_depth(build_scene(rig, posed), cam), cam, sp)
        rim = (full.fresnel > 0.6) & full.valid
        layers = render._sense_window(buf, cam, sp, background)
        assert np.array_equal(np.flatnonzero(rim), np.sort(np.ravel_multi_index(layers.rim, rim.shape)))
        want = _reference_infrared_pixels(full, noise, sp, i)
        got = _strict(render.sensor_frame, buf, cam, sp, noise, i, True, background).pixels
        _assert_same_bytes(got, want)
        u0, u1, v0, v1 = buf.window
        changed = np.zeros_like(rim)
        changed[v0:v1, u0:u1] = buf.changed
        left_rim += int(np.sum(static_rim & changed & ~rim))
        from_outside += _source_outside(rim, buf.window, noise, sp, i, rim.shape)
    assert left_rim > 0
    assert (from_outside > 0) == (blur_radius > 0)


@pytest.mark.parametrize("blur_radius", [0.0, 3.0])
def test_whole_frame_infrared_trace_senses_over_the_empty_background(blur_radius):
    """A trace without a base, of the arm alone and of the whole scene, is
    sensed over the empty background (black pixels, no rim) with the bytes
    of the frozen shading and blur."""
    from handsynth.gesture import WarningCounters, builtin_scripts, evaluate_frame
    from handsynth.pipeline import _setup_recording
    from handsynth.scene import build_scene, dynamic_scene
    from handsynth.skeleton import pose_hand
    from handsynth.variation import VariantParams

    rig = default_rig()
    cam = preset_camera("top", "k", CameraKind.INFRARED, gesture_anchor(rig), resolution=(96, 72), fps=10)
    sp = replace(cam.sensor, blur_radius=blur_radius)
    noise = render.make_flipbook(sp, 5)
    empty = render._empty_background(cam)
    assert not empty.pixels.any() and all(len(a) == 0 for a in empty.rim)
    setup = _setup_recording(builtin_scripts()["swipe_right"], cam, VariantParams.neutral(), False, True)
    i = setup.timeline.total_frames // 2
    posed = pose_hand(setup.rig, *evaluate_frame(setup.timeline, i, WarningCounters()))
    for scene in (dynamic_scene(posed), build_scene(rig, posed)):
        buf = render.trace_depth(scene, cam)
        assert buf.window == (0, 96, 0, 72) and np.array_equal(buf.changed, buf.valid)
        want = _reference_infrared_pixels(_float_layers(buf, cam, sp), noise, sp, i)
        _assert_same_bytes(_strict(render.sensor_frame, buf, cam, sp, noise, i).pixels, want)


def _gathered_2d(buf, cam):
    """Per changed pixel of ``buf``, traced by ``cam``, in the row-major
    order of ``changed``: its flat index in the frame, tag and ray, gathered
    by (row, column) indices as the sensor gathered them before it took them
    by flat index."""
    u0, _, v0, _ = buf.window
    index = np.nonzero(buf.changed)
    flat = np.ravel_multi_index((index[0] + v0, index[1] + u0), cam.resolution[::-1])
    return flat, buf.tag[index], window_rays(buf, cam)[index]


@pytest.mark.parametrize("kind", [CameraKind.RGB, CameraKind.INFRARED])
@pytest.mark.parametrize("chunk", [7, 1 << 15])
def test_flat_gathers_match_2d_gathers_at_every_frame_border(monkeypatch, kind, chunk):
    """Spheres at each border and corner of the frame, traced on a plane
    base: every window touches a border, and the flat indices, tags and
    rays ``_won_normal_chunks`` takes by flat index are those the 2-D
    gather takes.  Each frame, sensed over the background, equals the
    whole scene traced and sensed without one."""
    monkeypatch.setattr(render, "RENDER_CHUNK_PIXELS", chunk)
    cam = _camera(rotation=(0.0, 0.0, 0.0), position=(0.0, 0.0, 0.0), resolution=(48, 36), fov=60.0)
    cam = replace(cam, kind=kind)
    w, h = cam.resolution
    sp = replace(cam.sensor, blur_radius=3.0)
    noise = render.make_flipbook(sp, 4)
    plane = (vec(0, 0, -100.0), vec(0.1, 0.2, 1.0) / np.linalg.norm([0.1, 0.2, 1.0]))
    base = render.trace_depth(scene_from_primitives(planes=[plane]), cam)
    background = render.sensor_backgrounds(base, cam, sp)[0]
    half_x = 80.0 * math.tan(math.radians(30.0))
    half_y = half_x * h / w
    touched = set()
    for x, y in [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)]:
        sphere = (vec(x * half_x, y * half_y, -80.0), vec(x * half_x, y * half_y, -80.0), 7.0)
        buf = render.trace_depth(scene_from_primitives(capsules=[sphere]), cam, base=base)
        u0, u1, v0, v1 = buf.window
        assert (u0, u1, v0, v1) != (0, w, 0, h) and buf.changed.any()
        sides = {"left": u0 == 0, "right": u1 == w, "top": v0 == 0, "bottom": v1 == h}
        touched |= {side for side, at in sides.items() if at}
        flat, tags, rays = _gathered_2d(buf, cam)
        for rows, got_tags, got_flat, got_rays, _ in render._won_normal_chunks(buf, cam):
            _assert_same_bytes(got_flat.astype(np.intp), flat[rows])
            _assert_same_bytes(got_tags, tags[rows])
            _assert_same_bytes(got_rays, rays[rows])
        full = render.trace_depth(scene_from_primitives(capsules=[sphere], planes=[plane]), cam)
        want = render.sensor_frame(full, cam, sp, noise, 9).pixels
        _assert_same_bytes(render.sensor_frame(buf, cam, sp, noise, 9, background=background).pixels, want)
    assert touched == {"left", "right", "top", "bottom"}


def _rotation_between(u, v):
    """The rotation matrix taking unit vector ``u`` to unit vector ``v``."""
    axis, c = np.cross(u, v), float(np.dot(u, v))
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + k + k @ k / (1.0 + c)


def _wedge_capsules(rng, cam):
    """Capsules in camera coordinates that reach every case of the wedge's
    bound, as (a, b, radius, case): random ones; ones whose cylinder passes
    just outside the eye, some with the axis pointing at it; ones whose axis
    lies within a small angle of the camera's x axis, so that the image
    lines of both tangent planes are near horizontal (m_x near 0); and ones
    clipped by each border and corner of the frame."""
    w, h = cam.resolution
    tan_half = math.tan(math.radians(cam.fov_deg) / 2.0)
    out = []
    for _ in range(60):
        a = rng.uniform(-40, 40, size=3) + vec(0, 0, -rng.uniform(40, 120))
        out.append((a, a + rng.uniform(-50, 50, size=3), float(rng.uniform(1.0, 12.0)), "random"))
    for gap in (1e-10, 1e-7, 1e-4, 1e-2, 0.3):
        for _ in range(4):
            radius = float(rng.uniform(1.0, 8.0))
            toward = vec(*rng.uniform(-0.3, 0.3, size=2), -1.0)
            toward /= np.linalg.norm(toward)  # the axis, from the eye outwards
            side = np.cross(toward, rng.normal(size=3))
            side /= np.linalg.norm(side)
            foot = radius * (1.0 + gap) * side  # the axis's point nearest the eye
            near, far = rng.uniform(10, 40), rng.uniform(60, 140)
            out.append((foot + near * toward, foot + far * toward, radius, "eye outside, axis at it"))
            slant = toward + rng.uniform(0.5, 2.0) * np.cross(side, toward)  # at 27 to 63 degrees to it
            slant /= np.linalg.norm(slant)
            out.append((foot + near * slant, foot + far * slant, radius, "eye outside"))
    for tilt in (0.0, 1e-12, 1e-10, 1e-9, 1e-7, 1e-4, 1e-2):
        for _ in range(3):
            centre = vec(rng.uniform(-20, 20), rng.uniform(-15, 15), -rng.uniform(30, 90))
            axis = vec(1.0, tilt * rng.normal(), tilt * rng.normal())
            half = rng.uniform(10, 60) * axis / np.linalg.norm(axis)
            out.append((centre - half, centre + half, float(rng.uniform(1.0, 10.0)), "near horizontal"))
    for sx, sy in [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)]:
        for _ in range(3):
            z = rng.uniform(40, 100)
            edge = vec(sx * z * tan_half, sy * z * tan_half * h / w, -z)  # on the border's plane
            a = edge + rng.uniform(-15, 15, size=3)
            out.append((a, a + rng.uniform(-40, 40, size=3), float(rng.uniform(2.0, 12.0)), "border"))
    return out


def _wedge_cameras():
    return [
        _camera(resolution=(160, 120)),
        _camera(rotation=(0.0, 0.0, 0.0), position=(0.0, 0.0, 0.0), resolution=(97, 73), fov=90.0),
        _camera(rotation=(-35.0, 60.0, -10.0), position=(-4.0, 7.0, 2.0), resolution=(128, 96), fov=45.0),
    ]


def test_wedge_spans_hold_every_hit(rng):
    """Every pixel that the rectangle trace of a capsule finds finite lies in
    the column spans of its tangent wedge, for random cameras and capsules
    and the cases of ``_wedge_capsules``.  The wedge gives no bound only
    where the eye is within 1e-9 of the cylinder, and it culls rays."""
    culled = rect_rays = 0
    for cam in _wedge_cameras():
        w, h = cam.resolution
        origin, dirs = camera_rays(cam)
        capsules = _wedge_capsules(rng, cam)
        scene = scene_from_primitives(
            capsules=[(cam.camera_to_world(a), cam.camera_to_world(b), r) for a, b, r, _ in capsules]
        )
        bounds = render._capsule_screen_bounds(cam, scene)
        cases = set()
        for i, (rect, (_, _, radius, case)) in enumerate(zip(bounds, capsules)):
            if rect is None or rect == (0, 0, 0, 0):
                continue
            a, b = scene.capsule_a[i], scene.capsule_b[i]
            spans = _strict(render._wedge_spans, cam, a, b, radius, rect)
            if spans is None:  # the eye is on or inside the cylinder
                ca, cb = capsules[i][:2]
                assert np.linalg.norm(np.cross(ca, cb - ca)) / np.linalg.norm(cb - ca) <= radius * (1 + 1e-6)
                continue
            u0, u1, v0, v1 = rect
            inside = np.zeros((h, w), dtype=bool)
            for v, lo, hi in zip(range(v0, v1), *spans):
                assert u0 <= lo and hi <= u1
                inside[v, lo:hi] = True
            hits = np.zeros((h, w), dtype=bool)
            hits[v0:v1, u0:u1] = np.isfinite(_intersect(origin, dirs[v0:v1, u0:u1], a, b, radius))
            assert not (hits & ~inside).any(), (case, rect)
            cases.add(case)
            culled += int((~inside[v0:v1, u0:u1]).sum())
            rect_rays += (u1 - u0) * (v1 - v0)
        assert cases == {"random", "eye outside, axis at it", "eye outside", "near horizontal", "border"}
    assert culled > rect_rays // 4


@pytest.mark.parametrize("kind", [CameraKind.DEPTH, CameraKind.RGB, CameraKind.INFRARED])
def test_culled_traces_match_the_frozen_rectangle_trace(monkeypatch, rng, kind):
    """With every capsule culled to its wedge, traces of the capsules of
    ``_wedge_capsules`` give the frozen trace's bytes, without a base and
    on a plane's base, at RENDER_CHUNK_PIXELS of 7 as well (gathered blocks
    of 7 rays, none of one)."""
    monkeypatch.setattr(render, "_WEDGE_MIN_RAYS", 0)
    wedge_spans, taken = render._wedge_spans, []
    monkeypatch.setattr(render, "_wedge_spans", lambda *args: taken.append(wedge_spans(*args)) or taken[-1])
    plane = (vec(0, 0, -150.0), vec(0.1, 0.2, 1.0) / np.linalg.norm([0.1, 0.2, 1.0]))
    for cam in _wedge_cameras():
        cam = replace(cam, kind=kind)
        capsules = [(cam.camera_to_world(a), cam.camera_to_world(b), r) for a, b, r, _ in _wedge_capsules(rng, cam)]
        base = render.trace_depth(scene_from_primitives(planes=[plane]), cam)
        for group in range(0, len(capsules), 12):
            scene = scene_from_primitives(capsules=capsules[group : group + 12])
            _check_trace(scene, cam)
            _check_trace(scene, cam, base)
        with monkeypatch.context() as patch:
            patch.setattr(render, "RENDER_CHUNK_PIXELS", 7)
            _check_trace(scene_from_primitives(capsules=capsules[:12], planes=[plane]), cam)
    assert sum(spans is not None for spans in taken) > 100


def test_one_ray_of_a_larger_rectangle_takes_the_rectangle(monkeypatch, rng):
    """Wedge spans that hold a single ray of a capsule's larger rectangle
    are not traced as a one-ray set, alone or in a batch: the rectangle's
    blocks are, and the trace is the frozen one's."""
    monkeypatch.setattr(render, "_WEDGE_MIN_RAYS", 0)

    def one_ray(cam, a, b, radius, rect):
        u0, u1, v0, v1 = rect
        lo = np.full(v1 - v0, u0)
        hi = lo.copy()
        hi[(v1 - v0) // 2] += 1
        return lo, hi

    monkeypatch.setattr(render, "_wedge_spans", one_ray)
    counts = []  # the rays of each capsule in each kernel call
    intersect = render._intersect_capsules
    monkeypatch.setattr(render, "_intersect_capsules", lambda rows, *c: counts.extend(c[-1]) or intersect(rows, *c))
    cam = _camera(resolution=(160, 120))
    capsules = [(cam.camera_to_world(a), cam.camera_to_world(b), r) for a, b, r, _ in _wedge_capsules(rng, cam)[:12]]
    scene = scene_from_primitives(capsules=capsules)
    buf = _check_trace(scene, cam)
    rects = [rect or (0, 160, 0, 120) for rect in render._capsule_screen_bounds(cam, scene) if rect != (0, 0, 0, 0)]
    assert buf.changed.any()
    assert sorted(counts) == sorted((u1 - u0) * (v1 - v0) for u0, u1, v0, v1 in rects)  # the rectangles, none gathered


@pytest.mark.parametrize("preset, kind", [("top", CameraKind.RGB), ("wheel", CameraKind.INFRARED), ("infotainment", CameraKind.DEPTH)])
def test_arm_frames_match_the_frozen_trace(preset, kind):
    """Arm frames of a recording at 640x480, where the wedge culls the
    large capsules, and the static base give the frozen trace's bytes for
    each camera kind, and RGB and infrared the frozen normals."""
    from handsynth.gesture import WarningCounters, builtin_scripts, evaluate_frame
    from handsynth.pipeline import _setup_recording
    from handsynth.scene import dynamic_scene
    from handsynth.skeleton import pose_hand
    from handsynth.variation import VariantParams

    rig = default_rig()
    cam = preset_camera(preset, "k", kind, gesture_anchor(rig), resolution=(640, 480), fps=5)
    base = _check_trace(static_scene(rig), cam)
    setup = _setup_recording(builtin_scripts()["swipe_right"], cam, VariantParams.neutral(), False, True)
    wedge_spans, taken = render._wedge_spans, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_wedge_spans", lambda *args: taken.append(wedge_spans(*args)) or taken[-1])
        for i in range(0, setup.timeline.total_frames, 3):
            posed = pose_hand(setup.rig, *evaluate_frame(setup.timeline, i, WarningCounters()))
            _check_trace(dynamic_scene(posed), cam, base)
    assert any(spans is not None for spans in taken)
