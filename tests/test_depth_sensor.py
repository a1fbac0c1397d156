"""The fused depth sensor gives the bytes of the chain it replaced.

The ``_reference_*`` functions below are frozen copies of the depth sensor
as it was before it was fused into one pass per window: ``noise_intensity``
(edge padding by ``np.pad``), ``apply_depth_noise`` (a copy of the buffer
and its tags), ``encode_depth16``, ``_patch`` (the window written into a
copy of the background, less its inner ring) and the depth branch of
``sensor_backgrounds``, over ``FlipbookNoise.field`` as an ``np.ix_``
gather.  The tests compare them bit for bit with ``sensor_frame``,
``sensor_backgrounds`` and the public helpers on random windows: whole
frames, windows 1 px wide or tall, windows touching each frame border,
windows with invalid pixels (single ones, whole rows and columns, and none
valid at all), noise on and off, random sensor parameters, and a dropout
threshold equal to the noise product of some pixels.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from handsynth import render
from handsynth.render import DEPTH_CODE_MAX, INVALID_DEPTH_CODE, DepthBuffer, make_flipbook
from handsynth.scene import TAG_NONE, CameraKind, CameraSpec, SensorParams

_W, _H = 40, 30


def _reference_field(noise, frame_index, h, w, top=0, left=0):
    tile = noise.tiles[noise.tile_index(frame_index)]
    us = np.arange(left, left + w) % noise.tile_px
    vs = np.arange(top, top + h) % noise.tile_px
    return tile[np.ix_(vs, us)]


def _reference_depth_to_chromaticity(depth, sp):
    g = sp.chromaticity_coeff * (depth - sp.depth_min) / (sp.depth_max - sp.depth_min)
    return np.clip(g, 0.0, 1.0)


def _reference_encode_depth16(buf, sp):
    valid = buf.valid
    g = _reference_depth_to_chromaticity(np.where(valid, buf.depth, sp.depth_min), sp)
    codes = 1 + np.rint(g * (DEPTH_CODE_MAX - 1)).astype(np.uint16)
    return np.where(valid, codes, INVALID_DEPTH_CODE).astype(np.uint16)


def _reference_noise_intensity(buf, sp):
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


def _reference_apply_depth_noise(buf, noise, sp, frame_index, intensity=None):
    h, w = buf.depth.shape
    u0, _, v0, _ = buf.window
    n = _reference_field(noise, frame_index, h, w, top=v0, left=u0)
    if intensity is None:
        intensity = _reference_noise_intensity(buf, sp)
    valid = buf.valid
    drop = valid & (intensity * n > sp.dropout_threshold)
    jitter = sp.depth_jitter * intensity * (2.0 * n - 1.0)
    depth = np.where(valid, buf.depth + jitter, np.inf)
    depth[drop] = np.inf
    tag = buf.tag.copy()
    tag[drop] = TAG_NONE
    return replace(buf, depth=depth, tag=tag)


def _reference_patch(background, pixels, window, trim):
    u0, u1, v0, v1 = window
    h, w = background.shape[:2]
    top, bottom = (trim if v0 > 0 else 0), (trim if v1 < h else 0)
    left, right = (trim if u0 > 0 else 0), (trim if u1 < w else 0)
    out = background.copy()
    out[v0 + top : v1 - bottom, u0 + left : u1 - right] = pixels[
        top : pixels.shape[0] - bottom, left : pixels.shape[1] - right
    ]
    return out


def _reference_sensor_frame(buf, sp, noise, frame_index, noise_enabled, background):
    if not buf.depth.size:
        return background.copy()
    if noise_enabled:
        buf = _reference_apply_depth_noise(buf, noise, sp, frame_index)
    return _reference_patch(background, _reference_encode_depth16(buf, sp), buf.window, render._NOISE_REACH)


def _reference_sensor_backgrounds(base, sp, noise):
    tiles = sp.flipbook_tile_count
    if noise is None:
        return (_reference_encode_depth16(base, sp),) * tiles
    intensity = _reference_noise_intensity(base, sp)
    return tuple(
        _reference_encode_depth16(
            _reference_apply_depth_noise(base, noise, sp, t * noise.frames_per_tile, intensity), sp
        )
        for t in range(tiles)
    )


def _strict(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args, **kwargs)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _cam():
    return CameraSpec(
        camera_id="d",
        kind=CameraKind.DEPTH,
        position=(0.0, 0.0, 0.0),
        rotation=(0.0, 0.0, 0.0),
        fov_deg=60.0,
        resolution=(_W, _H),
    )


def _windows(rng):
    """(u0, u1, v0, v1): the whole frame, 1 px wide, tall and both, each
    border touched alone and with the others, and random ones."""
    windows = [
        (0, _W, 0, _H),
        (7, 8, 3, 25),
        (0, 1, 0, _H),
        (_W - 1, _W, 4, 9),
        (5, 33, 11, 12),
        (0, _W, _H - 1, _H),
        (17, 18, 0, 1),
        (0, 1, 0, 1),
        (_W - 1, _W, _H - 1, _H),
        (5, 20, 6, 21),
        (0, 12, 4, 20),
        (9, _W, 4, 20),
        (6, 30, 0, 10),
        (6, 30, 14, _H),
        (0, 12, 0, 10),
        (25, _W, 18, _H),
        (1, 2, 1, 3),
        (1, _W - 1, 1, _H - 1),
    ]
    for _ in range(30):
        u0, u1 = sorted(rng.choice(_W + 1, 2, replace=False).tolist())
        v0, v1 = sorted(rng.choice(_H + 1, 2, replace=False).tolist())
        windows.append((u0, u1, v0, v1))
    return windows


def _depths(rng, shape, sp, pattern):
    """Depths over the sensor range and past both ends, inf (no hit) at
    random pixels, along whole rows and columns, or everywhere; some
    neighbours equal, so that gradients are exactly 0."""
    h, w = shape
    span = sp.depth_max - sp.depth_min
    depth = rng.uniform(sp.depth_min - 0.2 * span, sp.depth_max + 0.2 * span, shape)
    depth[rng.random(shape) < 0.3] = sp.depth_min + 0.5 * span
    if pattern == "holes":
        depth[rng.random(shape) < 0.2] = np.inf
    elif pattern == "lines":
        depth[rng.integers(h)] = np.inf
        depth[:, rng.integers(w)] = np.inf
    elif pattern == "none_valid":
        depth[:] = np.inf
    return depth


def _buffer(depth, window, rng):
    tag = rng.integers(0, 3, depth.shape).astype(np.uint8)
    tag[~np.isfinite(depth)] = TAG_NONE
    return DepthBuffer(
        depth=depth,
        tag=tag,
        changed=rng.random(depth.shape) < 0.5,
        window=window,
        scene=None,
        won_at=None,
        won_by=None,
        t_won=None,
    )


_SENSORS = {
    "default": SensorParams(),
    "random": SensorParams(
        chromaticity_coeff=0.83,
        depth_min=31.5,
        depth_max=118.25,
        noise_dist_weight=0.61,
        noise_edge_weight=0.37,
        edge_scale=2.7,
        dropout_threshold=0.41,
        depth_jitter=1.9,
        flipbook_tile_px=16,
        flipbook_tile_count=3,
        flipbook_frames_per_tile=2,
    ),
}


@pytest.mark.parametrize("pattern", ["all_valid", "holes", "lines", "none_valid"])
@pytest.mark.parametrize("sensor", list(_SENSORS))
def test_windows_sense_as_the_frozen_chain(rng, sensor, pattern):
    """``sensor_frame`` on a windowed depth buffer, noise on and off, and
    the public helpers on the same buffer, against the frozen chain."""
    sp = _SENSORS[sensor]
    cam = _cam()
    noise = make_flipbook(sp, 17)
    for window in _windows(rng):
        u0, u1, v0, v1 = window
        buf = _buffer(_depths(rng, (v1 - v0, u1 - u0), sp, pattern), window, rng)
        background = rng.integers(0, DEPTH_CODE_MAX + 1, (_H, _W)).astype(np.uint16)
        frame_index = int(rng.integers(0, 3 * noise.period))
        for noise_enabled in (True, False):
            got = _strict(render.sensor_frame, buf, cam, sp, noise, frame_index, noise_enabled, background)
            want = _reference_sensor_frame(buf, sp, noise, frame_index, noise_enabled, background)
            _assert_same_bytes(got.pixels, want)
        _assert_same_bytes(_strict(render.noise_intensity, buf, sp), _reference_noise_intensity(buf, sp))
        _assert_same_bytes(_strict(render.encode_depth16, buf, sp), _reference_encode_depth16(buf, sp))
        noisy = _strict(render.apply_depth_noise, buf, noise, sp, frame_index)
        frozen = _reference_apply_depth_noise(buf, noise, sp, frame_index)
        _assert_same_bytes(noisy.depth, frozen.depth)
        _assert_same_bytes(noisy.tag, frozen.tag)


def test_buffers_of_any_memory_layout(rng):
    """A window whose depth is a Fortran-ordered array or a strided view
    senses as its C-ordered copy does."""
    sp, cam, noise = SensorParams(), _cam(), make_flipbook(SensorParams(), 4)
    window = (3, 30, 2, 25)
    depth = _depths(rng, (23, 27), sp, "holes")
    background = rng.integers(0, DEPTH_CODE_MAX + 1, (_H, _W)).astype(np.uint16)
    for layout in (np.asfortranarray(depth), np.repeat(np.repeat(depth, 2, 0), 2, 1)[::2, ::2]):
        assert not layout.flags.c_contiguous and np.array_equal(layout, depth)
        buf = _buffer(layout, window, rng)
        got = _strict(render.sensor_frame, buf, cam, sp, noise, 6, True, background)
        _assert_same_bytes(got.pixels, _reference_sensor_frame(buf, sp, noise, 6, True, background))
        _assert_same_bytes(_strict(render.noise_intensity, buf, sp), _reference_noise_intensity(buf, sp))


def test_dropout_threshold_met_exactly(rng):
    """Pixels whose noise product ``intensity * n`` equals the dropout
    threshold survive, as ``>`` keeps them, in the fused sensor too: the
    threshold is set to the product of some pixels of each window."""
    cam = _cam()
    exact = 0
    for window in _windows(rng):
        u0, u1, v0, v1 = window
        sp = SensorParams()
        buf = _buffer(_depths(rng, (v1 - v0, u1 - u0), sp, "holes"), window, rng)
        noise = make_flipbook(sp, int(rng.integers(1 << 30)))
        frame_index = int(rng.integers(0, noise.period))
        n = _reference_field(noise, frame_index, v1 - v0, u1 - u0, top=v0, left=u0)
        products = (_reference_noise_intensity(buf, sp) * n)[buf.valid]
        products = products[(products > 0.0) & (products <= 1.0)]
        if not len(products):
            continue
        sp = replace(sp, dropout_threshold=float(products[rng.integers(len(products))]))
        exact += int(np.count_nonzero(products == sp.dropout_threshold))
        background = rng.integers(0, DEPTH_CODE_MAX + 1, (_H, _W)).astype(np.uint16)
        got = _strict(render.sensor_frame, buf, cam, sp, noise, frame_index, True, background)
        _assert_same_bytes(got.pixels, _reference_sensor_frame(buf, sp, noise, frame_index, True, background))
    assert exact > 20


@pytest.mark.parametrize("pattern", ["all_valid", "holes", "lines", "none_valid"])
@pytest.mark.parametrize("sensor", list(_SENSORS))
def test_backgrounds_sense_as_the_frozen_chain(rng, sensor, pattern):
    """``sensor_backgrounds`` of a whole-frame base, every tile, noise on
    and off, against the frozen per-tile chain."""
    sp = _SENSORS[sensor]
    cam = _cam()
    base = _buffer(_depths(rng, (_H, _W), sp, pattern), (0, _W, 0, _H), rng)
    for noise in (make_flipbook(sp, 5), None):
        got = _strict(render.sensor_backgrounds, base, cam, sp, noise)
        want = _reference_sensor_backgrounds(base, sp, noise)
        assert len(got) == len(want) == sp.flipbook_tile_count
        for g, w in zip(got, want):
            _assert_same_bytes(g, w)


def test_noise_field_is_the_frozen_gather(rng):
    """Windows anywhere on and past a tile, at every tile of a period."""
    sp = _SENSORS["random"]
    noise = make_flipbook(sp, 9)
    for frame_index in range(noise.period + 1):
        for _ in range(10):
            h, w = (int(x) for x in rng.integers(1, 70, 2))
            top, left = (int(x) for x in rng.integers(-40, 200, 2))
            _assert_same_bytes(
                noise.field(frame_index, h, w, top=top, left=left),
                _reference_field(noise, frame_index, h, w, top=top, left=left),
            )
