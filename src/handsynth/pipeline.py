"""Generation pipeline: the cameras x gestures x variants loop.

Each recording is fully determined by (config, master seed, gesture,
variant index, camera id): the derived seed fixes the sampled variation
parameters and the sensor noise, so reruns and worker parallelism cannot
change a single byte of output.  Each job carries the parsed recipe,
gesture scripts included, so no job reads the config or a script file.
The static part of the scene (body, cabin) is traced once per camera and
reused as the base buffer for every frame; only the gesturing arm is
retraced per frame, inside its dirty window (``render.trace_depth``).  Each
frame's window is written into what the sensor makes of the static base at
the frame's flipbook tile (``render.sensor_backgrounds``): depth frames are
sensed over the window, RGB and infrared frames shade only the pixels the
arm wins.  The static base is traced once per camera and process, on first
use, and kept in ``_STATIC_BUFFER_CACHE`` (``_Static``).  Its RGB frame, or
its infrared 8-bit frame before the blur with the coordinates of its rim
pixels (``render.InfraredLayers``), is kept beside it, as it reads no
sampled parameter of a recording.  Depth frames of the base change with
the recording's sensor and noise, so each recording makes its own, one per
flipbook tile, in ``_setup_recording``.

A recording is rendered one frame at a time (``_frames``), and generation
writes each frame before the next is rendered, so a worker holds one frame
of a recording, not the whole of it.  The ablation (``render_trajectory_set``)
feeds the same stream to ``extract_trajectory`` and stops after the label
span's last frame.  ``render_recording`` collects the stream into a list for
callers that index frames or read them twice: the tests, and
``gesturebench``'s tracer, which wraps it.

With ``jobs`` above one, the recordings run on a ``ProcessPoolExecutor`` of
forked workers that ignore SIGINT.  A failure or an interrupt kills no
worker, and a worker that dies, say to the OOM killer, raises
``BrokenProcessPool`` rather than hanging the run (``generate_dataset``).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import os
import shutil
import signal
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace

from . import gesture, render
from .config import ConfigError, ParsedConfig, VariationConfig, config_digest
from .evalkit import Trajectory, extract_trajectory
from .gesture import (
    GestureScript,
    Timeline,
    WarningCounters,
    builtin_scripts,
    evaluate_frame,
    plan_timeline,
)
from .output import (
    DataError,
    DatasetManifest,
    MANIFEST_NAME,
    RecordingEntry,
    frame_file_bytes,
    frame_path,
    recording_dir,
    write_frame,
    write_manifest,
)
from .render import FRAME_KIND, DepthBuffer, FlipbookNoise, Frame, make_flipbook, sensor_frame, trace_depth
from .scene import (
    CameraKind,
    CameraSpec,
    SensorParams,
    dynamic_scene,
    gesture_anchor,
    preset_camera,
    rest_position,
    static_scene,
)
from .skeleton import ArmRig, default_rig, pose_hand, target_clamped
from .variation import VariantParams, derive_seed, sample_variant

_STATIC_BUFFER_CACHE: dict = {}  # (camera, left hand) -> _Static


@dataclass(frozen=True)
class _Static:
    """What every recording of one camera shares: the static base buffer,
    its depth, tag and changed mask, and for RGB and infrared what the
    sensor makes of it at each flipbook tile (``render.sensor_backgrounds``,
    one object repeated), which reads only sensor parameters that
    ``SensorParams.with_variant`` leaves alone."""

    base: DepthBuffer
    backgrounds: tuple | None  # RGB frames or render.InfraredLayers; None for depth


def _static(cam: CameraSpec, is_left: bool) -> _Static:
    key = (cam, is_left)
    static = _STATIC_BUFFER_CACHE.get(key)
    if static is None:
        base = trace_depth(static_scene(default_rig(is_left=is_left)), cam)
        backgrounds = None if cam.kind == CameraKind.DEPTH else render.sensor_backgrounds(base, cam, cam.sensor)
        static = _Static(base=replace(base, won_at=None, won_by=None, t_won=None), backgrounds=backgrounds)
        _STATIC_BUFFER_CACHE[key] = static
    return static


@dataclass(frozen=True)
class RenderedRecording:
    """A whole recording in memory, as ``render_recording`` returns it.
    Generation never builds one: it writes each frame as it is rendered.
    Tests use it to index and compare frames, and ``gesturebench``'s tracer
    wraps ``render_recording``."""

    frames: list[Frame]
    timeline: Timeline
    sensor: SensorParams
    warnings: WarningCounters


@dataclass(frozen=True)
class _RecordingSetup:
    """What every frame of one recording shares.  ``backgrounds`` holds what
    the sensor makes of the static base, the part of each frame the arm does
    not change, per flipbook tile (``render.sensor_backgrounds``)."""

    rig: ArmRig
    timeline: Timeline
    sensor: SensorParams
    noise: FlipbookNoise
    noise_enabled: bool
    static: _Static
    backgrounds: tuple


Job = tuple[CameraSpec, str, int]  # one recording: (camera, gesture name, variant index)


def _variant(
    master_seed: int, variation: VariationConfig, cam: CameraSpec, gesture_name: str, variant_index: int
) -> VariantParams:
    """One recording's sampled parameters, seeded by (master seed, gesture,
    variant, camera), under the variation's range conditions."""
    seed = derive_seed(master_seed, gesture_name, variant_index, cam.camera_id)
    return sample_variant(variation, variation.condition_overrides, seed, variant_index)


def _rig(script: GestureScript, default_left_hand: bool) -> ArmRig:
    is_left = script.use_left_hand if script.use_left_hand is not None else default_left_hand
    return default_rig(is_left=is_left)


def _setup_recording(
    script: GestureScript, cam: CameraSpec, variant: VariantParams, default_left_hand: bool, noise_enabled: bool
) -> _RecordingSetup:
    rig = _rig(script, default_left_hand)
    timeline = plan_timeline(script, rest_position(rig), gesture_anchor(rig), cam.fps, variant)
    sensor = cam.sensor.with_variant(variant.chromaticity_coeff, variant.depth_min, variant.depth_max)
    noise = make_flipbook(sensor, variant.seed)
    static = _static(cam, rig.is_left)
    backgrounds = static.backgrounds
    if cam.kind == CameraKind.DEPTH:
        backgrounds = render.sensor_backgrounds(static.base, cam, sensor, noise if noise_enabled else None)
    return _RecordingSetup(
        rig=rig,
        timeline=timeline,
        sensor=sensor,
        noise=noise,
        noise_enabled=noise_enabled,
        static=static,
        backgrounds=backgrounds,
    )


def _render_frame(setup: _RecordingSetup, cam: CameraSpec, frame_index: int, counters: WarningCounters) -> Frame:
    """One frame of a recording; depends on the frame index only."""
    wrist_target, aim_dir, pose = evaluate_frame(setup.timeline, frame_index, counters)
    if target_clamped(setup.rig, wrist_target):
        counters.ik_clamps += 1
    posed = pose_hand(setup.rig, wrist_target, aim_dir, pose)
    buf = trace_depth(dynamic_scene(posed), cam, base=setup.static.base)
    background = setup.backgrounds[setup.noise.tile_index(frame_index)]
    return sensor_frame(
        buf, cam, setup.sensor, setup.noise, frame_index, noise_enabled=setup.noise_enabled, background=background
    )


def _frames(setup: _RecordingSetup, cam: CameraSpec, counters: WarningCounters) -> Iterator[Frame]:
    """The frames of one recording in order, each rendered when it is asked
    for; ``counters`` gathers the warnings of the frames rendered so far."""
    for frame_index in range(setup.timeline.total_frames):
        yield _render_frame(setup, cam, frame_index, counters)


def render_recording(
    script: GestureScript,
    cam: CameraSpec,
    variant: VariantParams,
    default_left_hand: bool = False,
    noise_enabled: bool = True,
) -> RenderedRecording:
    """All frames of one recording, deterministic in (script, cam, variant)."""
    setup = _setup_recording(script, cam, variant, default_left_hand, noise_enabled)
    counters = WarningCounters()
    frames = list(_frames(setup, cam, counters))
    return RenderedRecording(frames=frames, timeline=setup.timeline, sensor=setup.sensor, warnings=counters)


def _record_one(parsed: ParsedConfig, out_dir: str, job: Job) -> RecordingEntry:
    """Render one recording, writing each frame under ``out_dir`` before the
    next is rendered, and return its manifest entry.  An error it lets
    through gets a note naming the recording and the frame, if one began."""
    cam, gesture_name, variant_index = job
    rel_dir = recording_dir(cam.camera_id, gesture_name, variant_index)
    where = f"recording {rel_dir}"
    try:
        variant = _variant(parsed.settings.master_seed, parsed.variation, *job)
        setup = _setup_recording(parsed.scripts[gesture_name], cam, variant, parsed.settings.default_left_hand, True)
        counters = WarningCounters()
        for frame_index in range(setup.timeline.total_frames):
            where = f"recording {rel_dir}, frame {frame_index}"
            frame = _render_frame(setup, cam, frame_index, counters)
            write_frame(frame, os.path.join(out_dir, frame_path(rel_dir, frame_index, frame.kind)))
    except Exception as exc:
        exc.add_note(where)
        raise
    return RecordingEntry(
        gesture_label=gesture_name,
        variant_index=variant_index,
        camera_id=cam.camera_id,
        kind=cam.kind,
        frame_dir=rel_dir,
        frame_count=setup.timeline.total_frames,
        fps=cam.fps,
        resolution=cam.resolution,
        label_span=setup.timeline.label_span,
        variant_params=variant,
        seed=variant.seed,
        warnings=counters.as_dict(),
    )


def _frame_count(parsed: ParsedConfig, job: Job) -> int:
    """Frames of the recording _record_one renders for ``job``.  Planned by
    ``gesture.plan_timeline``: gesturebench times this module's global of
    that name as each recording's own planning step."""
    cam, gesture_name, _ = job
    script = parsed.scripts[gesture_name]
    rig = _rig(script, parsed.settings.default_left_hand)
    variant = _variant(parsed.settings.master_seed, parsed.variation, *job)
    return gesture.plan_timeline(script, rest_position(rig), gesture_anchor(rig), cam.fps, variant).total_frames


def _check_disk_space(parsed: ParsedConfig, jobs: list[Job], out_dir: str) -> None:
    """Raise OSError when the frame files cannot fit in ``out_dir``'s free
    space.  Counting only each file's header and pixels gives a lower bound
    on what the dataset takes, so the check never stops a run that fits."""
    needed = sum(
        _frame_count(parsed, job) * frame_file_bytes(FRAME_KIND[job[0].kind], job[0].resolution)
        for job in jobs
    )
    free = shutil.disk_usage(out_dir).free
    if free < needed:
        raise OSError(
            f"{out_dir}: not enough free disk space: the frames need at least "
            f"{needed / 1e6:.1f} MB, {free / 1e6:.1f} MB are free"
        )


def detect_partial_output(out_dir: str, parsed: ParsedConfig) -> bool:
    """True when the output directory already holds generated content."""
    if os.path.isfile(os.path.join(out_dir, MANIFEST_NAME)):
        return True
    for cam in parsed.cameras:
        if os.path.isdir(os.path.join(out_dir, cam.camera_id)):
            return True
    return False


def clear_output(out_dir: str, parsed: ParsedConfig) -> None:
    """Remove previously generated artifacts (manifest + camera trees)."""
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.isfile(manifest):
        os.remove(manifest)
    for cam in parsed.cameras:
        cam_dir = os.path.join(out_dir, cam.camera_id)
        if os.path.isdir(cam_dir):
            shutil.rmtree(cam_dir)


def generate_dataset(
    parsed: ParsedConfig,
    jobs: int = 1,
    force: bool = False,
    progress=None,
) -> tuple[DatasetManifest, dict]:
    """Run the full cameras x gestures x variants loop and write the dataset.

    Returns (manifest, summary).  Output bytes are independent of ``jobs``;
    at most one worker process runs per recording.  Raises OSError before
    the first frame is written when the frames cannot fit on the disk.  When
    a recording fails or the run is interrupted, the recordings already
    handed to the workers (one running per worker, and up to one per
    worker plus one more queued) finish, the rest are dropped, and the error is raised once every worker
    has exited.  A worker that dies raises ``BrokenProcessPool``, with a
    note naming the recordings written and those in flight (``_pooled``).
    """
    t0 = time.monotonic()
    out_dir = parsed.settings.output_path
    if detect_partial_output(out_dir, parsed):
        if not force:
            raise FileExistsError(
                f"output directory {out_dir!r} already contains generated data; "
                "pass --force to replace it (partial datasets are never extended)"
            )
        clear_output(out_dir, parsed)
    os.makedirs(out_dir, exist_ok=True)

    jobs_list: list[Job] = [
        (cam, g, v)
        for cam in parsed.cameras
        for g in parsed.settings.gesture_names
        for v in range(parsed.settings.recordings_per_gesture)
    ]
    _check_disk_space(parsed, jobs_list, out_dir)

    record = functools.partial(_record_one, parsed, out_dir)
    workers = min(jobs, len(jobs_list))
    entries: list[RecordingEntry] = []
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            done = map(record, jobs_list)
        else:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=functools.partial(signal.signal, signal.SIGINT, signal.SIG_IGN),
            )
            stack.callback(pool.shutdown, cancel_futures=True)
            done = _pooled(pool, record, jobs_list, workers)
        for entry in done:
            entries.append(entry)
            if progress:
                progress(len(entries), len(jobs_list))

    manifest = DatasetManifest(
        config_digest=config_digest(parsed), entries=tuple(entries), cameras=parsed.cameras
    )
    write_manifest(manifest, os.path.join(out_dir, MANIFEST_NAME))

    total_frames = sum(e.frame_count for e in entries)
    warnings = {"ik_clamps": 0, "arc_clamps": 0}
    for e in entries:
        for key, value in e.warnings.items():
            warnings[key] = warnings.get(key, 0) + value
    summary = {
        "recordings": len(entries),
        "frames": total_frames,
        "warnings": warnings,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "output_path": out_dir,
        "manifest": os.path.join(out_dir, MANIFEST_NAME),
    }
    return manifest, summary


def _pooled(pool, record, jobs_list: list[Job], workers: int):
    """``record`` of each job, run on ``pool``, in job order.

    When a worker dies, the ``BrokenProcessPool`` raised gets a note: how
    many recordings were written, and the first ``workers`` recordings in
    job order that were not, one of which the dead worker held.  The pool
    hands jobs out in order, so every job handed out before the dead
    worker's either finished or runs on one of the other workers: at most
    ``workers - 1`` unfinished jobs come before it."""
    from concurrent.futures.process import BrokenProcessPool

    futures = [pool.submit(record, job) for job in jobs_list]
    try:
        for future in futures:
            yield future.result()
    except BrokenProcessPool as exc:
        written = [f.done() and not f.cancelled() and f.exception() is None for f in futures]
        in_flight = [recording_dir(cam.camera_id, g, v) for (cam, g, v), ok in zip(jobs_list, written) if not ok]
        exc.add_note(
            f"{sum(written)} of {len(jobs_list)} recordings written; in flight when a worker died, "
            f"one of them in that worker: {', '.join(in_flight[:workers])}"
        )
        raise


def preview_frame(
    parsed: ParsedConfig, gesture_name: str, frame_index: int, camera_id: str, out_path: str
) -> Frame:
    """Render exactly one frame of variant 0 and write it as PGM/PPM.  An
    unknown gesture or camera, or a frame outside the recording, is a
    ConfigError."""
    if gesture_name not in parsed.scripts:
        raise ConfigError(f"unknown gesture {gesture_name!r}")
    cam = next((c for c in parsed.cameras if c.camera_id == camera_id), None)
    if cam is None:
        raise ConfigError(f"unknown camera {camera_id!r}")
    variant = _variant(parsed.settings.master_seed, parsed.variation, cam, gesture_name, 0)
    setup = _setup_recording(parsed.scripts[gesture_name], cam, variant, parsed.settings.default_left_hand, True)
    total = setup.timeline.total_frames
    if not (0 <= frame_index < total):
        raise ConfigError(f"frame {frame_index} outside 0..{total - 1} for {gesture_name!r}")
    frame = _render_frame(setup, cam, frame_index, WarningCounters())
    write_frame(frame, out_path)
    return frame


def render_trajectory_set(
    gesture_name: str,
    variation: VariationConfig,
    n_variants: int,
    master_seed: int = 0,
    resolution: tuple[int, int] = (320, 240),
    fps: float = 30.0,
    noise_enabled: bool = True,
) -> list[Trajectory]:
    """Render n variants of one built-in gesture in memory, under the
    variation's ranges and range conditions, and extract trajectories, seen
    by the infotainment depth camera.  Of each recording, frame 0 (the
    background) and the label span reach ``extract_trajectory`` as they
    are rendered, and no frame after the span is rendered."""
    registry = builtin_scripts()
    if gesture_name not in registry:
        raise ValueError(f"unknown gesture {gesture_name!r}")
    script = registry[gesture_name]
    camera = preset_camera(
        "infotainment",
        camera_id="eval-depth",
        kind=CameraKind.DEPTH,
        anchor=gesture_anchor(default_rig()),
        resolution=resolution,
        fps=fps,
    )
    trajectories = []
    for v in range(n_variants):
        variant = _variant(master_seed, variation, camera, gesture_name, v)
        setup = _setup_recording(script, camera, variant, False, noise_enabled)
        first, last = setup.timeline.label_span
        frames = (f.pixels for f in _frames(setup, camera, WarningCounters()))
        background = next(frames)
        span = itertools.islice(frames, max(first - 1, 0), last)  # frames max(first, 1)..last
        if first == 0:
            span = itertools.chain((background,), span)
        trajectories.append(extract_trajectory(background, span, camera, setup.sensor))
    return trajectories


def _check_frame_size(path: str, size: int) -> None:
    """Raise unless ``path`` is a file of ``size`` bytes: OSError when it
    cannot be found, DataError when its size differs."""
    try:
        actual = os.stat(path).st_size
    except OSError as exc:
        raise OSError(f"checking frame {path}: {exc}") from exc
    if actual != size:
        raise DataError(f"{path}: unreadable frame: {actual} bytes where write_frame writes {size}")


def trajectories_from_manifest(manifest: DatasetManifest, root_dir: str) -> list:
    """(TrajectoryRecord list) for every depth recording in a written dataset.

    Of each depth recording, frame 0 (the background) and the frames of
    the label span are read and parsed, through ``output.read_frame``.
    Every other frame the manifest lists is only checked, with one
    ``os.stat``, to exist at the size ``write_frame`` gives it.  A missing
    frame raises OSError and a frame of the wrong size, or one that does
    not parse, DataError; both name the file.  The span's frames reach
    ``extract_trajectory`` one at a time, so no recording is held whole.
    """
    from .evalkit import TrajectoryRecord
    from .output import read_frame

    records = []
    for entry in manifest.entries:
        if entry.kind != CameraKind.DEPTH:
            continue
        cam = manifest.camera(entry.camera_id)
        recording = os.path.join(root_dir, entry.frame_dir)
        first, last = entry.label_span
        paths = [frame_path(recording, i, "depth16") for i in range(entry.frame_count)]
        size = frame_file_bytes("depth16", entry.resolution)
        for path in paths[1:first] + paths[last + 1 :]:
            _check_frame_size(path, size)
        try:
            sensor = cam.sensor.with_variant(
                entry.variant_params.chromaticity_coeff,
                entry.variant_params.depth_min,
                entry.variant_params.depth_max,
            )
            background = read_frame(paths[0])
            span = (read_frame(path) for path in paths[first : last + 1])
            trajectory = extract_trajectory(background, span, cam, sensor)
        except DataError:
            raise  # a frame that does not parse, already named
        except ValueError as exc:
            raise DataError(f"recording {recording}: {exc}") from None
        records.append(
            TrajectoryRecord(
                trajectory=trajectory,
                label=entry.gesture_label,
                variant_index=entry.variant_index,
                frame_dir=entry.frame_dir,
            )
        )
    return records
