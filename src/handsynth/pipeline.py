"""Generation pipeline: the cameras x gestures x variants loop.

Each recording is fully determined by (config, master seed, gesture,
variant index, camera id): the derived seed fixes the sampled variation
parameters and the sensor noise, so reruns and worker parallelism cannot
change a single byte of output.  The static part of the scene (body,
cabin) is traced once per camera and reused as the base buffer for every
frame; only the gesturing arm is retraced per frame.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from .config import ParsedConfig, config_digest
from .evalkit import Trajectory, extract_trajectory
from .gesture import (
    GestureScript,
    Timeline,
    WarningCounters,
    builtin_scripts,
    evaluate_frame,
    load_scripts,
    plan_timeline,
)
from .output import (
    DatasetManifest,
    MANIFEST_NAME,
    RecordingEntry,
    frame_path,
    recording_dir,
    write_frame,
    write_manifest,
)
from .render import DepthBuffer, FlipbookNoise, Frame, make_flipbook, sensor_frame, trace_depth
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

_STATIC_BUFFER_CACHE: dict = {}


def script_registry(parsed: ParsedConfig) -> dict[str, GestureScript]:
    registry = builtin_scripts()
    for path in parsed.extra_script_paths:
        registry.update(load_scripts(path))
    return registry


def _static_buffer(cam: CameraSpec, is_left: bool) -> DepthBuffer:
    key = (cam.camera_id, cam.position, cam.rotation, cam.fov_deg, cam.resolution, is_left)
    buf = _STATIC_BUFFER_CACHE.get(key)
    if buf is None:
        buf = trace_depth(static_scene(default_rig(is_left=is_left)), cam)
        _STATIC_BUFFER_CACHE[key] = buf
    return buf


@dataclass(frozen=True)
class RenderedRecording:
    frames: list[Frame]
    timeline: Timeline
    variant: VariantParams
    sensor: SensorParams
    warnings: WarningCounters
    rig_is_left: bool


@dataclass(frozen=True)
class _RecordingSetup:
    """What every frame of one recording shares."""

    rig: ArmRig
    timeline: Timeline
    sensor: SensorParams
    noise: FlipbookNoise
    base: DepthBuffer
    is_left: bool


def _setup_recording(
    script: GestureScript, cam: CameraSpec, variant: VariantParams, default_left_hand: bool
) -> _RecordingSetup:
    is_left = script.use_left_hand if script.use_left_hand is not None else default_left_hand
    rig = default_rig(is_left=is_left)
    timeline = plan_timeline(script, rest_position(rig), gesture_anchor(rig), cam.fps, variant)
    sensor = cam.sensor.with_variant(variant.chromaticity_coeff, variant.depth_min, variant.depth_max)
    return _RecordingSetup(
        rig=rig,
        timeline=timeline,
        sensor=sensor,
        noise=make_flipbook(sensor, variant.seed),
        base=_static_buffer(cam, is_left),
        is_left=is_left,
    )


def _render_frame(
    setup: _RecordingSetup,
    cam: CameraSpec,
    frame_index: int,
    counters: WarningCounters,
    noise_enabled: bool,
) -> Frame:
    """One frame of a recording; depends on the frame index only."""
    wrist_target, aim_dir, pose = evaluate_frame(setup.timeline, frame_index, counters)
    if target_clamped(setup.rig, wrist_target):
        counters.ik_clamps += 1
    posed = pose_hand(setup.rig, wrist_target, aim_dir, pose)
    buf = trace_depth(dynamic_scene(posed), cam, base=setup.base)
    return sensor_frame(buf, cam, setup.sensor, setup.noise, frame_index, noise_enabled=noise_enabled)


def render_recording(
    script: GestureScript,
    cam: CameraSpec,
    variant: VariantParams,
    default_left_hand: bool = False,
    noise_enabled: bool = True,
) -> RenderedRecording:
    """All frames of one recording, deterministic in (script, cam, variant)."""
    setup = _setup_recording(script, cam, variant, default_left_hand)
    counters = WarningCounters()
    frames = [
        _render_frame(setup, cam, frame_index, counters, noise_enabled)
        for frame_index in range(setup.timeline.total_frames)
    ]
    return RenderedRecording(
        frames=frames,
        timeline=setup.timeline,
        variant=variant,
        sensor=setup.sensor,
        warnings=counters,
        rig_is_left=setup.is_left,
    )


def _record_one(
    parsed: ParsedConfig,
    registry: dict[str, GestureScript],
    gesture_name: str,
    variant_index: int,
    cam: CameraSpec,
    write_to: str | None,
) -> RecordingEntry:
    seed = derive_seed(parsed.settings.master_seed, gesture_name, variant_index, cam.camera_id)
    variant = sample_variant(
        parsed.variation, parsed.variation.condition_overrides, seed, variant_index
    )
    rendered = render_recording(
        registry[gesture_name],
        cam,
        variant,
        default_left_hand=parsed.settings.default_left_hand,
    )
    rel_dir = recording_dir(cam.camera_id, gesture_name, variant_index)
    if write_to is not None:
        for frame in rendered.frames:
            write_frame(frame, os.path.join(write_to, frame_path(rel_dir, frame.frame_index, frame.kind)))
    return RecordingEntry(
        gesture_label=gesture_name,
        variant_index=variant_index,
        camera_id=cam.camera_id,
        kind=cam.kind,
        frame_dir=rel_dir,
        frame_count=rendered.timeline.total_frames,
        fps=cam.fps,
        resolution=cam.resolution,
        label_span=rendered.timeline.label_span,
        variant_params=variant,
        seed=seed,
        warnings=rendered.warnings.as_dict(),
    )


# worker-side state for multiprocessing (populated by _worker_init)
_WORKER: dict = {}


def _worker_init(parsed: ParsedConfig, out_dir: str) -> None:
    _WORKER["parsed"] = parsed
    _WORKER["registry"] = script_registry(parsed)
    _WORKER["out"] = out_dir


def _worker_run(job: tuple[int, str, int]) -> tuple[tuple[int, str, int], dict]:
    cam_index, gesture_name, variant_index = job
    parsed: ParsedConfig = _WORKER["parsed"]
    cam = parsed.cameras[cam_index]
    entry = _record_one(
        parsed, _WORKER["registry"], gesture_name, variant_index, cam, _WORKER["out"]
    )
    return job, entry.to_dict()


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

    Returns (manifest, summary).  Output bytes are independent of ``jobs``.
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

    jobs_list: list[tuple[int, str, int]] = [
        (ci, g, v)
        for ci in range(len(parsed.cameras))
        for g in parsed.settings.gesture_names
        for v in range(parsed.settings.recordings_per_gesture)
    ]

    results: dict[tuple[int, str, int], RecordingEntry] = {}
    if jobs <= 1:
        _worker_init(parsed, out_dir)
        for i, job in enumerate(jobs_list):
            _, entry_dict = _worker_run(job)
            results[job] = RecordingEntry.from_dict(entry_dict)
            if progress:
                progress(i + 1, len(jobs_list))
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs, initializer=_worker_init, initargs=(parsed, out_dir)) as pool:
            for i, (job, entry_dict) in enumerate(
                pool.imap_unordered(_worker_run, jobs_list, chunksize=1)
            ):
                results[job] = RecordingEntry.from_dict(entry_dict)
                if progress:
                    progress(i + 1, len(jobs_list))

    entries = tuple(results[job] for job in jobs_list)
    manifest = DatasetManifest(
        config_digest=config_digest(parsed), entries=entries, cameras=parsed.cameras
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


def preview_frame(
    parsed: ParsedConfig, gesture_name: str, frame_index: int, camera_id: str, out_path: str
) -> Frame:
    """Render exactly one frame of variant 0 and write it as PGM/PPM."""
    registry = script_registry(parsed)
    if gesture_name not in registry:
        raise ValueError(f"unknown gesture {gesture_name!r}")
    cam = next((c for c in parsed.cameras if c.camera_id == camera_id), None)
    if cam is None:
        raise ValueError(f"unknown camera {camera_id!r}")
    seed = derive_seed(parsed.settings.master_seed, gesture_name, 0, cam.camera_id)
    variant = sample_variant(parsed.variation, parsed.variation.condition_overrides, seed, 0)
    setup = _setup_recording(registry[gesture_name], cam, variant, parsed.settings.default_left_hand)
    total = setup.timeline.total_frames
    if not (0 <= frame_index < total):
        raise ValueError(f"frame {frame_index} outside 0..{total - 1} for {gesture_name!r}")
    frame = _render_frame(setup, cam, frame_index, WarningCounters(), noise_enabled=True)
    write_frame(frame, out_path)
    return frame


def render_trajectory_set(
    gesture_name: str,
    variation,
    conditions,
    n_variants: int,
    master_seed: int = 0,
    resolution: tuple[int, int] = (320, 240),
    fps: float = 30.0,
    noise_enabled: bool = True,
    camera: CameraSpec | None = None,
) -> list[Trajectory]:
    """Render n variants of one gesture in memory and extract trajectories."""
    registry = builtin_scripts()
    if gesture_name not in registry:
        raise ValueError(f"unknown gesture {gesture_name!r}")
    script = registry[gesture_name]
    if camera is None:
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
        seed = derive_seed(master_seed, gesture_name, v, camera.camera_id)
        variant = sample_variant(variation, conditions, seed, v)
        rendered = render_recording(script, camera, variant, noise_enabled=noise_enabled)
        codes = [f.pixels for f in rendered.frames]
        trajectories.append(
            extract_trajectory(codes, camera, rendered.sensor, rendered.timeline.label_span)
        )
    return trajectories


def trajectories_from_manifest(manifest: DatasetManifest, root_dir: str) -> list:
    """(TrajectoryRecord list) for every depth recording in a written dataset."""
    from .evalkit import TrajectoryRecord
    from .output import read_frame

    records = []
    for entry in manifest.entries:
        if entry.kind != CameraKind.DEPTH:
            continue
        cam = manifest.camera(entry.camera_id)
        sensor = cam.sensor.with_variant(
            entry.variant_params.chromaticity_coeff,
            entry.variant_params.depth_min,
            entry.variant_params.depth_max,
        )
        frames = [
            read_frame(os.path.join(root_dir, frame_path(entry.frame_dir, i, "depth16")))
            for i in range(entry.frame_count)
        ]
        trajectory = extract_trajectory(frames, cam, sensor, entry.label_span)
        records.append(
            TrajectoryRecord(
                trajectory=trajectory, label=entry.gesture_label, variant_index=entry.variant_index
            )
        )
    return records
