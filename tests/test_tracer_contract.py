"""The benchmark's tracer still finds every layer it times.

``gesturebench/tracing.py`` wraps module attributes of the program and
reads one of its caches.  A refactor that renames or bypasses one of them
leaves that layer's metric at 0 without failing anything else, so this
test installs the tracer, unchanged, around a tiny generation of every
camera kind and a leave-one-out pass over its depth recordings, and checks
that each layer was seen.
"""

import importlib.util
import json
import os

from handsynth import config, evalkit, pipeline, render

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "gesturebench", "tracing.py")

# spans of every layer a generation and a leave-one-out pass go through
SPANS = (
    "render.trace_static",
    "render.trace_dynamic",
    "render.sensor_depth",
    "render.sensor_rgb",
    "render.sensor_infrared",
    "scene.static_scene",
    "gesture.evaluate_frame",
    "skeleton.pose_hand",
    "scene.dynamic_scene",
    "pipeline.record",
    "output.write_frame",
    "output.read_frame",
    "evalkit.extract_trajectory",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("gesturebench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer(tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    doc = {
        "output_path": out,
        "recordings_per_gesture": 2,
        "resolution": [64, 48],
        "fps": 10,
        "gestures": ["swipe_right", "peace_sign"],
        "cameras": [
            {"camera_id": "depth0", "kind": "depth", "preset": "infotainment"},
            {"camera_id": "rgb0", "kind": "rgb", "preset": "top"},
            {"camera_id": "ir0", "kind": "infrared", "preset": "wheel"},
        ],
    }
    monkeypatch.setattr(pipeline, "_STATIC_BUFFER_CACHE", {})
    monkeypatch.setattr(render, "_RAY_CACHE", {})
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        manifest, _ = pipeline.generate_dataset(config.parse_config_full(json.dumps(doc)))
        records = pipeline.trajectories_from_manifest(manifest, out)
        evalkit.leave_one_out_accuracy(records)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds=1, frames_per_s=0.0)
    unseen = [span for span in SPANS if not metrics[f"{span}.calls"][0]]
    assert not unseen, f"spans the tracer no longer records: {unseen}"
    assert metrics["render.ray_cache_entries"][0] >= 1
