"""Spans around the program's layer boundaries, recorded from outside.

Each timed function is replaced, at the module attribute its caller
resolves, by a wrapper that records a span (name, start, end, parent,
round).  The program's code is not changed.  Spans stay in memory until
the run ends; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from handsynth import config, evalkit, output, pipeline, render

# (module, attribute, span name); None as a name means "time nothing, only
# run the hook" (render_recording sits between a recording's span and its
# per-frame spans, so that each frame's parent is the recording)
WRAPPED = (
    (config, "parse_config_full", "config.parse_config_full"),
    (pipeline, "generate_dataset", "pipeline.generate_dataset"),
    (pipeline, "_record_one", "pipeline.record"),
    (pipeline, "render_recording", None),
    (pipeline, "trajectories_from_manifest", "pipeline.trajectories_from_manifest"),
    (pipeline, "plan_timeline", "gesture.plan_timeline"),
    (pipeline, "evaluate_frame", "gesture.evaluate_frame"),
    (pipeline, "pose_hand", "skeleton.pose_hand"),
    (pipeline, "static_scene", "scene.static_scene"),
    (pipeline, "dynamic_scene", "scene.dynamic_scene"),
    (pipeline, "trace_depth", "render.trace_"),
    (pipeline, "sensor_frame", "render.sensor_"),
    (pipeline, "make_flipbook", "render.make_flipbook"),
    (pipeline, "write_frame", "output.write_frame"),
    (pipeline, "write_manifest", "output.write_manifest"),
    (output, "read_manifest", "output.read_manifest"),
    (output, "read_frame", "output.read_frame"),
    (pipeline, "extract_trajectory", "evalkit.extract_trajectory"),
    (evalkit, "leave_one_out_accuracy", "evalkit.leave_one_out_accuracy"),
    (evalkit, "classify_1nn", "evalkit.classify_1nn"),
    (evalkit, "dtw_distance", "evalkit.dtw_distance"),
)

# span-name suffixes of the functions whose spans are split by argument:
# a trace with or without a base buffer, and a sensor by camera kind
SPLIT = {"trace_depth": ("static", "dynamic"), "sensor_frame": ("depth", "infrared", "rgb")}

SPAN_NAMES = tuple(name + suffix for _, attr, name in WRAPPED if name for suffix in SPLIT.get(attr, ("",)))

# named layer metrics: (metric, unit, how it is computed from the trace)
LAYER_METRICS = (
    ("config.parse_ms", "ms", ("median_ms", "config.parse_config_full")),
    ("pipeline.recording_ms", "ms", ("median_ms", "pipeline.record")),
    ("pipeline.frames_held_mb", "MB", ("counter_max", "frames_held_bytes", 1e-6)),
    ("gesture.plan_ms", "ms", ("median_ms", "gesture.plan_timeline")),
    ("gesture.frame_us", "us", ("median_us", "gesture.evaluate_frame")),
    ("skeleton.pose_us", "us", ("median_us", "skeleton.pose_hand")),
    ("scene.dynamic_us", "us", ("median_us", "scene.dynamic_scene")),
    ("scene.static_builds", "count", ("calls_total", "scene.static_scene")),
    ("render.trace_dynamic_ms", "ms", ("median_ms", "render.trace_dynamic")),
    ("render.trace_static_ms", "ms", ("median_ms", "render.trace_static")),
    ("render.sensor_depth_ms", "ms", ("median_ms", "render.sensor_depth")),
    ("render.sensor_infrared_ms", "ms", ("median_ms", "render.sensor_infrared")),
    ("render.sensor_rgb_ms", "ms", ("median_ms", "render.sensor_rgb")),
    ("render.flipbook_ms", "ms", ("median_ms", "render.make_flipbook")),
    ("render.ray_cache_entries", "count", ("ray_cache",)),
    ("output.write_us", "us", ("median_us", "output.write_frame")),
    ("output.written_mb", "MB", ("counter_per_round", "written_bytes", 1e-6)),
    ("output.manifest_write_ms", "ms", ("median_ms", "output.write_manifest")),
    ("output.read_us", "us", ("median_us", "output.read_frame")),
    ("output.read_mb", "MB", ("counter_per_round", "read_bytes", 1e-6)),
    ("output.manifest_read_ms", "ms", ("median_ms", "output.read_manifest")),
    ("evalkit.extract_ms", "ms", ("median_ms", "evalkit.extract_trajectory")),
    ("evalkit.dtw_calls", "count", ("calls_per_round", "evalkit.dtw_distance")),
    ("evalkit.dtw_cells", "count", ("counter_per_round", "dtw_cells", 1.0)),
    ("evalkit.dtw_us", "us", ("median_us", "evalkit.dtw_distance")),
    ("evalkit.classify_ms", "ms", ("median_ms", "evalkit.classify_1nn")),
)


class Tracer:
    """Records spans and counters for one process; single-threaded use."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counters = {"frames_held_bytes": 0, "written_bytes": 0, "read_bytes": 0, "dtw_cells": 0}
        self.round = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, attr, name):
        hook = getattr(self, f"_after_{attr}", None)

        def untimed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        def timed(*args, **kwargs):
            span_name = name
            if attr == "trace_depth":
                base = kwargs.get("base", args[2] if len(args) > 2 else None)
                span_name += "static" if base is None else "dynamic"
            elif attr == "sensor_frame":
                span_name += args[1].kind
            index = len(self.spans)
            self.spans.append([span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.round])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if hook:
                hook(args, kwargs, result)
            return result

        return timed if name else untimed

    # counters taken after the wrapped call returns, outside its span

    def _after_render_recording(self, args, kwargs, rendered):
        held = sum(f.pixels.nbytes for f in rendered.frames)
        self.counters["frames_held_bytes"] = max(self.counters["frames_held_bytes"], held)

    def _after_write_frame(self, args, kwargs, result):
        self.counters["written_bytes"] += os.path.getsize(args[1])

    def _after_write_manifest(self, args, kwargs, result):
        self.counters["written_bytes"] += os.path.getsize(args[1])

    def _after_read_frame(self, args, kwargs, result):
        self.counters["read_bytes"] += os.path.getsize(args[0])

    def _after_read_manifest(self, args, kwargs, result):
        self.counters["read_bytes"] += os.path.getsize(args[0])

    def _after_dtw_distance(self, args, kwargs, result):
        self.counters["dtw_cells"] += len(args[0]) * len(args[1])

    # -- reporting ---------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for span, t in zip(self.spans, own):
            out[span[0]] = out.get(span[0], 0.0) + t
        return out

    def metrics(self, rounds: int, frames_per_s: float) -> dict[str, tuple[float, str]]:
        durations = self.durations()
        self_times = self.self_times()

        def median(span, scale):
            values = durations.get(span)
            return statistics.median(values) * scale if values else 0.0

        out: dict[str, tuple[float, str]] = {}
        for metric, unit, rule in LAYER_METRICS:
            kind = rule[0]
            if kind == "median_ms":
                value = median(rule[1], 1e3)
            elif kind == "median_us":
                value = median(rule[1], 1e6)
            elif kind == "calls_total":
                value = len(durations.get(rule[1], ()))
            elif kind == "calls_per_round":
                value = len(durations.get(rule[1], ())) / rounds
            elif kind == "counter_max":
                value = self.counters[rule[1]] * rule[2]
            elif kind == "counter_per_round":
                value = self.counters[rule[1]] * rule[2] / rounds
            else:  # ray_cache
                value = len(render._RAY_CACHE)
            out[metric] = (value, unit)
        out["trace.frames_per_s"] = (frames_per_s, "frames/s")
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = (len(durations.get(span, ())) / rounds, "count")
            out[f"{span}.median_ms"] = (median(span, 1e3), "ms")
            out[f"{span}.self_ms"] = (self_times.get(span, 0.0) * 1e3 / rounds, "ms")
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "round": rnd}) + "\n")
