import hashlib
import itertools
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from handsynth import pipeline
from handsynth.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, main
from handsynth.config import apply_overrides, config_digest, parse_config_full
from handsynth.output import read_frame, read_manifest


def _small_config(tmp_path, out_name="out", gestures=("swipe_right", "peace_sign"), variants=2):
    cfg = {
        "output_path": str(tmp_path / out_name),
        "recordings_per_gesture": variants,
        "resolution": [64, 48],
        "fps": 10,
        "gestures": list(gestures),
        "cameras": [{"camera_id": "depth0", "kind": "depth", "preset": "infotainment"}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_prints_canonical_config(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["validate", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["recordings_per_gesture"] == 2
    assert doc["cameras"][0]["camera_id"] == "depth0"
    # canonical: whole document round-trips to the same text
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_validate_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"recordings_per_gesture": 0}')
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "recordings_per_gesture" in capsys.readouterr().err


# recipe depth ranges that the High condition on both makes overlap
_NARROW_DEPTH = {"depth_min": [60, 70], "depth_max": [80, 90]}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--variants", "0"], "--variants: must be >= 1"),
        (["--seed", "-1"], "--seed: must be a 64-bit unsigned integer"),
        (["--seed", str(2**64)], "--seed: must be a 64-bit unsigned integer"),
        (["--gestures", "moonwalk"], "--gestures: unknown gesture name 'moonwalk'"),
        (["--gestures", "swipe_up", "swipe_up"], "--gestures: each gesture may be named once"),
        (["--cameras", "rgb9"], "--cameras: unknown camera ids ['rgb9']"),
        (["--condition", "warp_factor=low"], "--condition: unknown parameter 'warp_factor'"),
        (["--condition", "speed_offset=extreme"], "--condition: speed_offset: expected one of low/median/high"),
        (["--condition", "speed_offset"], "--condition expects <param>=<low|median|high>"),
        (["--condition", "depth_min=high", "--condition", "depth_max=high"], "--condition: depth_min range"),
        (["--out", "elsewhere", "--variants", "-2"], "--variants: must be >= 1"),
    ],
)
def test_override_error_names_the_flag(tmp_path, capsys, flags, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variation": _NARROW_DEPTH}))
    out = tmp_path / "out"
    for command in (["validate"], ["generate", "--out", str(out)]):
        assert main(command + ["--config", str(config)] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}"), err
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, field_path",
    [
        ({"recordings_per_gesture": 0}, "recordings_per_gesture"),
        ({"master_seed": -1}, "master_seed"),
        ({"gestures": ["moonwalk"]}, "gestures"),
        ({"variation": {**_NARROW_DEPTH, "conditions": {"depth_min": "high", "depth_max": "high"}}}, "variation.depth_min"),
    ],
)
def test_recipe_error_keeps_its_field_path_beside_overrides(tmp_path, capsys, doc, field_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    flags = ["--out", str(tmp_path / "out"), "--seed", "3", "--variants", "2", "--condition", "speed_offset=low"]
    assert main(["validate", "--config", str(config)] + flags) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field_path}: ")


def test_overrides_that_fit_are_applied(tmp_path, capsys):
    flags = ["--out", "elsewhere", "--seed", "3", "--variants", "2", "--gestures", "swipe_up", "--cameras", "depth0"]
    assert main(["validate", "--config", _small_config(tmp_path)] + flags + ["--condition", "speed_offset=low"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["output_path"] == "elsewhere"
    assert doc["master_seed"] == 3
    assert doc["recordings_per_gesture"] == 2
    assert doc["gestures"] == ["swipe_up"]
    assert [c["camera_id"] for c in doc["cameras"]] == ["depth0"]
    assert doc["variation"]["conditions"] == {"speed_offset": "low"}


def test_validate_unknown_gesture_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"gestures": ["moonwalk"]}')
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "moonwalk" in capsys.readouterr().err


def test_generate_writes_dataset_and_manifest(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["generate", "--config", path, "--json"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["recordings"] == 4
    manifest = read_manifest(str(tmp_path / "out" / "manifest.json"))
    assert len(manifest.entries) == 4
    # every frame file on disk is referenced by exactly one entry
    on_disk = set()
    root = tmp_path / "out"
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".pgm") or name.endswith(".ppm"):
                on_disk.add(os.path.relpath(os.path.join(dirpath, name), root))
    referenced = set()
    for entry in manifest.entries:
        assert entry.frame_count > 0
        for i in range(entry.frame_count):
            rel = os.path.join(entry.frame_dir, f"frame_{i:05d}.pgm")
            assert rel not in referenced
            referenced.add(rel)
    assert on_disk == referenced


def test_generate_refuses_partial_output_without_force(tmp_path, capsys):
    path = _small_config(tmp_path, gestures=("peace_sign",), variants=1)
    assert main(["generate", "--config", path]) == EXIT_OK
    assert main(["generate", "--config", path]) == EXIT_IO
    assert "--force" in capsys.readouterr().err
    assert main(["generate", "--config", path, "--force"]) == EXIT_OK


def test_generate_seed_override_changes_frames_not_counts(tmp_path, capsys):
    path = _small_config(tmp_path, gestures=("swipe_right",), variants=2)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "a"), "--json"]) == EXIT_OK
    a = json.loads(capsys.readouterr().out)
    assert (
        main(
            ["generate", "--config", path, "--out", str(tmp_path / "b"), "--seed", "99", "--json"]
        )
        == EXIT_OK
    )
    b = json.loads(capsys.readouterr().out)
    ma = read_manifest(str(tmp_path / "a" / "manifest.json"))
    mb = read_manifest(str(tmp_path / "b" / "manifest.json"))
    assert a["recordings"] == b["recordings"] == 2
    assert len(ma.entries) == len(mb.entries)
    assert ma.entries[0].seed != mb.entries[0].seed
    fa = read_frame(str(tmp_path / "a" / ma.entries[0].frame_dir / "frame_00000.pgm"))
    fb = read_frame(str(tmp_path / "b" / mb.entries[0].frame_dir / "frame_00000.pgm"))
    assert fa.shape == fb.shape
    assert not np.array_equal(fa, fb)


def _tree_bytes(root):
    tree = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def test_generate_into_two_directories_is_byte_identical(tmp_path):
    path = _small_config(tmp_path)
    for out in ("a", "b"):
        assert main(["generate", "--config", path, "--out", str(tmp_path / out)]) == EXIT_OK
    tree_a, tree_b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    assert "manifest.json" in tree_a
    assert tree_a == tree_b


# SHA-256 of the tree _golden_config generates: every relative path and file
# body, in sorted path order.  It changes only when the generated bytes do.
GOLDEN_TREE_SHA256 = "32727f563d497eaf02e4b2a07969faec3aba9d8a4b4bf6c14628af2789d3e587"


def _golden_config(tmp_path):
    cfg = {
        "output_path": str(tmp_path / "out"),
        "recordings_per_gesture": 1,
        "resolution": [64, 48],
        "fps": 15,
        "master_seed": 7,
        "gestures": ["rotate_two_finger", "peace_sign"],
        "cameras": [
            {"camera_id": "depth0", "kind": "depth", "preset": "infotainment"},
            {"camera_id": "rgb0", "kind": "rgb", "preset": "top"},
            {"camera_id": "ir0", "kind": "infrared", "preset": "wheel"},
        ],
    }
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_generated_tree_matches_golden_digest(tmp_path, jobs):
    path = _golden_config(tmp_path)
    assert main(["generate", "--config", path, "--jobs", jobs]) == EXIT_OK
    assert not multiprocessing.active_children()  # every worker has exited
    digest = hashlib.sha256()
    for rel, body in sorted(_tree_bytes(tmp_path / "out").items()):
        digest.update(rel.encode() + b"\0" + len(body).to_bytes(8, "little"))
        digest.update(body)
    assert digest.hexdigest() == GOLDEN_TREE_SHA256


def test_generate_writes_each_frame_before_rendering_the_next(tmp_path, monkeypatch):
    """With one worker, frame i of a recording is written before frame i + 1
    is rendered, recording after recording, so no recording is held whole."""
    events = []
    render_frame, write_frame = pipeline._render_frame, pipeline.write_frame

    def spy_render(setup, cam, frame_index, *args, **kwargs):
        events.append(("render", cam.camera_id, frame_index))
        return render_frame(setup, cam, frame_index, *args, **kwargs)

    def spy_write(frame, path):
        events.append(("write", frame.camera_id, frame.frame_index))
        return write_frame(frame, path)

    monkeypatch.setattr(pipeline, "_render_frame", spy_render)
    monkeypatch.setattr(pipeline, "write_frame", spy_write)
    assert main(["generate", "--config", _golden_config(tmp_path), "--jobs", "1"]) == EXIT_OK
    manifest = read_manifest(str(tmp_path / "out" / "manifest.json"))
    expected = [
        (step, entry.camera_id, i)
        for entry in manifest.entries
        for i in range(entry.frame_count)
        for step in ("render", "write")
    ]
    assert len(manifest.entries) == 6 and events == expected


def test_config_digest_ignores_output_path_not_seed(tmp_path):
    with open(_small_config(tmp_path)) as fh:
        parsed = parse_config_full(fh.read())
    digest = config_digest(parsed)
    assert config_digest(apply_overrides(parsed, out=str(tmp_path / "elsewhere"))) == digest
    assert config_digest(apply_overrides(parsed, seed=parsed.settings.master_seed + 1)) != digest


def _script_config(tmp_path, script_path):
    return parse_config_full(
        json.dumps(
            {
                "output_path": str(tmp_path / "out"),
                "gestures": ["wave"],
                "gesture_script_paths": [script_path],
            }
        )
    )


def _write_wave(path, base_speed):
    path.write_text(
        json.dumps({"name": "wave", "control_points": [[0, 0, 0], [8, 4, 0], [16, 0, 0]], "base_speed": base_speed})
    )


def test_config_digest_follows_script_bytes_not_path(tmp_path, monkeypatch):
    (tmp_path / "x").mkdir()
    script = tmp_path / "x" / "s.json"
    _write_wave(script, 20.0)
    monkeypatch.chdir(tmp_path)
    relative = config_digest(_script_config(tmp_path, "x/s.json"))
    assert config_digest(_script_config(tmp_path, str(script))) == relative

    _write_wave(script, 40.0)
    assert config_digest(_script_config(tmp_path, "x/s.json")) != relative


# Parses a config, changes its gesture script file, then generates: the
# run must use the scripts read at parse time.  It runs in its own process
# group, so a pool that never finishes can be killed with its workers.
_DISTURBED_RUN = """
import os, sys
from handsynth.config import apply_overrides, config_digest, parse_config_full
from handsynth.pipeline import generate_dataset

config, out, script, disturbance, jobs = sys.argv[1:]
with open(config) as fh:
    parsed = apply_overrides(parse_config_full(fh.read()), out=out)
digest = config_digest(parsed)
if disturbance == "delete":
    os.remove(script)
else:
    with open(script, "w") as fh:
        fh.write('{"name": "wave", "control_points": [[0, 0, 0], [8, 4, 0], [16, 0, 0]], "base_speed": 40.0}')
generate_dataset(parsed, jobs=int(jobs))
assert config_digest(parsed) == digest, "config digest changed with the script file"
"""


@pytest.mark.parametrize(
    "disturbance, jobs", [("delete", "1"), ("delete", "2"), ("rewrite", "1"), ("rewrite", "2")]
)
def test_script_changed_after_parse_leaves_run_undisturbed(tmp_path, disturbance, jobs):
    script = tmp_path / "wave.json"
    _write_wave(script, 20.0)
    path = _small_config(tmp_path, gestures=("wave", "peace_sign"), variants=1)
    doc = json.loads(open(path).read())
    doc["gesture_script_paths"] = [str(script)]
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["generate", "--config", path, "--out", str(tmp_path / "undisturbed")]) == EXIT_OK

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", _DISTURBED_RUN, path, str(tmp_path / "out"), str(script), disturbance, jobs],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"generate with jobs={jobs} did not finish in 60 s after the script was changed")
    assert proc.returncode == 0, err
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "undisturbed")


def _first_frame(out, proc, timeout=60.0):
    """Wait until ``proc`` has written a frame file under ``out``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and proc.poll() is None:
        if any(files for _, _, files in os.walk(out)):
            return True
        time.sleep(0.01)
    return False


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupted_generate_names_its_partial_output(tmp_path, jobs):
    """SIGINT to the whole process group (parent and workers) ends the run
    with exit 130 and one line naming the directory, and no traceback."""
    path = _small_config(tmp_path, variants=40)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "handsynth.cli", "generate", "--config", path, "--jobs", jobs],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        assert _first_frame(out, proc), "no frame was written"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    except (AssertionError, subprocess.TimeoutExpired):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == EXIT_INTERRUPTED, err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "recordings" not in line]  # progress lines
    assert lines == [f"interrupted: {out} holds a partial dataset with no manifest; rerun with --force to replace it"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_generate_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    path = _small_config(tmp_path)
    assert main(["generate", "--config", path, "--jobs", jobs]) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pool_has_at_most_one_worker_per_recording(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessExecutor:
        def __init__(self, max_workers, mp_context=None, initializer=None):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    path = _small_config(tmp_path, gestures=("peace_sign",), variants=2)
    assert main(["generate", "--config", path, "--jobs", "8"]) == EXIT_OK
    assert sizes == [2]


def test_generate_checks_free_space_before_the_first_frame(tmp_path, monkeypatch, capsys):
    path = _small_config(tmp_path)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "ref")]) == EXIT_OK
    frame_bytes = sum(len(body) for rel, body in _tree_bytes(tmp_path / "ref").items() if rel != "manifest.json")
    out = tmp_path / "out"

    monkeypatch.setattr(pipeline.shutil, "disk_usage", lambda p: types.SimpleNamespace(free=frame_bytes - 1))
    capsys.readouterr()
    assert main(["generate", "--config", path]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(out) in err and "MB" in err
    assert not (out / "depth0").exists() and not (out / "manifest.json").exists()

    # the frame files alone are what the check counts, so they just fit
    monkeypatch.setattr(pipeline.shutil, "disk_usage", lambda p: types.SimpleNamespace(free=frame_bytes))
    assert main(["generate", "--config", path]) == EXIT_OK


def test_config_digest_without_scripts_unchanged(tmp_path):
    """Configs without gesture scripts keep the digest of the canonical
    document without output_path."""
    import hashlib

    from handsynth.config import config_to_dict

    with open(_small_config(tmp_path)) as fh:
        parsed = parse_config_full(fh.read())
    doc = config_to_dict(parsed)
    del doc["output_path"]
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert config_digest(parsed) == hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_generate_condition_override(tmp_path, capsys):
    path = _small_config(tmp_path, gestures=("swipe_right",), variants=3)
    assert (
        main(
            [
                "generate",
                "--config",
                path,
                "--out",
                str(tmp_path / "low"),
                "--condition",
                "speed_offset=low",
                "--json",
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    manifest = read_manifest(str(tmp_path / "low" / "manifest.json"))
    for entry in manifest.entries:
        assert 12.5 <= entry.variant_params.speed_offset <= 37.5


def test_preview_writes_one_frame(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    out_image = str(tmp_path / "preview.pgm")
    assert (
        main(
            [
                "preview",
                "--config",
                cfg_path,
                "--gesture",
                "peace_sign",
                "--frame",
                "0",
                "--out-image",
                out_image,
            ]
        )
        == EXIT_OK
    )
    pixels = read_frame(out_image)
    assert pixels.shape == (48, 64)


@pytest.mark.parametrize("kind", ["depth", "infrared"])
def test_preview_frame_equals_frame_of_full_recording(tmp_path, kind):
    from handsynth.pipeline import preview_frame, render_recording
    from handsynth.variation import derive_seed, sample_variant

    doc = json.loads(open(_small_config(tmp_path)).read())
    doc["cameras"] = [{"camera_id": "cam0", "kind": kind, "preset": "infotainment"}]
    parsed = parse_config_full(json.dumps(doc))
    cam = parsed.cameras[0]
    seed = derive_seed(parsed.settings.master_seed, "swipe_right", 0, cam.camera_id)
    variant = sample_variant(parsed.variation, parsed.variation.condition_overrides, seed, 0)
    frames = render_recording(parsed.scripts["swipe_right"], cam, variant).frames
    for k in (0, len(frames) // 2, len(frames) - 1):
        frame = preview_frame(parsed, "swipe_right", k, cam.camera_id, str(tmp_path / f"{k}.img"))
        assert np.array_equal(frame.pixels, frames[k].pixels)
        assert (frame.kind, frame.frame_index, frame.camera_id) == (
            frames[k].kind,
            frames[k].frame_index,
            frames[k].camera_id,
        )
    with pytest.raises(ValueError, match="outside"):
        preview_frame(parsed, "swipe_right", len(frames), cam.camera_id, str(tmp_path / "x.img"))


def test_preview_unknown_gesture_exit_2(tmp_path):
    cfg_path = _small_config(tmp_path)
    assert (
        main(
            [
                "preview",
                "--config",
                cfg_path,
                "--gesture",
                "nope",
                "--out-image",
                str(tmp_path / "x.pgm"),
            ]
        )
        == EXIT_CONFIG
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--mode", "loo"], "--manifest is required for leave-one-out evaluation"),
        (["eval", "--mode", "all", "--manifest", "m.json", "--variants", "1"], "--variants: must be >= 2, got 1"),
        (["preview", "--gesture", "nope"], "unknown gesture 'nope'"),
        (["preview", "--gesture", "swipe_right", "--camera", "rgb9"], "unknown camera 'rgb9'"),
        (["preview", "--gesture", "swipe_right", "--frame", "100000"], "frame 100000 outside 0.."),
    ],
    ids=["eval_without_manifest", "ablation_of_one_variant", "unknown_gesture", "unknown_camera", "frame_outside"],
)
def test_input_faults_are_config_errors(tmp_path, capsys, argv, message):
    """Faults of the command line are config errors, exit 2, named in one
    line, before anything is rendered or read."""
    if argv[0] == "preview":
        argv = argv + ["--config", _small_config(tmp_path), "--out-image", str(tmp_path / "x.pgm")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1, err
    assert not os.path.exists(tmp_path / "x.pgm")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "fault",
    [
        ValueError("operands could not be broadcast together with shapes (3,) (4,)"),
        IndexError("index 9 is out of bounds"),
    ],
    ids=["ValueError", "IndexError"],
)
def test_fault_inside_a_frame_is_an_internal_error(tmp_path, capsys, monkeypatch, fault, jobs):
    """A fault raised inside a frame's trace, in the parent or in a worker,
    is no config error: it exits 4 with one line naming the fault, the
    recording and the frame, and no traceback."""
    traced, frame_traces = pipeline.trace_depth, itertools.count()

    def faulty(scene, cam, base=None):
        # a frame's trace, not the static one, from frame 3 of a process's first recording on
        if base is not None and next(frame_traces) >= 3:
            raise type(fault)(*fault.args)  # new each time: the shared one would keep earlier notes
        return traced(scene, cam, base=base)

    monkeypatch.setattr(pipeline, "trace_depth", faulty)
    assert main(["generate", "--config", _small_config(tmp_path), "--jobs", jobs]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    where = "recording depth0/swipe_right/0, frame 3"
    assert err.splitlines() == [f"internal error: {type(fault).__name__}: {fault} ({where})"], err


def test_failed_pooled_run_lets_its_workers_exit_before_the_pool_ends(tmp_path, capsys, monkeypatch):
    """A recording that fails in a worker stops ``generate --jobs 2``
    without killing a worker.  The recordings not yet handed out are
    dropped, and every worker has exited when ``main`` returns."""
    setup_recording = pipeline._setup_recording

    def fail_first(script, cam, variant, *args):
        if (script.name, variant.variant_index) == ("swipe_right", 0):
            raise IndexError("injected")
        return setup_recording(script, cam, variant, *args)

    monkeypatch.setattr(pipeline, "_setup_recording", fail_first)
    assert main(["generate", "--config", _small_config(tmp_path, variants=20), "--jobs", "2"]) == EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == [
        "internal error: IndexError: injected (recording depth0/swipe_right/0)"
    ]
    assert not multiprocessing.active_children()
    assert len(list((tmp_path / "out" / "depth0").glob("*/*"))) < 20  # of 39 recordings left


# Runs ``handsynth`` with the arguments it is given, after making the
# worker that sets up recording swipe_right/1 kill itself with SIGKILL, as
# the OOM killer would.
_KILLED_WORKER_RUN = """
import multiprocessing, os, signal, sys
from handsynth import pipeline
from handsynth.cli import main

setup_recording = pipeline._setup_recording

def kill_worker(script, cam, variant, *args):
    in_worker = multiprocessing.parent_process() is not None
    if in_worker and (script.name, variant.variant_index) == ("swipe_right", 1):
        os.kill(os.getpid(), signal.SIGKILL)
    return setup_recording(script, cam, variant, *args)

pipeline._setup_recording = kill_worker
sys.exit(main(sys.argv[1:]))
"""


def test_killed_worker_ends_the_run(tmp_path):
    """A worker that dies ends ``generate --jobs 2`` with exit 4 and one
    line naming the broken pool, instead of a run that waits for it.  The
    line says how many recordings were written and names the two in
    flight, one of them the recording the dead worker held, and how the
    dead worker ended: killed by SIGKILL."""
    path = _small_config(tmp_path, variants=5)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WORKER_RUN, "generate", "--config", path, "--jobs", "2"],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("generate --jobs 2 did not end in 60 s after a worker was killed")
    assert proc.returncode == EXIT_INTERNAL, err
    line = err.splitlines()[-1]
    assert line.startswith("internal error: BrokenProcessPool"), err
    note = re.fullmatch(
        r".* \((\d+) of 10 recordings written; worker \d+ killed by SIGKILL; "
        r"in flight when a worker died, one of them in that worker: (.*)\)",
        line,
    )
    assert note, line
    in_flight = note[2].split(", ")
    assert len(in_flight) == 2 and "depth0/swipe_right/1" in in_flight, line
    assert int(note[1]) <= 10 - 2
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_worker_that_exits_is_named_with_its_exit_code(tmp_path):
    """A worker that exits on its own, not by a signal, is named in the
    broken pool's line with its exit code."""
    run = _KILLED_WORKER_RUN.replace("os.kill(os.getpid(), signal.SIGKILL)", "os._exit(3)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    path = _small_config(tmp_path, variants=5)
    proc = subprocess.Popen(
        [sys.executable, "-c", run, "generate", "--config", path, "--jobs", "2"],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("generate --jobs 2 did not end in 60 s after a worker exited")
    assert proc.returncode == EXIT_INTERNAL, err
    line = err.splitlines()[-1]
    assert line.startswith("internal error: BrokenProcessPool"), err
    assert re.search(r"; worker \d+ exited with code 3; in flight when a worker died", line), line
    assert "killed by" not in line, line


def test_eval_loo_runs_on_generated_dataset(tmp_path, capsys):
    cfg_path = _small_config(tmp_path, gestures=("swipe_right", "point_two_finger"), variants=2)
    assert main(["generate", "--config", cfg_path]) == EXIT_OK
    capsys.readouterr()
    assert (
        main(["eval", "--manifest", str(tmp_path / "out" / "manifest.json"), "--mode", "loo"])
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert "leave_one_out" in report
    assert 0.0 <= report["leave_one_out"]["accuracy"] <= 1.0
    entries = read_manifest(str(tmp_path / "out" / "manifest.json")).entries
    assert report["trajectories"] == [
        {
            "frame_dir": e.frame_dir,
            "label": e.gesture_label,
            "variant_index": e.variant_index,
            "labeled_frames": e.label_span[1] - e.label_span[0] + 1,
            "confidence": t["confidence"],
        }
        for e, t in zip(entries, report["trajectories"])
    ]
    assert len(report["trajectories"]) == len(entries) == 4
    assert all(0.0 < t["confidence"] <= 1.0 for t in report["trajectories"])


def _truncate(path, keep):
    body = path.read_bytes()
    path.write_bytes(body[: int(len(body) * keep)])


def _blank_first_frame(out, d):
    (out / d / "frame_00000.pgm").write_bytes(b"P5\n64 48\n65535\n" + bytes(64 * 48 * 2))


@pytest.mark.parametrize(
    "spoil, named",
    [
        (lambda out, d: _truncate(out / d / "frame_00003.pgm", 0.5), "{d}/frame_00003.pgm"),
        (lambda out, d: _truncate(out / d / "frame_00003.pgm", 0.0), "{d}/frame_00003.pgm"),
        (_blank_first_frame, "{d}"),
        (lambda out, d: _truncate(out / "manifest.json", 0.5), "manifest.json"),
    ],
    ids=["half_frame", "empty_frame", "no_valid_depth", "cut_manifest"],
)
def test_eval_unreadable_dataset_is_data_error(tmp_path, capsys, spoil, named):
    cfg_path = _small_config(tmp_path, gestures=("swipe_right", "point_two_finger"), variants=2)
    assert main(["generate", "--config", cfg_path]) == EXIT_OK
    out = tmp_path / "out"
    frame_dir = read_manifest(str(out / "manifest.json")).entries[1].frame_dir
    spoil(out, frame_dir)
    capsys.readouterr()
    assert main(["eval", "--manifest", str(out / "manifest.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert str(out / named.format(d=frame_dir)) in err


@pytest.fixture(scope="module")
def _eval_dataset(tmp_path_factory):
    """A small written depth dataset; tests spoil copies of it."""
    base = tmp_path_factory.mktemp("eval-dataset")
    cfg_path = _small_config(base, gestures=("swipe_right", "point_two_finger"), variants=2)
    assert main(["generate", "--config", cfg_path]) == EXIT_OK
    return base / "out"


def _spoilable(dataset, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(dataset, out)
    entry = read_manifest(str(out / "manifest.json")).entries[1]
    first, last = entry.label_span
    assert first > 1 and last + 1 < entry.frame_count
    return out, entry


@pytest.mark.parametrize(
    "version, message",
    [
        (None, "tool_version: required key is missing"),
        ("handsynth-0.0.9", "tool_version: written by 'handsynth-0.0.9', this is 'handsynth-0.1.0'"),
    ],
    ids=["missing", "other"],
)
def test_eval_refuses_a_manifest_of_another_version(_eval_dataset, tmp_path, capsys, version, message):
    """A manifest without ``tool_version``, or written by another version,
    is a data error that names the key or both versions."""
    out, _ = _spoilable(_eval_dataset, tmp_path)
    path = out / "manifest.json"
    doc = json.loads(path.read_text())
    if version is None:
        del doc["tool_version"]
    else:
        doc["tool_version"] = version
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and message in err


@pytest.mark.parametrize("where", ["before_span", "in_span", "after_span"])
@pytest.mark.parametrize(
    "spoil, code",
    [(lambda path: _truncate(path, 0.9), EXIT_DATA), (lambda path: path.unlink(), EXIT_IO)],
    ids=["truncated", "missing"],
)
def test_eval_bad_frame_is_named_inside_and_outside_the_label_span(
    _eval_dataset, tmp_path, capsys, where, spoil, code
):
    out, entry = _spoilable(_eval_dataset, tmp_path)
    first, last = entry.label_span
    index = {"before_span": first - 1, "in_span": (first + last) // 2, "after_span": last + 1}[where]
    frame = out / entry.frame_dir / f"frame_{index:05d}.pgm"
    spoil(frame)
    capsys.readouterr()
    assert main(["eval", "--manifest", str(out / "manifest.json")]) == code
    err = capsys.readouterr().err
    assert err.startswith("data error: " if code == EXIT_DATA else "I/O error: ")
    assert str(frame) in err
    assert "recording " not in err  # a frame error is not re-worded as the recording's


@pytest.mark.parametrize("coeff", [0.0, -0.7])
def test_eval_manifest_entry_with_a_non_positive_coefficient(_eval_dataset, tmp_path, capsys, coeff):
    out, entry = _spoilable(_eval_dataset, tmp_path)
    doc = json.loads((out / "manifest.json").read_text())
    doc["entries"][1]["variant_params"]["chromaticity_coeff"] = coeff
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--manifest", str(out / "manifest.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: recording {out / entry.frame_dir}: chromaticity_coeff")


@pytest.mark.parametrize(
    "spoil, field_path",
    [
        (lambda entry: entry.update(resolution=[64]), "entries[1].resolution"),
        (lambda entry: entry["variant_params"].update(depth_min="20"), "entries[1].variant_params.depth_min"),
        (lambda entry: entry.pop("seed"), "entries[1].seed"),
    ],
    ids=["one_element_resolution", "string_depth_min", "missing_seed"],
)
def test_eval_malformed_manifest_names_the_field(_eval_dataset, tmp_path, capsys, spoil, field_path):
    out, _ = _spoilable(_eval_dataset, tmp_path)
    manifest = out / "manifest.json"
    doc = json.loads(manifest.read_text())
    spoil(doc["entries"][1])
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--manifest", str(manifest)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {manifest}: malformed manifest: {field_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_reads_background_and_span_only(_eval_dataset, monkeypatch):
    from handsynth import output

    manifest = read_manifest(str(_eval_dataset / "manifest.json"))
    reads, extracts = [], []
    real_read, real_extract = output.read_frame, pipeline.extract_trajectory

    def read_spy(path):
        reads.append(path)
        return real_read(path)

    def extract_spy(background, frames, cam, sensor):
        assert isinstance(frames, types.GeneratorType)
        start = len(reads)
        extracts.append(start)

        def counted():
            for n, frame in enumerate(frames, 1):
                assert len(reads) == start + n  # each frame is read as it is consumed
                yield frame

        return real_extract(background, counted(), cam, sensor)

    monkeypatch.setattr(output, "read_frame", read_spy)
    monkeypatch.setattr(pipeline, "extract_trajectory", extract_spy)
    records = pipeline.trajectories_from_manifest(manifest, str(_eval_dataset))
    assert len(records) == len(extracts) == len(manifest.entries) == 4
    expected = []
    for e in manifest.entries:
        first, last = e.label_span
        expected += [os.path.join(str(_eval_dataset), e.frame_dir, "frame_00000.pgm")] + [
            os.path.join(str(_eval_dataset), e.frame_dir, f"frame_{i:05d}.pgm") for i in range(first, last + 1)
        ]
    assert reads == expected
    assert [r.frame_dir for r in records] == [e.frame_dir for e in manifest.entries]


def test_missing_config_file_exit_io(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == EXIT_IO
