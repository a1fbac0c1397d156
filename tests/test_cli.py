import json
import os

import numpy as np
import pytest

from handsynth.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
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
    from handsynth.pipeline import preview_frame, render_recording, script_registry
    from handsynth.variation import derive_seed, sample_variant

    doc = json.loads(open(_small_config(tmp_path)).read())
    doc["cameras"] = [{"camera_id": "cam0", "kind": kind, "preset": "infotainment"}]
    parsed = parse_config_full(json.dumps(doc))
    cam = parsed.cameras[0]
    seed = derive_seed(parsed.settings.master_seed, "swipe_right", 0, cam.camera_id)
    variant = sample_variant(parsed.variation, parsed.variation.condition_overrides, seed, 0)
    frames = render_recording(script_registry(parsed)["swipe_right"], cam, variant).frames
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


def test_missing_config_file_exit_io(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == EXIT_IO
