"""Command-line entry point.

Subcommands: ``validate`` (print the fully defaulted effective config as
canonical JSON), ``generate`` (run the full generation loop), ``preview``
(render a single frame to an image file) and ``eval`` (dataset quality
reports).  Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 internal invariant violation, 5 data error (a frame or manifest of a
dataset that cannot be read as written; the message names the file).

Progress goes to stderr; machine-readable summaries go to stdout with
``--json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# single-threaded BLAS: per-pixel numpy work gains nothing from BLAS
# threads, and worker processes must fork cleanly
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_DATA = 5


def _read_config(path: str | None):
    from .config import parse_config_full

    if path is None:
        return parse_config_full("{}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_full(fh.read())


def _parse_conditions(pairs: list[str]) -> dict[str, str]:
    conditions = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--condition expects <param>=<low|median|high>, got {pair!r}")
        name, _, value = pair.partition("=")
        conditions[name.strip()] = value.strip().lower()
    return conditions


def _apply_cli_overrides(parsed, args):
    from .config import apply_overrides

    return apply_overrides(
        parsed,
        out=getattr(args, "out", None),
        seed=getattr(args, "seed", None),
        cameras=getattr(args, "cameras", None),
        gestures=getattr(args, "gestures", None),
        variants=getattr(args, "variants", None),
        conditions=_parse_conditions(getattr(args, "condition", None) or []),
    )


def cmd_validate(args) -> int:
    from .config import canonical_json, config_to_dict

    parsed = _read_config(args.config)
    parsed = _apply_cli_overrides(parsed, args)
    sys.stdout.write(canonical_json(config_to_dict(parsed)))
    return EXIT_OK


def cmd_generate(args) -> int:
    from .config import ConfigError
    from .pipeline import generate_dataset

    if args.jobs < 1:
        raise ConfigError(f"must be >= 1, got {args.jobs}", "--jobs")
    parsed = _read_config(args.config)
    parsed = _apply_cli_overrides(parsed, args)

    def progress(done: int, total: int) -> None:
        if done == total or done % 25 == 0:
            print(f"  {done}/{total} recordings", file=sys.stderr)

    manifest, summary = generate_dataset(
        parsed, jobs=args.jobs, force=args.force, progress=progress
    )
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"wrote {summary['recordings']} recordings ({summary['frames']} frames) "
            f"to {summary['output_path']} in {summary['wall_time_s']}s; "
            f"warnings: {summary['warnings']}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_preview(args) -> int:
    from .pipeline import preview_frame

    parsed = _read_config(args.config)
    parsed = _apply_cli_overrides(parsed, args)
    camera_id = args.camera or parsed.cameras[0].camera_id
    frame = preview_frame(parsed, args.gesture, args.frame, camera_id, args.out_image)
    print(f"wrote {frame.kind} frame {args.frame} of {args.gesture} to {args.out_image}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evalkit import leave_one_out_accuracy, run_variance_ablation
    from .output import DataError, read_manifest
    from .pipeline import trajectories_from_manifest

    report: dict = {}
    if args.mode in ("loo", "all"):
        if not args.manifest:
            raise ValueError("--manifest is required for leave-one-out evaluation")
        manifest = read_manifest(args.manifest)
        records = trajectories_from_manifest(manifest, os.path.dirname(args.manifest) or ".")
        if not records:
            raise DataError(f"{args.manifest}: no depth recordings to evaluate")
        report["leave_one_out"] = leave_one_out_accuracy(records)
    if args.mode in ("ablation", "all"):
        report["variance_ablation"] = run_variance_ablation(n_variants=args.variants or 20)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handsynth",
        description="Synthesize labeled hand-gesture recordings (RGB/depth/infrared) "
        "from parameterized gesture scripts, and verify the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_generation_overrides=True):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        if with_generation_overrides:
            p.add_argument("--out", help="override output directory")
            p.add_argument("--seed", type=int, help="override master seed")
            p.add_argument("--cameras", nargs="+", help="restrict to these camera ids")
            p.add_argument("--gestures", nargs="+", help="override the gesture list")
            p.add_argument("--variants", type=int, help="override recordings per gesture")
            p.add_argument(
                "--condition",
                action="append",
                metavar="PARAM=COND",
                help="range condition override, e.g. speed_offset=low (repeatable)",
            )

    p_validate = sub.add_parser("validate", help="print the effective configuration")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_generate = sub.add_parser("generate", help="generate the dataset")
    add_common(p_generate)
    p_generate.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_generate.add_argument("--force", action="store_true", help="replace existing output")
    p_generate.add_argument("--json", action="store_true", help="print a JSON summary to stdout")
    p_generate.set_defaults(func=cmd_generate)

    p_preview = sub.add_parser("preview", help="render one frame to an image file")
    add_common(p_preview)
    p_preview.add_argument("--gesture", required=True)
    p_preview.add_argument("--frame", type=int, default=0)
    p_preview.add_argument("--camera", help="camera id (default: first configured)")
    p_preview.add_argument("--out-image", required=True, help="output .pgm/.ppm path")
    p_preview.set_defaults(func=cmd_preview)

    p_eval = sub.add_parser("eval", help="dataset quality reports")
    p_eval.add_argument("--manifest", help="manifest.json of a generated dataset")
    p_eval.add_argument("--mode", choices=["loo", "ablation", "all"], default="loo")
    p_eval.add_argument("--variants", type=int, help="variants per condition for the ablation")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .config import ConfigError
    from .output import DataError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
