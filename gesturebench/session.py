"""One fresh interpreter of the benchmark.

    python3 gesturebench/session.py '<json arguments>'

Modes:
  probe   set up as ``handsynth generate`` / ``eval`` would (imports, config
          parse and validation, output directory) and stop; the caller
          times interpreter start to readiness
  pregen  generate the input dataset of an eval workload
  run     set up, then run whole rounds of the workload for the given
          seconds, then check every output

The last line on standard output is a JSON object with the results.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

# every run makes at least this many rounds, however short --seconds is:
# generation compares the dataset digests of two rounds
MIN_ROUNDS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_bytes() -> int:
    """Peak resident set of this process plus that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024


def main() -> None:
    args = json.loads(sys.argv[1])
    tracer = None
    if args["mode"] == "run" and args["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # -- set-up: what a `handsynth generate` / `eval` invocation does first --
    from handsynth import config, evalkit, output, pipeline

    from workloads import WORKLOADS

    workload = WORKLOADS[args["workload"]]
    text = workload.config_text(args["seed"], args["out"])
    parsed = config.parse_config_full(text)
    if workload.kind == "generate" or args["mode"] == "pregen":
        os.makedirs(os.path.dirname(args["out"]), exist_ok=True)
        if pipeline.detect_partial_output(args["out"], parsed):
            raise SystemExit(f"output directory {args['out']} is not empty")
    elif not os.path.isfile(os.path.join(args["out"], output.MANIFEST_NAME)):
        raise SystemExit(f"no dataset at {args['out']}")
    ready = time.monotonic()

    if args["mode"] == "probe":
        print(json.dumps({"ready": ready}))
        return
    if args["mode"] == "pregen":
        _, summary = pipeline.generate_dataset(parsed, jobs=workload.jobs)
        print(json.dumps({"ready": ready, "frames": summary["frames"]}))
        return

    if tracer:
        # a few more parses, so the parse time is a median and not one sample
        for _ in range(9):
            config.parse_config_full(text)
    result = {"ready": ready}
    if workload.kind == "generate":
        result.update(run_generation(workload, parsed, args, tracer, pipeline, output))
    else:
        result.update(run_eval(workload, parsed, args, tracer, pipeline, output, evalkit))
    print(json.dumps(result))


def _loop(args, tracer, one_round):
    """Whole rounds until the run time is used up; each returns its timing."""
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args["seconds"]:
        if tracer:
            tracer.round = len(rounds)
        rounds.append(one_round(len(rounds)))
    return rounds


def _timed(call):
    c0, t0 = cpu_seconds(), time.perf_counter()
    value = call()
    t1, c1 = time.perf_counter(), cpu_seconds()
    return value, t1 - t0, c1 - c0


def run_generation(workload, parsed, args, tracer, pipeline, output) -> dict:
    import checks

    out = args["out"]
    kept = out + ".round0"
    digests = []
    jobs = 1 if tracer else workload.jobs  # traced spans come from this process only

    def one_round(index):
        (_, summary), seconds, cpu = _timed(lambda: pipeline.generate_dataset(parsed, jobs=jobs))
        digest, nbytes = checks.tree_digest(out)
        digests.append(digest)
        if index == 0:
            os.rename(out, kept)
        else:
            shutil.rmtree(out)
        return {"seconds": seconds, "cpu_s": cpu, "frames": summary["frames"], "bytes": nbytes}

    rounds = _loop(args, tracer, one_round)
    peak = peak_rss_bytes()
    if tracer:
        tracer.uninstall()

    errors = []
    if len(set(digests)) != 1:
        errors.append(f"rounds of one seed wrote {len(set(digests))} different datasets")
    manifest = output.read_manifest(os.path.join(kept, output.MANIFEST_NAME))
    n_gestures = len(parsed.settings.gesture_names)
    try:
        checks.check_manifest(manifest, kept, len(parsed.cameras), n_gestures, workload.variants)
    except ValueError as exc:
        errors.append(str(exc))
    if sum(e.frame_count for e in manifest.entries) != rounds[0]["frames"]:
        errors.append("manifest frame counts disagree with the generation summary")

    faulty = []
    for entry in manifest.entries:
        fault, other = checks.check_recording(entry, manifest.camera(entry.camera_id), kept, args["seed"])
        if other:
            errors.append(f"{entry.frame_dir}: {other} pixels disagree with the ray cast")
        elif fault:
            faulty.append({"recording": entry.frame_dir, "fault_pixels": fault})
    per_round = len(manifest.entries)
    return {
        "rounds": rounds,
        "peak_rss_bytes": peak,
        "attempted": per_round * len(rounds),
        "failed": len(faulty) * len(rounds),
        "errors": errors,
        "faulty": faulty,
        "trace": _trace_report(tracer, args, rounds),
    }


def run_eval(workload, parsed, args, tracer, pipeline, output, evalkit) -> dict:
    import checks

    root = args["out"]
    manifest_path = os.path.join(root, output.MANIFEST_NAME)
    results = []
    records_seen = []

    def one_round(index):
        def work():
            manifest = output.read_manifest(manifest_path)
            records = pipeline.trajectories_from_manifest(manifest, root)
            return manifest, records, evalkit.leave_one_out_accuracy(records)

        (manifest, records, result), seconds, cpu = _timed(work)
        results.append(result)
        if index == 0:
            records_seen.extend(records)
        frames = sum(e.frame_count for e in manifest.entries if e.kind == "depth")
        return {"seconds": seconds, "cpu_s": cpu, "frames": frames, "records": len(records)}

    rounds = _loop(args, tracer, one_round)
    peak = peak_rss_bytes()
    if tracer:
        tracer.uninstall()

    manifest = output.read_manifest(manifest_path)
    read_bytes = os.path.getsize(manifest_path) + sum(
        os.path.getsize(os.path.join(root, checks.frame_file(e, i)))
        for e in manifest.entries
        if e.kind == "depth"
        for i in range(e.frame_count)
    )
    for r in rounds:
        r["bytes"] = read_bytes

    errors = []
    try:
        checks.check_manifest(manifest, root, len(parsed.cameras), len(parsed.settings.gesture_names), workload.variants)
    except ValueError as exc:
        errors.append(str(exc))
    _, reference = checks.leave_one_out(records_seen)
    failed = 0
    for result in results:
        missed = checks.confusion_disagreements(result["confusion"], reference)
        if result["confusion"] != reference and not missed:
            errors.append("confusion matrix differs from the textbook leave-one-out")
        failed += missed
    return {
        "rounds": rounds,
        "peak_rss_bytes": peak,
        "attempted": sum(r["records"] for r in rounds),
        "failed": failed,
        "errors": errors,
        "accuracy": results[0]["accuracy"],
        "trace": _trace_report(tracer, args, rounds),
    }


def _trace_report(tracer, args, rounds):
    if not tracer:
        return None
    frames_per_s = sum(r["frames"] for r in rounds) / sum(r["seconds"] for r in rounds)
    tracer.write_spans(args["spans"])
    return {name: list(v) for name, v in tracer.metrics(len(rounds), frames_per_s).items()}


if __name__ == "__main__":
    main()
