"""Benchmark of handsynth dataset generation and DTW verification.

    python3 gesturebench/run.py --workload depth_dataset --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (gesturebench/session.py): first a few set-up probes, then
one session that runs whole rounds of the workload for ``--seconds`` (at
least two, see ``session.MIN_ROUNDS``) and checks every output against
independent computations.  The last line printed is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced session with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # set-up samples besides the measured session's own
SESSION_TIMEOUT_S = 150  # all sessions of one run together: a run ends within three minutes
SCRATCH = os.path.join(ROOT, ".gesturebench")


def _spawn(session_args: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Run one session to its end; (monotonic spawn time, its JSON result)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "session.py"), json.dumps(session_args)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,  # its own process group, worker pool included
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"{session_args['mode']} session of {session_args['workload']} ran out of time") from None
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{session_args['mode']} session exited with code {proc.returncode}")
    return started, json.loads(stdout.strip().splitlines()[-1])


def _check_tree(workload) -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "handsynth", "__init__.py")):
        raise SystemExit(f"no handsynth sources under {os.path.join(ROOT, 'src')}; run from a checkout of the repository")
    free_mb = shutil.disk_usage(ROOT).free / 1e6
    if free_mb < workload.disk_mb:
        raise SystemExit(
            f"workload {workload.name} needs {workload.disk_mb} MB free under {ROOT}, "
            f"{free_mb:.0f} MB are free: {workload.disk_mb - free_mb:.0f} MB short"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its sessions and deletes their output
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    _check_tree(workload)

    # the program measured is the one `handsynth generate` runs: single-threaded BLAS
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    deadline = time.monotonic() + SESSION_TIMEOUT_S
    work = os.path.join(SCRATCH, f"{workload.name}-{os.getpid()}")
    base = {"workload": workload.name, "seed": args.seed}
    try:
        data = os.path.join(work, "dataset")
        if workload.kind == "eval":
            _spawn({**base, "mode": "pregen", "out": data}, env, deadline)
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe_out = data if workload.kind == "eval" else os.path.join(work, f"probe{i}", "dataset")
                started, probe = _spawn({**base, "mode": "probe", "out": probe_out}, env, deadline)
                setup.append(probe["ready"] - started)
        run_args = {
            **base,
            "mode": "run",
            "out": data,
            "seconds": args.seconds,
            "trace": args.trace,
            "spans": os.path.join(SCRATCH, f"spans-{workload.name}.jsonl"),
        }
        started, run = _spawn(run_args, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, r in enumerate(run["rounds"]):
        print(f"round {i}: {r['frames']} frames in {r['seconds']:.3f} s, {r['cpu_s']:.3f} s CPU", file=sys.stderr)
    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if run.get("faulty"):
        print(f"{len(run['faulty'])} recordings per round lose body pixels to the screen-bounds fault", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["trace"].items()}
    else:
        setup.append(run["ready"] - started)
        rounds = run["rounds"]
        frames = sum(r["frames"] for r in rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "frames_per_s": {"value": frames / sum(r["seconds"] for r in rounds), "unit": "frames/s"},
            "cpu_ms_per_frame": {"value": 1e3 * sum(r["cpu_s"] for r in rounds) / frames, "unit": "ms/frame"},
            "dataset_mb": {"value": statistics.median(r["bytes"] for r in rounds) / 1e6, "unit": "MB"},
            "peak_rss_mb": {"value": run["peak_rss_bytes"] / 1e6, "unit": "MB"},
        }
    if "accuracy" in run:
        print(f"leave-one-out accuracy {run['accuracy']:.4f}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run["errors"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
