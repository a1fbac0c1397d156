"""Workload inputs: one handsynth config document per workload and seed.

The seed given to the benchmark becomes the config's ``master_seed``;
everything else about a workload is fixed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# camera definitions in the config schema of ``handsynth generate``
DEPTH_CAM = {"camera_id": "depth0", "kind": "depth", "preset": "infotainment", "resolution": [320, 240]}
RGB_TOP_CAM = {"camera_id": "rgb0", "kind": "rgb", "preset": "top", "resolution": [640, 480]}
IR_WHEEL_CAM = {"camera_id": "ir0", "kind": "infrared", "preset": "wheel", "resolution": [320, 240]}
EVAL_DEPTH_CAM = {"camera_id": "depth0", "kind": "depth", "preset": "infotainment", "resolution": [160, 120]}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is "generate" (time ``pipeline.generate_dataset``) or "eval"
    (time ``trajectories_from_manifest`` plus ``leave_one_out_accuracy``
    over a dataset generated before timing starts).
    """

    name: str
    kind: str
    cameras: list
    variants: int
    fps: float
    jobs: int  # generate_dataset worker processes (eval: for the untimed input dataset)
    disk_mb: int  # free space one run needs, with margin

    def config_text(self, seed: int, output_path: str) -> str:
        doc = {
            "output_path": output_path,
            "recordings_per_gesture": self.variants,
            "fps": self.fps,
            "master_seed": seed,
            "cameras": self.cameras,
        }
        return json.dumps(doc, sort_keys=True)


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's base recipe on one process; two variants per gesture keep
        # the per-seed spread of the dataset size small
        Workload("depth_dataset", "generate", [DEPTH_CAM], variants=2, fps=30.0, jobs=1, disk_mb=400),
        # every camera kind and location through the worker pool; 15 fps keeps
        # two rounds of 640x480 RGB within a run
        Workload(
            "multicam_dataset",
            "generate",
            [DEPTH_CAM, RGB_TOP_CAM, IR_WHEEL_CAM],
            variants=1,
            fps=15.0,
            jobs=2,
            disk_mb=1200,
        ),
        # no rendering in the timed part: frame reads, trajectory extraction, DTW
        Workload("eval_loo", "eval", [EVAL_DEPTH_CAM], variants=5, fps=30.0, jobs=2, disk_mb=200),
    )
}
