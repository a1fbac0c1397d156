import json
import os
from dataclasses import asdict

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from handsynth.scene import CameraKind, gesture_anchor, preset_camera
from handsynth.skeleton import default_rig


def json_form(obj):
    """The JSON form of dataclass ``obj`` as the manifest writer gives it,
    ``asdict`` through JSON, with an enum member written as its value."""
    return json.loads(json.dumps(asdict(obj), default=lambda member: member.value))


def normal_map(buf):
    """A traced buffer's normals as an (h, w, 3) map over its window: the
    rows of its changed pixels scattered into place, zero elsewhere."""
    normals = np.zeros(buf.changed.shape + (3,))
    normals[buf.changed] = buf.normal
    return normals


@pytest.fixture(scope="session")
def rig():
    return default_rig()


@pytest.fixture(scope="session")
def depth_cam(rig):
    return preset_camera("infotainment", "depth0", CameraKind.DEPTH, gesture_anchor(rig))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
