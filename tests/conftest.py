import json
import os
from dataclasses import asdict

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from handsynth.render import _cached_rays, _won_normal_chunks
from handsynth.scene import CameraKind, gesture_anchor, preset_camera
from handsynth.skeleton import default_rig


def json_form(obj):
    """The JSON form of dataclass ``obj`` as the manifest writer gives it,
    ``asdict`` through JSON, with an enum member written as its value."""
    return json.loads(json.dumps(asdict(obj), default=lambda member: member.value))


def normals(buf, cam):
    """The world-space surface normals of the changed pixels of ``buf``,
    traced by ``cam``, as rows in the row-major order of ``changed``: the
    chunks the sensor shades, put in place."""
    rows = np.empty((len(buf.won_by), 3))
    for at, _, _, _, chunk in _won_normal_chunks(buf, cam):
        rows[at] = chunk
    return rows


def normal_map(buf, cam):
    """A traced buffer's normals as an (h, w, 3) map over its window: the
    rows of its changed pixels scattered into place, zero elsewhere."""
    out = np.zeros(buf.changed.shape + (3,))
    out[buf.changed] = normals(buf, cam)
    return out


def window_rays(buf, cam):
    """The (h, w, 3) rays of ``cam`` over the window of ``buf``."""
    u0, u1, v0, v1 = buf.window
    return _cached_rays(cam)[1][v0:v1, u0:u1]


@pytest.fixture(scope="session")
def rig():
    return default_rig()


@pytest.fixture(scope="session")
def depth_cam(rig):
    return preset_camera("infotainment", "depth0", CameraKind.DEPTH, gesture_anchor(rig))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
