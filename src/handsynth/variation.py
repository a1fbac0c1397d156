"""Per-variant parameter sampling.

Every recording gets one VariantParams draw.  Draws come from the
counter-based stream in :mod:`handsynth.rng`, consumed in a fixed,
documented field order (see DRAW_ORDER), so altering one parameter's
range condition leaves every other sampled field bit-identical for the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RangeCondition, VariationConfig, scale_range
from .rng import SplitMix64, fnv1a64, splitmix64

# (field, number of scalar draws), consumed in this exact order
DRAW_ORDER: tuple[tuple[str, int], ...] = (
    ("speed_offset", 1),
    ("position_offset", 3),
    ("finger_spacing", 5),
    ("finger_rotation", 5),
    ("hand_orientation", 3),
    ("chromaticity_coeff", 1),
    ("depth_min", 1),
    ("depth_max", 1),
)


@dataclass(frozen=True)
class VariantParams:
    """One sampled draw of all variation parameters for a recording."""

    variant_index: int
    seed: int
    speed_offset: float
    position_offset: tuple[float, float, float]
    finger_spacing_offsets: tuple[float, float, float, float, float]
    finger_rotation_offsets: tuple[float, float, float, float, float]
    hand_orientation_offset: tuple[float, float, float]
    chromaticity_coeff: float
    depth_min: float
    depth_max: float

    def to_dict(self) -> dict:
        return {
            "variant_index": self.variant_index,
            "seed": self.seed,
            "speed_offset": self.speed_offset,
            "position_offset": list(self.position_offset),
            "finger_spacing_offsets": list(self.finger_spacing_offsets),
            "finger_rotation_offsets": list(self.finger_rotation_offsets),
            "hand_orientation_offset": list(self.hand_orientation_offset),
            "chromaticity_coeff": self.chromaticity_coeff,
            "depth_min": self.depth_min,
            "depth_max": self.depth_max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VariantParams":
        return cls(
            variant_index=int(data["variant_index"]),
            seed=int(data["seed"]),
            speed_offset=float(data["speed_offset"]),
            position_offset=tuple(float(v) for v in data["position_offset"]),
            finger_spacing_offsets=tuple(float(v) for v in data["finger_spacing_offsets"]),
            finger_rotation_offsets=tuple(float(v) for v in data["finger_rotation_offsets"]),
            hand_orientation_offset=tuple(float(v) for v in data["hand_orientation_offset"]),
            chromaticity_coeff=float(data["chromaticity_coeff"]),
            depth_min=float(data["depth_min"]),
            depth_max=float(data["depth_max"]),
        )

    @classmethod
    def neutral(cls, variant_index: int = 0, seed: int = 0) -> "VariantParams":
        """All-zero offsets with default camera values: a fixed variant for tests."""
        return cls(
            variant_index=variant_index,
            seed=seed,
            speed_offset=0.0,
            position_offset=(0.0, 0.0, 0.0),
            finger_spacing_offsets=(0.0,) * 5,
            finger_rotation_offsets=(0.0,) * 5,
            hand_orientation_offset=(0.0, 0.0, 0.0),
            chromaticity_coeff=1.0,
            depth_min=20.0,
            depth_max=150.0,
        )


def derive_seed(master_seed: int, gesture_name: str, variant_index: int, camera_id: str) -> int:
    """Stable 64-bit recording seed.

    Algorithm (pinned, platform independent): FNV-1a 64 over the UTF-8
    bytes of ``"{master_seed}:{gesture_name}:{variant_index}:{camera_id}"``
    followed by one splitmix64 finalization.
    """
    key = f"{master_seed}:{gesture_name}:{variant_index}:{camera_id}".encode("utf-8")
    return splitmix64(fnv1a64(key))


def sample_variant(
    cfg: VariationConfig,
    conditions: dict[str, RangeCondition] | None,
    seed: int,
    variant_index: int,
) -> VariantParams:
    """Draw one VariantParams uniformly from condition-scaled ranges."""
    conditions = conditions or {}
    stream = SplitMix64(seed)
    values: dict[str, list[float]] = {}
    for field_name, n in DRAW_ORDER:
        median = cfg.median_range(field_name)
        cond = conditions.get(field_name, RangeCondition.MEDIAN)
        scaled = scale_range(median, cond)
        values[field_name] = [stream.uniform(scaled.lo, scaled.hi) for _ in range(n)]

    depth_min = values["depth_min"][0]
    depth_max = values["depth_max"][0]
    if depth_min >= depth_max:
        raise ValueError(
            f"sampled depth_min {depth_min:.2f} >= depth_max {depth_max:.2f}; "
            "configured ranges must keep a positive span"
        )
    return VariantParams(
        variant_index=variant_index,
        seed=seed,
        speed_offset=values["speed_offset"][0],
        position_offset=tuple(values["position_offset"]),
        finger_spacing_offsets=tuple(values["finger_spacing"]),
        finger_rotation_offsets=tuple(values["finger_rotation"]),
        hand_orientation_offset=tuple(values["hand_orientation"]),
        chromaticity_coeff=values["chromaticity_coeff"][0],
        depth_min=depth_min,
        depth_max=depth_max,
    )
