"""Rotation handling and heading extraction.

World frame convention used everywhere in this package: right-handed, Z up,
X forward. A heading is the yaw of the forward axis about +Z, measured from
+X and wrapped to (-pi, pi]. Quaternions are (w, x, y, z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HeadingUndefinedError, ValidationError

TWO_PI = 2.0 * math.pi

# Forward axis tilts closer to vertical than this -> heading is undefined.
VERTICAL_EPS = 1e-6


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Note the closed upper end: +pi stays +pi.
    Applied to a numpy array, wraps each element the same way."""
    return -((-theta + math.pi) % TWO_PI - math.pi)


def rotation_from_quaternion(q) -> np.ndarray:
    """Convert a unit quaternion (w, x, y, z) to a 3x3 rotation matrix.

    The quaternion is renormalized internally; a zero quaternion is rejected.
    """
    v = np.asarray(q, dtype=np.float64)
    if v.shape != (4,):
        raise ValidationError(f"quaternion must have 4 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"quaternion has non-finite components: {v!r}")
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("zero quaternion has no orientation")
    w, x, y, z = v / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quaternion_from_yaw(yaw: float) -> tuple[float, float, float, float]:
    """Quaternion for a pure rotation of ``yaw`` radians about world +Z."""
    half = 0.5 * yaw
    return (math.cos(half), 0.0, 0.0, math.sin(half))


def heading_from_orientation(q) -> float:
    """Yaw of the rotated forward axis (+X), projected onto the horizontal plane.

    Raises HeadingUndefinedError when the forward axis is within VERTICAL_EPS
    of vertical; callers that need continuity carry the previous heading
    forward themselves and count the event.
    """
    return heading_from_rotation(rotation_from_quaternion(q))


def heading_from_rotation(rot: np.ndarray) -> float:
    """:func:`heading_from_orientation` of an orientation already converted by
    :func:`rotation_from_quaternion`, for callers that reuse the matrix."""
    fx, fy = rot[0, 0], rot[1, 0]  # first column = rotated +X
    if math.hypot(fx, fy) < VERTICAL_EPS:
        raise HeadingUndefinedError(
            "forward axis is vertical; heading undefined"
        )
    return wrap_angle(math.atan2(fy, fx))


@dataclass(frozen=True)
class AgentState:
    """Planar pose (x, y, heading). Heading is wrapped to (-pi, pi] on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        for name in ("x", "y", "theta"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValidationError(f"AgentState.{name} must be finite, got {val!r}")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
