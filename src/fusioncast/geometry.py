"""Rotation handling, heading extraction, and gaze-ray math.

World frame convention used everywhere in this package: right-handed, Z up,
X forward. A heading is the yaw of the forward axis about +Z, measured from
+X and wrapped to (-pi, pi]. Quaternions are (w, x, y, z).

Data recorded in a Unity-style frame (left-handed, Y up, Z forward) must be
converted with :func:`unity_to_world` at ingestion; nothing downstream of
that conversion knows about any other frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HeadingUndefinedError, ValidationError

TWO_PI = 2.0 * math.pi

# Forward axis tilts closer to vertical than this -> heading is undefined.
VERTICAL_EPS = 1e-6

# |q| may deviate from 1 by at most this much before the input is rejected.
UNIT_NORM_TOL = 1e-6


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Note the closed upper end: +pi stays +pi.
    Applied to a numpy array, wraps each element the same way."""
    return -((-theta + math.pi) % TWO_PI - math.pi)


def normalize_unit(vec, what: str = "vector") -> np.ndarray:
    """Return ``vec`` scaled to unit norm.

    Inputs must already be within UNIT_NORM_TOL of unit length; anything
    else (including the zero vector) is a caller bug, not noise. Vectors
    within 1e-12 of unit are returned unchanged so that re-normalizing an
    already-normalized vector is bit-stable.
    """
    v = np.asarray(vec, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} has non-finite components: {v!r}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(f"{what} norm {norm!r} not within {UNIT_NORM_TOL} of 1")
    if abs(norm - 1.0) <= 1e-12:
        return v
    return v / norm


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


def quaternion_multiply(a, b) -> tuple[float, float, float, float]:
    """Hamilton product a*b for (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def heading_from_orientation(q) -> float:
    """Yaw of the rotated forward axis (+X), projected onto the horizontal plane.

    Raises HeadingUndefinedError when the forward axis is within VERTICAL_EPS
    of vertical; callers that need continuity carry the previous heading
    forward themselves and count the event.
    """
    rot = rotation_from_quaternion(q)
    fx, fy = rot[0, 0], rot[1, 0]  # first column = rotated +X
    if math.hypot(fx, fy) < VERTICAL_EPS:
        raise HeadingUndefinedError(
            "forward axis is vertical; heading undefined"
        )
    return wrap_angle(math.atan2(fy, fx))


def gaze_to_world(rotation: np.ndarray, gaze_local) -> np.ndarray:
    """Rotate a device-local unit gaze direction into the world frame."""
    g = normalize_unit(gaze_local, "gaze_local")
    rot = np.asarray(rotation, dtype=np.float64)
    if rot.shape != (3, 3):
        raise ValidationError(f"rotation must be 3x3, got shape {rot.shape}")
    return rot @ g


def unity_to_world(v) -> np.ndarray:
    """Axis permutation from a Unity-style frame (left-handed, Y up, Z forward)
    to the internal frame (right-handed, Z up, X forward):
    (x_u, y_u, z_u) -> (z_u, -x_u, y_u).
    """
    u = np.asarray(v, dtype=np.float64)
    return np.array([u[2], -u[0], u[1]])


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

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class GazeRay:
    """Half-line from a world-frame origin along a unit gaze direction."""

    origin: np.ndarray
    direction: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.float64)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise ValidationError(f"ray origin must be a finite 3-vector, got {self.origin!r}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", normalize_unit(self.direction, "ray direction"))

    def point_at(self, lam: float) -> np.ndarray:
        return gaze_ray_point(self, lam)


def gaze_ray_point(ray: GazeRay, lam: float) -> np.ndarray:
    """Point on the ray at parameter ``lam`` >= 0 (meters along the direction)."""
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"ray parameter must be finite and >= 0, got {lam!r}")
    return ray.origin + lam * ray.direction
