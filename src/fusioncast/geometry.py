"""Rotation handling and heading extraction.

World frame convention used everywhere in this package: right-handed, Z up,
X forward. A heading is the yaw of the forward axis about +Z, measured from
+X and wrapped to (-pi, pi]. Quaternions are (w, x, y, z).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ValidationError

TWO_PI = 2.0 * math.pi

# Forward axis tilts closer to vertical than this -> heading is undefined.
VERTICAL_EPS = 1e-6


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Note the closed upper end: +pi stays +pi.
    Applied to a numpy array, wraps each element the same way. A remainder
    that rounds up to TWO_PI counts as 0, so pi + 1 ulp wraps to pi, not -pi."""
    r = (-theta + math.pi) % TWO_PI
    return -((r < TWO_PI) * r - math.pi)


def quaternion_from_yaw(yaw: float) -> tuple[float, float, float, float]:
    """Quaternion for a pure rotation of ``yaw`` radians about world +Z."""
    half = 0.5 * yaw
    return (math.cos(half), 0.0, 0.0, math.sin(half))


def heading_and_rotate(q, v=None) -> tuple[float | None, tuple[float, float, float] | None]:
    """The heading of orientation ``q`` (w, x, y, z), and vector ``v`` rotated by it.

    The heading is the yaw of the rotated forward axis (+X), projected onto
    the horizontal plane; it is None when that axis is within VERTICAL_EPS of
    vertical. The rotated vector is None when ``v`` is None. ``q`` is
    renormalized here; a zero or non-finite quaternion is rejected.
    """
    w, x, y, z = q
    norm = math.hypot(w, x, y, z)
    if not math.isfinite(norm):
        raise ValidationError(f"quaternion has non-finite components: {q!r}")
    if norm < 1e-12:
        raise ValueError("zero quaternion has no orientation")
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    # First column of the rotation matrix: the rotated forward axis.
    fx = 1 - 2 * (y * y + z * z)
    fy = 2 * (x * y + w * z)
    heading = None
    if math.hypot(fx, fy) >= VERTICAL_EPS:
        heading = wrap_angle(math.atan2(fy, fx))
    if v is None:
        return heading, None
    vx, vy, vz = v
    return heading, (
        fx * vx + 2 * (x * y - w * z) * vy + 2 * (x * z + w * y) * vz,
        fy * vx + (1 - 2 * (x * x + z * z)) * vy + 2 * (y * z - w * x) * vz,
        2 * (x * z - w * y) * vx + 2 * (y * z + w * x) * vy + (1 - 2 * (x * x + y * y)) * vz,
    )


def _check_finite(x, y, theta) -> None:
    """Raise ValidationError naming the first non-finite of x, y, theta."""
    for name, val in (("x", x), ("y", y), ("theta", theta)):
        if not math.isfinite(val):
            raise ValidationError(f"AgentState.{name} must be finite, got {val!r}")


class AgentState(namedtuple("AgentState", "x y theta")):
    """Planar pose (x, y, heading), a plain float triple that checks nothing:
    its floats are checked where they enter, by the message constructors and
    by the forecast's one isfinite in ``predictors._states``. Headings arrive
    wrapped to (-pi, pi]; the aligner and ``predict`` build with ``_make``."""

    __slots__ = ()
