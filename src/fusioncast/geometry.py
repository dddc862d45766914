"""Rotation handling and heading extraction.

World frame convention used everywhere in this package: right-handed, Z up,
X forward. A heading is the yaw of the forward axis about +Z, measured from
+X and wrapped to (-pi, pi]. Quaternions are (w, x, y, z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True, init=False)
class AgentState:
    """Planar pose (x, y, heading). Heading is wrapped to (-pi, pi] on construction.

    The check is one isfinite per field, not a sum as in ``protocol``: a sum
    of numpy scalars warns on overflow, and a sum after float() would accept
    numeric strings. The aligner and ``predict`` skip it: they build their
    states with ``_checked_state`` from values checked where they came in
    (a message's position, one isfinite of a whole forecast).
    """

    x: float
    y: float
    theta: float

    def __init__(self, x, y, theta):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
            for name, val in (("x", x), ("y", y), ("theta", theta)):
                if not math.isfinite(val):
                    raise ValidationError(f"AgentState.{name} must be finite, got {val!r}")
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "theta", wrap_angle(float(theta)))


_set_x, _set_y, _set_theta = (getattr(AgentState, f).__set__ for f in ("x", "y", "theta"))


def _checked_state(x: float, y: float, theta: float) -> AgentState:
    """An AgentState of floats already checked finite, ``theta`` already wrapped."""
    state = object.__new__(AgentState)
    _set_x(state, x)
    _set_y(state, y)
    _set_theta(state, theta)
    return state
