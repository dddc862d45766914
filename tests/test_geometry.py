"""Rotation and heading math."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from fusioncast.errors import ValidationError
from fusioncast.geometry import (
    VERTICAL_EPS,
    AgentState,
    heading_and_rotate,
    quaternion_from_yaw,
    wrap_angle,
)
from fusioncast.protocol import HeadsetSample
from fusioncast.sessions import GRID_PERIOD_US, Session, resample


def _quat_from_axis_angle(axis, angle):
    """Independent quaternion construction used as the oracle here."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    w = math.cos(half)
    x, y, z = math.sin(half) * axis
    return (w, x, y, z)


def _rotation_matrix_axis_angle(axis, angle):
    """Rodrigues' formula, independent of the module under test."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def _quaternion_multiply(a, b):
    """Hamilton product a*b for (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _rotation_oracle(q) -> np.ndarray:
    """3x3 rotation matrix of quaternion q (w, x, y, z), renormalized, in numpy."""
    v = np.asarray(q, dtype=np.float64)
    w, x, y, z = v / np.linalg.norm(v)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _heading_oracle(rot: np.ndarray):
    """Heading of the rotated forward axis (first column), None if near vertical,
    and how far a correct float computation of it may stray: 1e-12, plus the
    rounding of the axis (~1e-15) magnified by atan2 as its horizontal part shrinks."""
    fx, fy = rot[0, 0], rot[1, 0]
    horizontal = math.hypot(fx, fy)
    if horizontal < VERTICAL_EPS:
        return None, None
    return wrap_angle(math.atan2(fy, fx)), 1e-12 + 1e-15 / horizontal


def _rotation_matrix(q) -> np.ndarray:
    """The matrix heading_and_rotate applies: its columns are the rotated basis vectors."""
    return np.column_stack([heading_and_rotate(q, e)[1] for e in np.eye(3)])


def _near_vertical_quat(rng, tilt):
    """A unit quaternion whose forward axis has horizontal length sin(tilt) ~ tilt:
    random yaw, then a pitch to tilt from straight up or down, then random roll."""
    pitch = rng.choice([-1.0, 1.0]) * (math.pi / 2 - tilt)
    q = _quat_from_axis_angle([0, 0, 1], rng.uniform(-math.pi, math.pi))
    q = _quaternion_multiply(q, _quat_from_axis_angle([0, 1, 0], pitch))
    return _quaternion_multiply(q, _quat_from_axis_angle([1, 0, 0], rng.uniform(-math.pi, math.pi)))


def _oracle_cases(rng, n):
    """Unit quaternions: random ones, and ones with the forward axis 1% inside or
    outside VERTICAL_EPS of vertical."""
    cases = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            cases.append(tuple(_random_unit_quat(rng)))
        else:
            cases.append(_near_vertical_quat(rng, VERTICAL_EPS * (0.99 if kind == 1 else 1.01)))
    return cases


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.5) == 0.5

    def test_closed_upper_end(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_range_over_sweep(self):
        for theta in np.linspace(-20, 20, 4001):
            w = wrap_angle(theta)
            assert -math.pi < w <= math.pi
            # Same angle modulo 2*pi.
            assert abs(math.remainder(w - theta, 2 * math.pi)) < 1e-9

    def test_idempotent_to_the_bit(self):
        # The aligner wraps each heading once, trusting a second wrap to be a
        # no-op: pi - w and its difference back from pi are exact. Just above
        # pi, the remainder rounds up to 2 pi.
        rng = np.random.default_rng(41)
        ulps = np.spacing(math.pi) * np.arange(-4, 5)
        near_pi = [*(math.pi + ulps), *(-math.pi + ulps)]
        angles = [*rng.uniform(-50.0, 50.0, 20_000), *rng.normal(0.0, 1e-12, 1000),
                  *np.arctan2(*rng.normal(size=(2, 20_000))), *near_pi, 0.0, -0.0, 1e-300]
        for theta in angles:
            once = wrap_angle(float(theta))
            assert struct.pack("<d", wrap_angle(once)) == struct.pack("<d", once), theta


class TestRotationFromQuaternion:
    def test_identity(self):
        assert np.allclose(_rotation_matrix((1, 0, 0, 0)), np.eye(3))

    def test_yaw_90_rotates_forward_axis(self):
        _, forward = heading_and_rotate(quaternion_from_yaw(math.pi / 2), (1.0, 0.0, 0.0))
        assert np.allclose(forward, [0.0, 1.0, 0.0], atol=1e-12)

    def test_matches_rodrigues_on_random_axes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            axis = rng.normal(size=3)
            angle = rng.uniform(-math.pi, math.pi)
            got = _rotation_matrix(_quat_from_axis_angle(axis, angle))
            want = _rotation_matrix_axis_angle(axis, angle)
            assert np.allclose(got, want, atol=1e-12)

    def test_conjugate_gives_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            q = _random_unit_quat(rng)
            conj = (q[0], -q[1], -q[2], -q[3])
            prod = _rotation_matrix(q) @ _rotation_matrix(conj)
            assert np.allclose(prod, np.eye(3), atol=1e-12)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            rot = _rotation_matrix(_random_unit_quat(rng))
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9

    def test_double_cover(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            q = _random_unit_quat(rng)
            assert np.allclose(_rotation_matrix(q), _rotation_matrix(-q), atol=1e-12)

    def test_matches_numpy_oracle(self):
        # Heading and rotated vector against the numpy matrix, on unit and
        # scaled quaternions; near-vertical cases sit 1% either side of the
        # bound, so the undefined-heading decision must agree exactly.
        rng = np.random.default_rng(19)
        undefined = 0
        for q in _oracle_cases(rng, 3000):
            scale = float(rng.uniform(0.5, 2.0))
            q = tuple(scale * c for c in q)
            v = tuple(rng.normal(size=3))
            rot = _rotation_oracle(q)
            heading, moved = heading_and_rotate(q, v)
            want, tol = _heading_oracle(rot)
            assert (heading is None) == (want is None)
            if heading is None:
                undefined += 1
            else:
                assert abs(wrap_angle(heading - want)) <= tol
            assert np.allclose(moved, rot @ np.array(v), rtol=0, atol=1e-12)
        assert undefined == 1000

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            heading_and_rotate((0, 0, 0, 0))

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError):
                heading_and_rotate((bad, 0, 0, 1))


class TestAlignerRotation:
    def test_resample_matches_numpy_oracle(self):
        # One sample per grid point, so each frame comes from one message; the
        # near-vertical ones make resample carry the previous heading forward.
        rng = np.random.default_rng(29)
        quats = [quaternion_from_yaw(0.4)] + _oracle_cases(rng, 1500)
        session = Session(1, "human")
        messages = []
        for i, q in enumerate(quats):
            gaze = rng.normal(size=3)
            messages.append(HeadsetSample(i * GRID_PERIOD_US, 1, (0.1 * i, 0.0, 1.6), q,
                                          gaze / np.linalg.norm(gaze)))
            session.ingest(messages[-1])
        session.end()
        result = resample(session)
        assert len(result.frames) == len(quats)
        prev, carries = None, 0
        for frame, msg in zip(result.frames, messages):
            rot = _rotation_oracle(msg.orientation)
            want = _heading_oracle(rot)
            assert frame.heading_carried == (want[0] is None)
            if want[0] is None:
                want, carries = prev, carries + 1
            assert abs(wrap_angle(frame.state.theta - want[0])) <= want[1]
            assert np.allclose(frame.gaze_world, rot @ np.array(msg.gaze_local), rtol=0, atol=1e-12)
            prev = want
        assert result.heading_carries == carries == 500


class TestHeading:
    def test_identity_zero(self):
        assert heading_and_rotate((1, 0, 0, 0))[0] == 0.0

    def test_pure_yaw_90(self):
        assert heading_and_rotate(quaternion_from_yaw(math.pi / 2))[0] == pytest.approx(
            math.pi / 2
        )

    def test_yaw_then_pitch_keeps_heading(self):
        # Oracle: R = Rz(30 deg) @ Ry(20 deg); forward = R @ x_hat; atan2 of its
        # horizontal projection is exactly 30 deg because pitch only shortens it.
        yaw, pitch = math.radians(30), math.radians(20)
        q = _quaternion_multiply(
            _quat_from_axis_angle([0, 0, 1], yaw), _quat_from_axis_angle([0, 1, 0], pitch)
        )
        rot_oracle = _rotation_matrix_axis_angle([0, 0, 1], yaw) @ _rotation_matrix_axis_angle(
            [0, 1, 0], pitch
        )
        fx, fy = (rot_oracle @ np.array([1.0, 0, 0]))[:2]
        assert math.atan2(fy, fx) == pytest.approx(math.pi / 6, abs=1e-12)
        assert heading_and_rotate(q)[0] == pytest.approx(math.pi / 6, abs=1e-9)

    def test_invariant_under_extra_pitch_and_roll(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            yaw = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-1.2, 1.2)  # keeps forward well off vertical
            roll = rng.uniform(-math.pi, math.pi)
            q = _quat_from_axis_angle([0, 0, 1], yaw)
            q = _quaternion_multiply(q, _quat_from_axis_angle([0, 1, 0], pitch))
            q = _quaternion_multiply(q, _quat_from_axis_angle([1, 0, 0], roll))
            assert heading_and_rotate(q)[0] == pytest.approx(wrap_angle(yaw), abs=1e-9)

    def test_vertical_forward_has_no_heading(self):
        straight_up = _quat_from_axis_angle([0, 1, 0], -math.pi / 2)
        assert heading_and_rotate(straight_up)[0] is None


class TestAgentState:
    def test_theta_wrapped(self):
        state = AgentState(1.0, 2.0, 3 * math.pi)
        assert state.theta == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            AgentState(float("inf"), 0.0, 0.0)

    def test_equal_frozen_and_repr(self):
        a = AgentState(1, 2.0, 0.5)
        assert a == AgentState(1.0, 2, 0.5) and hash(a) == hash(AgentState(1.0, 2.0, 0.5))
        assert a != AgentState(1.0, 2.0, 0.25)
        assert repr(a) == "AgentState(x=1.0, y=2.0, theta=0.5)"
        assert dataclasses.astuple(a) == (1.0, 2.0, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.x = 3.0

    def test_matches_per_field_oracle(self):
        rng = np.random.default_rng(127)
        rejected = accepted = 0
        for args in _agent_state_cases(rng):
            want = _agent_state_outcome(_old_agent_state, args)
            assert _agent_state_outcome(AgentState, args) == want, args
            if isinstance(want[0], bytes):
                accepted += 1
            else:
                rejected += 1
        assert rejected > 1000 and accepted > 1000


def _old_agent_state(x, y, theta):
    """The per-field construction the one-sum fast path replaced, kept as its
    oracle; returns (x, y, theta) as the old constructor stored them."""
    for name, val in (("x", x), ("y", y), ("theta", theta)):
        if not math.isfinite(val):
            raise ValidationError(f"AgentState.{name} must be finite, got {val!r}")
    return float(x), float(y), wrap_angle(float(theta))


def _agent_state_outcome(make, args):
    """The stored bits of a construction, or the type and text of what it raised."""
    try:
        out = make(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's exceptions are compared too
        return type(exc), str(exc)
    if isinstance(out, AgentState):
        out = (out.x, out.y, out.theta)
    return tuple(struct.pack("<d", v) for v in out)


def _agent_state_cases(rng):
    """(x, y, theta) triples; each batch targets one edge of the fast path."""
    specials = [math.nan, math.inf, -math.inf]
    cases = []
    for _ in range(1500):
        vals = list(rng.normal(scale=10.0 ** rng.integers(-300, 300), size=3))
        cases.append(tuple(vals))
        # NaN and infinities anywhere, one or two of them (inf beside -inf included).
        for i in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
            vals[int(i)] = specials[int(rng.integers(0, 3))]
        cases.append(tuple(vals))
        # Finite fields whose sum overflows.
        cases.append(tuple(rng.choice([-1.0, 1.0], size=3) * 10.0 ** rng.uniform(307, 308, size=3)))
    cases += [
        (math.inf, -math.inf, 0.0),
        (0.0, math.inf, -math.inf),
        (1e308, 1e308, 0.0),
        (-1e308, -1e308, 1.0),
        (1e308, 0.0, 1e308),
        (0.0, 0.0, -math.pi),
        (0.0, 0.0, math.pi),
        (0.0, 0.0, 4.0),
        (0.0, 0.0, -0.0),
        (1, 2, 3),
        (True, False, True),
        (10 ** 400, 0, 0),
        (np.float64(1.5), np.float64(-2.5), np.float64(3.5)),
        (np.float32(0.1), np.float32(0.2), np.float32(4.0)),
        (np.int64(7), np.int64(-7), np.int64(1)),
        (np.float64(math.nan), 0.0, 0.0),
        (0.0, np.float32(math.inf), 0.0),
        ("1.0", 0.0, 0.0),
        (0.0, "nan", 0.0),
        (math.nan, "x", 0.0),
    ]
    return cases
