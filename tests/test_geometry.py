"""Rotation and heading math."""

import math

import numpy as np
import pytest

from fusioncast.errors import HeadingUndefinedError, ValidationError
from fusioncast.geometry import (
    AgentState,
    heading_from_orientation,
    quaternion_from_yaw,
    rotation_from_quaternion,
    wrap_angle,
)


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


class TestRotationFromQuaternion:
    def test_identity(self):
        assert np.allclose(rotation_from_quaternion((1, 0, 0, 0)), np.eye(3))

    def test_yaw_90_rotates_forward_axis(self):
        rot = rotation_from_quaternion(quaternion_from_yaw(math.pi / 2))
        forward = rot @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(forward, [0.0, 1.0, 0.0], atol=1e-12)

    def test_matches_rodrigues_on_random_axes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            axis = rng.normal(size=3)
            angle = rng.uniform(-math.pi, math.pi)
            got = rotation_from_quaternion(_quat_from_axis_angle(axis, angle))
            want = _rotation_matrix_axis_angle(axis, angle)
            assert np.allclose(got, want, atol=1e-12)

    def test_conjugate_gives_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            q = _random_unit_quat(rng)
            conj = (q[0], -q[1], -q[2], -q[3])
            prod = rotation_from_quaternion(q) @ rotation_from_quaternion(conj)
            assert np.allclose(prod, np.eye(3), atol=1e-12)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            rot = rotation_from_quaternion(_random_unit_quat(rng))
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9

    def test_double_cover(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            q = _random_unit_quat(rng)
            assert np.allclose(
                rotation_from_quaternion(q), rotation_from_quaternion(-q), atol=1e-12
            )

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_quaternion((0, 0, 0, 0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            rotation_from_quaternion((float("nan"), 0, 0, 1))


class TestHeading:
    def test_identity_zero(self):
        assert heading_from_orientation((1, 0, 0, 0)) == 0.0

    def test_pure_yaw_90(self):
        assert heading_from_orientation(quaternion_from_yaw(math.pi / 2)) == pytest.approx(
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
        assert heading_from_orientation(q) == pytest.approx(math.pi / 6, abs=1e-9)

    def test_invariant_under_extra_pitch_and_roll(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            yaw = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-1.2, 1.2)  # keeps forward well off vertical
            roll = rng.uniform(-math.pi, math.pi)
            q = _quat_from_axis_angle([0, 0, 1], yaw)
            q = _quaternion_multiply(q, _quat_from_axis_angle([0, 1, 0], pitch))
            q = _quaternion_multiply(q, _quat_from_axis_angle([1, 0, 0], roll))
            assert heading_from_orientation(q) == pytest.approx(wrap_angle(yaw), abs=1e-9)

    def test_vertical_forward_raises(self):
        straight_up = _quat_from_axis_angle([0, 1, 0], -math.pi / 2)
        with pytest.raises(HeadingUndefinedError):
            heading_from_orientation(straight_up)


class TestAgentState:
    def test_theta_wrapped(self):
        state = AgentState(1.0, 2.0, 3 * math.pi)
        assert state.theta == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            AgentState(float("inf"), 0.0, 0.0)
