"""Wire format: framing, round-trips, and hostile-input behavior."""

import math
import struct
import time

import pytest

from fusioncast import protocol
from fusioncast.errors import ProtocolError, ValidationError
from fusioncast.protocol import (
    Hello,
    HeadsetSample,
    Prediction,
    RobotSample,
    SessionEnd,
    SessionStart,
    StreamDecoder,
    decode,
    encode,
)


def _random_headset(rng, session_id=1):
    quat = rng.normal(size=4)
    quat /= (quat ** 2).sum() ** 0.5
    gaze = rng.normal(size=3)
    gaze /= (gaze ** 2).sum() ** 0.5
    return HeadsetSample(
        timestamp_us=int(rng.integers(0, 2 ** 63)),
        session_id=session_id,
        position=tuple(rng.normal(scale=100, size=3)),
        orientation=tuple(quat),
        gaze_local=tuple(gaze),
    )


def _random_robot(rng, session_id=2):
    quat = rng.normal(size=4)
    quat /= (quat ** 2).sum() ** 0.5
    return RobotSample(
        timestamp_us=int(rng.integers(0, 2 ** 63)),
        session_id=session_id,
        position=tuple(rng.normal(scale=100, size=3)),
        orientation=tuple(quat),
        linear_speed=float(abs(rng.normal())),
        yaw_rate=float(rng.normal()),
    )


def _random_prediction(rng, session_id=3):
    states = []
    for _ in range(int(rng.integers(1, 60))):
        theta = float(rng.uniform(-math.pi, math.pi))
        if theta <= -math.pi:  # uniform() includes the low end; -pi is invalid
            theta = math.pi
        states.append((float(rng.normal(scale=10)), float(rng.normal(scale=10)), theta))
    states = tuple(states)
    return Prediction(int(rng.integers(0, 2 ** 63)), session_id, states)


def _random_message(rng):
    pick = rng.integers(0, 6)
    if pick == 0:
        return Hello()
    if pick == 1:
        return SessionStart(int(rng.integers(0, 2 ** 32)), "human", "corridor-a")
    if pick == 2:
        return SessionEnd(int(rng.integers(0, 2 ** 32)), bool(rng.integers(0, 2)))
    if pick == 3:
        return _random_headset(rng)
    if pick == 4:
        return _random_robot(rng)
    return _random_prediction(rng)


class TestFraming:
    def test_hello_is_five_bytes(self):
        assert encode(Hello()) == bytes([0x01, 0x00, 0x00, 0x00, 0x7F])

    def test_identity_headset_round_trip(self):
        msg = HeadsetSample(0, 0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        frame = encode(msg)
        decoded, end = decode(frame)
        assert decoded == msg
        assert end == len(frame)

    def test_two_hellos_split(self):
        stream = encode(Hello()) + encode(Hello())
        msg, end = decode(stream)
        assert msg == Hello()
        assert end == 5
        assert decode(stream, end) == (Hello(), 10)
        assert decode(stream, 10) is None

    def test_truncated_frame_at_offset_needs_more(self):
        stream = encode(Hello()) + struct.pack("<IB", 100, 0x01) + b"\x00" * 20
        assert decode(stream, 5) is None

    def test_truncated_frame_needs_more(self):
        frame = struct.pack("<IB", 100, 0x01) + b"\x00" * 20
        assert decode(frame) is None

    def test_header_prefix_needs_more(self):
        assert decode(b"\x05\x00") is None

    def test_unknown_tag(self):
        frame = struct.pack("<IB", 1, 0xEE)
        with pytest.raises(ProtocolError, match="0xEE"):
            decode(frame)

    def test_oversize_length_rejected_before_payload(self):
        frame = struct.pack("<IB", protocol.MAX_FRAME_LEN + 1, 0x01)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode(frame)

    def test_short_payload_rejected(self):
        frame = struct.pack("<IB", 11, 0x01) + b"\x00" * 10
        with pytest.raises(ProtocolError):
            decode(frame)

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError):
            decode(struct.pack("<IB", 0, 0x7F))

    @pytest.mark.parametrize("byte", [2, 255])
    def test_session_end_complete_byte_above_one_rejected(self, byte):
        frame = bytes.fromhex("06000000 11 04000000") + bytes([byte])
        with pytest.raises(ProtocolError, match=f"complete byte must be 0 or 1, got {byte}$"):
            decode(frame)

    @pytest.mark.parametrize("byte", [0, 1])
    def test_session_end_complete_byte_round_trips(self, byte):
        frame = bytes.fromhex("06000000 11 04000000") + bytes([byte])
        assert decode(frame) == (SessionEnd(4, complete=byte == 1), len(frame))
        assert encode(decode(frame)[0]) == frame


def _valid_headset():
    return HeadsetSample(1, 2, (0.0, 0.0, 1.6), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def _valid_robot():
    return RobotSample(1, 2, (0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0), 1.0, 0.0)


def _valid_prediction():
    return Prediction(1, 2, ((0.0, 0.0, 0.0), (0.1, 0.0, 0.0)))


class TestValidation:
    def test_non_finite_position_rejected(self):
        with pytest.raises(ValidationError):
            HeadsetSample(0, 0, (float("nan"), 0, 0), (1, 0, 0, 0), (0, 0, 1))

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(ValidationError):
            HeadsetSample(0, 0, (0, 0, 0), (2, 0, 0, 0), (0, 0, 1))

    def test_negative_speed_rejected(self):
        with pytest.raises(ValidationError):
            RobotSample(0, 0, (0, 0, 0), (1, 0, 0, 0), -0.5, 0.0)

    def test_prediction_theta_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Prediction(0, 0, ((0.0, 0.0, 4.0),))

    def test_near_unit_quaternion_normalized(self):
        msg = HeadsetSample(0, 0, (0, 0, 0), (1 + 3e-7, 0, 0, 0), (0, 0, 1))
        norm = sum(c * c for c in msg.orientation) ** 0.5
        assert abs(norm - 1.0) < 1e-9

    def test_decoded_quaternion_unit_norm(self):
        msg = HeadsetSample(0, 0, (0, 0, 0), (1 + 3e-7, 0, 0, 0), (0, 0, 1))
        decoded, _ = decode(encode(msg))
        norm = sum(c * c for c in decoded.orientation) ** 0.5
        assert abs(norm - 1.0) < 1e-9

    @pytest.mark.parametrize("build", [
        lambda flag: HeadsetSample(flag, 1, (0.0, 0.0, 1.6), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        lambda flag: HeadsetSample(1, flag, (0.0, 0.0, 1.6), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        lambda flag: RobotSample(flag, 1, (0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0), 1.0, 0.0),
        lambda flag: RobotSample(1, flag, (0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0), 1.0, 0.0),
        lambda flag: SessionStart(flag, "human"),
        lambda flag: SessionEnd(flag),
        lambda flag: Prediction(flag, 1, ((0.0, 0.0, 0.0),)),
        lambda flag: Prediction(1, flag, ((0.0, 0.0, 0.0),)),
    ], ids=["headset_timestamp", "headset_session", "robot_timestamp", "robot_session",
            "session_start", "session_end", "prediction_timestamp", "prediction_session"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_wire_integers_refuse_bool(self, build, flag):
        with pytest.raises(ValidationError, match=f"unsigned .* got {flag}"):
            build(flag)
        assert decode(encode(build(int(flag))))[0] == build(int(flag))

    @pytest.mark.parametrize("make, field, value", [
        (_valid_headset, "position", (float("inf"), 0.0, 0.0)),
        (_valid_headset, "position", (float("nan"), 0.0, 0.0)),
        (_valid_headset, "position", (0.0, 0.0)),
        (_valid_headset, "orientation", (2.0, 0.0, 0.0, 0.0)),
        (_valid_headset, "gaze_local", (0.0, 0.0, 2.0)),
        (_valid_headset, "session_id", 2 ** 32),
        (_valid_headset, "timestamp_us", -1),
        (_valid_headset, "session_id", True),
        (_valid_robot, "linear_speed", -1.0),
        (_valid_prediction, "states", ((0.0, 0.0, 4.0),)),
        (lambda: SessionEnd(1), "complete", "no"),
        (lambda: SessionEnd(1), "complete", 2),
        (lambda: SessionStart(1, "human"), "label", 5),
        (lambda: SessionStart(1, "human"), "agent_kind", ["human"]),
        (lambda: SessionStart(1, "human"), "agent_kind", "walker"),
    ], ids=["inf_position", "nan_position", "short_position", "non_unit_orientation",
            "non_unit_gaze", "session_id_too_big", "negative_timestamp", "bool_session_id",
            "negative_speed", "theta_out_of_range", "end_str_complete", "end_int_complete",
            "start_int_label", "start_list_kind", "start_unknown_kind"])
    def test_fields_cannot_change_after_checks(self, message_is_fixed, make, field, value):
        # encode packs a message without checking it again, so no field may
        # change after the constructor checked it.
        message_is_fixed(make(), field, value)

    def test_encode_calls_no_validator(self, monkeypatch):
        import copy
        import pickle

        msgs = [Hello(), SessionStart(1, "human", "lab"), SessionEnd(1, complete=False),
                _valid_headset(), _valid_robot(), _valid_prediction()]
        calls = []
        for name in ("_check_uint", "_check_finite_tuple", "_check_unit_tuple",
                     "_fast_prediction_states"):
            real = getattr(protocol, name)
            monkeypatch.setattr(protocol, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        frames = [encode(msg) for msg in msgs]
        assert calls == []
        # A frame over MAX_FRAME_LEN is still refused.
        too_long = Prediction(5, 6, ((0.0, 0.0, 0.0),) * 65535)
        with pytest.raises(ValidationError, match="exceeds 65536"):
            encode(too_long)
        # Copies go through the constructor and keep every bit.
        for msg, frame in zip(msgs, frames):
            for copied in (pickle.loads(pickle.dumps(msg)), copy.copy(msg), copy.deepcopy(msg)):
                assert type(copied) is type(msg) and copied == msg and encode(copied) == frame

    @pytest.mark.parametrize("build, match", [
        (lambda: SessionEnd(1, complete="no"), "complete must be a bool"),
        (lambda: SessionEnd(1, complete=1), "complete must be a bool"),
        (lambda: SessionStart(1, "human", 5), "label must be a str"),
        (lambda: SessionStart(1, "human", b"lab"), "label must be a str"),
        (lambda: SessionStart(1, ["human"]), "agent_kind must be"),
        (lambda: SessionStart(1, "walker"), "agent_kind must be"),
    ], ids=["end_str", "end_int", "start_int_label", "start_bytes_label", "start_list_kind",
            "start_unknown_kind"])
    def test_control_messages_check_their_fields(self, build, match):
        with pytest.raises(ValidationError, match=match):
            build()


def _old_check_finite_tuple(values, n, what):
    """The per-element validator the fast path replaced, kept as its oracle."""
    out = tuple(float(v) for v in values)
    if len(out) != n:
        raise ValidationError(f"{what} must have {n} components, got {len(out)}")
    for v in out:
        if not math.isfinite(v):
            raise ValidationError(f"{what} has non-finite component {v!r}")
    return out


def _old_check_unit_tuple(values, n, what):
    out = _old_check_finite_tuple(values, n, what)
    norm = math.sqrt(sum(v * v for v in out))
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"{what} norm {norm!r} not within 1e-6 of 1")
    if abs(norm - 1.0) <= 1e-12:
        return out
    return tuple(v / norm for v in out)


def _outcome(check, values, n):
    """The output bits of a validator, or the type and text of what it raised."""
    try:
        out = check(values, n, "field")
    except Exception as exc:  # noqa: BLE001 - the oracle's exceptions are compared too
        return type(exc), str(exc)
    return tuple(struct.pack("<d", v) for v in out)


def _validator_cases(rng):
    """Inputs for the validators, as (values, n). Each batch targets one edge."""
    import numpy as np

    specials = [math.nan, math.inf, -math.inf]
    cases = []
    for _ in range(2000):
        n = int(rng.integers(3, 5))
        unit = rng.normal(size=n)
        unit /= math.sqrt(sum(v * v for v in unit))
        # Norms just inside and outside 1 +- 1e-6 and 1 +- 1e-12, and anywhere.
        for edge in (1e-6, 1e-12):
            for factor in (0.5, 0.999, 1.001, 2.0):
                scale = 1.0 + float(rng.choice([-1.0, 1.0])) * edge * factor
                cases.append((tuple(unit * scale), n))
        cases.append((tuple(unit * float(rng.uniform(0.0, 2.0))), n))
        cases.append((tuple(rng.normal(scale=10.0 ** rng.integers(-300, 300), size=n)), n))
        # NaN and infinities anywhere, one or two of them (inf beside -inf included).
        vals = list(unit)
        for i in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
            vals[int(i)] = specials[int(rng.integers(0, 3))]
        cases.append((tuple(vals), n))
        # Finite components whose sum or sum of squares overflows.
        big = list(rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(154, 308, size=n))
        cases.append((tuple(big), n))
        # Wrong lengths.
        cases.append((tuple(unit), n + int(rng.choice([-1, 1]))))
    cases += [
        ((math.inf, -math.inf, 0.0), 3),
        ((1e308, 1e308, 0.0), 3),
        ((-1e308, -1e308, 1e308, 0.0), 4),
        ((1e200, 0.0, 0.0, 0.0), 4),
        ((1, 0, 0), 3),
        ((np.int64(1), 0, 0, 0), 4),
        ((np.float32(0.6), np.float32(0.8), 0.0), 3),
        ((np.float64(0.6), np.float64(0.8), np.float64(0.0)), 3),
        (np.array([0.0, 0.6, 0.8]), 3),
        ((True, 0, 0), 3),
        (("1.0", "nan", "0"), 3),
        (("x", 0, 0), 3),
        ((), 3),
    ]
    return cases


class TestFastValidation:
    def test_matches_per_element_oracle(self):
        import numpy as np

        rng = np.random.default_rng(113)
        rejected = {"finite": 0, "unit": 0}
        accepted = {"finite": 0, "unit": 0}
        pairs = (("finite", protocol._check_finite_tuple, _old_check_finite_tuple),
                 ("unit", protocol._check_unit_tuple, _old_check_unit_tuple))
        for values, n in _validator_cases(rng):
            for name, fast, old in pairs:
                want = _outcome(old, values, n)
                assert _outcome(fast, values, n) == want, (name, values, n)
                if isinstance(want[0], bytes):
                    accepted[name] += 1
                else:
                    rejected[name] += 1
        assert min(rejected.values()) > 3000 and min(accepted.values()) > 3000


    def test_prediction_matches_per_state_oracle(self):
        import numpy as np

        rng = np.random.default_rng(131)
        outcomes = {"accepted": 0, "rejected": 0}
        for states in _prediction_cases(rng):
            want = _prediction_outcome(_old_prediction_states, states)
            assert _prediction_outcome(lambda s: Prediction(5, 6, s).states, states) == want, states
            outcomes["accepted" if isinstance(want[0], tuple) else "rejected"] += 1
        assert min(outcomes.values()) > 1000


def _old_prediction_states(states):
    """The states as the per-state Prediction.__post_init__ that the one-pass
    fast path replaced validated them, kept as its oracle."""
    states = tuple(_old_check_finite_tuple(s, 3, "prediction state") for s in states)
    protocol._check_uint(len(states), 16, "horizon_count")
    for _, _, theta in states:
        if not (-math.pi < theta <= math.pi):
            raise ValidationError(f"prediction theta {theta!r} outside (-pi, pi]")
    return states


def _prediction_outcome(make, arg):
    """The bits of validated states, or the type and text of what was raised."""
    try:
        out = make(arg)
    except Exception as exc:  # noqa: BLE001 - the oracle's exceptions are compared too
        return type(exc), str(exc)
    assert type(out) is tuple and all(type(s) is tuple for s in out)
    return tuple(tuple(struct.pack("<d", v) for v in s) for s in out), len(out)


def _prediction_cases(rng):
    """Prediction states; each batch targets one edge of the fast path."""
    import numpy as np

    specials = [math.nan, math.inf, -math.inf]

    def clean(count):
        xy = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=(count, 2))
        theta = rng.uniform(-math.pi, math.pi, size=(count, 1))
        return [list(row) for row in np.hstack([xy, theta])]

    cases = []
    for _ in range(600):
        count = int(rng.integers(1, 45))
        cases.append(tuple(map(tuple, clean(count))))
        # NaN and infinities anywhere, one or two of them (inf beside -inf included).
        rows = clean(count)
        for _ in range(int(rng.integers(1, 3))):
            rows[int(rng.integers(0, count))][int(rng.integers(0, 3))] = specials[int(rng.integers(0, 3))]
        cases.append(tuple(map(tuple, rows)))
        # Finite states whose sum over all states overflows.
        rows = clean(count + 1)
        for i in rng.choice(count + 1, size=2, replace=count == 0):
            rows[int(i)][int(rng.integers(0, 2))] = float(rng.choice([-1.0, 1.0])) * 1e308
        cases.append(tuple(map(tuple, rows)))
        # A 2- or 4-element state, alone or before or after a NaN.
        rows = clean(count + 1)
        i = int(rng.integers(0, count + 1))
        rows[i] = rows[i][:2] if rng.integers(0, 2) else rows[i] + [0.0]
        if rng.integers(0, 2):
            rows[int(rng.integers(0, count + 1))][0] = math.nan
        cases.append(tuple(map(tuple, rows)))
        # Theta at and beyond the ends of (-pi, pi], alone or with a NaN elsewhere.
        rows = clean(count)
        rows[int(rng.integers(0, count))][2] = float(rng.choice([-math.pi, math.pi, 4.0, -4.0]))
        if rng.integers(0, 2):
            rows[int(rng.integers(0, count))][int(rng.integers(0, 2))] = math.nan
        cases.append(tuple(map(tuple, rows)))
    cases += [
        (),
        ((math.inf, -math.inf, 0.0),),
        ((math.inf, 0.0, 0.0), (-math.inf, 0.0, 0.0)),
        ((1e308, 1e308, 0.0),),
        ((1, 2, 3),),
        ((True, False, True), (0, 0, 0)),
        ((np.float32(0.5), np.float64(-0.5), np.int64(1)),),
        tuple(np.array([[0.0, 1.0, 2.0], [3.0, 4.0, -2.0]])),
        [[0.0, 1.0, 2.0], [3.0, 4.0, -2.0]],
        ((0.0, 0.0, -0.0),),
        ((1.0, 2.0),),
        ((1.0, 2.0, 3.0, 4.0),),
        ((1.0, 2.0), (math.nan, 0.0, 0.0)),
        ((0.0, 0.0, 4.0), (math.nan, 0.0, 0.0)),
        (("x", 0.0, 0.0),),
        (("1.5", 0.0, 0.0),),
        ((1.0, 2.0), ("x", 0.0, 0.0)),
        (1.0,),
        ((0.0, 0.0, 0.0),) * 65535,
        ((0.0, 0.0, 0.0),) * 65536,
    ]
    return cases


def _old_headset_fields(timestamp_us, session_id, position, orientation, gaze_local):
    """The fields as the HeadsetSample.__post_init__ that the one-pass
    constructor replaced left them, kept as its oracle."""
    protocol._check_uint(timestamp_us, 64, "timestamp_us")
    protocol._check_uint(session_id, 32, "session_id")
    return (timestamp_us, session_id,
            protocol._check_finite_tuple(position, 3, "position"),
            protocol._check_unit_tuple(orientation, 4, "orientation"),
            protocol._check_unit_tuple(gaze_local, 3, "gaze_local"))


def _old_robot_fields(timestamp_us, session_id, position, orientation, linear_speed, yaw_rate):
    """As above, for the RobotSample.__post_init__ it replaced."""
    protocol._check_uint(timestamp_us, 64, "timestamp_us")
    protocol._check_uint(session_id, 32, "session_id")
    position = protocol._check_finite_tuple(position, 3, "position")
    orientation = protocol._check_unit_tuple(orientation, 4, "orientation")
    linear_speed, yaw_rate = float(linear_speed), float(yaw_rate)
    if not math.isfinite(linear_speed) or linear_speed < 0.0:
        raise ValidationError(f"linear_speed must be finite and >= 0, got {linear_speed!r}")
    if not math.isfinite(yaw_rate):
        raise ValidationError(f"yaw_rate must be finite, got {yaw_rate!r}")
    return timestamp_us, session_id, position, orientation, linear_speed, yaw_rate


def _field_bits(value):
    """A field's exact content: float bits, or the type and value of anything else."""
    if type(value) is tuple:
        return tuple(map(_field_bits, value))
    if type(value) is float:
        return struct.pack("<d", value)
    return type(value), value


def _sample_outcome(make):
    """The bits of what ``make`` returns, or the type and text of what it raised."""
    try:
        out = make()
    except Exception as exc:  # noqa: BLE001 - the oracle's exceptions are compared too
        return type(exc), str(exc)
    return _field_bits(out)


_HEADSET_FIELDS = ("timestamp_us", "session_id", "position", "orientation", "gaze_local")
_ROBOT_FIELDS = ("timestamp_us", "session_id", "position", "orientation",
                 "linear_speed", "yaw_rate")


def _sample_cases(rng):
    """(kind, args) for HeadsetSample and RobotSample; each argument is a
    factory, so that a generator is fresh for every call. Each case puts
    one edge into one field of a valid message."""
    import numpy as np

    clean = {"timestamp_us": 1_600_000_000_000_000, "session_id": 7,
             "position": (1.5, -2.5, 1.6), "orientation": (0.6, 0.0, 0.0, 0.8),
             "gaze_local": (0.0, 0.6, 0.8), "linear_speed": 1.25, "yaw_rate": -0.5}
    tuple_edges = [values for values, _ in _validator_cases(rng)[::7]]
    for scale in (1e-6, 1e-12):
        for factor in (0.5, 0.999, 1.0, 1.001, 2.0):
            for sign in (-1.0, 1.0):
                norm = 1.0 + sign * scale * factor
                tuple_edges += [(0.6 * norm, 0.0, 0.0, 0.8 * norm), (0.0, 0.6 * norm, 0.8 * norm)]
                # Squared norms at the fast path's own limit.
                root = math.sqrt(1.0 + sign * scale * factor)
                tuple_edges += [(0.6 * root, 0.0, 0.0, 0.8 * root), (0.0, 0.6 * root, 0.8 * root)]
    tuple_edges += [
        [1.5, -2.5, 1.6], [0.6, 0.0, 0.0, 0.8], [0.0, 0.6, 0.8],
        np.array([1.5, -2.5, 1.6]), np.array([0.6, 0.0, 0.0, 0.8]), np.array([0.0, 0.6, 0.8]),
        np.array([0.0, 0.6, 0.8], dtype=np.float32), np.float64(1.0), 1.0, None,
        (True, False, False), (True, False, False, False), (1, 0, 0), (1, 0, 0, 0),
        (np.int64(1), 0, 0, 0), (np.float64(0.6), np.float64(0.8), np.float64(0.0)),
        ("0.6", "0.8", "0"), ("0.6", "0.8", "0", "0"), "abc", "abcd", ("x", 0.0, 0.0),
        (0.6, 0.8, "x", "y"), (0.6, 0.8), (0.6, 0.8, 0.0, 0.0, 0.0), (),
        (10 ** 400, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.6, -0.0, -0.0, -0.8),
    ]
    scalar_edges = [0.0, -0.0, 1.0, -1.0, 1e308, -1e-320, math.nan, math.inf, -math.inf, 2,
                    True, np.float32(0.5), np.float64(-0.25), np.int64(3), "1.5", "x", None,
                    10 ** 400]
    int_edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, -1, -(2 ** 64), True, False,
                 np.int64(5), np.uint32(5), 5.0, "5", None, 2 ** 200]
    edges = {"timestamp_us": int_edges, "session_id": int_edges, "position": tuple_edges,
             "orientation": tuple_edges, "gaze_local": tuple_edges,
             "linear_speed": scalar_edges, "yaw_rate": scalar_edges}
    cases = []
    for kind, names in (("headset", _HEADSET_FIELDS), ("robot", _ROBOT_FIELDS)):
        for name in names:
            for value in edges[name]:
                args = [lambda v=clean[n]: v for n in names]
                args[names.index(name)] = lambda v=value: v
                cases.append((kind, args))
                if type(value) in (tuple, list) and value:
                    args = list(args)
                    args[names.index(name)] = lambda v=value: (c for c in v)
                    cases.append((kind, args))
        # Two bad fields at once: the first in the old order raises.
        args = [lambda v=clean[n]: v for n in names]
        args[names.index("orientation")] = lambda: (2.0, 0.0, 0.0, 0.0)
        args[names.index("position")] = lambda: (math.nan, 0.0, 0.0)
        cases.append((kind, args))
    return cases


class TestSampleFastPath:
    KINDS = {"headset": (HeadsetSample, _old_headset_fields),
             "robot": (RobotSample, _old_robot_fields)}

    def test_constructor_and_encode_match_old_post_init(self):
        import numpy as np

        outcomes = {"accepted": 0, "rejected": 0}
        for kind, args in _sample_cases(np.random.default_rng(137)):
            cls, oracle = self.KINDS[kind]
            values = [make() for make in args]
            want = _sample_outcome(lambda: oracle(*(make() for make in args)))
            got = _sample_outcome(lambda: tuple(cls(*(make() for make in args))))
            assert got == want, (kind, values)
            if isinstance(want[0], type):
                outcomes["rejected"] += 1
            else:
                outcomes["accepted"] += 1
                # What encode writes decodes to the same fields, bit for bit.
                frame = encode(cls(*(make() for make in args)))
                assert _sample_outcome(lambda: tuple(decode(frame)[0])) == want, (kind, values)
        assert min(outcomes.values()) > 300

    def test_clean_messages_skip_tuple_validators(self, monkeypatch):
        calls = []
        for name in ("_check_finite_tuple", "_check_unit_tuple"):
            real = getattr(protocol, name)
            monkeypatch.setattr(protocol, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        for msg in (_valid_headset(), _valid_robot(),
                    HeadsetSample(2 ** 64 - 1, 2 ** 32 - 1, (-0.0, 1e300, -1e300),
                                  (0.5, 0.5, 0.5, 0.5), (0.6, 0.0, -0.8)),
                    RobotSample(0, 0, (1.0, 2.0, 3.0), (0.0, 0.0, 0.6, 0.8), 0.0, -3.0)):
            frame = encode(msg)
            assert decode(frame) == (msg, len(frame))
        assert calls == []
        HeadsetSample(1, 2, (0.0, 0.0, 1.6), (1.0, 0.0, 0.0, 1e-4), (0.0, 0.0, 1.0))
        assert calls == ["_check_finite_tuple", "_check_unit_tuple", "_check_unit_tuple"]

    def test_dataclass_behaviour_unchanged(self):
        import copy
        import pickle

        msg = HeadsetSample(1, 2, (0.0, 0.0, 1.6), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        assert repr(msg) == ("HeadsetSample(timestamp_us=1, session_id=2, position=(0.0, 0.0, 1.6), "
                             "orientation=(1.0, 0.0, 0.0, 0.0), gaze_local=(0.0, 0.0, 1.0))")
        robot = RobotSample(1, 2, (0, 0, 0.5), (1, 0, 0, 0), 1, 0)
        assert repr(robot) == ("RobotSample(timestamp_us=1, session_id=2, position=(0.0, 0.0, 0.5), "
                               "orientation=(1.0, 0.0, 0.0, 0.0), linear_speed=1.0, yaw_rate=0.0)")
        for sample in (msg, robot):
            fields = tuple(sample)
            assert hash(sample) == hash(fields)
            assert sample == type(sample)(*fields) and sample != Hello()
            assert sample == type(sample)(**sample._asdict())
            assert sample != sample._replace(session_id=3)
            assert sample._replace(session_id=3).session_id == 3
            with pytest.raises(ValidationError, match="orientation norm"):
                sample._replace(orientation=(2.0, 0.0, 0.0, 0.0))
            for copied in (pickle.loads(pickle.dumps(sample)), copy.copy(sample),
                           copy.deepcopy(sample)):
                assert copied == sample and _field_bits(tuple(copied)) == _field_bits(fields)
            for name in ("position", "session_id"):
                with pytest.raises(AttributeError):
                    setattr(sample, name, 1)
            # A new attribute is refused as well.
            with pytest.raises(AttributeError):
                sample.extra = 1
            assert not hasattr(sample, "extra")
            with pytest.raises(AttributeError):
                del sample.position
        assert msg != RobotSample(1, 2, (0.0, 0.0, 1.6), (1.0, 0.0, 0.0, 0.0), 0.0, 0.0)
        assert RobotSample._fields == _ROBOT_FIELDS
        assert HeadsetSample.__match_args__ == _HEADSET_FIELDS


class TestRoundTrip:
    def test_all_types_round_trip(self):
        msgs = [
            Hello(),
            SessionStart(7, "human", "corridor-b"),
            SessionStart(8, "robot", ""),
            SessionEnd(7, complete=False),
            HeadsetSample(123, 7, (1.5, -2.5, 1.6), (1, 0, 0, 0), (0, 0, 1)),
            RobotSample(456, 8, (0, 0, 0.5), (1, 0, 0, 0), 1.25, -0.5),
            Prediction(789, 7, ((1.0, 2.0, 0.5), (1.1, 2.1, 0.6))),
        ]
        for msg in msgs:
            frame = encode(msg)
            assert decode(frame) == (msg, len(frame)), msg

    def test_fuzz_round_trip_100k(self):
        # Over 10^5 randomized messages: decode(encode(msg)) == msg, and the
        # frame re-encodes to the same bytes (which tell -0.0 from 0.0).
        import numpy as np

        rng = np.random.default_rng(101)
        for _ in range(100_000):
            msg = _random_message(rng)
            frame = encode(msg)
            decoded, end = decode(frame)
            assert (decoded, end) == (msg, len(frame))
            assert encode(decoded) == frame

    def test_near_unit_quaternion_frame_is_renormalized(self):
        # A hardware frame with w = 1 + 2e-9 is within the 1e-6 tolerance, so
        # it decodes renormalized and re-encodes to other bytes; the message
        # it decodes to then makes both round trips exactly.
        frame = bytearray(encode(_valid_headset()))
        struct.pack_into("<d", frame, 41, 1.0 + 2e-9)
        msg, end = decode(frame)
        assert end == len(frame) and msg.orientation == (1.0, 0.0, 0.0, 0.0)
        assert encode(msg) != frame
        assert decode(encode(msg))[0] == msg
        assert encode(decode(encode(msg))[0]) == encode(msg)

    def test_round_trip_preserves_float_bits(self):
        import numpy as np

        rng = np.random.default_rng(103)
        for _ in range(1000):
            msg = _random_headset(rng)
            decoded, _ = decode(encode(msg))
            for a, b in zip(msg.position + msg.orientation + msg.gaze_local,
                            decoded.position + decoded.orientation + decoded.gaze_local):
                assert struct.pack("<d", a) == struct.pack("<d", b)


class TestHostileInput:
    def test_random_bytes_never_crash(self):
        import numpy as np

        rng = np.random.default_rng(107)
        for _ in range(10_000):
            blob = rng.bytes(int(rng.integers(0, 200)))
            try:
                result = decode(blob)
            except ProtocolError:
                continue
            assert result is None or isinstance(result, tuple)

    def test_mutated_valid_frames_never_crash(self):
        import numpy as np

        rng = np.random.default_rng(109)
        for _ in range(5_000):
            frame = bytearray(encode(_random_message(rng)))
            pos = int(rng.integers(0, len(frame)))
            frame[pos] = int(rng.integers(0, 256))
            try:
                decode(bytes(frame))
            except ProtocolError:
                pass


_OLD_HEADER = struct.Struct("<IB")
_OLD_HEADSET = struct.Struct("<QI10d")
_OLD_ROBOT = struct.Struct("<QI9d")
_OLD_PREDICTION_HEAD = struct.Struct("<QIH")
_OLD_SESSION_START_HEAD = struct.Struct("<IBH")
_OLD_SESSION_END = struct.Struct("<IB")


def _old_decode_payload(tag, buf, start, end):
    """The payload decoder that the whole-frame telemetry structs replaced,
    kept with _old_decode as their oracle."""
    size = end - start
    if tag == protocol.MSG_HELLO:
        if size:
            raise ProtocolError(f"Hello payload must be empty, got {size} bytes")
        return Hello()
    if tag == protocol.MSG_SESSION_START:
        if size < _OLD_SESSION_START_HEAD.size:
            raise ProtocolError("SessionStart payload too short")
        sid, kind_code, label_len = _OLD_SESSION_START_HEAD.unpack_from(buf, start)
        rest = bytes(buf[start + _OLD_SESSION_START_HEAD.size:end])
        if kind_code not in protocol._AGENT_NAMES:
            raise ProtocolError(f"unknown agent kind code {kind_code}")
        if len(rest) != label_len:
            raise ProtocolError(f"SessionStart label length {label_len} != {len(rest)} bytes present")
        try:
            label = rest.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"SessionStart label is not valid utf-8: {exc}") from exc
        return SessionStart(sid, protocol._AGENT_NAMES[kind_code], label)
    if tag == protocol.MSG_SESSION_END:
        if size != _OLD_SESSION_END.size:
            raise ProtocolError(f"SessionEnd payload must be {_OLD_SESSION_END.size} bytes")
        sid, complete = _OLD_SESSION_END.unpack_from(buf, start)
        return SessionEnd(sid, bool(complete))
    if tag == protocol.MSG_HEADSET_SAMPLE:
        if size != _OLD_HEADSET.size:
            raise ProtocolError(f"HeadsetSample payload must be {_OLD_HEADSET.size} bytes, got {size}")
        vals = _OLD_HEADSET.unpack_from(buf, start)
        return HeadsetSample(vals[0], vals[1], vals[2:5], vals[5:9], vals[9:12])
    if tag == protocol.MSG_ROBOT_SAMPLE:
        if size != _OLD_ROBOT.size:
            raise ProtocolError(f"RobotSample payload must be {_OLD_ROBOT.size} bytes, got {size}")
        vals = _OLD_ROBOT.unpack_from(buf, start)
        return RobotSample(vals[0], vals[1], vals[2:5], vals[5:9], vals[9], vals[10])
    if tag == protocol.MSG_PREDICTION:
        if size < _OLD_PREDICTION_HEAD.size:
            raise ProtocolError("Prediction payload too short")
        ts, sid, count = _OLD_PREDICTION_HEAD.unpack_from(buf, start)
        expected = _OLD_PREDICTION_HEAD.size + 24 * count
        if size != expected:
            raise ProtocolError(
                f"Prediction payload must be {expected} bytes for {count} states, got {size}"
            )
        flat = struct.unpack_from(f"<{3 * count}d", buf, start + _OLD_PREDICTION_HEAD.size)
        states = tuple(tuple(flat[3 * i:3 * i + 3]) for i in range(count))
        return Prediction(ts, sid, states)
    raise ProtocolError(f"unknown msg_type 0x{tag:02X}")


def _old_decode(buf, offset=0):
    if len(buf) - offset < _OLD_HEADER.size:
        return None
    length, tag = _OLD_HEADER.unpack_from(buf, offset)
    if length < 1:
        raise ProtocolError(f"frame length {length} below minimum of 1")
    if length > protocol.MAX_FRAME_LEN:
        raise ProtocolError(f"frame length {length} exceeds maximum {protocol.MAX_FRAME_LEN}")
    end = offset + 4 + length
    if len(buf) < end:
        return None
    try:
        msg = _old_decode_payload(tag, buf, offset + _OLD_HEADER.size, end)
    except ValidationError as exc:
        raise ProtocolError(f"{protocol.MSG_NAMES.get(tag, hex(tag))} field invalid: {exc}") from exc
    return msg, end


def _decode_outcome(decoder, buf, offset):
    """None, the decoded message's type, field bits and end, or the type and
    text of what was raised."""
    try:
        result = decoder(buf, offset)
    except Exception as exc:  # noqa: BLE001 - the oracle's exceptions are compared too
        return type(exc), str(exc), type(exc.__cause__)
    if result is None:
        return None
    msg, end = result
    return type(msg), _field_bits(tuple(msg)), end


def _mutated_telemetry_frames(rng):
    """(buffer, offset) pairs: valid telemetry frames with one mutation each,
    at offset 0 or behind other bytes, with or without bytes after them."""
    import numpy as np

    f64 = struct.Struct("<d")
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
    cases = []
    for i in range(2100):
        msg = _random_headset(rng) if rng.integers(0, 2) else _random_robot(rng)
        frame = bytearray(encode(msg))
        n_floats = (len(frame) - 17) // 8
        kind = i % 7
        if kind == 0:  # the length prefix: short, long, or over MAX_FRAME_LEN
            length = len(frame) - 4
            pick = int(rng.integers(0, 3))
            if pick == 0:
                value = int(rng.integers(0, length))
            elif pick == 1:
                value = int(rng.integers(length + 1, protocol.MAX_FRAME_LEN + 1))
            else:
                value = int(rng.integers(protocol.MAX_FRAME_LEN + 1, 2 ** 32))
            frame[0:4] = struct.pack("<I", value)
            if pick == 1 and rng.integers(0, 2):  # the bytes the longer length asks for
                frame += rng.bytes(value + 4 - len(frame))
        elif kind == 1:  # the tag, the other telemetry tag included
            frame[4] = int(rng.choice([1, 2, 3, 0x10, 0x11, 0x7F, int(rng.integers(0, 256))]))
        elif kind == 2:  # one float: NaN, infinities and other specials
            slot = 17 + 8 * int(rng.integers(0, n_floats))
            frame[slot:slot + 8] = f64.pack(specials[int(rng.integers(0, len(specials)))])
        elif kind == 3:  # the quaternion (or a headset's gaze) off unit norm
            off = float(rng.choice([1e-9, -1e-9, 1e-3, -1e-3, 1e-6, -1e-6]))
            first, count = (41, 4) if rng.integers(0, 2) or n_floats == 9 else (73, 3)
            vals = struct.unpack_from(f"<{count}d", frame, first)
            struct.pack_into(f"<{count}d", frame, first, *(v * (1.0 + off) for v in vals))
        elif kind == 4:  # random bytes anywhere in the payload
            for pos in rng.choice(np.arange(5, len(frame)), size=int(rng.integers(1, 4))):
                frame[int(pos)] = int(rng.integers(0, 256))
        elif kind == 5:  # truncation
            frame = frame[:int(rng.integers(0, len(frame)))]
        else:  # the session id and timestamp at their limits
            frame[5:17] = struct.pack("<QI", (0, 2 ** 64 - 1)[int(rng.integers(0, 2))],
                                      (0, 2 ** 32 - 1)[int(rng.integers(0, 2))])
        prefix = rng.bytes(int(rng.integers(0, 12))) if rng.integers(0, 2) else b""
        suffix = rng.bytes(int(rng.integers(1, 120))) if rng.integers(0, 3) == 0 else b""
        buf = prefix + bytes(frame) + suffix
        cases.append((bytearray(buf) if rng.integers(0, 2) else buf, len(prefix)))
    return cases


class TestDecodeOracle:
    def test_mutated_telemetry_frames_match_old_decode(self):
        import numpy as np

        seen = {"message": 0, "none": 0, "error": 0}
        for buf, offset in _mutated_telemetry_frames(np.random.default_rng(139)):
            want = _decode_outcome(_old_decode, buf, offset)
            assert _decode_outcome(decode, buf, offset) == want, (bytes(buf), offset)
            seen["none" if want is None else "error" if want[0] is ProtocolError else "message"] += 1
        assert min(seen.values()) > 200, seen


class TestStreamDecoder:
    def test_reassembles_at_every_split_point(self):
        msgs = [
            Hello(),
            HeadsetSample(1, 5, (1, 2, 3), (1, 0, 0, 0), (0, 0, 1)),
            SessionEnd(5),
        ]
        stream = b"".join(encode(m) for m in msgs)
        for cut in range(len(stream) + 1):
            dec = StreamDecoder()
            got = dec.feed(stream[:cut]) + dec.feed(stream[cut:])
            assert got == msgs, f"failed at split {cut}"

    def test_byte_at_a_time(self):
        msgs = [SessionStart(3, "robot", "lab"), Hello()]
        stream = b"".join(encode(m) for m in msgs)
        dec = StreamDecoder()
        got = []
        for i in range(len(stream)):
            got += dec.feed(stream[i:i + 1])
        assert got == msgs

    def test_feed_work_is_linear_in_frames(self):
        # One feed of 10x more frames may cost at most 3x more per frame
        # (median of 3); a decoder that copies the rest of the buffer for
        # each frame costs about 10x more per frame.
        frame = encode(HeadsetSample(1, 5, (1, 2, 3), (1, 0, 0, 0), (0, 0, 1)))

        def per_frame(n):
            times = []
            for _ in range(3):
                data = frame * n
                dec = StreamDecoder()
                t0 = time.perf_counter()
                got = dec.feed(data)
                times.append((time.perf_counter() - t0) / n)
                assert len(got) == n
            return sorted(times)[1]

        assert per_frame(20_000) <= 3 * per_frame(2_000)
