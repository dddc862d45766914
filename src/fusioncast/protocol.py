"""Binary wire format for telemetry and prediction frames.

Frame layout, little-endian throughout:

    u32  length     byte count of msg_type + payload
    u8   msg_type
    ...  payload    fixed layout per message type

A connection is a plain concatenation of frames. There is no
resynchronization: any malformed frame is a ProtocolError and the reader
closes the connection. Messages are immutable after construction and
validated there, so decode(encode(msg)) == msg, bit-for-bit on every float,
and encode(decode(frame)) == frame for every frame that encode writes.
Other frames need not survive the trip: a hardware quaternion or gaze vector
whose norm is within 1e-6 of 1, but not within 1e-12, decodes renormalized
and so re-encodes to other bytes.

Messages are checked tuples: the constructor, which is also how decode
builds a message, validates each field once, and encode packs the fields
with no second check. The telemetry samples, built twice for every recorded
frame (simulator, decode), check in one pass: their constructor takes exact
tuples of the right lengths and ints in range, tests the position (and a
robot's speed and yaw rate) by one sum and each unit tuple by one sum of
squares. Any other input, or any failed test, goes to the per-field
validators below, which alone raise, with their errors in their order; their
fast path costs one sum per float tuple, and only a non-finite sum checks
each component.
A Prediction takes one sum over the floats of all its states, with its
lengths and theta range checked in the same pass; when any of that fails,
the per-state checks run and raise what they always raised.
geometry.AgentState checks nothing: aligned frames take floats checked
here, predicted steps floats checked by the forecast's one isfinite.

Each telemetry type has one frame struct, header included (_HEADSET_FRAME,
_ROBOT_FRAME), so a sample is encoded by one pack and decoded by one unpack
once its tag and length are known. A telemetry frame whose length is wrong
takes the same header checks as every other frame and fails on its payload
size. Every message type has one route in encode and one in decode.

Payloads:

    0x7F Hello         (empty)
    0x10 SessionStart  u32 session_id, u8 agent_kind, u16 label_len, utf-8 label
    0x11 SessionEnd    u32 session_id, u8 complete
    0x01 HeadsetSample u64 timestamp_us, u32 session_id,
                       3xf64 position_m, 4xf64 orientation_wxyz, 3xf64 gaze_local
    0x02 RobotSample   u64 timestamp_us, u32 session_id,
                       3xf64 position_m, 4xf64 orientation_wxyz,
                       f64 linear_speed_mps, f64 yaw_rate_radps
    0x03 Prediction    u64 timestamp_us (last observation), u32 session_id,
                       u16 horizon_count, horizon_count x 3xf64 (x, y, theta)
"""

from __future__ import annotations

import math
import operator
import struct
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

from .errors import ProtocolError, ValidationError

MSG_HEADSET_SAMPLE = 0x01
MSG_ROBOT_SAMPLE = 0x02
MSG_PREDICTION = 0x03
MSG_SESSION_START = 0x10
MSG_SESSION_END = 0x11
MSG_HELLO = 0x7F

MSG_NAMES = {
    MSG_HEADSET_SAMPLE: "HeadsetSample",
    MSG_ROBOT_SAMPLE: "RobotSample",
    MSG_PREDICTION: "Prediction",
    MSG_SESSION_START: "SessionStart",
    MSG_SESSION_END: "SessionEnd",
    MSG_HELLO: "Hello",
}

# Guard against hostile or corrupt length prefixes.
MAX_FRAME_LEN = 64 * 1024

AGENT_HUMAN = "human"
AGENT_ROBOT = "robot"
_AGENT_CODES = {AGENT_HUMAN: 0, AGENT_ROBOT: 1}
_AGENT_NAMES = {0: AGENT_HUMAN, 1: AGENT_ROBOT}

_HEADER = struct.Struct("<IB")
# Whole telemetry frames: u32 length, u8 msg_type, then the payload.
_HEADSET_FRAME = struct.Struct("<IBQI10d")
_ROBOT_FRAME = struct.Struct("<IBQI9d")
_HEADSET_FRAME_LEN = _HEADSET_FRAME.size - 4  # the length field's value
_ROBOT_FRAME_LEN = _ROBOT_FRAME.size - 4
_PREDICTION_HEAD = struct.Struct("<QIH")
_SESSION_START_HEAD = struct.Struct("<IBH")
_SESSION_END = struct.Struct("<IB")


def _check_uint(value: int, bits: int, what: str) -> int:
    if type(value) is bool or not isinstance(value, int) or not 0 <= value < (1 << bits):
        raise ValidationError(f"{what} must fit in an unsigned {bits}-bit int, got {value!r}")
    return value


def _check_finite_tuple(values, n: int, what: str) -> tuple[float, ...]:
    out = tuple(map(float, values))
    if len(out) != n:
        raise ValidationError(f"{what} must have {n} components, got {len(out)}")
    # Any NaN or infinity makes the sum non-finite; only then look closer.
    if not math.isfinite(sum(out)):
        _check_each_finite(out, what)
    return out


def _check_unit_tuple(values, n: int, what: str) -> tuple[float, ...]:
    out = tuple(map(float, values))
    if len(out) != n:
        raise ValidationError(f"{what} must have {n} components, got {len(out)}")
    # Summed left to right: the renormalized components, and so saved
    # bytes, depend on this order. Non-finite for any NaN or infinity too.
    squares = sum(map(operator.mul, out, out))
    if not math.isfinite(squares):
        _check_each_finite(out, what)
    norm = math.sqrt(squares)
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"{what} norm {norm!r} not within 1e-6 of 1")
    if abs(norm - 1.0) <= 1e-12:
        return out
    return tuple(v / norm for v in out)


# The message constructors' fast path keeps a unit tuple as given only when
# its squared norm is within this of 1. The norm is then within 5e-13 of 1,
# inside the 1e-12 at which _check_unit_tuple keeps the components too, by a
# margin far wider than any rounding of the sum; every other tuple goes to
# _check_unit_tuple, which renormalizes or raises.
_FAST_UNIT_TOL = 1e-12


def _check_each_finite(values: tuple[float, ...], what: str) -> None:
    """Raise for the first non-finite component. A non-finite sum of finite
    components (an overflow such as 1e308 + 1e308) passes."""
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{what} has non-finite component {v!r}")


@dataclass(frozen=True)  # not a tuple: an empty one is falsy
class Hello:
    """Version/identity handshake; both peers send one before anything else."""


class _Checked:
    """Base of the message tuples: ``_make``, and so ``_replace``, builds
    through the checked constructor, as pickle and copy do."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class SessionStart(_Checked, namedtuple("SessionStart", "session_id agent_kind label")):
    __slots__ = ()

    def __new__(cls, session_id, agent_kind, label=""):
        _check_uint(session_id, 32, "session_id")
        if not isinstance(agent_kind, str) or agent_kind not in _AGENT_CODES:
            raise ValidationError(f"agent_kind must be 'human' or 'robot', got {agent_kind!r}")
        if not isinstance(label, str):
            raise ValidationError(f"label must be a str, got {label!r}")
        if len(label.encode("utf-8")) > 0xFFFF:
            raise ValidationError("label longer than 65535 bytes")
        return tuple.__new__(cls, (session_id, agent_kind, label))


class SessionEnd(_Checked, namedtuple("SessionEnd", "session_id complete")):
    __slots__ = ()

    def __new__(cls, session_id, complete=True):
        _check_uint(session_id, 32, "session_id")
        if not isinstance(complete, bool):
            raise ValidationError(f"complete must be a bool, got {complete!r}")
        return tuple.__new__(cls, (session_id, complete))


class HeadsetSample(_Checked, namedtuple(
        "HeadsetSample", "timestamp_us session_id position orientation gaze_local")):
    """Position (x, y, z) in m; orientation (w, x, y, z), unit; gaze_local
    unit, in the device-local frame."""

    __slots__ = ()

    def __new__(cls, timestamp_us, session_id, position, orientation, gaze_local):
        try:
            fast = (int is type(timestamp_us) is type(session_id) and not timestamp_us >> 64
                    and not session_id >> 32
                    and tuple is type(position) is type(orientation) is type(gaze_local))
            if fast:
                px, py, pz = position
                ow, ox, oy, oz = orientation
                gx, gy, gz = gaze_local
                px, py, pz = float(px), float(py), float(pz)
                ow, ox, oy, oz = float(ow), float(ox), float(oy), float(oz)
                gx, gy, gz = float(gx), float(gy), float(gz)
                fast = (math.isfinite(px + py + pz)
                        and abs(ow * ow + ox * ox + oy * oy + oz * oz - 1.0) <= _FAST_UNIT_TOL
                        and abs(gx * gx + gy * gy + gz * gz - 1.0) <= _FAST_UNIT_TOL)
        except (TypeError, ValueError, OverflowError):  # the checks below raise it again
            fast = False
        if fast:
            position, orientation, gaze_local = (px, py, pz), (ow, ox, oy, oz), (gx, gy, gz)
        else:
            _check_uint(timestamp_us, 64, "timestamp_us")
            _check_uint(session_id, 32, "session_id")
            position = _check_finite_tuple(position, 3, "position")
            orientation = _check_unit_tuple(orientation, 4, "orientation")
            gaze_local = _check_unit_tuple(gaze_local, 3, "gaze_local")
        return tuple.__new__(cls, (timestamp_us, session_id, position, orientation, gaze_local))


class RobotSample(_Checked, namedtuple(
        "RobotSample", "timestamp_us session_id position orientation linear_speed yaw_rate")):
    """Position (x, y, z) in m; orientation (w, x, y, z), unit; linear_speed
    in m/s, >= 0; yaw_rate in rad/s."""

    __slots__ = ()

    def __new__(cls, timestamp_us, session_id, position, orientation, linear_speed, yaw_rate):
        try:
            fast = (int is type(timestamp_us) is type(session_id) and not timestamp_us >> 64
                    and not session_id >> 32 and tuple is type(position) is type(orientation))
            if fast:
                px, py, pz = position
                ow, ox, oy, oz = orientation
                px, py, pz = float(px), float(py), float(pz)
                ow, ox, oy, oz = float(ow), float(ox), float(oy), float(oz)
                speed, yaw_rate = float(linear_speed), float(yaw_rate)
                fast = (math.isfinite(px + py + pz + speed + yaw_rate) and speed >= 0.0
                        and abs(ow * ow + ox * ox + oy * oy + oz * oz - 1.0) <= _FAST_UNIT_TOL)
        except (TypeError, ValueError, OverflowError):  # the checks below raise it again
            fast = False
        if fast:
            position, orientation = (px, py, pz), (ow, ox, oy, oz)
        else:
            _check_uint(timestamp_us, 64, "timestamp_us")
            _check_uint(session_id, 32, "session_id")
            position = _check_finite_tuple(position, 3, "position")
            orientation = _check_unit_tuple(orientation, 4, "orientation")
            speed, yaw_rate = float(linear_speed), float(yaw_rate)
            if not math.isfinite(speed) or speed < 0.0:
                raise ValidationError(f"linear_speed must be finite and >= 0, got {speed!r}")
            if not math.isfinite(yaw_rate):
                raise ValidationError(f"yaw_rate must be finite, got {yaw_rate!r}")
        return tuple.__new__(cls, (timestamp_us, session_id, position, orientation, speed,
                                   yaw_rate))


class Prediction(_Checked, namedtuple("Prediction", "timestamp_us session_id states")):
    """timestamp_us is that of the last observed frame; states holds one
    (x, y, theta) per horizon step."""

    __slots__ = ()

    def __new__(cls, timestamp_us, session_id, states):
        _check_uint(timestamp_us, 64, "timestamp_us")
        _check_uint(session_id, 32, "session_id")
        raw = tuple(states)
        states = _fast_prediction_states(raw)
        if states is None:
            # The per-state checks decide, and raise in their own order.
            states = tuple(_check_finite_tuple(s, 3, "prediction state") for s in raw)
            _check_uint(len(states), 16, "horizon_count")
            for _, _, theta in states:
                if not (-math.pi < theta <= math.pi):
                    raise ValidationError(f"prediction theta {theta!r} outside (-pi, pi]")
        return tuple.__new__(cls, (timestamp_us, session_id, states))


def _fast_prediction_states(raw: tuple) -> tuple[tuple[float, float, float], ...] | None:
    """The validated states in one pass over all of their floats, or None when
    any check could fail (the caller then checks state by state)."""
    try:
        if not set(map(len, raw)) <= {3}:
            return None
        flat = tuple(map(float, chain.from_iterable(raw)))
    except (TypeError, ValueError, OverflowError):  # the per-state checks raise it again
        return None
    thetas = flat[2::3]
    if (not math.isfinite(sum(flat)) or len(raw) >= 1 << 16
            or not -math.pi < min(thetas, default=0.0) <= max(thetas, default=0.0) <= math.pi):
        return None
    it = iter(flat)
    return tuple(zip(it, it, it))


Message = Hello | SessionStart | SessionEnd | HeadsetSample | RobotSample | Prediction


def encode(msg: Message) -> bytes:
    """Encode one message as a length-prefixed frame."""
    if isinstance(msg, HeadsetSample):
        return _HEADSET_FRAME.pack(_HEADSET_FRAME_LEN, MSG_HEADSET_SAMPLE, msg.timestamp_us,
                                   msg.session_id, *msg.position, *msg.orientation,
                                   *msg.gaze_local)
    if isinstance(msg, RobotSample):
        return _ROBOT_FRAME.pack(_ROBOT_FRAME_LEN, MSG_ROBOT_SAMPLE, msg.timestamp_us,
                                 msg.session_id, *msg.position, *msg.orientation,
                                 msg.linear_speed, msg.yaw_rate)
    if isinstance(msg, Hello):
        return _frame(MSG_HELLO, b"")
    if isinstance(msg, SessionStart):
        label = msg.label.encode("utf-8")
        return _frame(MSG_SESSION_START, _SESSION_START_HEAD.pack(
            msg.session_id, _AGENT_CODES[msg.agent_kind], len(label)
        ) + label)
    if isinstance(msg, SessionEnd):
        return _frame(MSG_SESSION_END, _SESSION_END.pack(msg.session_id, 1 if msg.complete else 0))
    if isinstance(msg, Prediction):
        count = len(msg.states)
        return _frame(MSG_PREDICTION, _PREDICTION_HEAD.pack(
            msg.timestamp_us, msg.session_id, count
        ) + struct.pack(f"<{3 * count}d", *chain.from_iterable(msg.states)))
    raise ValidationError(f"not a wire message: {msg!r}")


def _frame(tag: int, payload: bytes) -> bytes:
    length = 1 + len(payload)
    if length > MAX_FRAME_LEN:
        raise ValidationError(f"frame length {length} exceeds {MAX_FRAME_LEN}")
    return _HEADER.pack(length, tag) + payload


def _decode_payload(tag: int, buf, start: int, end: int) -> Message:
    """The message of type ``tag`` whose payload is ``buf[start:end]``."""
    size = end - start
    if tag == MSG_HELLO:
        if size:
            raise ProtocolError(f"Hello payload must be empty, got {size} bytes")
        return Hello()
    if tag == MSG_SESSION_START:
        if size < _SESSION_START_HEAD.size:
            raise ProtocolError("SessionStart payload too short")
        sid, kind_code, label_len = _SESSION_START_HEAD.unpack_from(buf, start)
        rest = bytes(buf[start + _SESSION_START_HEAD.size:end])
        if kind_code not in _AGENT_NAMES:
            raise ProtocolError(f"unknown agent kind code {kind_code}")
        if len(rest) != label_len:
            raise ProtocolError(f"SessionStart label length {label_len} != {len(rest)} bytes present")
        try:
            label = rest.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"SessionStart label is not valid utf-8: {exc}") from exc
        return SessionStart(sid, _AGENT_NAMES[kind_code], label)
    if tag == MSG_SESSION_END:
        if size != _SESSION_END.size:
            raise ProtocolError(f"SessionEnd payload must be {_SESSION_END.size} bytes")
        sid, complete = _SESSION_END.unpack_from(buf, start)
        if complete > 1:
            raise ProtocolError(f"SessionEnd complete byte must be 0 or 1, got {complete}")
        return SessionEnd(sid, complete == 1)
    if tag == MSG_HEADSET_SAMPLE or tag == MSG_ROBOT_SAMPLE:
        # decode() unpacks every complete telemetry frame of the right length.
        frame = _HEADSET_FRAME if tag == MSG_HEADSET_SAMPLE else _ROBOT_FRAME
        raise ProtocolError(f"{MSG_NAMES[tag]} payload must be {frame.size - _HEADER.size} bytes, "
                            f"got {size}")
    if tag == MSG_PREDICTION:
        if size < _PREDICTION_HEAD.size:
            raise ProtocolError("Prediction payload too short")
        ts, sid, count = _PREDICTION_HEAD.unpack_from(buf, start)
        expected = _PREDICTION_HEAD.size + 24 * count
        if size != expected:
            raise ProtocolError(
                f"Prediction payload must be {expected} bytes for {count} states, got {size}"
            )
        flat = struct.unpack_from(f"<{3 * count}d", buf, start + _PREDICTION_HEAD.size)
        states = tuple(tuple(flat[3 * i:3 * i + 3]) for i in range(count))
        return Prediction(ts, sid, states)
    raise ProtocolError(f"unknown msg_type 0x{tag:02X}")


def decode(buf, offset: int = 0) -> tuple[Message, int] | None:
    """Decode the frame that starts at ``offset`` in ``buf``.

    Returns (message, offset just past the frame), or None when the buffer
    holds only a prefix of a frame (need more bytes; nothing consumed).
    Raises ProtocolError on anything malformed. Reads only that frame's
    bytes, in place, and never past its declared length, so walking a
    buffer frame by frame costs time linear in its size.
    """
    available = len(buf) - offset
    if available < _HEADER.size:
        return None
    tag = buf[offset + 4]
    try:
        # A telemetry frame of its type's length is one unpack, header included.
        if tag == MSG_HEADSET_SAMPLE and available >= _HEADSET_FRAME.size:
            length, _, ts, sid, px, py, pz, ow, ox, oy, oz, gx, gy, gz = \
                _HEADSET_FRAME.unpack_from(buf, offset)
            if length == _HEADSET_FRAME_LEN:
                return (HeadsetSample(ts, sid, (px, py, pz), (ow, ox, oy, oz), (gx, gy, gz)),
                        offset + _HEADSET_FRAME.size)
        elif tag == MSG_ROBOT_SAMPLE and available >= _ROBOT_FRAME.size:
            length, _, ts, sid, px, py, pz, ow, ox, oy, oz, speed, yaw_rate = \
                _ROBOT_FRAME.unpack_from(buf, offset)
            if length == _ROBOT_FRAME_LEN:
                return (RobotSample(ts, sid, (px, py, pz), (ow, ox, oy, oz), speed, yaw_rate),
                        offset + _ROBOT_FRAME.size)
        length = _HEADER.unpack_from(buf, offset)[0]
        if length < 1:
            raise ProtocolError(f"frame length {length} below minimum of 1")
        if length > MAX_FRAME_LEN:
            raise ProtocolError(f"frame length {length} exceeds maximum {MAX_FRAME_LEN}")
        end = offset + 4 + length
        if len(buf) < end:
            return None
        return _decode_payload(tag, buf, offset + _HEADER.size, end), end
    except ValidationError as exc:
        # Bytes parsed but the field content is invalid (NaN, bad norm, ...).
        raise ProtocolError(f"{MSG_NAMES.get(tag, hex(tag))} field invalid: {exc}") from exc


class StreamDecoder:
    """Accumulates stream bytes and yields complete messages in order."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Message]:
        self._buf += data
        out: list[Message] = []
        offset = 0
        while (result := decode(self._buf, offset)) is not None:
            msg, offset = result
            out.append(msg)
        del self._buf[:offset]  # once per call: the work stays linear in the bytes fed
        return out
