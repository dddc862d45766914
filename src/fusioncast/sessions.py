"""Session buffering, nearest-timestamp alignment, and resampling onto the grid.

A Session holds the telemetry messages of one device as a single stream:
each HeadsetSample carries pose and gaze under one timestamp, each
RobotSample carries pose. After the session ends it can be resampled onto
the 10 Hz grid: each grid point takes the nearest message within half a
period, or becomes a gap. The grid is one fixed decision of the package,
defined here as GRID_PERIOD_US; the windows, the predictors' frame interval
and the simulator's step all derive from it. The incremental
:class:`GridAligner` does the actual work and is shared verbatim by the
offline :func:`resample` and online alignment of a live stream, which is
what makes offline and online prediction outputs bit-identical.

Persistence is one file per session: a SessionStart frame, the telemetry
frames, and a SessionEnd frame, all in the wire format — on disk and on the
wire the bytes are the same.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from . import protocol
from .errors import OrderingError, ProtocolError
from .geometry import AgentState, heading_and_rotate
from .protocol import (
    AGENT_HUMAN,
    AGENT_ROBOT,
    HeadsetSample,
    RobotSample,
    SessionEnd,
    SessionStart,
)

# The one time base: every aligned frame, window, predictor step and
# simulator step is 100 ms apart (10 Hz).
GRID_PERIOD_US = 100_000
# A grid point takes the nearest message at most this far away.
GRID_TOLERANCE_US = GRID_PERIOD_US // 2
# Gaps of at most this many consecutive grid points carry the last frame
# forward (still gap-flagged); longer gaps leave the frames empty.
BRIDGE_MAX_GAP = 3
# Consecutive messages of one stream are at most this far apart (one hour).
# Alignment emits a frame per grid point between two messages, so this bounds
# the work and memory a single message can ask for.
MAX_GAP_US = 3_600_000_000


def _sample_type(agent_kind: str) -> type:
    """The telemetry message type an agent of this kind sends."""
    if agent_kind == AGENT_HUMAN:
        return HeadsetSample
    if agent_kind == AGENT_ROBOT:
        return RobotSample
    raise ValueError(f"agent_kind must be 'human' or 'robot', got {agent_kind!r}")


def _check_next_timestamp(prev_us: int, msg) -> None:
    """Raise OrderingError unless ``msg`` comes after ``prev_us`` by at most
    MAX_GAP_US. Callers test that order inline and call this when it fails."""
    if 0 < msg.timestamp_us - prev_us <= MAX_GAP_US:
        return
    if msg.timestamp_us <= prev_us:
        problem = "not after"
    else:
        problem = f"more than MAX_GAP_US = {MAX_GAP_US} after"
    raise OrderingError(f"timestamp {msg.timestamp_us} {problem} previous {prev_us} "
                        f"(session {msg.session_id})")


class Session:
    """The telemetry messages of one recording in timestamp order, exactly as
    they are persisted; append-only, immutable after end()."""

    def __init__(self, session_id: int, agent_kind: str, label: str = ""):
        self._sample_type = _sample_type(agent_kind)
        self.session_id = int(session_id)
        self.agent_kind = agent_kind
        self.label = label
        self.messages: list[HeadsetSample | RobotSample] = []
        self.ordering_rejects = 0
        self.ended = False
        self.complete = True

    @property
    def pose_stream(self) -> list[HeadsetSample | RobotSample]:
        """Alias of ``messages`` (each message carries the pose)."""
        return self.messages

    def ingest(self, msg):
        """Append one telemetry message. A timestamp not after the previous
        one, or more than MAX_GAP_US after it, raises OrderingError (counted
        on the session, not fatal to it)."""
        if not isinstance(msg, self._sample_type):
            raise ValueError(f"{self.agent_kind} session takes "
                             f"{self._sample_type.__name__} messages, got {msg!r}")
        if msg.session_id != self.session_id:
            raise ValueError(
                f"message session_id {msg.session_id} != session {self.session_id}"
            )
        if self.ended:
            raise ValueError(f"session {self.session_id} already ended")
        messages = self.messages
        if messages and not 0 < msg.timestamp_us - messages[-1].timestamp_us <= MAX_GAP_US:
            self.ordering_rejects += 1
            _check_next_timestamp(messages[-1].timestamp_us, msg)  # raises
        messages.append(msg)

    def end(self):
        self.ended = True


@dataclass(slots=True)
class AlignedFrame:
    """One grid point after alignment. Gap frames carry the previous state
    (if the gap is short) and are flagged; windows never include them."""

    timestamp_us: int
    state: AgentState | None
    gaze_world: tuple[float, float, float] | None = None
    source_pose_ts: int | None = None
    is_gap: bool = False
    heading_carried: bool = False


class GridAligner:
    """Incrementally aligns one session's telemetry messages onto the fixed
    grid (GRID_PERIOD_US apart) starting at the first message.

    Messages are pushed in timestamp order, at most MAX_GAP_US apart; any
    other message raises OrderingError and leaves the aligner as it was, and
    so does any message after finish() (with ValueError).
    Each grid point takes the nearest message within GRID_TOLERANCE_US (the
    earlier one on ties), or becomes a gap. A grid point is emitted once a
    message at or past grid_ts + tolerance has arrived, so no later message
    can change the choice; finish() flushes the remaining grid points up to
    the last message.
    Memory stays bounded by the tolerance window.
    """

    def __init__(self, agent_kind: str):
        self._sample_type = _sample_type(agent_kind)
        self.agent_kind = agent_kind
        self._human = agent_kind == AGENT_HUMAN
        self._buf: deque[HeadsetSample | RobotSample] = deque()
        self._last_ts = None
        self._grid_ts = None
        self._prev_state: AgentState | None = None
        self._prev_gaze: tuple[float, float, float] | None = None
        self._gap_run = 0
        self.gap_frames = 0
        self.heading_carries = 0
        self._finished = False

    def push_message(self, msg) -> list[AlignedFrame]:
        if self._finished:
            raise ValueError(f"{self.agent_kind} aligner already finished; "
                             f"it takes no more messages, got {msg!r}")
        if not isinstance(msg, self._sample_type):
            raise ValueError(f"{self.agent_kind} aligner takes "
                             f"{self._sample_type.__name__} messages, got {msg!r}")
        ts = msg.timestamp_us
        if self._grid_ts is None:
            self._grid_ts = ts
        elif not 0 < ts - self._last_ts <= MAX_GAP_US:
            _check_next_timestamp(self._last_ts, msg)  # raises
        self._buf.append(msg)
        self._last_ts = ts
        out = []
        while self._last_ts >= self._grid_ts + GRID_TOLERANCE_US:
            out.append(self._emit())
        return out

    def finish(self) -> list[AlignedFrame]:
        """Flush grid points through the last message's timestamp."""
        if self._finished:
            return []
        self._finished = True
        if self._grid_ts is None:
            return []
        out = []
        while self._grid_ts <= self._last_ts:
            out.append(self._emit())
        return out

    def _emit(self) -> AlignedFrame:
        grid_ts = self._grid_ts
        self._grid_ts += GRID_PERIOD_US
        # Prune everything before the tolerance window, then linear-scan it
        # for the nearest message (a handful at sane input rates).
        buf = self._buf
        low = grid_ts - GRID_TOLERANCE_US
        while buf and buf[0].timestamp_us < low:
            buf.popleft()
        msg = None
        best_diff = None
        for cand in buf:
            if cand.timestamp_us > grid_ts + GRID_TOLERANCE_US:
                break
            diff = abs(cand.timestamp_us - grid_ts)
            if msg is None or diff < best_diff:  # ties keep the earlier message
                msg, best_diff = cand, diff

        prev = self._prev_state
        heading = None
        if msg is not None:
            heading, gaze_world = heading_and_rotate(
                msg.orientation, msg.gaze_local if self._human else None)
            heading_carried = heading is None
            if heading_carried and prev is not None:
                heading = prev.theta
        if heading is None:
            # No message within tolerance, or a degenerate heading before any
            # valid one: a gap, bridged by the last frame while it is short.
            self._gap_run += 1
            self.gap_frames += 1
            if self._gap_run <= BRIDGE_MAX_GAP and prev is not None:
                return AlignedFrame(grid_ts, prev, self._prev_gaze, is_gap=True)
            return AlignedFrame(grid_ts, None, is_gap=True)
        if heading_carried:
            self.heading_carries += 1

        x, y, _ = msg.position
        state = AgentState._make((x, y, heading))  # heading_and_rotate wrapped it
        self._gap_run = 0
        self._prev_state = state
        self._prev_gaze = gaze_world
        return AlignedFrame(grid_ts, state, gaze_world, msg.timestamp_us, False, heading_carried)


@dataclass
class ResampleResult:
    frames: list[AlignedFrame] = field(default_factory=list)
    gap_frames: int = 0
    heading_carries: int = 0

    def __len__(self):
        return len(self.frames)


def resample(session: Session) -> ResampleResult:
    """Align an ended session onto the fixed 10 Hz grid (GRID_PERIOD_US) from
    its first to its last timestamp by pushing every message through one
    GridAligner."""
    if not session.ended:
        raise ValueError("resample requires an ended session")
    aligner = GridAligner(session.agent_kind)
    frames: list[AlignedFrame] = []
    for msg in session.messages:
        frames += aligner.push_message(msg)
    frames += aligner.finish()
    return ResampleResult(frames, aligner.gap_frames, aligner.heading_carries)


def save_session(session: Session, path) -> None:
    """Persist a session as wire frames: SessionStart, telemetry, SessionEnd."""
    frames = [protocol.encode(SessionStart(session.session_id, session.agent_kind, session.label))]
    frames += map(protocol.encode, session.messages)
    frames.append(protocol.encode(SessionEnd(session.session_id, complete=session.complete)))
    Path(path).write_bytes(b"".join(frames))


def load_session(path) -> Session:
    """Load a persisted session. A missing SessionEnd marks it incomplete.

    A malformed frame, a well-framed message the session cannot take
    (another session's id or end, a non-telemetry message, out-of-order
    timestamps), or any byte after the SessionEnd frame raises ProtocolError
    naming the file.
    """
    data = Path(path).read_bytes()
    try:
        result = protocol.decode(data)
    except ProtocolError as exc:
        raise ProtocolError(f"{path}: {exc}") from exc
    if result is None or not isinstance(result[0], SessionStart):
        raise ProtocolError(f"{path}: does not start with a SessionStart frame")
    start, offset = result
    session = Session(start.session_id, start.agent_kind, start.label)
    saw_end = False
    while offset < len(data):
        try:
            result = protocol.decode(data, offset)
        except ProtocolError as exc:
            raise ProtocolError(f"{path}: {exc}") from exc
        if result is None:
            break  # partial trailing frame: writer died mid-write
        msg, offset = result
        if isinstance(msg, SessionEnd):
            if msg.session_id != session.session_id:
                raise ProtocolError(f"{path}: SessionEnd of session {msg.session_id} "
                                    f"in the file of session {session.session_id}")
            if offset < len(data):
                raise ProtocolError(f"{path}: {len(data) - offset} bytes after SessionEnd, "
                                    f"from byte offset {offset}")
            session.complete = msg.complete
            saw_end = True
            break
        try:
            session.ingest(msg)
        except ValueError as exc:  # OrderingError included
            raise ProtocolError(f"{path}: {exc}") from exc
    if not saw_end:
        session.complete = False
    session.end()
    return session
