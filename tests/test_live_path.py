"""The live path, pinned to the bit, and its checks.

Aligned frames and predicted steps are built from values checked where they
came in (the message constructor, one finiteness test of the forecast), not
checked again state by state. The digests pin the bits of that path; the
other tests show that the checks still raise where they always did.
"""

import functools
import hashlib
import math
import struct

import numpy as np
import pytest

from fusioncast.errors import ValidationError
from fusioncast.geometry import AgentState, quaternion_from_yaw
from fusioncast.predictors import ConstantVelocityPredictor, fit_ridge, window_arrays
from fusioncast.protocol import HeadsetSample, Prediction, RobotSample, encode
from fusioncast.sessions import GRID_PERIOD_US, GridAligner, Session, resample
from fusioncast.simulate import CorpusConfig, generate_corpus
from fusioncast.windows import (
    HORIZON_FRAMES,
    OBS_FRAMES,
    FeatureConfig,
    TrajectoryWindow,
    segment,
)

CONFIGS = {"human": FeatureConfig.POSE_HEAD_GAZE, "robot": FeatureConfig.ROBOT_POSE_ONLY}
# Forward axis pitched straight down: no heading, so the aligner carries one.
VERTICAL = (math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0)


def _with_holes(session):
    """``session`` with two short and one long run of messages dropped (gap
    frames, bridged and empty) and two vertical orientations (heading
    carries)."""
    out = Session(session.session_id, session.agent_kind, session.label)
    for i, msg in enumerate(session.messages):
        if 30 <= i < 32 or 70 <= i < 73 or 110 <= i < 118:
            continue
        if i in (50, 51):
            fields = (msg.timestamp_us, msg.session_id, msg.position, VERTICAL)
            if isinstance(msg, HeadsetSample):
                msg = HeadsetSample(*fields, msg.gaze_local)
            else:
                msg = RobotSample(*fields, msg.linear_speed, msg.yaw_rate)
        out.ingest(msg)
    out.end()
    return out


@functools.cache
def _corpus():
    stream = [_with_holes(s) for s in generate_corpus(CorpusConfig(3, 3, 20.0, seed=41))]
    models = {}
    train = generate_corpus(CorpusConfig(4, 3, 40.0, seed=42))
    for kind, config in CONFIGS.items():
        windows = [w for s in train if s.agent_kind == kind
                   for w in segment(resample(s).frames, s.session_id, config)]
        models[kind] = fit_ridge(windows, config, lam=1.0)
    return stream, models


def _frame_bits(frame) -> bytes:
    state = b"-" if frame.state is None else struct.pack(
        "<3d", frame.state.x, frame.state.y, frame.state.theta)
    gaze = b"-" if frame.gaze_world is None else struct.pack("<3d", *frame.gaze_world)
    source = -1 if frame.source_pose_ts is None else frame.source_pose_ts
    return struct.pack("<qq??", frame.timestamp_us, source, frame.is_gap,
                       frame.heading_carried) + state + gaze


class TestPinnedBits:
    # SHA-256 digests recorded from an earlier build of the package; any
    # change that moves one bit of an aligned frame or a prediction fails
    # here. As with the saved-session digests, the floats come from libm, so
    # a platform with a different libm may need its own digests.

    def test_aligned_frames_pinned(self):
        digest = hashlib.sha256()
        gaps = carries = 0
        for session in _corpus()[0]:
            result = resample(session)
            gaps += result.gap_frames
            carries += result.heading_carries
            for frame in result.frames:
                digest.update(_frame_bits(frame))
        assert gaps == 6 * 13 and carries == 6 * 2
        assert digest.hexdigest() == (
            "f5fcc31ffdb5a856509790adba09618c5218cabc2621e4589be2394c787eb10b")

    def test_prediction_frames_pinned(self, one_thread_stdout):
        # The models are ridge fits, whose bits move with the BLAS thread
        # count, so the frames are encoded in a child with one thread.
        count, digest = one_thread_stdout(__file__).split()
        assert int(count) > 20
        assert digest == "0499000da7b818f845fcb071970950efdb3b67a11408f48c6f0083dbecf9957a"


def _prediction_digest() -> tuple[int, str]:
    """How many prediction frames the stream yields, and their SHA-256."""
    digest = hashlib.sha256()
    stream, models = _corpus()
    count = 0
    for session in stream:
        model = models[session.agent_kind]
        frames = resample(session).frames
        for window in segment(frames, session.session_id, model.feature_config, horizon=1):
            states = model.predict(window)
            digest.update(encode(Prediction(
                window.observed[-1].timestamp_us, window.session_id,
                tuple((s.x, s.y, s.theta) for s in states))))
            count += 1
    return count, digest.hexdigest()


def _rebuilt(window):
    """A copy of ``window`` built from its frames, which reads them on first use."""
    return TrajectoryWindow(window.session_id, window.start_index, window.feature_config,
                            window.observed, window.future)


def _array_bits(arrays):
    return [None if a is None else a.tobytes() for a in arrays]


class TestWindowRows:
    """The rows ``segment`` reads at the cut are the floats of each window's
    own frames, on sessions with gaps and heading carries."""

    @pytest.mark.parametrize("horizon", [HORIZON_FRAMES, 1])
    @pytest.mark.parametrize("config", list(FeatureConfig), ids=lambda c: c.value)
    def test_cut_rows_equal_rows_rebuilt_from_frames(self, config, horizon):
        kind = "robot" if config is FeatureConfig.ROBOT_POSE_ONLY else "human"
        windows = [w for s in _corpus()[0] if s.agent_kind == kind
                   for w in segment(resample(s).frames, s.session_id, config, horizon=horizon)]
        assert len(windows) >= 9
        if horizon == 1:  # the runs beside the carried headings are too short for a full future
            assert any(f.heading_carried for w in windows for f in w.observed)
        future = horizon == HORIZON_FRAMES
        rebuilt = [_rebuilt(w) for w in windows]
        for cut, copy in zip(windows, rebuilt):
            assert (_array_bits(window_arrays([cut], config, future))
                    == _array_bits(window_arrays([copy], config, future)))
        stacked = window_arrays(windows, config, future)
        assert _array_bits(stacked) == _array_bits(window_arrays(rebuilt, config, future))
        pos, theta, gaze, fut = stacked
        assert pos.tolist() == [[[f.state.x, f.state.y] for f in w.observed] for w in windows]
        assert theta.tolist() == [[f.state.theta for f in w.observed] for w in windows]
        if config.uses_gaze:
            assert gaze.tolist() == [[list(f.gaze_world[:2]) for f in w.observed] for w in windows]
        if future:
            assert fut.tolist() == [[[f.state.x, f.state.y] for f in w.future] for w in windows]

    def test_cut_and_live_windows_stack_together(self):
        # The live reference's pattern: one-frame-future windows plus one
        # window built from a session's last 20 frames, with no future.
        for session in _corpus()[0]:
            config = CONFIGS[session.agent_kind]
            frames = resample(session).frames
            windows = segment(frames, session.session_id, config, horizon=1)
            windows.append(TrajectoryWindow(session.session_id, len(frames) - OBS_FRAMES, config,
                                            tuple(frames[-OBS_FRAMES:])))
            stacked = window_arrays(windows, config)
            assert len(stacked[0]) == len(windows) > 1 and stacked[3] is None
            assert _array_bits(stacked) == _array_bits(window_arrays([_rebuilt(w) for w in windows],
                                                                     config))


class TestChecksMoved:
    """Values checked once where they come in still raise there."""

    @pytest.mark.parametrize("index,axis,value", [
        (2, 0, math.nan), (2, 0, math.inf), (2, 0, -math.inf),
        (2, 1, math.nan), (2, 1, math.inf), (2, 1, -math.inf),
        (5, 0, math.nan), (5, 0, math.inf),
    ])
    def test_position_cannot_change_after_checks(self, message_is_fixed, index, axis, value):
        # The aligner builds its poses unchecked from message positions, so
        # none may change after its constructor checked it: message 2 is
        # aligned on a push, message 5 at finish.
        msgs = [HeadsetSample(i * GRID_PERIOD_US, 1, (0.1 * i, 0.0, 1.6),
                              quaternion_from_yaw(0.0), (1.0, 0.0, 0.0)) for i in range(6)]
        position = list(msgs[index].position)
        position[axis] = value
        message_is_fixed(msgs[index], "position", tuple(position))
        aligner = GridAligner("human")
        frames = [f for msg in msgs for f in aligner.push_message(msg)] + aligner.finish()
        assert [f.state[:2] for f in frames] == [msg.position[:2] for msg in msgs]

    def _window(self):
        stream, models = _corpus()
        session = stream[0]
        config = CONFIGS[session.agent_kind]
        return segment(resample(session).frames, session.session_id, config, horizon=1)[0]

    @pytest.mark.parametrize("row,col,value", [(0, 0, math.nan), (7, 1, math.inf),
                                               (39, 0, -math.inf)])
    def test_non_finite_forecast_row_raises(self, row, col, value):
        window = self._window()
        predictor = ConstantVelocityPredictor(window.feature_config)
        clean = predictor.forecast

        def forecast(pos, theta, gaze=None):
            out = clean(pos, theta, gaze).copy()
            out[..., row, col] = value
            return out

        predictor.forecast = forecast
        name = "xy"[col]
        with pytest.raises(ValidationError) as info:
            predictor.predict(window)
        assert str(info.value) == f"AgentState.{name} must be finite, got {value!r}"

    def test_non_finite_carried_heading_raises(self):
        # A window built from frames whose last heading was set to NaN,
        # forecast to stand still: the first step carries that heading, and
        # its state refuses it. A window reads its frames' floats once, so
        # the NaN is set before the window is built.
        cut = self._window()
        last = cut.observed[-1]
        last.state = AgentState._make((last.state.x, last.state.y, math.nan))
        window = TrajectoryWindow(cut.session_id, cut.start_index, cut.feature_config,
                                  cut.observed, cut.future)
        predictor = ConstantVelocityPredictor(window.feature_config)
        predictor.forecast = lambda pos, theta, gaze=None: np.repeat(pos[..., -1:, :], 40, axis=-2)
        with pytest.raises(ValidationError, match="AgentState.theta must be finite, got nan"):
            predictor.predict(window)


class TestCheckCost:
    def test_clean_resample_and_predict_build_no_checked_state(self, monkeypatch):
        stream, models = _corpus()
        calls = []
        new = AgentState.__new__

        def counting(cls, *args):
            calls.append(args)
            return new(cls, *args)

        monkeypatch.setattr(AgentState, "__new__", counting)
        session = stream[0]
        model = models[session.agent_kind]
        windows = segment(resample(session).frames, session.session_id, model.feature_config,
                          horizon=1)
        for window in windows:
            assert len(model.predict(window)) == 40
        assert windows and calls == []


if __name__ == "__main__":
    print(*_prediction_digest())
