"""Session ingestion, nearest-timestamp alignment, resampling, persistence."""

import hashlib
import math
import time
from collections import deque

import numpy as np
import pytest

from fusioncast import protocol
from fusioncast.errors import OrderingError, ProtocolError
from fusioncast.geometry import quaternion_from_yaw
from fusioncast.protocol import Hello, HeadsetSample, RobotSample, SessionEnd, SessionStart
from fusioncast.sessions import (
    BRIDGE_MAX_GAP,
    GRID_PERIOD_US,
    GRID_TOLERANCE_US,
    MAX_GAP_US,
    GridAligner,
    Session,
    load_session,
    resample,
    save_session,
)
from fusioncast.simulate import CorpusConfig, generate_corpus

FWD_GAZE = (1.0, 0.0, 0.0)


def _headset(ts_us, sid=1, x=0.0, y=0.0, yaw=0.0):
    return HeadsetSample(ts_us, sid, (x, y, 1.6), quaternion_from_yaw(yaw), FWD_GAZE)


def _robot(ts_us, sid=2, x=0.0, y=0.0, yaw=0.0, speed=1.0):
    return RobotSample(ts_us, sid, (x, y, 0.5), quaternion_from_yaw(yaw), speed, 0.0)


def _human_session(n, sid=1, step_us=100_000, start_us=0):
    session = Session(sid, "human")
    for i in range(n):
        session.ingest(_headset(start_us + i * step_us, sid, x=0.1 * i))
    return session


class TestIngest:
    def test_single_sample(self):
        session = Session(1, "human")
        msg = _headset(0)
        session.ingest(msg)
        assert session.messages == [msg]

    def test_duplicate_timestamp_rejected_and_counted(self):
        session = Session(1, "human")
        session.ingest(_headset(1000))
        with pytest.raises(OrderingError):
            session.ingest(_headset(1000))
        assert session.ordering_rejects == 1
        assert len(session.messages) == 1  # session still usable
        session.ingest(_headset(2000))
        assert len(session.messages) == 2
        assert session.ordering_rejects == 1

    def test_out_of_order_rejected(self):
        session = Session(1, "human")
        session.ingest(_headset(5000))
        with pytest.raises(OrderingError, match="not after previous 5000"):
            session.ingest(_headset(4000))
        assert session.ordering_rejects == 1
        assert [m.timestamp_us for m in session.messages] == [5000]
        session.ingest(_headset(6000))
        assert [m.timestamp_us for m in session.messages] == [5000, 6000]
        assert session.ordering_rejects == 1

    def test_session_id_mismatch(self):
        session = Session(1, "human")
        with pytest.raises(ValueError):
            session.ingest(_headset(0, sid=9))

    def test_kind_mismatch(self):
        session = Session(1, "human")
        with pytest.raises(ValueError):
            session.ingest(_robot(0, sid=1))

    def test_ingest_after_end_rejected(self):
        session = _human_session(3)
        session.end()
        before = list(session.messages)
        with pytest.raises(ValueError):
            session.ingest(_headset(1_000_000))
        assert session.messages == before

    def test_nine_hour_throughput(self):
        # ~324k frames (9 h at 10 Hz) must ingest and resample without blowing up.
        n = 324_000
        session = Session(1, "robot")
        t0 = time.monotonic()
        for i in range(n):
            session.ingest(_robot(i * 100_000, sid=1, x=0.1 * i))
        session.end()
        result = resample(session)
        elapsed = time.monotonic() - t0
        assert len(result.frames) == n
        assert result.gap_frames == 0
        assert elapsed < 120, f"ingest+resample took {elapsed:.1f}s"


class TestTimestampBound:
    U64_MAX = 2 ** 64 - 1

    def test_gap_bound_inclusive_on_ingest(self):
        session = Session(2, "robot")
        session.ingest(_robot(0))
        session.ingest(_robot(MAX_GAP_US))
        with pytest.raises(OrderingError, match="MAX_GAP_US"):
            session.ingest(_robot(2 * MAX_GAP_US + 1))
        assert session.ordering_rejects == 1
        assert len(session.messages) == 2
        session.ingest(_robot(2 * MAX_GAP_US))
        assert [m.timestamp_us for m in session.messages] == [0, MAX_GAP_US, 2 * MAX_GAP_US]
        assert session.ordering_rejects == 1

    def test_u64_jump_raises_online_in_bounded_time(self):
        aligner = GridAligner("robot")
        assert aligner.push_message(_robot(0)) == []
        t0 = time.perf_counter()
        with pytest.raises(OrderingError):
            aligner.push_message(_robot(self.U64_MAX))
        assert time.perf_counter() - t0 < 0.5
        # The rejected message left no trace: alignment carries on as before.
        frames = aligner.push_message(_robot(GRID_PERIOD_US)) + aligner.finish()
        assert [f.source_pose_ts for f in frames] == [0, GRID_PERIOD_US]

    def test_u64_jump_raises_offline_in_bounded_time(self, tmp_path):
        path = tmp_path / "s2.fcs"
        body = [SessionStart(2, "robot"), _robot(0), _robot(self.U64_MAX), SessionEnd(2)]
        path.write_bytes(b"".join(protocol.encode(m) for m in body))
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError, match="s2.fcs") as info:
            load_session(path)
        assert time.perf_counter() - t0 < 0.5
        assert isinstance(info.value.__cause__, OrderingError)

    @pytest.mark.parametrize("ts", [GRID_PERIOD_US, 2 * GRID_PERIOD_US], ids=["backwards", "repeated"])
    def test_aligner_rejects_timestamp_not_after_previous(self, ts):
        aligner = GridAligner("human")
        aligner.push_message(_headset(0))
        aligner.push_message(_headset(2 * GRID_PERIOD_US))
        with pytest.raises(OrderingError, match="not after"):
            aligner.push_message(_headset(ts))
        frames = aligner.finish()
        assert [f.source_pose_ts for f in frames] == [2 * GRID_PERIOD_US]

    @pytest.mark.parametrize("kind, make", [("human", _headset), ("robot", _robot)],
                             ids=["human", "robot"])
    def test_aligner_rejects_push_after_finish(self, kind, make):
        aligner = GridAligner(kind)
        aligner.push_message(make(0))
        assert len(aligner.finish()) == 1

        def snapshot():
            return {k: list(v) if isinstance(v, deque) else v for k, v in vars(aligner).items()}

        before = snapshot()
        with pytest.raises(ValueError, match=f"^{kind} aligner already finished"):
            aligner.push_message(make(10 * GRID_PERIOD_US))
        assert snapshot() == before
        assert aligner.finish() == []


class TestResample:
    def test_exact_rate_is_identity(self):
        session = _human_session(50)
        session.end()
        result = resample(session)
        assert len(result.frames) == 50
        for i, frame in enumerate(result.frames):
            assert frame.timestamp_us == i * 100_000
            assert frame.source_pose_ts == frame.timestamp_us
            assert not frame.is_gap
            assert frame.state.x == pytest.approx(0.1 * i)

    def test_30hz_picks_every_third(self):
        # Samples every 33333 us; oracle = exhaustive nearest search per grid point.
        session = Session(1, "human")
        ts = [i * 33_333 for i in range(100)]
        for i, t in enumerate(ts):
            session.ingest(_headset(t, x=float(i)))
        session.end()
        result = resample(session)
        assert result.gap_frames == 0
        for frame in result.frames:
            diffs = [abs(t - frame.timestamp_us) for t in ts]
            best = min(diffs)
            oracle_ts = ts[diffs.index(best)]  # index() returns the earliest tie
            assert frame.source_pose_ts == oracle_ts

    def test_grid_spacing_exact(self):
        session = Session(1, "human")
        rng = np.random.default_rng(3)
        t = 0
        for _ in range(200):
            t += int(rng.integers(80_000, 120_000))
            session.ingest(_headset(t))
        session.end()
        frames = resample(session).frames
        for a, b in zip(frames, frames[1:]):
            assert b.timestamp_us - a.timestamp_us == 100_000

    def test_nearest_matches_linear_scan_oracle(self):
        # Oracle: brute-force scan for the minimum |ts - grid point| within the
        # tolerance, earlier on ties; no such sample means a gap frame. The
        # timestamps lie on a lattice of an eighth of the grid period, so
        # exact ties and hits at exactly the tolerance occur often.
        rng = np.random.default_rng(211)
        lattice = GRID_PERIOD_US // 8
        ties = at_tolerance = all_gaps = 0
        for _ in range(10_000):
            ts = np.unique(rng.integers(0, 80, size=int(rng.integers(1, 40)))) * lattice
            session = Session(2, "robot")
            for t in ts:
                session.ingest(_robot(int(t)))
            session.end()
            result = resample(session)

            grid = range(int(ts[0]), int(ts[-1]) + 1, GRID_PERIOD_US)
            assert [f.timestamp_us for f in result.frames] == list(grid)
            gaps = 0
            for frame in result.frames:
                diffs = [abs(int(t) - frame.timestamp_us) for t in ts]
                within = [d for d in diffs if d <= GRID_TOLERANCE_US]
                assert frame.is_gap == (not within)
                if not within:
                    gaps += 1
                    continue
                best_diff = min(within)
                assert frame.source_pose_ts == int(ts[diffs.index(best_diff)])
                ties += diffs.count(best_diff) > 1
                at_tolerance += best_diff == GRID_TOLERANCE_US
            assert result.gap_frames == gaps
            all_gaps += gaps
        assert ties and at_tolerance and all_gaps

    def test_exact_tie_takes_earlier_and_tolerance_is_inclusive(self):
        session = Session(1, "human")
        for t in (0, 75_000, 125_000, 250_000, 400_000):
            session.ingest(_headset(t))
        session.end()
        result = resample(session)
        # Grid 100 ms sits tolerance/2 from 75 and 125 ms; 200 and 300 ms sit
        # exactly the tolerance from 250 ms.
        assert [f.source_pose_ts for f in result.frames] == [
            0, 75_000, 250_000, 250_000, 400_000]
        assert result.gap_frames == 0

    def test_short_gap_carries_state_long_gap_does_not(self):
        session = Session(1, "human")
        for i in range(40):
            if 10 <= i < 12 or 20 <= i < 26:  # 2-frame gap, then 6-frame gap
                continue
            ts = i * 100_000
            session.ingest(_headset(ts, x=0.1 * i))
        session.end()
        frames = resample(session).frames
        assert frames[10].is_gap and frames[10].state is not None  # bridged
        assert frames[11].is_gap and frames[11].state is not None
        assert frames[25].is_gap and frames[25].state is None  # beyond bridge limit

    def test_degenerate_heading_carried_forward(self):
        session = Session(1, "human")
        # pitch -90 deg: forward axis points straight up
        up_q = (math.cos(-math.pi / 4), 0.0, math.sin(-math.pi / 4), 0.0)
        for i in range(10):
            q = up_q if i == 5 else quaternion_from_yaw(0.3)
            session.ingest(HeadsetSample(i * 100_000, 1, (0.1 * i, 0.0, 1.6), q, FWD_GAZE))
        session.end()
        result = resample(session)
        frame = result.frames[5]
        assert not frame.is_gap
        assert frame.heading_carried
        assert frame.state.theta == pytest.approx(0.3)
        assert result.heading_carries == 1

    def test_degenerate_heading_before_first_pose_and_after_long_gap(self):
        # Messages 0-2 and 16 point straight up; 10-15 never arrive. Offline
        # resample and one aligner fed message by message must agree.
        up_q = (math.cos(-math.pi / 4), 0.0, math.sin(-math.pi / 4), 0.0)
        session = Session(1, "human")
        for i in range(30):
            if 10 <= i < 16:
                continue
            q = up_q if i < 3 or i == 16 else quaternion_from_yaw(0.3)
            session.ingest(HeadsetSample(i * 100_000, 1, (0.1 * i, 0.0, 1.6), q, FWD_GAZE))
        session.end()
        result = resample(session)
        aligner = GridAligner("human")
        online = []
        for msg in session.messages:
            online += aligner.push_message(msg)
        online += aligner.finish()
        assert online == result.frames
        for counts in (result, aligner):
            assert counts.gap_frames == 9
            assert counts.heading_carries == 1

        frames = result.frames
        assert len(frames) == 30
        for frame in frames[:3]:  # no valid heading yet: nothing to carry or bridge
            assert frame.is_gap and frame.state is None and not frame.heading_carried
        assert not frames[3].is_gap and not frames[3].heading_carried
        assert all(f.is_gap and f.state == frames[9].state for f in frames[10:10 + BRIDGE_MAX_GAP])
        assert all(f.is_gap and f.state is None for f in frames[10 + BRIDGE_MAX_GAP:16])
        carried = frames[16]
        assert not carried.is_gap and carried.heading_carried
        assert carried.source_pose_ts == 16 * 100_000
        assert carried.state.x == 0.1 * 16
        assert carried.state.theta == frames[9].state.theta == pytest.approx(0.3)

    def test_too_short_session_gives_diagnostic(self):
        session = Session(1, "human")
        session.ingest(_headset(0))
        session.end()
        result = resample(session)
        assert len(result.frames) == 1  # single common grid point
        session2 = Session(2, "human")
        session2.end()
        result2 = resample(session2)
        assert result2.frames == []

    def test_requires_ended_session(self):
        session = _human_session(30)
        with pytest.raises(ValueError):
            resample(session)

    def test_deterministic(self):
        a = _human_session(100)
        a.end()
        b = _human_session(100)
        b.end()
        fa, fb = resample(a).frames, resample(b).frames
        assert len(fa) == len(fb)
        for x, y in zip(fa, fb):
            assert x.timestamp_us == y.timestamp_us
            assert x.state.x == y.state.x and x.state.theta == y.state.theta

    def test_incremental_aligner_matches_batch(self):
        # The server pushes samples one at a time; offline resample must agree.
        session = Session(1, "human")
        rng = np.random.default_rng(17)
        t = 0
        msgs = []
        for i in range(300):
            t += int(rng.integers(60_000, 140_000))
            msg = _headset(t, x=float(i), yaw=float(rng.uniform(-3, 3)))
            msgs.append(msg)
            session.ingest(msg)
        session.end()
        batch = resample(session).frames

        aligner = GridAligner("human")
        inc = []
        for msg in msgs:
            inc += aligner.push_message(msg)
        inc += aligner.finish()

        assert len(batch) == len(inc)
        for a, b in zip(batch, inc):
            assert a.timestamp_us == b.timestamp_us
            assert a.is_gap == b.is_gap
            if not a.is_gap:
                assert a.state.x == b.state.x
                assert a.state.theta == b.state.theta


class TestPersistence:
    def test_round_trip(self, tmp_path):
        session = _human_session(25, sid=9)
        session.label = "corridor-test"
        session.end()
        path = tmp_path / "s9.fcs"
        save_session(session, path)
        loaded = load_session(path)
        assert loaded.session_id == 9
        assert loaded.agent_kind == "human"
        assert loaded.label == "corridor-test"
        assert loaded.complete
        assert loaded.messages == session.messages

    def test_saved_bytes_identical_across_runs(self, tmp_path):
        for name in ("a.fcs", "b.fcs"):
            session = _human_session(25, sid=9)
            session.end()
            save_session(session, tmp_path / name)
        assert (tmp_path / "a.fcs").read_bytes() == (tmp_path / "b.fcs").read_bytes()

    def test_saved_bytes_pinned(self, tmp_path):
        # SHA-256 of the saved files of a small seeded corpus, recorded from an
        # earlier build of the package: any change that moves one saved bit
        # fails here. The simulator's floats come from libm's trigonometry,
        # so a platform with a different libm may need its own digest.
        digest = hashlib.sha256()
        for session in generate_corpus(CorpusConfig(n_human=3, n_robot=3, duration_s=8.0, seed=11)):
            path = tmp_path / f"{session.session_id}.fcs"
            save_session(session, path)
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "a2b5335fcfff2fa3ac85dc4ec0cbd4fea423a95ffc7e8ef0cb58a52b936c1819")

    def test_saved_bytes_pinned_past_turnaround_and_route_end(self, tmp_path):
        # As above, over a minute: every walker reaches the far end of its
        # corridor (x = 24 m) and turns back, and every robot stops at its
        # last waypoint, so the digest covers both of those paths too.
        digest = hashlib.sha256()
        config = CorpusConfig(n_human=3, n_robot=3, duration_s=60.0, seed=11)
        for session in generate_corpus(config):
            xs = [msg.position[0] for msg in session.messages]
            if session.agent_kind == "human":
                assert max(xs) > 23.0 and xs[-1] < 8.0
            else:
                assert abs(xs[-1] - 24.0) < 0.05 and session.messages[-1].linear_speed == 0.0
            path = tmp_path / f"{session.session_id}.fcs"
            save_session(session, path)
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "977ca4ed8e2e1ed2adafd9810aa482fdc5a241bc4512e448c7fcfa16d9a6a5d3")

    def test_missing_end_marks_incomplete(self, tmp_path):
        session = _human_session(10, sid=4)
        session.end()
        path = tmp_path / "s4.fcs"
        save_session(session, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])  # drop the whole SessionEnd frame
        loaded = load_session(path)
        assert not loaded.complete
        assert len(loaded.messages) == 10

    def test_partial_trailing_frame_marks_incomplete(self, tmp_path):
        session = _human_session(10, sid=4)
        session.end()
        path = tmp_path / "s4.fcs"
        save_session(session, path)
        data = path.read_bytes()
        path.write_bytes(data[:-13])  # cut into the last telemetry frame
        loaded = load_session(path)
        assert not loaded.complete
        assert len(loaded.messages) == 9

    @pytest.mark.parametrize("tail", [
        b"\xff" * 50,  # a hostile length prefix and what follows it
        protocol.encode(_headset(6_000_000, sid=4)),  # a whole telemetry frame
        protocol.encode(SessionEnd(4)),  # a second end
        b"\x00",
    ], ids=["ff_bytes", "telemetry_frame", "second_end", "one_byte"])
    def test_bytes_after_end_raise_protocol_error(self, tmp_path, tail):
        session = _human_session(60, sid=4)
        session.end()
        path = tmp_path / "s4.fcs"
        save_session(session, path)
        size = path.stat().st_size
        assert load_session(path).messages == session.messages
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(ProtocolError, match=f"s4.fcs: {len(tail)} bytes after SessionEnd, "
                                                f"from byte offset {size}$"):
            load_session(path)

    @pytest.mark.parametrize("body", [
        [_headset(200_000, sid=4), _headset(100_000, sid=4)],  # out of order
        [_headset(0, sid=8)],  # another session's sample
        [_robot(0, sid=4)],  # the other agent kind's sample
        [_headset(0, sid=4), Hello()],  # not a telemetry message
        [_headset(0, sid=4), SessionEnd(8)],  # another session's end
    ], ids=["out_of_order", "session_id", "kind", "hello", "end_of_other_session"])
    def test_rejected_content_raises_protocol_error(self, tmp_path, body):
        path = tmp_path / "s4.fcs"
        body = [protocol.encode(m) for m in body]
        path.write_bytes(protocol.encode(SessionStart(4, "human")) + b"".join(body)
                         + protocol.encode(SessionEnd(4)))
        with pytest.raises(ProtocolError, match="s4.fcs"):
            load_session(path)

    @pytest.mark.parametrize("frame", [0, 2], ids=["start_frame", "sample_frame"])
    def test_malformed_frame_error_names_the_file(self, tmp_path, frame):
        path = tmp_path / "s9.fcs"
        save_session(_human_session(3, sid=9), path)
        data = bytearray(path.read_bytes())
        start_len = len(protocol.encode(SessionStart(9, "human")))
        if frame == 0:
            data[4] = 0xEE  # the SessionStart's type byte: an unknown message type
        else:
            # The first position component of the second sample becomes a NaN.
            pos = start_len + len(protocol.encode(_headset(0, sid=9))) + 5 + 8 + 4
            data[pos:pos + 8] = b"\xff" * 8
        path.write_bytes(bytes(data))
        with pytest.raises(ProtocolError, match="s9.fcs") as info:
            load_session(path)
        assert isinstance(info.value.__cause__, ProtocolError)
