"""The benchmark's workloads: ``experiment``, ``record`` and ``live``.

Each workload builds its inputs from the run seed in ``setup``, runs one pass
of its pipeline in ``run_pass`` and checks that pass's outputs in ``check``.
Every call the driver makes into fusioncast sits in a span named after the
layer it enters, and the counts of work done are recorded at the same place,
so a traced run can say where the time went. Untraced runs pass a
:class:`~tracing.NullTracer` and execute the same code.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from fusioncast.errors import ProtocolError
from fusioncast.metrics import evaluate
from fusioncast.predictors import ConstantVelocityPredictor, fit_ridge
from fusioncast.protocol import (
    AGENT_HUMAN,
    AGENT_ROBOT,
    Hello,
    HeadsetSample,
    Prediction,
    RobotSample,
    SessionEnd,
    SessionStart,
    StreamDecoder,
    encode,
)
from fusioncast.sessions import GridAligner, load_session, resample, save_session
from fusioncast.simulate import CorpusConfig, generate_corpus
from fusioncast.windows import (
    DEFAULT_STRIDE,
    HORIZON_FRAMES,
    OBS_FRAMES,
    FeatureConfig,
    TrajectoryWindow,
    segment,
    split_sessions,
)

from tracing import NullTracer

clock = time.perf_counter

NULL = NullTracer()

# asyncio's default stream read limit: the size of one recv in a live server.
CHUNK_BYTES = 64 * 1024

SPLIT_RATIOS = (0.6, 0.2, 0.2)
RIDGE_LAM = 1.0
ENSEMBLE_K = 20

# The experiment draws its corpus seed from this many seeds, whose reports
# are recorded in reference_experiment.json.
REFERENCE_SEEDS = 64
REFERENCE_FILE = Path(__file__).with_name("reference_experiment.json")
REPORT_KEYS = ("ade", "fde", "kde_nll")
REPORT_RTOL = 1e-9

# Offset between the live replay corpus seed and its training corpus seed.
LIVE_TRAIN_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Corpus:
    n_human: int
    n_robot: int
    duration_s: float

    def config(self, seed: int) -> CorpusConfig:
        return CorpusConfig(n_human=self.n_human, n_robot=self.n_robot,
                            duration_s=self.duration_s, seed=seed)


# Sizes per scale. "tiny" runs the record and live pipelines on seconds of
# data for the smoke test; the experiment has one size, because its checks
# compare with reports recorded at that size.
EXPERIMENT_CORPUS = Corpus(10, 0, 40.0)
EXPERIMENT_WARMUP = Corpus(6, 0, 8.0)
RECORD_CORPUS = {"full": Corpus(3, 3, 120.0), "tiny": Corpus(3, 3, 8.0)}
LIVE_STREAM = {"full": Corpus(4, 2, 60.0), "tiny": Corpus(4, 2, 10.0)}
LIVE_TRAIN = {"full": Corpus(4, 3, 40.0), "tiny": Corpus(4, 3, 8.0)}


@dataclass
class PassResult:
    frames: int  # telemetry frames the pass moved through its pipeline
    latencies: list  # seconds, one per unit of result
    output: object


# -- traced calls into fusioncast ---------------------------------------------

def _generate(tr, config: CorpusConfig):
    with tr.span("simulate.generate"):
        sessions = generate_corpus(config)
    tr.count("simulate.generate.sessions", len(sessions))
    tr.count("simulate.generate.frames", sum(len(s.pose_stream) for s in sessions))
    return sessions


def _resample(tr, session):
    with tr.span("sessions.resample"):
        result = resample(session)
    tr.count("sessions.resample.frames_out", len(result))
    tr.count("sessions.gap_frames", result.gap_frames)
    tr.count("sessions.heading_carries", result.heading_carries)
    return result


def _segment(tr, frames, session_id: int, config: FeatureConfig, horizon: int = HORIZON_FRAMES):
    with tr.span("windows.segment"):
        windows = segment(frames, session_id, config, horizon=horizon)
    span = OBS_FRAMES + horizon
    tr.count("windows.segment.windows", len(windows))
    tr.count("windows.segment.possible", max(0, (len(frames) - span) // DEFAULT_STRIDE + 1))
    return windows


def _fit(tr, windows, config: FeatureConfig):
    with tr.span("predictors.fit"):
        model = fit_ridge(windows, config, lam=RIDGE_LAM)
    tr.count("predictors.fit.windows", len(windows))
    tr.count("predictors.fit.dropped_dims", len(model.dropped_dims))
    return model


def _encode(tr, msg) -> bytes:
    with tr.span("protocol.encode"):
        data = encode(msg)
    tr.count("protocol.encode.bytes", len(data))
    return data


def _prediction_frame(tr, model, window: TrajectoryWindow) -> bytes:
    with tr.span("predictors.predict"):
        states = model.predict(window)
    return _encode(tr, Prediction(
        window.observed[-1].timestamp_us, window.session_id,
        tuple((s.x, s.y, s.theta) for s in states),
    ))


class _TracedPredictor:
    """Passes a predictor to ``evaluate`` with spans around its public calls."""

    def __init__(self, inner, tr):
        self._inner = inner
        self._tr = tr

    def predict(self, window):
        with self._tr.span("predictors.predict"):
            return self._inner.predict(window)

    def sample(self, window, k, sigma, seed=0):
        with self._tr.span("predictors.sample"):
            return self._inner.sample(window, k, sigma, seed)

    def __getattr__(self, name):
        # Anything else evaluate may use passes through untraced, so a new
        # predictor method does not break traced runs.
        return getattr(self._inner, name)


def _evaluate(tr, predictor, windows, config: FeatureConfig, seed: int):
    if tr.enabled:
        predictor = _TracedPredictor(predictor, tr)
    with tr.span("metrics.evaluate"):
        report = evaluate(predictor, windows, config, k=ENSEMBLE_K, seed=seed)
    tr.count("metrics.evaluate.windows", len(windows))
    return report


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REPORT_RTOL * abs(reference)


# -- experiment -----------------------------------------------------------------

def experiment_reports(tr, corpus: Corpus, seed: int, latencies: list | None = None):
    """The paper's comparison: CV, pose-only ridge and pose+head+gaze ridge,
    each scored by ``evaluate`` on the test sessions of one humans-only corpus."""
    sessions = _generate(tr, corpus.config(seed))
    frames = {s.session_id: _resample(tr, s).frames for s in sessions}
    split = split_sessions(sorted(frames), SPLIT_RATIOS, seed)
    reports = {}
    for config in (FeatureConfig.POSE_ONLY, FeatureConfig.POSE_HEAD_GAZE):
        train = [w for sid in split.train for w in _segment(tr, frames[sid], sid, config)]
        test = [w for sid in split.test for w in _segment(tr, frames[sid], sid, config)]
        predictors = {config.value: _fit(tr, train, config)}
        if config is FeatureConfig.POSE_ONLY:
            predictors["cv"] = ConstantVelocityPredictor(config)
        for name, predictor in predictors.items():
            start = clock()
            reports[name] = _evaluate(tr, predictor, test, config, seed)
            if latencies is not None:
                latencies.append(clock() - start)
    return reports, sum(len(s.pose_stream) for s in sessions)


def load_reference(seed: int) -> dict:
    raw = json.loads(REFERENCE_FILE.read_text())
    corpus = raw["corpus"]
    if corpus != [EXPERIMENT_CORPUS.n_human, EXPERIMENT_CORPUS.n_robot, EXPERIMENT_CORPUS.duration_s]:
        raise RuntimeError(f"{REFERENCE_FILE.name} was recorded for corpus {corpus}")
    return raw["reports"][str(seed)]


class Experiment:
    """generate -> resample -> split -> segment -> fit -> evaluate (K = 20)."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed % REFERENCE_SEEDS

    def setup(self, tr):
        self.reference = load_reference(self.seed)
        # One untimed pass on a corpus too short to measure, so lazy imports
        # and first-call costs are paid here; its fits are underdetermined.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            experiment_reports(NULL, EXPERIMENT_WARMUP, self.seed)

    def run_pass(self, tr) -> PassResult:
        latencies = []
        reports, frames = experiment_reports(tr, EXPERIMENT_CORPUS, self.seed, latencies)
        return PassResult(frames, latencies, reports)

    def check(self, result: PassResult) -> tuple[int, int]:
        reports = result.output
        failed = 0
        for name, expected in self.reference.items():
            report = reports[name]
            failed += not all(_close(getattr(report, key), expected[key]) for key in REPORT_KEYS)
        ordered = reports["pose_head_gaze"].ade < reports["pose_only"].ade < reports["cv"].ade
        failed += not ordered
        return len(self.reference) + 1, failed

    def close(self):
        pass


# -- record ---------------------------------------------------------------------

class Record:
    """generate -> save_session -> load_session -> resample, per session."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.corpus = RECORD_CORPUS[scale]
        self.workdir = workdir

    def setup(self, tr):
        self.workdir.mkdir(parents=True, exist_ok=True)
        # Untimed round trip of a short corpus, as in the experiment's set-up.
        self._round_trip(NULL, generate_corpus(RECORD_CORPUS["tiny"].config(self.seed)))

    def _round_trip(self, tr, sessions):
        latencies, loaded = [], []
        for session in sessions:
            start = clock()
            path = self.workdir / f"session-{session.session_id}.fcs"
            with tr.span("sessions.save"):
                save_session(session, path)
            if tr.enabled:
                tr.count("sessions.save.bytes", path.stat().st_size)
            with tr.span("sessions.load"):
                back = load_session(path)
            tr.count("sessions.load.frames", len(back.messages))
            tr.count("sessions.ordering_rejects", back.ordering_rejects)
            aligned = _resample(tr, back)
            latencies.append(clock() - start)
            loaded.append((path, session, back, len(aligned)))
        return latencies, loaded

    def run_pass(self, tr) -> PassResult:
        sessions = _generate(tr, self.corpus.config(self.seed))
        latencies, loaded = self._round_trip(tr, sessions)
        return PassResult(sum(len(s.pose_stream) for s in sessions), latencies, loaded)

    def check(self, result: PassResult) -> tuple[int, int]:
        failed = 0
        resaved = self.workdir / "resaved.fcs"
        for path, original, back, aligned in result.output:
            save_session(back, resaved)
            same = resaved.read_bytes() == path.read_bytes() and back.messages == original.messages
            failed += not (same and back.complete and aligned == len(back.pose_stream))
        return len(result.output), failed

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- live -----------------------------------------------------------------------

def _usable(frame, config: FeatureConfig) -> bool:
    if frame.is_gap or frame.state is None:
        return False
    return not config.uses_gaze or frame.gaze_world is not None


class _LiveSession:
    """Per-session online state: the aligner and the gap-free run so far."""

    __slots__ = ("session_id", "aligner", "config", "model", "recent", "index", "run_start")

    def __init__(self, session_id: int, agent_kind: str, config, model):
        self.session_id = session_id
        self.aligner = GridAligner(agent_kind)
        self.config = config
        self.model = model
        self.recent = deque(maxlen=OBS_FRAMES)
        self.index = 0
        self.run_start = None


@dataclass
class LiveOutput:
    predictions: dict  # (session_id, last observed timestamp) -> encoded Prediction
    decoded: int
    errors: int


class Live:
    """One replay client in a closed loop: 64 KiB recv chunks -> StreamDecoder ->
    GridAligner per session -> ridge predict every stride -> Prediction frame."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.stream_corpus = LIVE_STREAM[scale]
        self.train_corpus = LIVE_TRAIN[scale]
        self._reference = None

    def setup(self, tr):
        sessions = _generate(tr, self.stream_corpus.config(self.seed))
        train = _generate(tr, self.train_corpus.config(self.seed + LIVE_TRAIN_SEED_OFFSET))
        self.models = {}
        for kind, config in ((AGENT_HUMAN, FeatureConfig.POSE_HEAD_GAZE),
                             (AGENT_ROBOT, FeatureConfig.ROBOT_POSE_ONLY)):
            windows = [
                w for s in train if s.agent_kind == kind
                for w in _segment(tr, _resample(tr, s).frames, s.session_id, config)
            ]
            self.models[kind] = (config, _fit(tr, windows, config))

        # One connection carrying every session, interleaved by timestamp.
        events = []
        for s in sessions:
            events += [(m.timestamp_us, s.session_id, 0, m) for m in s.messages]
            events.append((s.messages[-1].timestamp_us, s.session_id, 1, SessionEnd(s.session_id)))
        events.sort(key=lambda e: e[:3])
        messages = [Hello()] + [SessionStart(s.session_id, s.agent_kind, s.label) for s in sessions]
        messages += [e[3] for e in events]
        stream = b"".join(_encode(tr, m) for m in messages)
        self.chunks = [stream[i:i + CHUNK_BYTES] for i in range(0, len(stream), CHUNK_BYTES)]
        self.frame_count = len(messages)
        self.telemetry_frames = sum(len(s.messages) for s in sessions)
        self.sessions = sessions
        self._reference = None

    def run_pass(self, tr) -> PassResult:
        decoder = StreamDecoder()
        live: dict[int, _LiveSession] = {}
        predictions: dict = {}
        latencies: list = []
        decoded = errors = 0
        for chunk in self.chunks:
            start = clock()
            try:
                with tr.span("protocol.feed"):
                    messages = decoder.feed(chunk)
            except ProtocolError:
                errors += 1
                tr.count("protocol.feed.errors")
                break  # a server closes the connection
            decoded += len(messages)
            tr.count("protocol.feed.frames", len(messages))
            tr.count("protocol.feed.bytes", len(chunk))
            for msg in messages:
                if isinstance(msg, (HeadsetSample, RobotSample)):
                    session = live[msg.session_id]
                    with tr.span("sessions.push"):
                        frames = session.aligner.push_message(msg)
                elif isinstance(msg, SessionStart):
                    config, model = self.models[msg.agent_kind]
                    live[msg.session_id] = _LiveSession(msg.session_id, msg.agent_kind, config, model)
                    continue
                elif isinstance(msg, SessionEnd):
                    session = live.pop(msg.session_id)
                    with tr.span("sessions.push"):
                        frames = session.aligner.finish()
                    tr.count("sessions.gap_frames", session.aligner.gap_frames)
                    tr.count("sessions.heading_carries", session.aligner.heading_carries)
                else:
                    continue
                tr.count("sessions.push.frames_out", len(frames))
                for frame in frames:
                    window = self._advance(session, frame)
                    if window is not None:
                        data = _prediction_frame(tr, session.model, window)
                        latencies.append(clock() - start)
                        predictions[(session.session_id, frame.timestamp_us)] = data
        return PassResult(self.telemetry_frames, latencies, LiveOutput(predictions, decoded, errors))

    @staticmethod
    def _advance(session: _LiveSession, frame):
        """Append one aligned frame; return the window it completes, if due.

        Windows start every DEFAULT_STRIDE frames from the start of each
        gap-free run, the offsets at which ``segment`` cuts them offline.
        """
        if _usable(frame, session.config):
            if session.run_start is None:
                session.run_start = session.index
        else:
            session.run_start = None
        session.recent.append(frame)
        session.index += 1
        if session.run_start is None:
            return None
        run = session.index - session.run_start
        if run < OBS_FRAMES or (run - OBS_FRAMES) % DEFAULT_STRIDE:
            return None
        return TrajectoryWindow(session.session_id, session.index - OBS_FRAMES,
                                session.config, tuple(session.recent))

    def _offline_reference(self):
        """Prediction frames from the offline path: resample -> segment -> predict.

        ``segment`` needs at least one future frame, so a window ending on a
        session's last frame is cut from the resampled frames directly.
        """
        expected, required = {}, set()
        for s in self.sessions:
            config, model = self.models[s.agent_kind]
            frames = resample(s).frames
            windows = segment(frames, s.session_id, config, horizon=1)
            required.update((s.session_id, w.observed[-1].timestamp_us) for w in windows)
            windows.append(TrajectoryWindow(s.session_id, len(frames) - OBS_FRAMES, config,
                                            tuple(frames[-OBS_FRAMES:])))
            for w in windows:
                expected[(s.session_id, w.observed[-1].timestamp_us)] = _prediction_frame(NULL, model, w)
        return expected, required

    def check(self, result: PassResult) -> tuple[int, int]:
        if self._reference is None:
            self._reference = self._offline_reference()
        expected, required = self._reference
        out = result.output
        failed = sum(expected.get(key) != data for key, data in out.predictions.items())
        failed += len(required - out.predictions.keys())
        failed += out.errors > 0 or out.decoded != self.frame_count
        return len(out.predictions) + 1, failed

    def close(self):
        pass


WORKLOADS = {"experiment": Experiment, "record": Record, "live": Live}

# Every counter a workload records; a counter a workload never touches is 0.
COUNTERS = (
    "metrics.evaluate.windows",
    "predictors.fit.windows", "predictors.fit.dropped_dims",
    "windows.segment.windows", "windows.segment.possible",
    "simulate.generate.sessions", "simulate.generate.frames",
    "protocol.feed.frames", "protocol.feed.bytes", "protocol.feed.errors",
    "protocol.encode.bytes",
    "sessions.save.bytes", "sessions.load.frames",
    "sessions.push.frames_out", "sessions.resample.frames_out",
    "sessions.gap_frames", "sessions.heading_carries", "sessions.ordering_rejects",
)


# -- decoder growth probe -------------------------------------------------------

def _feed_us_per_frame(data: bytes, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        decoder = StreamDecoder()
        start = clock()
        frames = len(decoder.feed(data))
        times.append((clock() - start) / frames * 1e6)
    return statistics.median(times)


GROWTH_BASE_BYTES = {"full": CHUNK_BYTES, "tiny": 8 * 1024}


def feed_growth(seed: int, base_bytes: int) -> float:
    """µs/frame of one ``feed`` call on a 10x larger chunk over µs/frame on
    the base chunk: 1 for a decoder whose work is linear in its input."""
    sessions = generate_corpus(RECORD_CORPUS["tiny"].config(seed))
    wire = b"".join(encode(m) for s in sessions for m in s.messages)
    large = wire * (10 * base_bytes // len(wire) + 1)
    base_cost = _feed_us_per_frame(large[:base_bytes], 5)
    return _feed_us_per_frame(large[:10 * base_bytes], 1) / base_cost
