"""Fixed observation/horizon windowing and leakage-free session-level splits.

A window is OBS_FRAMES observed + HORIZON_FRAMES future frames: TrajectoryWindow
checks the observed length, predictors.window_arrays the future length for a
fit or a score, and predictors take their frame counts from these constants.

A window holds its frames' floats, one row per frame, as they were when it
was cut: ``segment`` reads each frame of a gap-free run once into one
read-only array, and every window cut from that run is a view of its rows.
Changing a frame after the cut changes no window's floats.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError
from .sessions import AlignedFrame

# Frame counts on the 10 Hz grid (sessions.GRID_PERIOD_US).
OBS_FRAMES = 20  # 2 s observed
HORIZON_FRAMES = 40  # 4 s forecast
DEFAULT_STRIDE = 10  # 1 s between window starts


class FeatureConfig(str, Enum):
    POSE_ONLY = "pose_only"
    POSE_HEAD_GAZE = "pose_head_gaze"
    ROBOT_POSE_ONLY = "robot_pose_only"

    @property
    def channels(self) -> int:
        """Feature channels per frame (see the predictors module docstring)."""
        return 6 if self is FeatureConfig.POSE_HEAD_GAZE else 4

    @property
    def uses_gaze(self) -> bool:
        return self is FeatureConfig.POSE_HEAD_GAZE


@dataclass(frozen=True)
class TrajectoryWindow:
    """Contiguous gap-free frames: ``observed`` for input, ``future`` as the
    prediction target. Live windows (server side) have an empty future.

    The frames' floats, one row per frame (see ``rows``), are read once: at
    the cut for a window from ``segment``, whose rows are a view of its run's
    array, and on first use for a window built from frames directly.
    """

    session_id: int
    start_index: int
    feature_config: FeatureConfig
    # Frames are unhashable; equal windows hash alike by the fields above.
    observed: tuple[AlignedFrame, ...] = field(hash=False)
    future: tuple[AlignedFrame, ...] = field(default=(), hash=False)
    _rows: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.observed) != OBS_FRAMES:
            raise ValueError(f"window must hold {OBS_FRAMES} observed frames, got {len(self.observed)}")

    def rows(self) -> np.ndarray:
        """Read-only floats (OBS_FRAMES + len(future), 3) of x, y, theta per
        frame, with gaze x, y as two more columns if the config uses gaze."""
        rows = self._rows
        if rows is None:
            rows = _frame_rows(self.observed + self.future, self.feature_config.uses_gaze)
            object.__setattr__(self, "_rows", rows)
        return rows


def _frame_rows(frames, gaze: bool) -> np.ndarray:
    """The rows of TrajectoryWindow.rows for ``frames``, from one flat list."""
    flat = []
    for f in frames:
        flat += f.state
        if gaze:
            g = f.gaze_world
            if g is None:
                raise ConfigError("window has no gaze channel but gaze features were requested")
            flat += (g[0], g[1])  # not g[:2]: list += ndarray goes to the ndarray's __radd__
    rows = np.array(flat).reshape(len(frames), 5 if gaze else 3)
    rows.flags.writeable = False
    return rows


def _usable(frame: AlignedFrame, need_gaze: bool) -> bool:
    if frame.is_gap or frame.state is None:
        return False
    if need_gaze and frame.gaze_world is None:
        return False
    return True


def segment(frames, session_id: int, feature_config: FeatureConfig,
            horizon: int = HORIZON_FRAMES) -> list[TrajectoryWindow]:
    """Cut frames aligned on the fixed 10 Hz grid into windows of OBS_FRAMES
    observed + ``horizon`` future frames at every DEFAULT_STRIDE offset
    inside each gap-free run. A ``horizon`` below HORIZON_FRAMES cuts windows
    whose future is partly known, down to one frame, for prediction only.

    The frames of each run that yields a window are read once, here, into one
    array of rows (see TrajectoryWindow.rows) that its windows share, so a
    window holds its frames' floats as of this cut.

    Windows share the aligned frames, gaze included, but the rows of a
    pose-only window hold no gaze columns, and predictors.window_arrays
    stacks only windows cut for the configuration asked for, so a pose-only
    predictor is handed no gaze array at all.
    """
    if horizon < 1:
        raise ValueError(f"window horizon must be >= 1 frame, got {horizon}")
    need_gaze = feature_config.uses_gaze
    frames = list(frames)
    span = OBS_FRAMES + horizon
    windows: list[TrajectoryWindow] = []

    run_start = None
    for idx in range(len(frames) + 1):
        inside = idx < len(frames) and _usable(frames[idx], need_gaze)
        if inside and run_start is None:
            run_start = idx
        if not inside and run_start is not None:
            run_len = idx - run_start
            count = max(0, (run_len - span) // DEFAULT_STRIDE + 1)
            if count:
                run = frames[run_start:run_start + (count - 1) * DEFAULT_STRIDE + span]
                rows = _frame_rows(run, need_gaze)
                for offset in range(0, count * DEFAULT_STRIDE, DEFAULT_STRIDE):
                    chunk = run[offset:offset + span]
                    window = TrajectoryWindow(
                        session_id=session_id,
                        start_index=run_start + offset,
                        feature_config=feature_config,
                        observed=tuple(chunk[:OBS_FRAMES]),
                        future=tuple(chunk[OBS_FRAMES:]),
                    )
                    object.__setattr__(window, "_rows", rows[offset:offset + span])
                    windows.append(window)
            run_start = None
    return windows


_SPLIT_BUCKETS = ("train", "validation", "test")


@dataclass(frozen=True)
class DatasetSplit:
    """Whole-session assignment to train/validation/test. Construction checks
    what a split file can get wrong: int ids (each bucket kept as a tuple),
    the ratios as split_sessions checks them, an int seed, and no id twice
    in or across buckets; not which sessions the buckets cover."""

    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]
    ratios: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        for key in _SPLIT_BUCKETS:
            ids = getattr(self, key)
            if not (isinstance(ids, (list, tuple)) and all(type(i) is int for i in ids)):
                raise ConfigError(f"split {key!r} must be a list of int session ids, got {ids!r}")
            object.__setattr__(self, key, tuple(ids))
        if type(self.seed) is not int:
            raise ConfigError(f"split 'seed' must be an int, got {self.seed!r}")
        object.__setattr__(self, "ratios", _checked_ratios(self.ratios))
        ids = self.train + self.validation + self.test
        if len(set(ids)) != len(ids):
            raise ConfigError("split buckets are not disjoint")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DatasetSplit":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # malformed, too deep or too many digits
            raise ConfigError(f"split file cannot be read as JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"split file must hold a JSON object, got {type(raw).__name__}")
        keys = (*_SPLIT_BUCKETS, "ratios", "seed")
        for key in keys:
            if key not in raw:
                raise ConfigError(f"split file has no {key!r} key")
        return cls(**{key: raw[key] for key in keys})


def _checked_ratios(ratios) -> tuple[float, float, float]:
    """Three finite, nonnegative split ratios (no bools) summing to 1, as floats."""
    try:
        three_finite = len(ratios) == 3 and all(
            type(r) is not bool and math.isfinite(r) for r in ratios)
    except TypeError:
        three_finite = False
    if not three_finite:
        raise ConfigError(f"split ratios must be three finite numbers, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios!r}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios must be nonnegative, got {ratios!r}")
    return tuple(float(r) for r in ratios)


def split_sessions(session_ids, ratios: tuple[float, float, float], seed: int) -> DatasetSplit:
    """Deterministic session-level split: seeded shuffle, then contiguous
    partition. Bucket sizes are the ratio floors with leftovers handed out
    train-first; a bucket with nonzero ratio is never left empty."""
    ids = sorted(int(s) for s in session_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate session ids")
    if len(ids) < 3:
        raise ConfigError(f"need at least 3 sessions to split, got {len(ids)}")
    ratios = _checked_ratios(ratios)
    if type(seed) is not int:
        raise ConfigError(f"split seed must be an int, got {seed!r}")
    nonzero = sum(1 for r in ratios if r > 0)
    if len(ids) < nonzero:
        raise ConfigError(f"{len(ids)} sessions cannot fill {nonzero} split buckets")

    rng = random.Random(seed)
    rng.shuffle(ids)

    n = len(ids)
    # Epsilon guards against 0.7 * 10 -> 6.999... style float truncation.
    sizes = [int(r * n + 1e-9) for r in ratios]
    leftover = n - sum(sizes)
    for i in range(3):  # one each to nonzero-ratio buckets, train first
        if leftover > 0 and ratios[i] > 0:
            sizes[i] += 1
            leftover -= 1
    # Any remaining leftover (two zero ratios etc.) goes to train.
    sizes[0] += leftover

    # Repair: no nonzero-ratio bucket may end up empty.
    for i in range(3):
        if ratios[i] > 0 and sizes[i] == 0:
            donor = max(range(3), key=lambda j: sizes[j])
            sizes[donor] -= 1
            sizes[i] += 1

    c1, c2 = sizes[0], sizes[0] + sizes[1]
    return DatasetSplit(
        train=tuple(ids[:c1]),
        validation=tuple(ids[c1:c2]),
        test=tuple(ids[c2:]),
        ratios=ratios,
        seed=seed,
    )
