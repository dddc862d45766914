"""Trajectory predictors over observation windows.

Both predictor families implement one batched core, ``forecast(pos, theta,
gaze)``: observed positions (..., OBS_FRAMES, 2), headings (..., OBS_FRAMES)
and gaze xy (..., OBS_FRAMES, 2) with any leading axes map to world-frame
future positions (..., HORIZON_FRAMES, 2): the window shape, checked by
TrajectoryWindow and window_arrays, is stored in no model. ``predict`` serves
one window on top of the core, taking each predicted step's position and
heading from the forecast array: the heading is the course of the step,
carried over steps that stand still. One isfinite call checks the whole
forecast, and the steps are built unchecked after it.

- ConstantVelocityPredictor: extrapolates the mean velocity of the last few
  observed frames. Sanity floor for the displacement metrics.
- RidgeModel: closed-form ridge regression from per-frame motion features
  (and, in the full configuration, head/gaze cue channels) to the
  HORIZON_FRAMES future planar displacements, everything expressed in the
  body frame at the end of the observation so the learned map is invariant to
  where and which way the session happened in the world.

Feature channels per observed frame:

    dx, dy          frame-to-frame displacement, rotated into the body frame
                    at the observation end (m)
    speed           displacement norm / dt (m/s)
    heading_delta   change in state heading (rad)
    head_rel        state heading minus course (rad)       [full config only]
    gaze_rel        gaze yaw minus course (rad)            [full config only]

"course" is the direction of travel atan2(dy, dx) of the raw displacement;
head_rel/gaze_rel therefore measure how far the head and gaze point away
from where the body is going — the anticipation cue.

pose_only is not cue-free: its heading channel, body frame and target frame
come from the headset orientation, the head yaw, which leads the body. So
pose_only against pose_head_gaze measures gaze over head.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError, ValidationError
from .geometry import AgentState, _check_finite, wrap_angle
from .sessions import GRID_PERIOD_US
from .windows import HORIZON_FRAMES, OBS_FRAMES, FeatureConfig, TrajectoryWindow

FRAME_DT = GRID_PERIOD_US / 1_000_000  # s between aligned frames

MODEL_MAGIC = b"FCM1"
MAX_HEADER_BYTES = 1 << 20  # a real header is a few KiB; larger is refused unread

# Frames of observed history used by the constant-velocity extrapolation.
CV_TAIL = 5

_STD_FLOOR = 1e-12  # below this a feature dimension is degenerate and dropped


def window_arrays(windows, config: FeatureConfig, future: bool = False):
    """Stack the rows (TrajectoryWindow.rows) of windows built for ``config``
    into arrays: observed positions (N, T, 2), headings (N, T), gaze xy
    (N, T, 2) if ``config`` uses gaze and future positions
    (N, HORIZON_FRAMES, 2) if ``future`` is set (else None). The arrays are
    views of one stack; a single window's are read-only views of its rows."""
    for w in windows:
        if w.feature_config is not config:
            raise ConfigError(f"window config {w.feature_config.value} != requested {config.value}")
        if future and len(w.future) != HORIZON_FRAMES:
            raise ValueError(f"window future holds {len(w.future)} frames, not {HORIZON_FRAMES}")
    if not windows:
        raise ValueError("no windows")
    if len(windows) == 1:
        rows = windows[0].rows()[None]
    else:
        span = OBS_FRAMES + HORIZON_FRAMES if future else OBS_FRAMES
        rows = np.stack([w.rows()[:span] for w in windows])
    obs = rows[:, :OBS_FRAMES]
    gaze = obs[..., 3:5] if config.uses_gaze else None
    fut = rows[:, OBS_FRAMES:, :2] if future else None
    return obs[..., :2], obs[..., 2], gaze, fut


def _body_rotation(theta_ref) -> np.ndarray:
    """Rotation matrices (..., 2, 2) by the angles ``theta_ref`` (...)."""
    c, s = np.cos(theta_ref), np.sin(theta_ref)
    rot = np.empty(np.shape(theta_ref) + (2, 2))
    rot[..., 0, 0] = c
    rot[..., 0, 1] = -s
    rot[..., 1, 0] = s
    rot[..., 1, 1] = c
    return rot


def _rotate(xy: np.ndarray, theta) -> np.ndarray:
    """Points (..., M, 2) rotated about the origin by the angles ``theta`` (...)."""
    return xy @ np.swapaxes(_body_rotation(theta), -1, -2)


def _travel_heading(initial, dp: np.ndarray) -> np.ndarray:
    """Direction of travel atan2(dy, dx) after each displacement (..., M, 2).
    Steps under 1e-9 m carry the previous value forward, starting from
    ``initial`` (...), which keeps it defined and rotation-equivariant."""
    steps = dp.shape[-2]
    values = np.empty(dp.shape[:-2] + (steps + 1,))
    values[..., 0] = initial
    np.arctan2(dp[..., 1], dp[..., 0], out=values[..., 1:])
    moving = np.hypot(dp[..., 0], dp[..., 1]) >= 1e-9
    last = np.maximum.accumulate(moving * np.arange(1, steps + 1), axis=-1)
    return values[last] if last.ndim == 1 else np.take_along_axis(values, last, axis=-1)


def _features(pos, theta, gaze, config: FeatureConfig) -> np.ndarray:
    """Feature vectors (..., T * channels) of the observed arrays (see the
    module docstring); leading axes broadcast."""
    dp = np.zeros(pos.shape)
    dp[..., 1:, :] = pos[..., 1:, :] - pos[..., :-1, :]
    dx, dy = dp[..., 0], dp[..., 1]
    speed = np.sqrt(dx * dx + dy * dy) / FRAME_DT  # np.linalg.norm's own formula
    heading_delta = np.zeros(theta.shape)
    heading_delta[..., 1:] = wrap_angle(theta[..., 1:] - theta[..., :-1])
    rel_dp = _rotate(dp, -theta[..., -1])
    cols = [rel_dp[..., 0], rel_dp[..., 1], speed, heading_delta]
    if config.uses_gaze:
        # Index 0 and stationary frames take the state heading as course.
        course = _travel_heading(theta[..., 0], dp)
        gx, gy = gaze[..., 0], gaze[..., 1]
        # Gaze pointing straight up/down has no yaw; fall back to the head.
        gaze_yaw = np.where(np.hypot(gx, gy) < 1e-6, theta, np.arctan2(gy, gx))
        cols += [wrap_angle(theta - course), wrap_angle(gaze_yaw - course)]
    # theta may have fewer leading axes than pos (one window, many jitters).
    feats = np.empty(np.broadcast(*cols).shape + (config.channels,))
    for i, col in enumerate(cols):
        feats[..., i] = col
    return feats.reshape(feats.shape[:-2] + (-1,))


def _targets(pos, theta, future) -> np.ndarray:
    """Future positions (N, H, 2) relative to the observation end, in its body
    frame, flattened to (N, 2 * H)."""
    return _rotate(future - pos[:, -1, None], -theta[:, -1]).reshape(len(future), -1)


def _states(xy: np.ndarray, origin: np.ndarray, theta_ref) -> list[AgentState]:
    """AgentStates along predicted positions (H, 2), headed by _travel_heading
    from ``origin``, the last observed position, and ``theta_ref``. One
    isfinite checks them all; when it fails, the per-state checks raise."""
    dp = np.empty(xy.shape)
    dp[0] = xy[0] - origin
    np.subtract(xy[1:], xy[:-1], out=dp[1:])
    heading = _travel_heading(theta_ref, dp)
    xs, ys = xy.T.tolist()
    if not (np.isfinite(xy).all() and np.isfinite(theta_ref)):
        for state in zip(xs, ys, heading.tolist()):
            _check_finite(*state)
    return list(map(AgentState._make, zip(xs, ys, wrap_angle(heading).tolist())))


class _Forecaster:
    """Single-window ``predict`` over a subclass's batched ``forecast`` and
    its ``feature_config``."""

    def predict(self, window: TrajectoryWindow) -> list[AgentState]:
        pos, theta, gaze, _ = window_arrays([window], self.feature_config)
        return _states(self.forecast(pos, theta, gaze)[0], pos[0, -1], theta[0, -1])


class ConstantVelocityPredictor(_Forecaster):
    """Extrapolates the mean velocity of the last CV_TAIL frames."""

    def __init__(self, feature_config: FeatureConfig):
        self.feature_config = feature_config

    def forecast(self, pos, theta, gaze=None) -> np.ndarray:
        velocity = (pos[..., -1, :] - pos[..., -1 - CV_TAIL, :]) / (CV_TAIL * FRAME_DT)
        steps = np.arange(1, HORIZON_FRAMES + 1)[:, None] * FRAME_DT
        return pos[..., -1, None, :] + velocity[..., None, :] * steps


@dataclass
class RidgeModel(_Forecaster):
    """Closed-form ridge regressor from window features to future displacements.

    Features are normalized per dimension by the training std (scale only;
    the mean is recorded for diagnostics but not subtracted — centering plus
    the intercept-free map would make predictions zero-mean over the training
    set, i.e. unable to express forward motion). Dimensions whose std
    collapses are dropped and recorded. Zero features predict zero
    displacement, so lam -> inf degrades gracefully to a stationary forecast.
    """

    feature_config: FeatureConfig
    lam: float
    mean: np.ndarray  # (D,)
    std: np.ndarray  # (D,)
    kept: np.ndarray  # (D,) bool, dims retained after degeneracy drop
    weights: np.ndarray  # (D_kept, 2 * HORIZON_FRAMES)

    def __post_init__(self):
        _check_lam(self.lam)
        dims = OBS_FRAMES * self.feature_config.channels
        lengths = (len(self.mean), len(self.std), len(self.kept))
        if set(lengths) != {dims}:
            raise ValidationError(f"mean/std/kept lengths {lengths} != OBS_FRAMES * channels")
        if self.weights.shape != (int(np.count_nonzero(self.kept)), 2 * HORIZON_FRAMES):
            raise ValidationError(f"weights shape {self.weights.shape} != (kept, 2 * HORIZON_FRAMES)")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("model weights contain non-finite values")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValidationError("model mean/std contain non-finite values")
        self._kept_std = self.std[self.kept]
        if np.any(self._kept_std <= _STD_FLOOR):  # fit_ridge keeps only std above it
            raise ValidationError(f"kept feature dimensions must have std above {_STD_FLOOR}")

    @property
    def dropped_dims(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(~self.kept)]

    def forecast(self, pos, theta, gaze=None) -> np.ndarray:
        feats = _features(pos, theta, gaze, self.feature_config)[..., self.kept]
        feats /= self._kept_std
        rel = (feats @ self.weights).reshape(feats.shape[:-1] + (HORIZON_FRAMES, 2))
        return pos[..., -1, None, :] + _rotate(rel, theta[..., -1])


def _check_lam(lam) -> None:
    if not (isinstance(lam, Real) and not isinstance(lam, bool) and np.isfinite(lam) and lam >= 0):
        raise ValidationError(f"ridge lam must be a finite real >= 0, got {lam!r}")


def fit_ridge(windows, config: FeatureConfig, lam: float = 1e-3) -> RidgeModel:
    """Solve the regularized normal equations (X^T X + lam I) W = X^T Y.

    The windows lie on the fixed 10 Hz grid (sessions.GRID_PERIOD_US), each
    with a full future. lam is checked as RidgeModel checks it, first; lam = 0
    can raise a numeric error on singular designs. Its bits, like those of
    every matrix product, hold only at a fixed BLAS thread count.
    """
    _check_lam(lam)
    windows = list(windows)
    if not windows:
        raise ValueError("no training windows")
    pos, theta, gaze, fut = window_arrays(windows, config, future=True)
    X = _features(pos, theta, gaze, config)
    Y = _targets(pos, theta, fut)
    n, dim = X.shape
    if n < dim:
        warnings.warn(
            f"fitting {dim} feature dims from only {n} windows; expect heavy shrinkage",
            RuntimeWarning, stacklevel=2,
        )

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    kept = std > _STD_FLOOR
    Xn = X[:, kept] / std[kept]

    gram = Xn.T @ Xn + lam * np.eye(int(kept.sum()))
    weights = np.linalg.solve(gram, Xn.T @ Y)

    return RidgeModel(feature_config=config, lam=float(lam), mean=mean, std=std, kept=kept,
                      weights=weights)


def save_model(model: RidgeModel, path) -> None:
    """Model file: magic, u32 header length, JSON header, f64-LE weight matrix."""
    header = {
        "feature_config": model.feature_config.value,
        "lam": model.lam,
        "obs_frames": OBS_FRAMES,
        "horizon": HORIZON_FRAMES,
        "mean": model.mean.tolist(),
        "std": model.std.tolist(),
        "kept": [bool(k) for k in model.kept],
        "weight_shape": list(model.weights.shape),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(model.weights.astype("<f8").tobytes())


def load_model(path) -> RidgeModel:
    """Read a model file; a truncated, oversized or malformed one, or one whose
    obs_frames/horizon keys or weight shape do not fit the window shape,
    raises ValidationError. No more than the header and the weight bytes it
    declares, plus one, are read."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ValidationError(f"{path}: bad model magic {magic!r}")
        size = fh.read(4)
        if len(size) != 4:
            raise ValidationError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", size)
        if hlen > MAX_HEADER_BYTES:
            raise ValidationError(f"{path}: header length {hlen} exceeds {MAX_HEADER_BYTES}")
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise ValidationError(f"{path}: truncated header ({len(blob)} of {hlen} bytes)")
        try:
            header = json.loads(blob.decode("utf-8"))
            for key, frames in (("obs_frames", OBS_FRAMES), ("horizon", HORIZON_FRAMES)):
                if type(header[key]) is not int or header[key] != frames:
                    raise ValidationError(f"{key} must be the int {frames}, got {header[key]!r}")
            # The JSON types save_model writes: no bool as a float, no float as an int.
            for key, kind in (("mean", float), ("std", float), ("kept", bool), ("weight_shape", int)):
                if not all(type(v) is kind for v in header[key]):
                    raise ValidationError(f"{key} must be a list of {kind.__name__}s")
            config = FeatureConfig(header["feature_config"])
            rows, cols = header["weight_shape"]
            # The window shape bounds the weight bytes read; one byte more
            # shows a longer file.
            if not (0 <= rows <= OBS_FRAMES * config.channels and 0 <= cols <= 2 * HORIZON_FRAMES):
                raise ValidationError(f"weight shape {(rows, cols)} does not fit "
                                      f"{config.value} windows")
            size = 8 * rows * cols
            data = fh.read(size + 1)
            if len(data) != size:
                found = len(data) if len(data) < size else f"more than {size}"
                raise ValidationError(f"{found} weight bytes for weight shape {(rows, cols)}")
            return RidgeModel(
                feature_config=config,
                lam=header["lam"],
                mean=np.array(header["mean"], dtype=np.float64),
                std=np.array(header["std"], dtype=np.float64),
                kept=np.array(header["kept"], dtype=bool),
                weights=np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy(),
            )
        # ValidationError is a ValueError; RecursionError is JSON nested too deep.
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: invalid model file: {exc!r}") from exc
