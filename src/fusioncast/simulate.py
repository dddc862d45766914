"""Synthetic corridor sessions standing in for hardware trials.

Each human session records one walker alone in its corridor: a kinematic
unicycle steered by pure pursuit along the centerline, turning around at
either end. Head yaw and gaze yaw are the body heading sampled ahead in time:
gaze leads the head, the head leads the body, which is the cue structure the
full predictor configuration is supposed to exploit. Gaze is emitted in the
device-local frame, so the ingestion pipeline has to rotate it back through
the orientation quaternion to recover the world direction.

Robots follow waypoints with yaw-rate-clamped steering and an accel-limited
(trapezoidal) speed profile; the headset rides rigidly, so orientation equals
the drive heading and no gaze is emitted.

A corpus is its four CorpusConfig values: the maps are seeded variants of
BASE_MAP, and walker and robot parameters are their defaults, each session
with its own seed. The same config yields byte-identical session files.

The per-step loops work on Python floats, not 2-vectors: at two components
numpy's per-call overhead costs more than the arithmetic, and a plain float
expression rounds the same way everywhere, where a BLAS dot product may fuse
or reorder it. For the same reason they clamp with _clamp, two comparisons
that return what min(max(x, lo), hi) returns at about a quarter of its cost,
and a walker projects onto the centerline once per step: the point that
_advance_walker projects for the wall check is the one _steer_walker steers
from next, so the walker carries that arc length over, and only a point
moved by the wall clamp is projected again.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, GenerationError
from .geometry import quaternion_from_yaw, wrap_angle
from .protocol import AGENT_HUMAN, AGENT_ROBOT, HeadsetSample, RobotSample
from .sessions import GRID_PERIOD_US, Session
from .windows import HORIZON_FRAMES, OBS_FRAMES

# Sessions are generated directly on the 10 Hz grid.
SIM_STEP_US = GRID_PERIOD_US
SIM_DT = SIM_STEP_US / 1_000_000  # s
START_TIMESTAMP_US = 1_600_000_000_000_000

EYE_HEIGHT_M = 1.6
ROBOT_MOUNT_HEIGHT_M = 0.5

# Walker constants (not exposed as params; corpus variety comes from seeds,
# maps, and the per-walker noise).
PREFERRED_SPEED = 1.4  # m/s
GAZE_PITCH_RAD = -0.1  # constant downward pitch of the gaze
LOOKAHEAD_M = 1.0
WALKER_MAX_YAW_RATE = 2.2  # rad/s
WALKER_ACCEL = 1.5  # m/s^2
TURN_SLOWDOWN = 0.4
WALL_MARGIN_M = 0.2
END_MARGIN_M = 0.5

MIN_SESSION_DURATION_S = (OBS_FRAMES + HORIZON_FRAMES) * SIM_STEP_US / 1_000_000  # one window
MIN_ROUTE_LENGTH_M = 2.0


def _clamp(x, lo, hi):
    """``min(max(x, lo), hi)`` to the bit, NaN, signed zeros and lo > hi
    included, at about a quarter of the builtins' cost."""
    if lo > x:
        x = lo
    if hi < x:
        x = hi
    return x


@dataclass
class CorridorMap:
    """Axis-connected corridor: a centerline polyline with constant width."""

    centerline: np.ndarray  # (V, 2) meters
    width: float

    def __post_init__(self):
        self.centerline = np.asarray(self.centerline, dtype=np.float64)
        if self.centerline.ndim != 2 or self.centerline.shape[0] < 2 or self.centerline.shape[1] != 2:
            raise ValueError("centerline must be an (V>=2, 2) polyline")
        if not np.all(np.isfinite(self.centerline)):
            raise ValueError("centerline has non-finite vertices")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"corridor width must be positive and finite, got {self.width}")
        seg = np.diff(self.centerline, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        if np.any(seg_len < 1e-9):
            raise ValueError("centerline has zero-length segments")
        seg_dir = seg / seg_len[:, None]
        self._cum = [0.0, *np.cumsum(seg_len).tolist()]
        # (ax, ay, ux, uy, length, cum) per segment: start, unit direction,
        # length and arc length at the start.
        self._segs = tuple(zip(*self.centerline[:-1].T.tolist(), *seg_dir.T.tolist(),
                               seg_len.tolist(), self._cum[:-1]))

    @property
    def total_length(self) -> float:
        return self._cum[-1]

    def _segment_of(self, s: float) -> int:
        s = _clamp(s, 0.0, self.total_length)
        return _clamp(bisect_right(self._cum, s) - 1, 0, len(self._segs) - 1)

    def point_at(self, s: float) -> tuple[float, float]:
        s = _clamp(s, 0.0, self.total_length)
        ax, ay, ux, uy, _length, cum = self._segs[self._segment_of(s)]
        return ax + (s - cum) * ux, ay + (s - cum) * uy

    def tangent_at(self, s: float) -> tuple[float, float]:
        _ax, _ay, ux, uy, _length, _cum = self._segs[self._segment_of(s)]
        return ux, uy

    def project(self, point) -> tuple[float, float]:
        """(arc length, signed lateral offset) of the closest centerline point.
        Lateral is positive to the left of the travel direction; on a tie the
        earlier segment wins."""
        px, py = float(point[0]), float(point[1])
        best_d2, best_s, best_lateral = math.inf, math.nan, math.nan
        for ax, ay, ux, uy, length, cum in self._segs:
            t = _clamp((px - ax) * ux + (py - ay) * uy, 0.0, length)
            wx = px - (ax + t * ux)
            wy = py - (ay + t * uy)
            d2 = wx * wx + wy * wy
            if d2 < best_d2:
                best_d2, best_s, best_lateral = d2, cum + t, ux * wy - uy * wx
        return best_s, best_lateral


# The corpus maps are variants of this S-shaped corridor, 40 m along its
# centerline: interior corners and the width are jittered, endpoints stay put.
BASE_MAP = CorridorMap(
    centerline=np.array([
        [0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [16.0, 8.0], [16.0, 0.0], [24.0, 0.0],
    ]),
    width=2.6,
)
BASE_MAP.centerline.flags.writeable = False  # shared by every corpus
N_MAP_VARIANTS = 4
CORNER_JITTER_M = 0.5
WIDTH_JITTER_M = 0.2
MIN_VARIANT_WIDTH_M = 1.6
WAYPOINT_JITTER_M = 0.25  # robot route vertices, per run


def map_variant(base: CorridorMap, seed) -> CorridorMap:
    """Perturb interior corners by up to CORNER_JITTER_M and the width by up
    to WIDTH_JITTER_M; endpoints stay fixed."""
    rng = np.random.default_rng(seed)
    centerline = base.centerline.copy()
    centerline[1:-1] += rng.uniform(-CORNER_JITTER_M, CORNER_JITTER_M,
                                    size=(len(centerline) - 2, 2))
    width = max(MIN_VARIANT_WIDTH_M,
                base.width + float(rng.uniform(-WIDTH_JITTER_M, WIDTH_JITTER_M)))
    return CorridorMap(centerline=centerline, width=width)


@dataclass
class HumanWalkerParams:
    head_lead_s: float = 0.4  # head yaw anticipates body heading by this much
    gaze_lead_s: float = 0.8  # gaze anticipates body heading; must be >= head lead
    heading_noise_std: float = 0.05  # rad per step
    speed_noise_std: float = 0.05  # m/s per step
    seed: int = 0

    def __post_init__(self):
        for name in ("head_lead_s", "gaze_lead_s", "heading_noise_std", "speed_noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not self.gaze_lead_s >= self.head_lead_s:
            raise ValueError(f"need gaze_lead >= head_lead, got {self.gaze_lead_s}/{self.head_lead_s}")


@dataclass
class RobotRunParams:
    waypoints: tuple = ()
    cruise_speed: float = 1.0  # m/s
    max_accel: float = 0.5  # m/s^2
    max_yaw_rate: float = 1.0  # rad/s

    def __post_init__(self):
        if self.cruise_speed <= 0 or self.max_accel <= 0 or self.max_yaw_rate <= 0:
            raise ValueError("robot speeds/rates must be positive and finite")
        for v in (self.cruise_speed, self.max_accel, self.max_yaw_rate):
            if not math.isfinite(v):
                raise ValueError("robot speeds/rates must be finite")
        self.waypoints = tuple(
            (float(x), float(y)) for x, y in self.waypoints
        )


@dataclass(slots=True)
class _WalkerState:
    x: float
    y: float
    theta: float
    speed: float
    direction: int  # +1 toward the far end, -1 back
    params: HumanWalkerParams
    noise: Iterator[float]  # standard normals, drawn in step order
    # Arc length of (x, y) as _advance_walker projected it, or None when
    # (x, y) was never projected: at the start and after a wall clamp.
    s_proj: float | None = None


def _steer_walker(corridor: CorridorMap, me: _WalkerState) -> float:
    """Desired heading by pure pursuit, turning around at either end."""
    x, y = me.x, me.y
    s_proj = me.s_proj
    if s_proj is None:
        s_proj, _lateral = corridor.project((x, y))
    length = corridor.total_length
    if me.direction > 0 and s_proj >= length - END_MARGIN_M:
        me.direction = -1
    elif me.direction < 0 and s_proj <= END_MARGIN_M:
        me.direction = 1
    tx, ty = corridor.point_at(s_proj + me.direction * LOOKAHEAD_M)

    # Scaling the pull to the preferred speed leaves its direction alone but
    # not atan2's last bit, and saved corpora pin that rounding.
    dx, dy = tx - x, ty - y
    norm = math.sqrt(dx * dx + dy * dy)
    if norm > 1e-9:
        dx, dy = dx / norm * PREFERRED_SPEED, dy / norm * PREFERRED_SPEED

    return math.atan2(dy, dx)


def _advance_walker(corridor: CorridorMap, me: _WalkerState, psi: float) -> None:
    params = me.params
    if params.heading_noise_std > 0:
        psi += params.heading_noise_std * next(me.noise)
    dtheta = wrap_angle(psi - me.theta)
    max_step = WALKER_MAX_YAW_RATE * SIM_DT
    dtheta = _clamp(dtheta, -max_step, max_step)
    me.theta = wrap_angle(me.theta + dtheta)

    v_des = PREFERRED_SPEED * (1.0 - TURN_SLOWDOWN * min(1.0, abs(dtheta) / max_step))
    if params.speed_noise_std > 0:
        v_des += params.speed_noise_std * next(me.noise)
    v_des = _clamp(v_des, 0.15, PREFERRED_SPEED * 1.3)
    me.speed += _clamp(v_des - me.speed, -WALKER_ACCEL * SIM_DT, WALKER_ACCEL * SIM_DT)

    step = me.speed * SIM_DT
    x, y = me.x + step * math.cos(me.theta), me.y + step * math.sin(me.theta)

    # Hard wall constraint: clamp the lateral offset inside the corridor.
    s_proj, lateral = corridor.project((x, y))
    max_lat = corridor.width / 2 - WALL_MARGIN_M
    if abs(lateral) > max_lat:
        ux, uy = corridor.tangent_at(s_proj)
        cx, cy = corridor.point_at(s_proj)
        offset = math.copysign(max_lat, lateral)
        x, y = cx + offset * -uy, cy + offset * ux
        s_proj = None
    me.x, me.y, me.s_proj = x, y, s_proj


def _check_duration(duration_s: float) -> None:
    """Every simulated session, human or robot, holds at least one window."""
    if duration_s < MIN_SESSION_DURATION_S:
        raise ValueError(f"duration must be >= {MIN_SESSION_DURATION_S} s, got {duration_s}")


def simulate_human(corridor: CorridorMap, params: HumanWalkerParams, duration_s: float,
                   session_id: int = 1, label: str = "") -> Session:
    """Generate one walker, starting at the near end, as a Session of headset
    samples."""
    _check_duration(duration_s)
    if corridor.total_length < MIN_ROUTE_LENGTH_M:
        raise GenerationError(
            f"corridor length {corridor.total_length:.2f} m has no traversable route"
        )
    n_frames = int(round(duration_s / SIM_DT))
    x, y = corridor.point_at(0.0)
    ux, uy = corridor.tangent_at(0.0)
    # One normal per noisy channel per step, the order the steps use them.
    draws = n_frames * ((params.heading_noise_std > 0) + (params.speed_noise_std > 0))
    noise = np.random.default_rng(params.seed).standard_normal(draws).tolist()
    walker = _WalkerState(x=x, y=y, theta=math.atan2(uy, ux), speed=PREFERRED_SPEED,
                          direction=1, params=params, noise=iter(noise))
    positions, body = [], []
    for _ in range(n_frames):
        positions.append((walker.x, walker.y))
        body.append(walker.theta)
        _advance_walker(corridor, walker, _steer_walker(corridor, walker))

    head_shift = int(round(params.head_lead_s / SIM_DT))
    gaze_shift = int(round(params.gaze_lead_s / SIM_DT))
    cos_p, sin_p = math.cos(GAZE_PITCH_RAD), math.sin(GAZE_PITCH_RAD)

    session = Session(session_id, AGENT_HUMAN, label=label)
    for t, (x, y) in enumerate(positions):
        head_yaw = body[min(t + head_shift, n_frames - 1)]
        gaze_yaw = body[min(t + gaze_shift, n_frames - 1)]
        # The head only yaws, so the gaze in its frame is the gaze yaw
        # relative to the head yaw, at the gaze pitch.
        rel_yaw = gaze_yaw - head_yaw
        session.ingest(HeadsetSample(
            timestamp_us=START_TIMESTAMP_US + t * SIM_STEP_US,
            session_id=session_id,
            position=(x, y, EYE_HEIGHT_M),
            orientation=quaternion_from_yaw(head_yaw),
            gaze_local=(cos_p * math.cos(rel_yaw), cos_p * math.sin(rel_yaw), sin_p),
        ))
    session.end()
    return session


def simulate_robot(corridor: CorridorMap, params: RobotRunParams, duration_s: float,
                   session_id: int = 1, label: str = "") -> Session:
    """Drive waypoints with clamped yaw rate and accel-limited speed."""
    _check_duration(duration_s)
    if not params.waypoints:
        raise GenerationError("robot run needs at least one waypoint")
    for idx, wp in enumerate(params.waypoints):
        if not abs(corridor.project(wp)[1]) <= corridor.width / 2:
            raise GenerationError(f"waypoint {idx} at {wp} lies outside the corridor")
    n_frames = int(round(duration_s / SIM_DT))
    wps = params.waypoints
    legs = [math.sqrt((bx - ax) * (bx - ax) + (by - ay) * (by - ay))
            for (ax, ay), (bx, by) in zip(wps, wps[1:])]

    x, y = wps[0]
    target_idx = 1 if len(wps) > 1 else len(wps)
    theta = math.atan2(wps[1][1] - y, wps[1][0] - x) if len(wps) > 1 else 0.0
    speed = 0.0
    yaw_rate = 0.0
    max_dstep = params.max_yaw_rate * SIM_DT

    # Stall detection: the closest approach to the current target must keep
    # improving, otherwise the waypoint is unreachable.
    best_dist = math.inf
    stall_steps = 0
    stall_limit = int(10.0 / SIM_DT)

    session = Session(session_id, AGENT_ROBOT, label=label)
    for t in range(n_frames):
        session.ingest(RobotSample(
            timestamp_us=START_TIMESTAMP_US + t * SIM_STEP_US,
            session_id=session_id,
            position=(x, y, ROBOT_MOUNT_HEIGHT_M),
            orientation=quaternion_from_yaw(theta),
            linear_speed=speed,
            yaw_rate=yaw_rate,
        ))

        if target_idx >= len(wps):
            v_des = 0.0
            dtheta = 0.0
        else:
            dx, dy = wps[target_idx][0] - x, wps[target_idx][1] - y
            dist = math.sqrt(dx * dx + dy * dy)
            capture = 0.04 if target_idx == len(wps) - 1 else 0.15
            if dist < capture:
                target_idx += 1
                best_dist = math.inf
                stall_steps = 0
                if target_idx >= len(wps):
                    v_des = 0.0
                    dtheta = 0.0
                    speed += _clamp(v_des - speed, -params.max_accel * SIM_DT,
                                    params.max_accel * SIM_DT)
                    yaw_rate = 0.0
                    continue
                dx, dy = wps[target_idx][0] - x, wps[target_idx][1] - y
                dist = math.sqrt(dx * dx + dy * dy)

            if dist < best_dist - 0.01:
                best_dist = dist
                stall_steps = 0
            else:
                stall_steps += 1
                if stall_steps > stall_limit:
                    raise GenerationError(f"waypoint {target_idx} unreachable (robot stalled)")

            desired_heading = math.atan2(dy, dx) if dist > 1e-9 else theta
            heading_err = wrap_angle(desired_heading - theta)
            dtheta = _clamp(heading_err, -max_dstep, max_dstep)

            remaining = dist
            for leg in legs[target_idx:]:
                remaining += leg
            v_stop = math.sqrt(2.0 * params.max_accel * max(remaining - 0.02, 0.0))
            v_turn = params.cruise_speed if abs(heading_err) < 0.15 else 0.25
            v_des = min(params.cruise_speed, v_stop, v_turn)

        theta = wrap_angle(theta + dtheta)
        yaw_rate = dtheta / SIM_DT
        speed += _clamp(v_des - speed, -params.max_accel * SIM_DT, params.max_accel * SIM_DT)
        step = speed * SIM_DT
        x, y = x + step * math.cos(theta), y + step * math.sin(theta)
    session.end()
    return session


@dataclass
class CorpusConfig:
    """Everything needed to regenerate a corpus byte-for-byte."""

    n_human: int = 20
    n_robot: int = 10
    duration_s: float = 90.0
    seed: int = 7

    def __post_init__(self):
        for name in ("n_human", "n_robot", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= 0):
                raise ConfigError(f"{name} must be a non-negative int, got {value!r}")
        duration = self.duration_s
        if not (isinstance(duration, Real) and not isinstance(duration, bool)
                and math.isfinite(duration) and duration > 0):
            raise ConfigError(f"duration_s must be finite and > 0, got {duration!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "CorpusConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"corpus config must be a dict, got {raw!r}")
        names = {f.name for f in fields(cls)}
        for key in sorted(names ^ raw.keys(), key=str):  # names the first wrong key
            raise ConfigError(f"corpus config key {key!r} is {'missing' if key in names else 'unknown'}")
        return cls(**raw)


def _derived_seed(master: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence((master, stream, index)).generate_state(1)[0])


def corpus_maps(seed: int) -> list[CorridorMap]:
    return [map_variant(BASE_MAP, seed=_derived_seed(seed, 1, v)) for v in range(N_MAP_VARIANTS)]


def _robot_waypoints(corridor: CorridorMap, rng) -> tuple:
    """Centerline vertices with a small per-run jitter on the interior ones;
    MIN_VARIANT_WIDTH_M keeps them inside the walls' margins."""
    points = []
    for idx, vertex in enumerate(corridor.centerline):
        if 0 < idx < len(corridor.centerline) - 1:
            offset = rng.uniform(-WAYPOINT_JITTER_M, WAYPOINT_JITTER_M, size=2)
        else:
            offset = np.zeros(2)
        points.append(tuple(vertex + offset))
    return tuple(points)


def generate_corpus(config: CorpusConfig) -> list[Session]:
    """All sessions for one experiment. Human sessions get ids 1..n_human,
    robots continue from there. Deterministic in the config alone."""
    if config.n_human + config.n_robot < 6:
        raise ValueError("corpus needs at least 6 sessions for a 3-way split")
    maps = corpus_maps(config.seed)
    sessions = []
    for i in range(config.n_human):
        variant = i % len(maps)
        sessions.append(simulate_human(
            maps[variant], HumanWalkerParams(seed=_derived_seed(config.seed, 2, i)),
            config.duration_s, session_id=i + 1, label=f"map{variant}",
        ))
    for j in range(config.n_robot):
        variant = j % len(maps)
        corridor = maps[variant]
        rng = np.random.default_rng(_derived_seed(config.seed, 3, j))
        sessions.append(simulate_robot(
            corridor, RobotRunParams(waypoints=_robot_waypoints(corridor, rng)),
            config.duration_s, session_id=config.n_human + j + 1, label=f"map{variant}",
        ))
    return sessions
