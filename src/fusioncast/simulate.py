"""Synthetic corridor sessions standing in for hardware trials.

Humans are kinematic unicycles steered by pure pursuit along the corridor
centerline, with exponential repulsion from other walkers and obstacles and
a right-hand bias so head-on encounters resolve. Head yaw and gaze yaw are
the body heading sampled ahead in time: gaze leads the head, the head leads
the body, which is the cue structure the full predictor configuration is
supposed to exploit. Gaze is emitted in the device-local frame, so the
ingestion pipeline has to rotate it back through the orientation quaternion
to recover the world direction.

Robots follow waypoints with yaw-rate-clamped steering and an accel-limited
(trapezoidal) speed profile; the headset rides rigidly, so orientation equals
the drive heading and no gaze is emitted.

Everything is seeded and deterministic: the same config yields byte-identical
session files. The per-step loops work on Python floats, not 2-vectors: at two
components numpy's per-call overhead costs more than the arithmetic, and a
plain float expression rounds the same way everywhere, where a BLAS dot
product may fuse or reorder it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import GenerationError
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

# Walker steering constants (not exposed as params; corpus variety comes from
# seeds, maps, and the per-walker noise).
LOOKAHEAD_M = 1.0
WALKER_MAX_YAW_RATE = 2.2  # rad/s
WALKER_ACCEL = 1.5  # m/s^2
TURN_SLOWDOWN = 0.4
WALL_MARGIN_M = 0.2
END_MARGIN_M = 0.5
REPULSE_STRENGTH = 2.0
REPULSE_FALLOFF_M = 0.45
SIDE_BIAS = 0.8

MIN_HUMAN_DURATION_S = (OBS_FRAMES + HORIZON_FRAMES) * SIM_STEP_US / 1_000_000  # one window
MIN_ROUTE_LENGTH_M = 2.0


@dataclass
class CorridorMap:
    """Axis-connected corridor: a centerline polyline with constant width and
    optional static disc obstacles."""

    centerline: np.ndarray  # (V, 2) meters
    width: float
    obstacles: tuple[tuple[float, float, float], ...] = ()  # (x, y, radius)

    def __post_init__(self):
        self.centerline = np.asarray(self.centerline, dtype=np.float64)
        if self.centerline.ndim != 2 or self.centerline.shape[0] < 2 or self.centerline.shape[1] != 2:
            raise ValueError("centerline must be an (V>=2, 2) polyline")
        if not np.all(np.isfinite(self.centerline)):
            raise ValueError("centerline has non-finite vertices")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"corridor width must be positive and finite, got {self.width}")
        self.obstacles = tuple(_checked_obstacle(obs) for obs in self.obstacles)
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
        s = min(max(s, 0.0), self.total_length)
        return min(max(bisect_right(self._cum, s) - 1, 0), len(self._segs) - 1)

    def point_at(self, s: float) -> tuple[float, float]:
        s = min(max(s, 0.0), self.total_length)
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
            t = min(max((px - ax) * ux + (py - ay) * uy, 0.0), length)
            wx = px - (ax + t * ux)
            wy = py - (ay + t * uy)
            d2 = wx * wx + wy * wy
            if d2 < best_d2:
                best_d2, best_s, best_lateral = d2, cum + t, ux * wy - uy * wx
        return best_s, best_lateral

    def to_dict(self) -> dict:
        return {
            "centerline": [[float(x), float(y)] for x, y in self.centerline],
            "width": float(self.width),
            "obstacles": [[float(a) for a in obs] for obs in self.obstacles],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CorridorMap":
        return cls(
            centerline=np.array(raw["centerline"], dtype=np.float64),
            width=float(raw["width"]),
            obstacles=tuple(tuple(o) for o in raw.get("obstacles", [])),
        )


def _checked_obstacle(obs) -> tuple[float, float, float]:
    try:
        x, y, radius = (float(v) for v in obs)
    except (TypeError, ValueError):
        raise ValueError(f"obstacle {obs!r} is not an (x, y, radius) triple") from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(radius) and radius > 0):
        raise ValueError(f"obstacle {obs!r} needs a finite centre and a finite radius > 0")
    return x, y, radius


def save_map(corridor: CorridorMap, path) -> None:
    Path(path).write_text(json.dumps(corridor.to_dict(), sort_keys=True, indent=2) + "\n")


def load_map(path) -> CorridorMap:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        return CorridorMap.from_dict(raw)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise GenerationError(f"{path}: invalid map file: {exc}") from exc


def map_variant(base: CorridorMap, corner_jitter: float, width_jitter: float,
                seed) -> CorridorMap:
    """Perturb interior corners and the width; endpoints stay fixed."""
    rng = np.random.default_rng(seed)
    centerline = base.centerline.copy()
    if len(centerline) > 2 and corner_jitter > 0:
        centerline[1:-1] += rng.uniform(-corner_jitter, corner_jitter,
                                        size=(len(centerline) - 2, 2))
    width = max(1.6, base.width + float(rng.uniform(-width_jitter, width_jitter)))
    return CorridorMap(centerline=centerline, width=width, obstacles=base.obstacles)


@dataclass
class HumanWalkerParams:
    preferred_speed: float = 1.4  # m/s
    head_lead_s: float = 0.4  # head yaw anticipates body heading by this much
    gaze_lead_s: float = 0.8  # gaze anticipates body heading; must be >= head lead
    heading_noise_std: float = 0.05  # rad per step
    speed_noise_std: float = 0.05  # m/s per step
    avoid_radius: float = 1.2  # m
    seed: int = 0
    start_s: float = 0.0  # arc length of the start point
    direction: int = 1  # +1 toward the far end, -1 back
    gaze_pitch_rad: float = -0.1  # constant downward pitch of the gaze

    def __post_init__(self):
        for name in ("preferred_speed", "head_lead_s", "gaze_lead_s", "heading_noise_std",
                     "speed_noise_std", "avoid_radius", "start_s", "gaze_pitch_rad"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.gaze_lead_s >= self.head_lead_s >= 0.0):
            raise ValueError(
                f"need gaze_lead >= head_lead >= 0, got {self.gaze_lead_s}/{self.head_lead_s}"
            )
        for name in ("preferred_speed", "avoid_radius"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("heading_noise_std", "speed_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")


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
    direction: int
    params: HumanWalkerParams
    noise: Iterator[float]  # standard normals, drawn in step order


def _steer_walker(corridor: CorridorMap, me: _WalkerState,
                  walkers: list[_WalkerState]) -> float:
    """Desired heading from pure pursuit plus repulsion from the other
    walkers and the obstacles."""
    x, y = me.x, me.y
    s_proj, _lateral = corridor.project((x, y))
    length = corridor.total_length
    if me.direction > 0 and s_proj >= length - END_MARGIN_M:
        me.direction = -1
    elif me.direction < 0 and s_proj <= END_MARGIN_M:
        me.direction = 1
    tx, ty = corridor.point_at(s_proj + me.direction * LOOKAHEAD_M)

    dx, dy = tx - x, ty - y
    norm = math.sqrt(dx * dx + dy * dy)
    if norm > 1e-9:
        speed = me.params.preferred_speed
        dx, dy = dx / norm * speed, dy / norm * speed

    avoid = me.params.avoid_radius
    cos_t, sin_t = math.cos(me.theta), math.sin(me.theta)
    for other in walkers:
        if other is me:
            continue
        ox, oy = x - other.x, y - other.y
        dist = math.sqrt(ox * ox + oy * oy)
        if dist < 1e-9 or dist > 3.0 * avoid:
            continue
        push = REPULSE_STRENGTH * math.exp((avoid - dist) / REPULSE_FALLOFF_M)
        dx, dy = dx + ox / dist * push, dy + oy / dist * push
        if cos_t * math.cos(other.theta) + sin_t * math.sin(other.theta) < -0.2:
            # Roughly head-on: bias to the right.
            dx, dy = dx + sin_t * push * SIDE_BIAS, dy + -cos_t * push * SIDE_BIAS
    for cx, cy, radius in corridor.obstacles:
        ox, oy = x - cx, y - cy
        dist = math.sqrt(ox * ox + oy * oy)
        reach = radius + avoid
        if dist < 1e-9 or dist > reach + 1.0:
            continue
        push = REPULSE_STRENGTH * math.exp((reach - dist) / REPULSE_FALLOFF_M)
        dx, dy = dx + ox / dist * push, dy + oy / dist * push

    return math.atan2(dy, dx)


def _advance_walker(corridor: CorridorMap, me: _WalkerState, psi: float) -> None:
    params = me.params
    if params.heading_noise_std > 0:
        psi += params.heading_noise_std * next(me.noise)
    dtheta = wrap_angle(psi - me.theta)
    max_step = WALKER_MAX_YAW_RATE * SIM_DT
    dtheta = min(max(dtheta, -max_step), max_step)
    me.theta = wrap_angle(me.theta + dtheta)

    v_des = params.preferred_speed * (1.0 - TURN_SLOWDOWN * min(1.0, abs(dtheta) / max_step))
    if params.speed_noise_std > 0:
        v_des += params.speed_noise_std * next(me.noise)
    v_des = min(max(v_des, 0.15), params.preferred_speed * 1.3)
    dv = min(max(v_des - me.speed, -WALKER_ACCEL * SIM_DT), WALKER_ACCEL * SIM_DT)
    me.speed += dv

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
    me.x, me.y = x, y


def _simulate_walker_traces(corridor: CorridorMap, walkers: list[HumanWalkerParams],
                            n_frames: int):
    """Joint body simulation; returns per-walker lists of (x, y) positions
    and of headings."""
    states = []
    for params in walkers:
        x, y = corridor.point_at(params.start_s)
        ux, uy = corridor.tangent_at(params.start_s)
        # One normal per noisy channel per step, the order the steps use them.
        draws = n_frames * ((params.heading_noise_std > 0) + (params.speed_noise_std > 0))
        noise = np.random.default_rng(params.seed).standard_normal(draws).tolist()
        states.append(_WalkerState(
            x=x, y=y,
            theta=math.atan2(uy * params.direction, ux * params.direction),
            speed=params.preferred_speed,
            direction=params.direction,
            params=params,
            noise=iter(noise),
        ))
    positions = [[] for _ in states]
    headings = [[] for _ in states]
    for _ in range(n_frames):
        for st, pos, heading in zip(states, positions, headings):
            pos.append((st.x, st.y))
            heading.append(st.theta)
        desired = [_steer_walker(corridor, st, states) for st in states]
        for st, psi in zip(states, desired):
            _advance_walker(corridor, st, psi)
    return positions, headings


def simulate_human(corridor: CorridorMap, params: HumanWalkerParams, duration_s: float,
                   others: tuple[HumanWalkerParams, ...] = (), session_id: int = 1,
                   label: str = "") -> Session:
    """Generate one recorded walker (plus unrecorded companions) as a Session
    of headset samples."""
    if duration_s < MIN_HUMAN_DURATION_S:
        raise ValueError(f"duration must be >= {MIN_HUMAN_DURATION_S} s, got {duration_s}")
    if corridor.total_length < MIN_ROUTE_LENGTH_M:
        raise GenerationError(
            f"corridor length {corridor.total_length:.2f} m has no traversable route"
        )
    n_frames = int(round(duration_s / SIM_DT))
    walkers = [params, *others]
    positions, headings = _simulate_walker_traces(corridor, walkers, n_frames)

    body = headings[0]
    head_shift = int(round(params.head_lead_s / SIM_DT))
    gaze_shift = int(round(params.gaze_lead_s / SIM_DT))
    pitch = params.gaze_pitch_rad
    cos_p, sin_p = math.cos(pitch), math.sin(pitch)

    session = Session(session_id, AGENT_HUMAN, label=label)
    for t, (x, y) in enumerate(positions[0]):
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
                    speed += min(max(v_des - speed, -params.max_accel * SIM_DT),
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
            dtheta = min(max(heading_err, -max_dstep), max_dstep)

            remaining = dist
            for leg in legs[target_idx:]:
                remaining += leg
            v_stop = math.sqrt(2.0 * params.max_accel * max(remaining - 0.02, 0.0))
            v_turn = params.cruise_speed if abs(heading_err) < 0.15 else 0.25
            v_des = min(params.cruise_speed, v_stop, v_turn)

        theta = wrap_angle(theta + dtheta)
        yaw_rate = dtheta / SIM_DT
        speed += min(max(v_des - speed, -params.max_accel * SIM_DT), params.max_accel * SIM_DT)
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
    companions: int = 0  # unrecorded walkers sharing each human session
    base_map: CorridorMap = field(default_factory=lambda: CorridorMap(
        centerline=np.array([
            [0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [16.0, 8.0], [16.0, 0.0], [24.0, 0.0],
        ]),
        width=2.6,
    ))
    n_map_variants: int = 4
    corner_jitter: float = 0.5
    width_jitter: float = 0.2
    human_template: HumanWalkerParams = field(default_factory=HumanWalkerParams)
    robot_template: RobotRunParams = field(default_factory=RobotRunParams)
    waypoint_jitter: float = 0.25

    def to_dict(self) -> dict:
        return {
            "n_human": self.n_human,
            "n_robot": self.n_robot,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "companions": self.companions,
            "base_map": self.base_map.to_dict(),
            "n_map_variants": self.n_map_variants,
            "corner_jitter": self.corner_jitter,
            "width_jitter": self.width_jitter,
            "human_template": {
                k: v for k, v in self.human_template.__dict__.items()
            },
            "robot_template": {
                "waypoints": [list(w) for w in self.robot_template.waypoints],
                "cruise_speed": self.robot_template.cruise_speed,
                "max_accel": self.robot_template.max_accel,
                "max_yaw_rate": self.robot_template.max_yaw_rate,
            },
            "waypoint_jitter": self.waypoint_jitter,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CorpusConfig":
        return cls(
            n_human=raw["n_human"],
            n_robot=raw["n_robot"],
            duration_s=raw["duration_s"],
            seed=raw["seed"],
            companions=raw.get("companions", 0),
            base_map=CorridorMap.from_dict(raw["base_map"]),
            n_map_variants=raw["n_map_variants"],
            corner_jitter=raw["corner_jitter"],
            width_jitter=raw["width_jitter"],
            human_template=HumanWalkerParams(**raw["human_template"]),
            robot_template=RobotRunParams(
                waypoints=tuple(tuple(w) for w in raw["robot_template"]["waypoints"]),
                cruise_speed=raw["robot_template"]["cruise_speed"],
                max_accel=raw["robot_template"]["max_accel"],
                max_yaw_rate=raw["robot_template"]["max_yaw_rate"],
            ),
            waypoint_jitter=raw.get("waypoint_jitter", 0.25),
        )


def _derived_seed(master: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence((master, stream, index)).generate_state(1)[0])


def corpus_maps(config: CorpusConfig) -> list[CorridorMap]:
    return [
        map_variant(config.base_map, config.corner_jitter, config.width_jitter,
                    seed=_derived_seed(config.seed, 1, v))
        for v in range(config.n_map_variants)
    ]


def _robot_waypoints(corridor: CorridorMap, jitter: float, rng) -> tuple:
    """Centerline vertices with a small per-run jitter, kept inside the walls."""
    points = []
    max_off = min(jitter, corridor.width / 2 - WALL_MARGIN_M - 0.05)
    for idx, vertex in enumerate(corridor.centerline):
        if 0 < idx < len(corridor.centerline) - 1 and max_off > 0:
            offset = rng.uniform(-max_off, max_off, size=2)
        else:
            offset = np.zeros(2)
        points.append(tuple(vertex + offset))
    return tuple(points)


def generate_corpus(config: CorpusConfig) -> list[Session]:
    """All sessions for one experiment. Human sessions get ids 1..n_human,
    robots continue from there. Deterministic in the config alone."""
    if config.n_human + config.n_robot < 6:
        raise ValueError("corpus needs at least 6 sessions for a 3-way split")
    maps = corpus_maps(config)
    sessions = []
    for i in range(config.n_human):
        variant = i % len(maps)
        corridor = maps[variant]
        params = replace(
            config.human_template,
            seed=_derived_seed(config.seed, 2, i),
            start_s=0.0,
            direction=1,
        )
        others = tuple(
            replace(
                config.human_template,
                seed=_derived_seed(config.seed, 4, i * 97 + c),
                start_s=corridor.total_length * (c + 1) / (config.companions + 1),
                direction=-1 if c % 2 == 0 else 1,
            )
            for c in range(config.companions)
        )
        sessions.append(simulate_human(
            corridor, params, config.duration_s, others=others,
            session_id=i + 1, label=f"map{variant}",
        ))
    for j in range(config.n_robot):
        variant = j % len(maps)
        corridor = maps[variant]
        rng = np.random.default_rng(_derived_seed(config.seed, 3, j))
        template = config.robot_template
        waypoints = template.waypoints or _robot_waypoints(corridor, config.waypoint_jitter, rng)
        params = RobotRunParams(
            waypoints=waypoints,
            cruise_speed=template.cruise_speed,
            max_accel=template.max_accel,
            max_yaw_rate=template.max_yaw_rate,
        )
        sessions.append(simulate_robot(
            corridor, params, config.duration_s,
            session_id=config.n_human + j + 1, label=f"map{variant}",
        ))
    return sessions
