"""Synthetic session generation: walkers, robots, corpus reproducibility."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from fusioncast import simulate
from fusioncast.errors import ConfigError, GenerationError
from fusioncast.geometry import heading_and_rotate, wrap_angle
from fusioncast.sessions import save_session
from fusioncast.simulate import (
    BASE_MAP,
    CORNER_JITTER_M,
    MIN_SESSION_DURATION_S,
    N_MAP_VARIANTS,
    PREFERRED_SPEED,
    ROBOT_CRUISE_SPEED,
    ROBOT_MAX_ACCEL,
    ROBOT_MAX_YAW_RATE,
    WALL_MARGIN_M,
    WIDTH_JITTER_M,
    CorpusConfig,
    CorridorMap,
    HumanWalkerParams,
    _clamp,
    corpus_maps,
    generate_corpus,
    map_variant,
    simulate_human,
    simulate_robot,
)

EPS = 1e-9


def _straight(length=30.0, width=2.6):
    return CorridorMap(np.array([[0.0, 0.0], [length, 0.0]]), width)


def _l_shape(width=2.6):
    return CorridorMap(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]), width)


def _world_gaze(session):
    return [heading_and_rotate(msg.orientation, msg.gaze_local)[1] for msg in session.messages]


@pytest.fixture
def noise_free(monkeypatch):
    """A walker with neither heading nor speed noise."""
    monkeypatch.setattr(simulate, "HEADING_NOISE_STD", 0.0)
    monkeypatch.setattr(simulate, "SPEED_NOISE_STD", 0.0)


def _first_crossing(values, level):
    for i, v in enumerate(values):
        if v >= level:
            return i
    return None


class TestCorridorMap:
    def test_length_and_interpolation(self):
        m = _l_shape()
        assert m.total_length == pytest.approx(20.0)
        assert np.allclose(m.point_at(5.0), [5.0, 0.0])
        assert np.allclose(m.point_at(15.0), [10.0, 5.0])

    def test_project_signed_lateral(self):
        m = _straight()
        s, lat = m.project([3.0, 0.7])
        assert s == pytest.approx(3.0)
        assert lat == pytest.approx(0.7)  # left of travel direction is positive
        _, lat2 = m.project([3.0, -0.4])
        assert lat2 == pytest.approx(-0.4)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            CorridorMap(np.array([[0.0, 0.0]]), 2.0)
        with pytest.raises(ValueError):
            CorridorMap(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_rejects_non_finite_width(self, width):
        with pytest.raises(ValueError, match="width"):
            CorridorMap(np.array([[0.0, 0.0], [10.0, 0.0]]), width)

    def test_rejects_non_finite_centerline(self):
        with pytest.raises(ValueError, match="non-finite"):
            CorridorMap(np.array([[0.0, 0.0], [10.0, math.nan], [20.0, 0.0]]), 2.6)

    def test_project_matches_dense_sampling_oracle(self):
        # Oracle: per segment, the nearest of 4001 evenly spaced samples,
        # refined by bisection on the sign of the distance's slope within one
        # spacing of it; the nearest segment wins and near-equal distances go
        # to the earlier segment.
        corridor = BASE_MAP
        vertices = corridor.centerline
        rng = np.random.default_rng(5)
        points = [tuple(p) for p in rng.uniform([-4.0, -5.0], [28.0, 13.0], size=(300, 2))]
        for vx, vy in vertices:  # corners, just off them (off the bisectors), beyond both ends
            points.append((vx, vy))
            points.extend((vx + dx, vy + dy) for dx in (-1e-3, 1e-3) for dy in (-2e-3, 2e-3))
        points += [(-3.0, 0.4), (-0.5, -0.9), (27.0, -0.3), (24.5, 0.8)]

        def oracle(p):
            best = None
            start_s = 0.0
            for a, b in zip(vertices, vertices[1:]):
                length = float(np.linalg.norm(b - a))
                u = (b - a) / length
                samples = np.linspace(0.0, length, 4001)
                k = int(np.argmin(np.linalg.norm(a + samples[:, None] * u - p, axis=1)))
                lo, hi = samples[max(k - 1, 0)], samples[min(k + 1, 4000)]
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if float(np.dot(a + mid * u - p, u)) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                t = 0.5 * (lo + hi)
                w = np.asarray(p) - (a + t * u)
                dist = float(np.linalg.norm(w))
                if best is None or dist < best[0] - 1e-12:
                    best = (dist, start_s + t, float(u[0] * w[1] - u[1] * w[0]))
                start_s += length
            return best[1], best[2]

        for p in points:
            s, lateral = corridor.project(p)
            s_ref, lateral_ref = oracle(np.asarray(p))
            assert s == pytest.approx(s_ref, abs=1e-9), p
            assert lateral == pytest.approx(lateral_ref, abs=1e-9), p

    def test_project_exact_tie_takes_earlier_segment(self):
        # Outside the left turn at (8, 0) both segments are nearest at the
        # corner itself; the earlier one gives the lateral offset.
        corridor = BASE_MAP
        assert corridor.project((9.0, -2.0)) == (8.0, -2.0)  # the later one would give -1
        assert corridor.project((8.0, 0.0)) == (8.0, 0.0)


class TestFrozenInputs:
    # Each of these could be set past its constructor's check: a walker
    # with head_lead_s -2.0 took its first 20 head yaws from the end of the
    # walk, a map of width NaN walked through its walls (no lateral offset
    # exceeds NaN), and a new centerline left the segment tables stale.
    @pytest.mark.parametrize("make,field,value", [
        (CorpusConfig, "duration_s", 1e7),
        (CorpusConfig, "n_human", 0),
        (lambda: HumanWalkerParams(seed=3), "head_lead_s", -2.0),
        (_straight, "width", math.nan),
        (_straight, "centerline", np.array([[0.0, 0.0], [5.0, 0.0]])),
    ], ids=["corpus-duration", "corpus-count", "walker-lead", "map-width", "map-centerline"])
    def test_fields_cannot_be_assigned(self, make, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(make(), field, value)

    def test_centerline_cannot_be_written(self):
        given = np.array([[0.0, 0.0], [30.0, 0.0]])
        corridor = CorridorMap(given, 2.6)
        given[1, 0] = 5.0  # the map holds its own copy
        assert corridor.centerline[1, 0] == 30.0
        for centerline in (corridor.centerline, map_variant(3).centerline):
            with pytest.raises(ValueError, match="read-only"):
                centerline[1, 0] = 5.0
        assert corridor.total_length == 30.0


class TestClamp:
    def test_returns_what_min_of_max_returns(self):
        # The builtins return one of their arguments, so identity is bit for
        # bit and type for type: NaN anywhere, -0.0 beside 0.0, ints beside
        # floats, and lo > hi, where hi wins.
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0, 1, -1, 0.5, -0.5, 2.0, 1e-320,
                  True]
        for x, lo, hi in itertools.product(values, repeat=3):
            assert _clamp(x, lo, hi) is min(max(x, lo), hi), (x, lo, hi)


class TestSimulateHuman:
    def test_straight_zero_noise(self, noise_free):
        session = simulate_human(_straight(), HumanWalkerParams(), 10.0)
        headings = [heading_and_rotate(p.orientation)[0] for p in session.messages]
        assert max(abs(h) for h in headings) < 1e-9
        gaze_yaws = [math.atan2(g[1], g[0]) for g in _world_gaze(session)]
        assert max(abs(g) for g in gaze_yaws) < 1e-9
        pos = np.array([p.position[:2] for p in session.messages])
        speeds = np.linalg.norm(np.diff(pos, axis=0), axis=1) / 0.1
        assert np.allclose(speeds, PREFERRED_SPEED, atol=1e-6)

    def test_corner_gaze_precedes_body(self, noise_free):
        # Oracle: event-time extraction from the generated trace. Gaze yaw must
        # cross the 45-degree turn midpoint at least 0.3 s before the body course.
        params = HumanWalkerParams(gaze_lead_s=0.8, head_lead_s=0.4)
        session = simulate_human(_l_shape(), params, 15.0)
        gaze_yaws = [math.atan2(g[1], g[0]) for g in _world_gaze(session)]
        pos = np.array([p.position[:2] for p in session.messages])
        course = np.arctan2(np.diff(pos[:, 1]), np.diff(pos[:, 0]))
        mid = math.pi / 4
        t_gaze = _first_crossing(gaze_yaws, mid)
        t_body = _first_crossing(course, mid)
        assert t_gaze is not None and t_body is not None
        assert (t_body - t_gaze) * 0.1 >= 0.3

    def test_anticipation_ordering(self, noise_free):
        # gaze crossing <= head crossing <= body crossing, strict for strict leads.
        params = HumanWalkerParams(gaze_lead_s=0.8, head_lead_s=0.4)
        session = simulate_human(_l_shape(), params, 15.0)
        head_yaws = [heading_and_rotate(p.orientation)[0] for p in session.messages]
        gaze_yaws = [math.atan2(g[1], g[0]) for g in _world_gaze(session)]
        pos = np.array([p.position[:2] for p in session.messages])
        course = np.arctan2(np.diff(pos[:, 1]), np.diff(pos[:, 0]))
        mid = math.pi / 4
        t_gaze = _first_crossing(gaze_yaws, mid)
        t_head = _first_crossing(head_yaws, mid)
        t_body = _first_crossing(course, mid)
        assert t_gaze < t_head < t_body

    def test_stays_inside_corridor(self):
        corridor = CorridorMap(
            np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [16.0, 8.0]]), 2.4
        )
        session = simulate_human(corridor, HumanWalkerParams(seed=5), 60.0)
        for msg in session.messages:
            _, lateral = corridor.project(msg.position[:2])
            assert abs(lateral) <= corridor.width / 2 + EPS

    def test_samples_pass_wire_invariants(self):
        session = simulate_human(_l_shape(), HumanWalkerParams(seed=9), 12.0)
        for msg in session.messages:
            assert abs(np.linalg.norm(msg.orientation) - 1.0) < 1e-9
            assert abs(np.linalg.norm(msg.gaze_local) - 1.0) < 1e-9

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_human(_straight(), HumanWalkerParams(), 2.0)

    # (map seed, width, HEADING_NOISE_STD, seed) of a 30 s walk on a corridor
    # squeezed so narrow that the walker hits the walls, and the SHA-256 of
    # its saved session, recorded before the walker kept its projection
    # between steps. Map seed None is BASE_MAP's own centerline. On its axis-
    # aligned segments a clamped point projects to the same bits as the point
    # before the clamp; on the jittered variant it often does not, so only
    # the last walk pins that the projection is taken again after a clamp.
    WALL_CLAMP_WALKS = [
        (None, 0.6, 0.3, 3, "117a16e68e06837aba63a24d057ead4e5d3870489d42bc596bd4dccf0ff3bf60"),
        (None, 0.45, 1.0, 4, "60224aaf47feeb20ddf6b84a8fd24fef08ec2aea1bcc9937a1ee7c3ac178d49f"),
        (None, 0.5, 0.3, 5, "76f3148f761a5e3388ece195505fae71786488dd5813442389e3a1541a96ea8f"),
        (3, 0.45, 0.3, 3, "a01912adcdc3bdf2d22f04143ac7af4c4710709c47890514360dabd19854bcbc"),
    ]

    @staticmethod
    def _narrow_walk(monkeypatch, map_seed, width, noise, seed):
        base = BASE_MAP if map_seed is None else map_variant(map_seed)
        corridor = CorridorMap(base.centerline, width)
        monkeypatch.setattr(simulate, "HEADING_NOISE_STD", noise)
        return corridor, simulate_human(corridor, HumanWalkerParams(seed=seed), 30.0)

    @pytest.mark.parametrize("map_seed,width,noise,seed,digest", WALL_CLAMP_WALKS)
    def test_wall_clamped_walk_pinned(self, tmp_path, monkeypatch, map_seed, width, noise, seed,
                                      digest):
        corridor, session = self._narrow_walk(monkeypatch, map_seed, width, noise, seed)
        max_lat = width / 2 - WALL_MARGIN_M
        at_wall = sum(abs(abs(corridor.project(msg.position[:2])[1]) - max_lat) < 1e-9
                      for msg in session.messages)
        assert at_wall >= 30  # the clamp branch ran
        save_session(session, tmp_path / "walk.fcs")
        assert hashlib.sha256((tmp_path / "walk.fcs").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("map_seed,width,noise,seed", [
        (None, BASE_MAP.width, 0.05, 0), *(walk[:4] for walk in WALL_CLAMP_WALKS)])
    def test_one_projection_per_step(self, monkeypatch, map_seed, width, noise, seed):
        # A step projects the walker's new point once for the wall check and
        # steering reuses it; only a clamped point is projected again. The
        # clamp branch is the only caller of tangent_at after the start.
        counts = {"project": 0, "tangent_at": 0}
        for name in counts:
            real = getattr(CorridorMap, name)

            def counting(self, arg, real=real, name=name):
                counts[name] += 1
                return real(self, arg)
            monkeypatch.setattr(CorridorMap, name, counting)
        _corridor, session = self._narrow_walk(monkeypatch, map_seed, width, noise, seed)
        clamps = counts["tangent_at"] - 1
        assert counts["project"] <= len(session.messages) + clamps + 1
        assert (clamps > 0) == (width < BASE_MAP.width)

    def test_degenerate_map_rejected(self):
        tiny = CorridorMap(np.array([[0.0, 0.0], [0.5, 0.0]]), 2.0)
        with pytest.raises(GenerationError):
            simulate_human(tiny, HumanWalkerParams(), 10.0)

    def test_lead_ordering_enforced(self):
        with pytest.raises(ValueError):
            HumanWalkerParams(gaze_lead_s=0.2, head_lead_s=0.5)

    @pytest.mark.parametrize("field,value", [
        ("head_lead_s", math.nan), ("head_lead_s", -0.01), ("gaze_lead_s", math.inf),
    ])
    def test_walker_params_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HumanWalkerParams(**{field: value})


class TestSimulateRobot:
    RIGHT_ANGLE = CorridorMap(np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0]]), 2.6)
    RIGHT_ANGLE_ROUTE = ((0.0, 0.0), (8.0, 0.0), (8.0, 8.0))

    def test_straight_run_reaches_goal(self):
        # Oracle: kinematic integration check on the trace.
        session = simulate_robot(_straight(12.0), ((0.0, 0.0), (10.0, 0.0)), 25.0)
        pos = np.array([p.position[:2] for p in session.messages])
        speeds = np.array([m.linear_speed for m in session.messages])
        assert np.linalg.norm(pos[-1] - [10.0, 0.0]) < 0.05
        assert speeds.max() <= ROBOT_CRUISE_SPEED + EPS

    def test_short_duration_rejected(self):
        # Like a walker, a robot session must hold at least one window.
        route = ((0.0, 0.0), (10.0, 0.0))
        for duration in (0.04, 1.0, MIN_SESSION_DURATION_S - 0.01):
            with pytest.raises(ValueError, match="duration"):
                simulate_robot(_straight(), route, duration)
        with pytest.raises(ValueError, match="duration"):
            generate_corpus(CorpusConfig(n_human=0, n_robot=6, duration_s=1.0, seed=0))
        assert len(simulate_robot(_straight(), route, MIN_SESSION_DURATION_S).messages) == 60

    def test_empty_waypoints_rejected(self):
        # A route is a start and at least one goal.
        for route in ((), ((0.0, 0.0),)):
            with pytest.raises(GenerationError, match="two waypoints"):
                simulate_robot(_straight(), route, 10.0)

    def test_right_angle_respects_yaw_limit(self):
        # Oracle: finite-difference yaw over the trace.
        session = simulate_robot(self.RIGHT_ANGLE, self.RIGHT_ANGLE_ROUTE, 40.0)
        headings = [heading_and_rotate(p.orientation)[0] for p in session.messages]
        for a, b in zip(headings, headings[1:]):
            assert abs(wrap_angle(b - a)) <= ROBOT_MAX_YAW_RATE * 0.1 + EPS
        for msg in session.messages:
            assert abs(msg.yaw_rate) <= ROBOT_MAX_YAW_RATE + EPS
        # The corner turns at the limit, so the bound is the clamp's doing.
        assert max(abs(msg.yaw_rate) for msg in session.messages) == ROBOT_MAX_YAW_RATE

    def test_speed_slew_bounded(self):
        session = simulate_robot(self.RIGHT_ANGLE, self.RIGHT_ANGLE_ROUTE, 40.0)
        speeds = [m.linear_speed for m in session.messages]
        for a, b in zip(speeds, speeds[1:]):
            assert abs(b - a) <= ROBOT_MAX_ACCEL * 0.1 + EPS
        # Pulling away from rest speeds up at the limit.
        assert speeds[1] - speeds[0] == pytest.approx(ROBOT_MAX_ACCEL * 0.1, abs=EPS)

    def test_waypoint_outside_corridor_rejected(self):
        with pytest.raises(GenerationError, match="waypoint 1"):
            simulate_robot(_straight(), ((0.0, 0.0), (5.0, 9.0)), 10.0)

    def test_unreachable_waypoint_stalls(self):
        # Past (8, 0) the robot slows to its turning speed of 0.25 m/s, which
        # at its yaw limit is a circle of 0.25 m radius. The last goal lies
        # inside that circle, 0.11 m from it at best, so the robot orbits the
        # goal without ever capturing it until the stall check fires.
        route = ((5.0, 0.0), (8.0, 0.0), (8.2, 0.3))
        with pytest.raises(GenerationError, match="unreachable"):
            simulate_robot(_straight(30.0), route, 120.0)


def _corpus_digest(config, directory):
    directory.mkdir()
    digest = hashlib.sha256()
    for session in generate_corpus(config):
        path = directory / f"{session.session_id}.fcs"
        save_session(session, path)
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestCorpus:
    def test_deterministic_byte_identical(self, tmp_path):
        config = CorpusConfig(n_human=4, n_robot=2, duration_s=20.0, seed=3)
        assert _corpus_digest(config, tmp_path / "a") == _corpus_digest(config, tmp_path / "b")

    def test_total_frame_arithmetic(self):
        # 30 sessions x 180 s = 90 min at 10 Hz -> 54,000 frames.
        config = CorpusConfig(n_human=20, n_robot=10, duration_s=180.0, seed=1)
        sessions = generate_corpus(config)
        assert sum(len(s.messages) for s in sessions) == 54_000

    def test_variants_differ_by_jitter(self):
        maps = corpus_maps(11)
        assert len(maps) == N_MAP_VARIANTS
        for variant in maps:
            delta = np.abs(variant.centerline - BASE_MAP.centerline)
            assert delta[0].max() == 0.0 and delta[-1].max() == 0.0  # endpoints fixed
            assert delta[1:-1].max() <= CORNER_JITTER_M + EPS
            assert abs(variant.width - BASE_MAP.width) <= WIDTH_JITTER_M + EPS
        interiors = [tuple(m.centerline[1:-1].ravel()) for m in maps]
        assert len(set(interiors)) == len(maps)  # actually different

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(n_human=2, n_robot=1))

    def test_config_round_trip(self):
        config = CorpusConfig(n_human=8, n_robot=4, duration_s=30.0, seed=21)
        raw = config.to_dict()
        assert raw == {"n_human": 8, "n_robot": 4, "duration_s": 30.0, "seed": 21}
        assert CorpusConfig.from_dict(raw) == config

    @pytest.mark.parametrize("field,value", [
        ("n_human", -3), ("n_human", 6.5), ("n_human", True), ("n_robot", "4"),
        ("n_robot", None), ("duration_s", math.nan), ("duration_s", math.inf),
        ("duration_s", -1.0), ("duration_s", 0.0), ("duration_s", "60"), ("duration_s", False),
        ("duration_s", 3600.5), ("duration_s", 1e7), ("duration_s", 5.99), ("n_robot", 1),
        ("n_human", 99), ("n_human", 10 ** 9),
        ("seed", 1.5), ("seed", "7"), ("seed", -1), ("seed", None),
    ])
    def test_config_rejects_bad_values(self, field, value):
        # Each of these used to fail later and elsewhere, or not at all: a
        # negative count in a session id, 6.5 in range(), NaN in int(), and
        # a negative duration with robots made empty sessions.
        raw = {"n_human": 4, "n_robot": 2, "duration_s": 20.0, "seed": 3, field: value}
        with pytest.raises(ConfigError, match=field):
            CorpusConfig(**raw)
        with pytest.raises(ConfigError, match=field):
            CorpusConfig.from_dict(raw)

    def test_every_config_that_constructs_generates(self):
        # generate_corpus refused these configs, which constructed.
        for raw in ((2, 1, 3.0, 0), (0, 6, 1.0, 0), (10 ** 9, 0, 8.0, 0)):
            with pytest.raises(ConfigError):
                CorpusConfig(*raw)
        for raw in ((6, 0, MIN_SESSION_DURATION_S, 0), (0, 6, MIN_SESSION_DURATION_S, 1)):
            assert len(generate_corpus(CorpusConfig(*raw))) == 6
        assert CorpusConfig(simulate.MAX_CORPUS_SESSIONS - 1, 1).n_human == 99

    def test_duration_bounded_before_any_draw(self, monkeypatch):
        # A walker draws two normals per frame up front, so the duration
        # alone sets a session's work; past the bound nothing is drawn.
        def no_draw(*args):
            raise AssertionError("random numbers drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        too_long = simulate.MAX_SESSION_DURATION_S + 0.1
        for run in (lambda: simulate_human(_straight(), HumanWalkerParams(), too_long),
                    lambda: simulate_robot(_straight(), ((0.0, 0.0), (10.0, 0.0)), too_long)):
            with pytest.raises(ValueError, match="duration"):
                run()
        with pytest.raises(ConfigError, match="duration_s"):
            CorpusConfig(duration_s=too_long)

    @pytest.mark.parametrize("key", ["n_human", "n_robot", "duration_s", "seed"])
    def test_config_missing_key(self, key):
        raw = CorpusConfig(n_human=8, n_robot=4, duration_s=30.0, seed=21).to_dict()
        del raw[key]
        with pytest.raises(ConfigError, match=f"{key}.*missing"):
            CorpusConfig.from_dict(raw)

    def test_config_unknown_key(self):
        raw = {**CorpusConfig().to_dict(), "n_companions": 2}
        with pytest.raises(ConfigError, match="n_companions.*unknown"):
            CorpusConfig.from_dict(raw)

    def test_mutated_config_dicts_raise_only_config_error(self):
        # Seeded mutations of a config dict (1-3 values swapped for hostile
        # ones, a key dropped or added): each builds a config inside the
        # bounds generate_corpus checks, or raises ConfigError.
        hostile = [-1, 0, 1, 5, 6, 99, 100, 10 ** 9, 10 ** 400, 5.99, 6.0, 3600.0, 3600.5,
                   1e308, math.nan, math.inf, -math.inf, True, False, None, "8", [], {}]
        base = CorpusConfig(n_human=4, n_robot=2, duration_s=20.0, seed=3).to_dict()
        keys = list(base)
        rng = np.random.default_rng(23)
        outcomes = {"built": 0, "refused": 0}
        for _ in range(2000):
            raw = dict(base)
            for _ in range(int(rng.integers(1, 4))):
                key = keys[int(rng.integers(0, len(keys)))]
                pick = int(rng.integers(0, 10))
                if pick == 0:
                    raw.pop(key, None)
                elif pick == 1:
                    raw[key + "_extra"] = 1
                else:
                    raw[key] = hostile[int(rng.integers(0, len(hostile)))]
            try:
                config = CorpusConfig.from_dict(raw)
            except ConfigError:
                outcomes["refused"] += 1
                continue
            outcomes["built"] += 1
            assert 6 <= config.n_human + config.n_robot <= simulate.MAX_CORPUS_SESSIONS, raw
            assert MIN_SESSION_DURATION_S <= config.duration_s <= simulate.MAX_SESSION_DURATION_S
        assert min(outcomes.values()) > 100, outcomes

    @pytest.mark.parametrize("raw", [[8, 4, 30.0, 21], "n_human=8", None])
    def test_config_not_a_dict(self, raw):
        with pytest.raises(ConfigError, match="must be a dict"):
            CorpusConfig.from_dict(raw)

    def test_config_accepts_whole_seconds(self):
        assert len(generate_corpus(CorpusConfig(n_human=0, n_robot=6, duration_s=6, seed=0))) == 6

    def test_session_ids_and_kinds(self):
        config = CorpusConfig(n_human=4, n_robot=3, duration_s=12.0, seed=2)
        sessions = generate_corpus(config)
        assert [s.session_id for s in sessions] == list(range(1, 8))
        assert [s.agent_kind for s in sessions] == ["human"] * 4 + ["robot"] * 3

    def test_map_variant_determinism(self):
        a = map_variant(4)
        b = map_variant(4)
        assert np.array_equal(a.centerline, b.centerline)
        assert a.width == b.width
