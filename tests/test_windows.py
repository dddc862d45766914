"""Windowing and session-level split hygiene."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fusioncast.errors import ConfigError
from fusioncast.geometry import AgentState
from fusioncast.sessions import AlignedFrame
from fusioncast.windows import (
    DEFAULT_STRIDE,
    HORIZON_FRAMES,
    OBS_FRAMES,
    DatasetSplit,
    FeatureConfig,
    TrajectoryWindow,
    segment,
    split_sessions,
)


def _frames(n, gaps=(), with_gaze=True):
    out = []
    for i in range(n):
        gap = i in gaps
        out.append(AlignedFrame(
            timestamp_us=i * 100_000,
            state=None if gap else AgentState(0.1 * i, 0.0, 0.0),
            gaze_world=None if (gap or not with_gaze) else np.array([1.0, 0.0, 0.0]),
            is_gap=gap,
        ))
    return out


class TestSegment:
    def test_exactly_one_window(self):
        windows = segment(_frames(60), 1, FeatureConfig.POSE_HEAD_GAZE)
        assert len(windows) == 1
        w = windows[0]
        assert len(w.observed) == OBS_FRAMES
        assert len(w.future) == HORIZON_FRAMES
        assert w.start_index == 0

    def test_120_frames_stride_10(self):
        # Oracle: enumerate all offsets and check bounds.
        frames = _frames(120)
        expected = [s for s in range(0, 120, DEFAULT_STRIDE) if s + 60 <= 120]
        windows = segment(frames, 1, FeatureConfig.POSE_HEAD_GAZE)
        assert [w.start_index for w in windows] == expected
        assert len(windows) == 7

    def test_gap_splits_runs(self):
        # Oracle: exhaustive validity check per offset.
        frames = _frames(120, gaps={70})
        windows = segment(frames, 1, FeatureConfig.POSE_HEAD_GAZE)
        starts = {w.start_index for w in windows}
        for w in windows:
            span = range(w.start_index, w.start_index + 60)
            assert 70 not in span
        valid_starts = set()
        for run_start, run_end in ((0, 70), (71, 120)):
            s = run_start
            while s + 60 <= run_end:
                valid_starts.add(s)
                s += DEFAULT_STRIDE
        assert starts == valid_starts

    def test_too_short_returns_empty(self):
        assert segment(_frames(59), 1, FeatureConfig.POSE_HEAD_GAZE) == []

    def test_timestamps_form_arithmetic_sequence(self):
        for w in segment(_frames(200), 1, FeatureConfig.POSE_HEAD_GAZE):
            ts = [f.timestamp_us for f in w.observed + w.future]
            assert all(b - a == 100_000 for a, b in zip(ts, ts[1:]))

    def test_pure_function_same_output(self):
        frames = _frames(150, gaps={80, 81})
        a = segment(frames, 1, FeatureConfig.POSE_HEAD_GAZE)
        b = segment(frames, 1, FeatureConfig.POSE_HEAD_GAZE)
        assert [(w.start_index, w.observed[0].state.x) for w in a] == \
               [(w.start_index, w.observed[0].state.x) for w in b]

    def test_count_formula_random_runs(self):
        # Gap-free runs of random lengths, one gap frame between neighbours.
        rng = np.random.default_rng(5)
        span = OBS_FRAMES + HORIZON_FRAMES
        for _ in range(50):
            runs = rng.integers(0, 200, size=int(rng.integers(1, 5)))
            gaps = set(np.cumsum(runs + 1)[:-1] - 1)
            windows = segment(_frames(int(runs.sum()) + len(gaps), gaps=gaps), 1,
                              FeatureConfig.POSE_HEAD_GAZE)
            expected = sum((n - span) // DEFAULT_STRIDE + 1 for n in runs if n >= span)
            assert len(windows) == expected


class TestSplit:
    def test_exact_division(self):
        split = split_sessions(range(10), (0.8, 0.1, 0.1), seed=0)
        assert len(split.train) == 8
        assert len(split.validation) == 1
        assert len(split.test) == 1

    def test_deterministic(self):
        a = split_sessions(range(20), (0.7, 0.15, 0.15), seed=42)
        b = split_sessions(range(20), (0.7, 0.15, 0.15), seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = split_sessions(range(40), (0.7, 0.15, 0.15), seed=1)
        b = split_sessions(range(40), (0.7, 0.15, 0.15), seed=2)
        assert a.train != b.train

    def test_disjoint_over_100_seeds(self):
        ids = list(range(17))
        for seed in range(100):
            split = split_sessions(ids, (0.6, 0.2, 0.2), seed=seed)
            train, val, test = set(split.train), set(split.validation), set(split.test)
            assert not train & val and not train & test and not val & test
            assert train | val | test == set(ids)

    def test_nonzero_buckets_never_empty(self):
        for n in range(3, 12):
            split = split_sessions(range(n), (0.8, 0.1, 0.1), seed=3)
            assert split.train and split.validation and split.test

    def test_rounding_favors_train(self):
        split = split_sessions(range(5), (1 / 3, 1 / 3, 1 / 3), seed=0)
        assert len(split.train) == 2
        assert len(split.validation) == 2
        assert len(split.test) == 1

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            split_sessions(range(10), (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [
        (0.5, 0.5), (0.5, 0.5, 0.0, 0.0), (math.nan, 0.5, 0.5), ("0.6", "0.2", "0.2"),
    ], ids=["two", "four", "nan", "strings"])
    def test_ratios_must_be_three_finite_numbers(self, ratios):
        with pytest.raises(ConfigError, match="three finite numbers"):
            split_sessions(range(10), ratios, seed=0)

    def test_too_few_sessions_rejected(self):
        with pytest.raises(ConfigError):
            split_sessions([1, 2], (0.8, 0.1, 0.1), seed=0)

    @pytest.mark.parametrize("seed", [1.5, "7", True, None], ids=["float", "string", "bool", "none"])
    def test_seed_must_be_an_int(self, seed):
        # random.Random takes all four, but the split would record a seed it
        # did not shuffle with: int(1.5) is 1, whose split differs.
        with pytest.raises(ConfigError, match="seed must be an int"):
            split_sessions(range(1, 11), (0.6, 0.2, 0.2), seed=seed)

    def test_recorded_seed_reproduces_the_split(self):
        for seed in (0, 7, 2**70, -3):
            split = split_sessions(range(1, 11), (0.6, 0.2, 0.2), seed)
            assert split.seed == seed
            assert split_sessions(range(1, 11), split.ratios, split.seed) == split

    def test_json_round_trip(self):
        split = split_sessions(range(12), (0.5, 0.25, 0.25), seed=9)
        assert DatasetSplit.from_json(split.to_json()) == split

    def test_json_bytes_pinned(self):
        text = split_sessions(range(12), (0.5, 0.25, 0.25), seed=9).to_json()
        assert text == (
            '{\n  "ratios": [\n    0.5,\n    0.25,\n    0.25\n  ],\n  "seed": 9,\n'
            '  "test": [\n    5,\n    9,\n    7\n  ],\n'
            '  "train": [\n    8,\n    6,\n    3,\n    11,\n    0,\n    10\n  ],\n'
            '  "validation": [\n    1,\n    2,\n    4\n  ]\n}'
        )

    def test_mutated_json_raises_only_config_error(self):
        # Seeded mutations of a split file: half swap one value, or one
        # element of a list, for a hostile JSON value; half change 1-4
        # characters to random ASCII, a fifth of those also cut short. Each
        # loads or raises ConfigError, nothing else.
        raw = json.loads(split_sessions(range(12), (0.5, 0.25, 0.25), seed=9).to_json())
        hostile = [-1, 0, 1, 7, 12, 0.25, 0.5, -0.0, 1e308, math.nan, math.inf, True, False,
                   None, "x", [], [1, 2], {}]
        rng = np.random.default_rng(31)
        outcomes = {"loaded": 0, "refused": 0}
        for _ in range(2000):
            edited = json.loads(json.dumps(raw))
            key = list(edited)[int(rng.integers(0, len(edited)))]
            value = hostile[int(rng.integers(0, len(hostile)))]
            if rng.integers(0, 2):
                if isinstance(edited[key], list) and edited[key] and rng.integers(0, 2):
                    edited[key][int(rng.integers(0, len(edited[key])))] = value
                else:
                    edited[key] = value
                text = json.dumps(edited)
            else:
                chars = list(json.dumps(edited))
                for pos in rng.integers(0, len(chars), size=int(rng.integers(1, 5))):
                    chars[int(pos)] = chr(int(rng.integers(0, 128)))
                if rng.integers(0, 5) == 0:
                    chars = chars[:int(rng.integers(0, len(chars)))]
                text = "".join(chars)
            try:
                DatasetSplit.from_json(text)
            except ConfigError:
                outcomes["refused"] += 1
            else:
                outcomes["loaded"] += 1
        assert min(outcomes.values()) > 50, outcomes

    @pytest.mark.parametrize("change,message", [
        ({"ratios": [0.5, "x"]}, "three finite numbers"),
        ({"ratios": [0.5, 0.5]}, "three finite numbers"),
        ({"ratios": [0.5, "x", 0.5]}, "three finite numbers"),
        ({"ratios": "abc"}, "three finite numbers"),
        ({"ratios": [0.5, 0.5, 0.5]}, "sum to 1"),
        ({"ratios": [1.5, -0.5, 0.0]}, "nonnegative"),
        ({"seed": "abc"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        # A whole file's text: cut short, nested past the recursion limit, and
        # a seed past Python's int-string digit limit.
        ('{"seed": 9,', "JSON"),
        ("[" * 200_000 + "]" * 200_000, "JSON"),
        ('{"seed": ' + "7" * 5000 + "}", "JSON"),
    ], ids=["two_with_string", "two", "string", "string_of_three", "sum", "negative",
            "seed_string", "seed_float", "seed_bool", "malformed", "nested", "seed_5000_digits"])
    def test_from_json_applies_split_checks(self, change, message):
        raw = json.loads(split_sessions(range(12), (0.5, 0.25, 0.25), seed=9).to_json())
        text = change if isinstance(change, str) else json.dumps({**raw, **change})
        with pytest.raises(ConfigError, match=message):
            DatasetSplit.from_json(text)

    @pytest.mark.parametrize("key,ids", [
        ("train", ["a"]), ("validation", [1.5]), ("test", [True]), ("train", [[1, 2]]),
        ("test", 7),
    ], ids=["string", "float", "bool", "nested", "not_a_list"])
    def test_from_json_rejects_non_int_ids(self, key, ids):
        raw = json.loads(split_sessions(range(12), (0.5, 0.25, 0.25), seed=9).to_json())
        with pytest.raises(ConfigError, match=key):
            DatasetSplit.from_json(json.dumps({**raw, key: ids}))

    @pytest.mark.parametrize("key", ["train", "validation", "test", "ratios", "seed"])
    def test_from_json_missing_key(self, key):
        raw = json.loads(split_sessions(range(12), (0.5, 0.25, 0.25), seed=9).to_json())
        del raw[key]
        with pytest.raises(ConfigError, match=key):
            DatasetSplit.from_json(json.dumps(raw))

    def test_from_json_not_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            DatasetSplit.from_json(json.dumps([[1], [2], [3], [0.5, 0.25, 0.25], 9]))


class TestTrajectoryWindow:
    def test_requires_observed(self):
        for n in (0, OBS_FRAMES - 1, OBS_FRAMES + 1):
            with pytest.raises(ValueError, match="observed frames"):
                TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY, observed=tuple(_frames(n)))

    def test_live_window_future_optional(self):
        frames = tuple(_frames(20))
        w = TrajectoryWindow(1, 0, FeatureConfig.POSE_HEAD_GAZE, observed=frames)
        assert w.future == ()

    def test_rows_read_from_frames_on_first_use(self):
        frames = tuple(_frames(21))
        w = TrajectoryWindow(1, 0, FeatureConfig.POSE_HEAD_GAZE, frames[:20], frames[20:])
        rows = w.rows()
        assert rows.shape == (21, 5) and w.rows() is rows
        assert rows[:, 0].tolist() == [f.state.x for f in frames]
        assert rows[:, 3:].tolist() == [[1.0, 0.0]] * 21
        assert not rows.flags.writeable
        pose = TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY, frames[:20])
        assert pose.rows().shape == (20, 3)

    def test_rows_are_not_part_of_equality_or_repr(self):
        w = segment(_frames(60), 1, FeatureConfig.POSE_ONLY)[0]
        built = TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY, w.observed, w.future)
        assert built == w
        assert repr(built) == repr(w) and "_rows" not in repr(w)

    def test_equal_windows_hash_alike(self):
        frames = _frames(120)
        first = segment(frames, 1, FeatureConfig.POSE_ONLY)
        again = segment(frames, 1, FeatureConfig.POSE_ONLY)
        assert len(first) > 1 and first == again
        assert [hash(w) for w in first] == [hash(w) for w in again]
        assert len(set(first) | set(again)) == len(first)
        assert hash(first[0]) == hash((1, 0, FeatureConfig.POSE_ONLY))

    def test_missing_gaze_raises_on_first_use(self):
        frames = tuple(_frames(20, with_gaze=False))
        w = TrajectoryWindow(1, 0, FeatureConfig.POSE_HEAD_GAZE, frames)
        with pytest.raises(ConfigError, match="no gaze channel"):
            w.rows()

    def test_windows_of_one_run_share_one_array(self):
        frames = _frames(100, gaps=(75,))
        windows = segment(frames, 1, FeatureConfig.POSE_ONLY)
        assert [w.start_index for w in windows] == [0, 10]
        first, second = (w.rows() for w in windows)
        assert np.shares_memory(first, second)
        assert first[DEFAULT_STRIDE:].tobytes() == second[:-DEFAULT_STRIDE].tobytes()

    def test_rows_hold_the_floats_of_the_cut(self):
        w = segment(_frames(60), 1, FeatureConfig.POSE_ONLY)[0]
        before = w.rows().tobytes()
        w.observed[5].state = AgentState(9.0, *w.observed[5].state[1:])
        assert w.rows().tobytes() == before
        assert TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY, w.observed).rows()[5, 0] == 9.0

    def test_replace_reads_the_new_frames(self):
        w = segment(_frames(60), 1, FeatureConfig.POSE_ONLY)[0]
        shifted = tuple(replace(f, state=AgentState(f.state.x + 1.0, 0.0, 0.0)) for f in w.observed)
        moved = replace(w, observed=shifted)
        assert moved.rows()[:OBS_FRAMES, 0].tolist() == [f.state.x for f in shifted]
        assert moved.rows()[OBS_FRAMES:].tobytes() == w.rows()[OBS_FRAMES:].tobytes()
