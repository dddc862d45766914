"""Batched evaluation against a per-window reference written in plain loops."""

import math
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fusioncast.errors import ConfigError
from fusioncast.geometry import AgentState
from fusioncast.metrics import KDE_BANDWIDTH_FLOOR, KDE_DENSITY_FLOOR, SCOTT_EXPONENT, evaluate
from fusioncast.predictors import (
    ConstantVelocityPredictor,
    ensemble_jitter,
    fit_ridge,
    window_arrays,
)
from fusioncast.sessions import AlignedFrame, resample
from fusioncast.simulate import CorpusConfig, generate_corpus
from fusioncast.windows import HORIZON_FRAMES, OBS_FRAMES, FeatureConfig, TrajectoryWindow, segment

CONFIGS = (FeatureConfig.POSE_ONLY, FeatureConfig.POSE_HEAD_GAZE)
RTOL = 1e-12


def _line_window(y_future, dx=0.1):
    """A walk along +x at a constant step whose future is shifted by ``y_future``."""
    frames = [AlignedFrame(i * 100_000, AgentState(dx * i, y_future * (i >= OBS_FRAMES), 0.0))
              for i in range(OBS_FRAMES + HORIZON_FRAMES)]
    return TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY, tuple(frames[:OBS_FRAMES]),
                            tuple(frames[OBS_FRAMES:]))


def _gaussian_nll(truth, centre, bw):
    """-log of an axis-aligned 2-D Gaussian density with std ``bw``."""
    dx = (truth.x - centre.x) / bw[0]
    dy = (truth.y - centre.y) / bw[1]
    return math.log(2.0 * math.pi * bw[0] * bw[1]) + 0.5 * (dx * dx + dy * dy)


class TestKdeNll:
    def test_single_member_needs_bandwidth(self):
        # Scott's rule takes the bandwidth from the members' spread.
        with pytest.raises(ValueError, match="bandwidth needs K >= 2"):
            evaluate(ConstantVelocityPredictor(FeatureConfig.POSE_ONLY), [_line_window(0.0)],
                     FeatureConfig.POSE_ONLY, k=1)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_ensemble_size_checked_before_forecasting(self, k):
        class CountingPredictor:
            feature_config = FeatureConfig.POSE_ONLY
            calls = 0

            def forecast(self, pos, theta, gaze):
                self.calls += 1
                return ConstantVelocityPredictor(self.feature_config).forecast(pos, theta, gaze)

        predictor = CountingPredictor()
        with pytest.raises(ValueError, match="bandwidth needs K >= 2"):
            evaluate(predictor, [_line_window(0.0)] * 4, FeatureConfig.POSE_ONLY, k=k)
        assert predictor.calls == 0

    def test_degenerate_ensemble_warns_and_uses_floor(self):
        # sigma = 0 gives K identical members, so every step takes the floor.
        windows = [_line_window(0.002), _line_window(-0.001, dx=0.12)]
        cv = ConstantVelocityPredictor(FeatureConfig.POSE_ONLY)
        floor = (KDE_BANDWIDTH_FLOOR, KDE_BANDWIDTH_FLOOR)
        expected = np.mean([
            np.mean([_gaussian_nll(f.state, s, floor) for f, s in zip(w.future, cv.predict(w))])
            for w in windows
        ])
        with pytest.warns(RuntimeWarning, match="80 of 80"):
            report = evaluate(cv, windows, FeatureConfig.POSE_ONLY, k=4, sigma=0.0)
        assert report.kde_nll == pytest.approx(expected, rel=RTOL)


@pytest.fixture(scope="module")
def corpus_windows():
    sessions = generate_corpus(CorpusConfig(n_human=8, n_robot=0, duration_s=24.0, seed=3))
    frames = {s.session_id: resample(s).frames for s in sessions}
    return {config: [w for sid, f in frames.items() for w in segment(f, sid, config)]
            for config in CONFIGS}


def _predictors(config, windows):
    return {"cv": ConstantVelocityPredictor(config),
            "ridge": fit_ridge(windows, config, lam=1.0)}


def _kde_nll_loop(members, truth):
    """Mean over steps of -log KDE density of the truth, one step and one
    member at a time: members are K lists of (x, y), truth one list."""
    k, total = len(members), 0.0
    for step, (tx, ty) in enumerate(truth):
        xs = [m[step][0] for m in members]
        ys = [m[step][1] for m in members]
        bx = max(statistics.stdev(xs) * k ** SCOTT_EXPONENT, KDE_BANDWIDTH_FLOOR)
        by = max(statistics.stdev(ys) * k ** SCOTT_EXPONENT, KDE_BANDWIDTH_FLOOR)
        density = 0.0
        for x, y in zip(xs, ys):
            u, v = (x - tx) / bx, (y - ty) / by
            density += math.exp(-0.5 * (u * u + v * v)) / (2.0 * math.pi * bx * by)
        total -= math.log(max(density / k, KDE_DENSITY_FLOOR))
    return total / len(truth)


def _reference_evaluate(predictor, windows, k, sigma, seed):
    """One window at a time: its forecast, its K jittered forecasts and their
    scores in plain loops, reduced in window order."""
    curve_sum, window_ades, nlls = None, [], []
    for idx, window in enumerate(windows):
        pos, theta, gaze, future = window_arrays([window], predictor.feature_config, future=True)
        truth = future[0].tolist()
        pred = predictor.forecast(pos, theta, gaze)[0].tolist()
        steps = np.array([math.hypot(px - tx, py - ty) for (px, py), (tx, ty) in zip(pred, truth)])
        curve_sum = steps if curve_sum is None else curve_sum + steps
        window_ades.append(float(steps.mean()))
        jittered = pos[0] + ensemble_jitter((seed, idx), k, sigma)
        nlls.append(_kde_nll_loop(predictor.forecast(jittered, theta, gaze).tolist(), truth))
    window_ades = np.array(window_ades)
    curve = curve_sum / len(windows)
    return {"ade": window_ades.mean(), "fde": curve[-1], "ade_variance": window_ades.var(),
            "kde_nll": np.mean(nlls), "displacement_curve": curve}


class TestEvaluate:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.value)
    @pytest.mark.parametrize("name", ["cv", "ridge"])
    @pytest.mark.parametrize("sigma", [0.05, 0.0])
    def test_matches_per_window_loop(self, corpus_windows, config, name, sigma):
        windows = corpus_windows[config]
        predictor = _predictors(config, windows)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sigma = 0 is degenerate
            report = evaluate(predictor, windows, config, k=8, sigma=sigma, seed=5)
            expected = _reference_evaluate(predictor, windows, 8, sigma, 5)
        for key, value in expected.items():
            np.testing.assert_allclose(getattr(report, key), value, rtol=RTOL, atol=0)

    def test_degenerate_warning_once_with_count(self, corpus_windows):
        config = FeatureConfig.POSE_ONLY
        windows = corpus_windows[config]
        pairs = len(windows) * len(windows[0].future)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate(ConstantVelocityPredictor(config), windows, config, k=4, sigma=0.0)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1 and f"{pairs} of {pairs}" in messages[0]

    def test_same_seed_byte_identical(self, corpus_windows):
        config = FeatureConfig.POSE_HEAD_GAZE
        windows = corpus_windows[config]
        model = fit_ridge(windows, config, lam=1.0)
        a = evaluate(model, windows, config, k=6, seed=9).to_json()
        b = evaluate(model, windows, config, k=6, seed=9).to_json()
        assert a == b
        assert a != evaluate(model, windows, config, k=6, seed=10).to_json()

    def test_gaze_cannot_leak_into_pose_only_forecasts(self, corpus_windows):
        # Every frame's gaze replaced by a random unit vector: pose-only fits
        # and reports must not change by a single bit.
        config = FeatureConfig.POSE_ONLY
        windows = corpus_windows[config]
        rng = np.random.default_rng(8)

        def scramble(frames):
            gaze = rng.normal(size=(len(frames), 3))
            gaze /= np.linalg.norm(gaze, axis=1, keepdims=True)
            return tuple(replace(f, gaze_world=tuple(g)) for f, g in zip(frames, gaze.tolist()))

        scrambled = [replace(w, observed=scramble(w.observed), future=scramble(w.future))
                     for w in windows]

        def reports(ws):
            predictors = (ConstantVelocityPredictor(config), fit_ridge(ws, config, lam=1.0))
            return [evaluate(p, ws, config, k=8, seed=2).to_json() for p in predictors]

        assert reports(scrambled) == reports(windows)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            evaluate(ConstantVelocityPredictor(FeatureConfig.POSE_ONLY), [],
                     FeatureConfig.POSE_ONLY)

    def test_rejects_config_mismatch(self, corpus_windows):
        pose = corpus_windows[FeatureConfig.POSE_ONLY]
        gaze_cv = ConstantVelocityPredictor(FeatureConfig.POSE_HEAD_GAZE)
        with pytest.raises(ConfigError):
            evaluate(gaze_cv, pose, FeatureConfig.POSE_HEAD_GAZE)
        with pytest.raises(ConfigError):
            evaluate(gaze_cv, pose, FeatureConfig.POSE_ONLY)

    def test_rejects_horizon_mismatch(self, corpus_windows):
        # A predictor is duck-typed, so its forecast length is checked too.
        class ShortPredictor:
            feature_config = FeatureConfig.POSE_ONLY

            def forecast(self, pos, theta, gaze):
                cv = ConstantVelocityPredictor(self.feature_config).forecast(pos, theta, gaze)
                return cv[..., :HORIZON_FRAMES - 1, :]

        config = FeatureConfig.POSE_ONLY
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate(ShortPredictor(), corpus_windows[config], config)

    def test_rejects_partial_future(self, corpus_windows):
        # segment cuts windows with a 5-frame future for prediction; fitting
        # and scoring need the full horizon.
        config = FeatureConfig.POSE_ONLY
        window = corpus_windows[config][0]
        short = segment(window.observed + window.future, window.session_id, config, horizon=5)
        with pytest.raises(ValueError, match="future holds 5 frames"):
            fit_ridge(short, config, lam=1.0)
        with pytest.raises(ValueError, match="future holds 5 frames"):
            evaluate(ConstantVelocityPredictor(config), short, config)

    @pytest.mark.parametrize("k, sigma", [(0, 0.05), (1, 0.05), (4, -0.1)])
    def test_rejects_bad_ensemble(self, corpus_windows, k, sigma):
        config = FeatureConfig.POSE_ONLY
        with pytest.raises(ValueError):
            evaluate(ConstantVelocityPredictor(config), corpus_windows[config], config,
                     k=k, sigma=sigma)

    def test_rejects_missing_future(self, corpus_windows):
        from dataclasses import replace

        config = FeatureConfig.POSE_ONLY
        windows = list(corpus_windows[config][:3])
        windows[1] = replace(windows[1], future=())
        with pytest.raises(ValueError):
            evaluate(ConstantVelocityPredictor(config), windows, config)
