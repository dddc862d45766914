"""Batched evaluation against a per-window reference written in plain loops."""

import math
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fusioncast import metrics
from fusioncast.errors import ConfigError, ValidationError
from fusioncast.geometry import AgentState
from fusioncast.metrics import (
    KDE_BANDWIDTH_FLOOR,
    KDE_DENSITY_FLOOR,
    SCOTT_EXPONENT,
    _kde_nll,
    evaluate,
)
from fusioncast.predictors import (
    ConstantVelocityPredictor,
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


def _kde_nll_over_xy_axis(clouds, truth):
    """The _kde_nll that reduced over the 2-wide xy axis, kept as the oracle
    of the bits of the two-term sums that replaced it."""
    k, t_steps = clouds.shape[-3:-1]
    pts = np.swapaxes(clouds, -3, -2)
    std = pts.std(axis=-2, ddof=1)
    degenerate = int(np.count_nonzero(np.all(std == 0.0, axis=-1)))
    bw = np.maximum(std * k ** SCOTT_EXPONENT, KDE_BANDWIDTH_FLOOR)[..., None, :]
    diff = np.subtract(pts, truth[..., None, :], order="C")
    diff /= bw
    diff *= diff
    kernel = np.exp(-0.5 * diff.sum(axis=-1)) / (2.0 * math.pi * bw[..., 0] * bw[..., 1])
    density = np.maximum(kernel.mean(axis=-1), KDE_DENSITY_FLOOR)
    return np.cumsum(-np.log(density), axis=-1)[..., -1] / t_steps, degenerate


class TestKdeNll:
    @pytest.mark.parametrize("k", [3, 20, 21])
    def test_bits_match_xy_axis_oracle(self, k):
        # Seeded (B, K, H, 2) clouds about the truth, of per-window spread,
        # with one step whose members all coincide (degenerate) and one whose
        # members differ only in y (not degenerate). The coinciding values
        # are quarters, so their mean, and so their std of 0, is exact.
        rng = np.random.default_rng(k)
        truth = rng.normal(0.0, 10.0, size=(6, HORIZON_FRAMES, 2))
        spread = rng.uniform(0.01, 1.0, size=(6, 1, HORIZON_FRAMES, 2))
        clouds = truth[:, None] + rng.normal(0.0, 1.0, size=(6, k, HORIZON_FRAMES, 2)) * spread
        clouds[2, :, 7] = np.round(truth[2, 7] * 4.0) / 4.0
        truth[2, 7] = clouds[2, 0, 7] + (3e-4, -2e-4)
        clouds[4, :, 11, 0] = np.round(truth[4, 11, 0] * 4.0) / 4.0
        nll, degenerate = _kde_nll(clouds, truth)
        want, want_degenerate = _kde_nll_over_xy_axis(clouds, truth)
        assert degenerate == want_degenerate == 1
        assert nll.shape == (6,) and nll.tobytes() == want.tobytes()

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

    def test_degenerate_ensemble_warns_and_uses_floor(self, monkeypatch):
        # sigma = 0 gives K identical members, so every step takes the floor.
        monkeypatch.setattr(metrics, "ENSEMBLE_SIGMA", 0.0)
        windows = [_line_window(0.002), _line_window(-0.001, dx=0.12)]
        cv = ConstantVelocityPredictor(FeatureConfig.POSE_ONLY)
        floor = (KDE_BANDWIDTH_FLOOR, KDE_BANDWIDTH_FLOOR)
        expected = np.mean([
            np.mean([_gaussian_nll(f.state, s, floor) for f, s in zip(w.future, cv.predict(w))])
            for w in windows
        ])
        with pytest.warns(RuntimeWarning, match="80 of 80"):
            report = evaluate(cv, windows, FeatureConfig.POSE_ONLY, k=4)
        assert report.kde_nll == pytest.approx(expected, rel=RTOL)

    @pytest.mark.parametrize("k", [4, 8, 20, 21])
    def test_degenerate_count_exact(self, monkeypatch, k):
        # sigma = 0 makes all K members of a step one forecast, but K equal
        # members can sum with rounding, so their std may miss 0: here it does
        # at K 8, 20 and 21, where a count of zero stds read 179, 39 and 30.
        monkeypatch.setattr(metrics, "ENSEMBLE_SIGMA", 0.0)
        config = FeatureConfig.POSE_ONLY
        windows = [w for s in generate_corpus(CorpusConfig(6, 0, 8.0, seed=3))
                   for w in segment(resample(s).frames, s.session_id, config)]
        pos, theta, gaze, _ = window_arrays(windows, config, future=True)
        clouds = ConstantVelocityPredictor(config).forecast(pos[:, None] + np.zeros((k, 1, 2)),
                                                            theta[:, None], None)
        stds = np.swapaxes(clouds, 1, 2).std(axis=2, ddof=1)
        assert np.all(stds == 0.0) == (k == 4)
        with pytest.warns(RuntimeWarning, match="at 720 of 720 "):
            evaluate(ConstantVelocityPredictor(config), windows, config, k=k)


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
        jittered = pos[0] + np.random.default_rng((seed, idx)).normal(0.0, sigma, (k, OBS_FRAMES, 2))
        nlls.append(_kde_nll_loop(predictor.forecast(jittered, theta, gaze).tolist(), truth))
    window_ades = np.array(window_ades)
    curve = curve_sum / len(windows)
    return {"ade": window_ades.mean(), "fde": curve[-1], "ade_variance": window_ades.var(),
            "kde_nll": np.mean(nlls), "displacement_curve": curve}


class TestEvaluate:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.value)
    @pytest.mark.parametrize("name", ["cv", "ridge"])
    @pytest.mark.parametrize("sigma", [0.05, 0.0])
    def test_matches_per_window_loop(self, monkeypatch, corpus_windows, config, name, sigma):
        monkeypatch.setattr(metrics, "ENSEMBLE_SIGMA", sigma)
        windows = corpus_windows[config]
        predictor = _predictors(config, windows)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sigma = 0 is degenerate
            report = evaluate(predictor, windows, config, k=8, seed=5)
            expected = _reference_evaluate(predictor, windows, 8, sigma, 5)
        assert report.ensemble_sigma == sigma
        for key, value in expected.items():
            np.testing.assert_allclose(getattr(report, key), value, rtol=RTOL, atol=0)

    def test_degenerate_warning_once_with_count(self, monkeypatch, corpus_windows):
        monkeypatch.setattr(metrics, "ENSEMBLE_SIGMA", 0.0)
        config = FeatureConfig.POSE_ONLY
        windows = corpus_windows[config]
        pairs = len(windows) * len(windows[0].future)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate(ConstantVelocityPredictor(config), windows, config, k=4)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("what", ["point", "ensemble"])
    def test_rejects_non_finite_forecast(self, corpus_windows, what, value):
        # A NaN step used to score NaN ADE and KDE-NLL with no warning, an
        # infinite one to emit only numpy's invalid-value RuntimeWarning.
        class PoisonedPredictor:
            feature_config = FeatureConfig.POSE_ONLY

            def forecast(self, pos, theta, gaze):
                out = ConstantVelocityPredictor(self.feature_config).forecast(pos, theta, gaze)
                if (out.ndim == 4) == (what == "ensemble"):
                    out[4, ..., 7, 0] = value  # window 4 of the first block, step 7
                return out

        config = FeatureConfig.POSE_ONLY
        with pytest.raises(ValidationError, match=f"{what} forecast of test window 4 is not finite"):
            evaluate(PoisonedPredictor(), corpus_windows[config], config)

    def test_rejects_overflowing_error(self):
        # A finite step at 1e200 is past the finite check, but its squared
        # error overflows: it used to score ade=inf and ade_variance=nan,
        # with numpy's overflow warnings as the only signal.
        config = FeatureConfig.POSE_ONLY
        windows = [w for s in generate_corpus(CorpusConfig(6, 0, 24.0, seed=3))
                   for w in segment(resample(s).frames, s.session_id, config)]
        assert len(windows) == 114

        class HugePredictor:
            feature_config = config

            def forecast(self, pos, theta, gaze):
                out = ConstantVelocityPredictor(self.feature_config).forecast(pos, theta, gaze)
                if out.ndim == 3:  # the point forecast
                    out[4, 7, 0] = 1e200
                return out

        with pytest.raises(ValidationError,
                           match="point forecast error of test window 4 is not finite"):
            evaluate(HugePredictor(), windows, config)

    @pytest.mark.parametrize("where,match", [
        # Member 0 of window 4, step 7, at 1e200: the ensemble's spread
        # overflows when squared. It used to score kde_nll 13.03 (11.98
        # clean), with numpy's overflow warning as the only signal.
        ("ensemble", "ensemble forecast spread of test window 4 is not finite"),
        # Every step of windows 4 and 5 off by 1.3e154 m: each squared step
        # is finite, but their ADEs' variance overflows. It used to score
        # ade_variance inf, with numpy's overflow warning as the only signal.
        ("point", "ADE variance overflows; test window 4 is furthest from the mean"),
    ], ids=["ensemble", "point"])
    def test_rejects_overflowing_spread(self, where, match):
        config = FeatureConfig.POSE_ONLY
        windows = [w for s in generate_corpus(CorpusConfig(6, 0, 24.0, seed=3))
                   for w in segment(resample(s).frames, s.session_id, config)]

        class HugePredictor:
            feature_config = config

            def forecast(self, pos, theta, gaze):
                out = ConstantVelocityPredictor(self.feature_config).forecast(pos, theta, gaze)
                if where == "ensemble" and out.ndim == 4:
                    out[4, 0, 7, 0] = 1e200
                elif where == "point" and out.ndim == 3:
                    out[4:6, :, 0] += 1.3e154
                return out

        with pytest.raises(ValidationError, match=match):
            evaluate(HugePredictor(), windows, config)

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

    @pytest.mark.parametrize("k", [0, 1])
    def test_rejects_bad_ensemble(self, corpus_windows, k):
        config = FeatureConfig.POSE_ONLY
        with pytest.raises(ValueError):
            evaluate(ConstantVelocityPredictor(config), corpus_windows[config], config, k=k)

    def test_rejects_missing_future(self, corpus_windows):
        from dataclasses import replace

        config = FeatureConfig.POSE_ONLY
        windows = list(corpus_windows[config][:3])
        windows[1] = replace(windows[1], future=())
        with pytest.raises(ValueError):
            evaluate(ConstantVelocityPredictor(config), windows, config)
