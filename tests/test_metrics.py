"""KDE-NLL and batched evaluation against a per-window reference loop."""

import math
import warnings

import numpy as np
import pytest

from fusioncast.errors import ConfigError
from fusioncast.geometry import AgentState
from fusioncast.metrics import KDE_BANDWIDTH_FLOOR, displacement_per_step, evaluate, kde_nll
from fusioncast.predictors import ConstantVelocityPredictor, fit_ridge
from fusioncast.sessions import resample
from fusioncast.simulate import CorpusConfig, generate_corpus
from fusioncast.windows import FeatureConfig, segment

CONFIGS = (FeatureConfig.POSE_ONLY, FeatureConfig.POSE_HEAD_GAZE)
RTOL = 1e-12


def _line(x0, y0, n=6, dx=0.1):
    return [AgentState(x0 + dx * i, y0, 0.0) for i in range(n)]


def _gaussian_nll(truth, centre, bw):
    """-log of an axis-aligned 2-D Gaussian density with std ``bw``."""
    dx = (truth.x - centre.x) / bw[0]
    dy = (truth.y - centre.y) / bw[1]
    return math.log(2.0 * math.pi * bw[0] * bw[1]) + 0.5 * (dx * dx + dy * dy)


class TestKdeNll:
    def test_single_member_needs_bandwidth(self):
        with pytest.raises(ValueError):
            kde_nll([_line(0.0, 0.0)], _line(0.0, 0.1))

    @pytest.mark.parametrize("bandwidth", [0.0, -0.2, (0.3, 0.0), (-1.0, 0.5)])
    def test_non_positive_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError):
            kde_nll([_line(0.0, 0.0), _line(0.0, 0.2)], _line(0.0, 0.1), bandwidth=bandwidth)

    def test_single_member_matches_closed_form(self):
        member, truth, bw = _line(1.0, 2.0), _line(1.3, 1.6, dx=0.12), (0.3, 0.5)
        expected = np.mean([_gaussian_nll(t, m, bw) for t, m in zip(truth, member)])
        assert kde_nll([member], truth, bandwidth=bw) == pytest.approx(expected, rel=RTOL)

    def test_degenerate_ensemble_warns_and_uses_floor(self):
        member, truth = _line(0.0, 0.0), _line(0.0, 0.002)
        floor = (KDE_BANDWIDTH_FLOOR, KDE_BANDWIDTH_FLOOR)
        expected = np.mean([_gaussian_nll(t, m, floor) for t, m in zip(truth, member)])
        with pytest.warns(RuntimeWarning, match="6 of 6"):
            value = kde_nll([member] * 4, truth)
        assert value == pytest.approx(expected, rel=RTOL)


@pytest.fixture(scope="module")
def corpus_windows():
    sessions = generate_corpus(CorpusConfig(n_human=8, n_robot=0, duration_s=24.0, seed=3))
    frames = {s.session_id: resample(s).frames for s in sessions}
    return {config: [w for sid, f in frames.items() for w in segment(f, sid, config)]
            for config in CONFIGS}


def _predictors(config, windows):
    return {"cv": ConstantVelocityPredictor(config),
            "ridge": fit_ridge(windows, config, lam=1.0)}


def _reference_evaluate(predictor, windows, k, sigma, seed):
    """Per-window predict / sample / kde_nll, reduced in window order."""
    curve_sum, window_ades, nlls = None, [], []
    for idx, window in enumerate(windows):
        truth = [f.state for f in window.future]
        steps = displacement_per_step(predictor.predict(window), truth)
        curve_sum = steps if curve_sum is None else curve_sum + steps
        window_ades.append(float(steps.mean()))
        nlls.append(kde_nll(predictor.sample(window, k, sigma, seed=(seed, idx)), truth))
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
        config = FeatureConfig.POSE_ONLY
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate(ConstantVelocityPredictor(config, horizon=39), corpus_windows[config], config)

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
