"""Feature extraction, ridge fitting, prediction, and ensembles."""

import functools
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from fusioncast import protocol
from fusioncast.errors import ConfigError, ValidationError
from fusioncast.geometry import AgentState, wrap_angle
from fusioncast.metrics import evaluate
from fusioncast.predictors import (
    FRAME_DT,
    ConstantVelocityPredictor,
    RidgeModel,
    _features,
    _targets,
    fit_ridge,
    load_model,
    save_model,
    window_arrays,
)
from fusioncast.windows import OBS_FRAMES, FeatureConfig, TrajectoryWindow

DT = 0.1


def _jitter(seed, k, sigma):
    """N(0, sigma^2) offsets (k, OBS_FRAMES, 2) for one window's observed x/y,
    drawn as evaluate draws its ensemble jitter."""
    return np.random.default_rng(seed).normal(0.0, sigma, (k, OBS_FRAMES, 2))


def _frames_from_xy(xy, thetas, gaze_yaws=None):
    frames = []
    for i, ((x, y), theta) in enumerate(zip(xy, thetas)):
        gaze = None
        if gaze_yaws is not None:
            gy = gaze_yaws[i]
            gaze = np.array([math.cos(gy), math.sin(gy), 0.0])
        from fusioncast.sessions import AlignedFrame

        frames.append(AlignedFrame(i * 100_000, AgentState(x, y, theta), gaze_world=gaze))
    return frames


def _unicycle_window(omega=0.0, v=1.4, config=FeatureConfig.POSE_ONLY, theta0=0.0,
                     origin=(0.0, 0.0), n=60, session_id=1):
    x, y = origin
    theta = theta0
    xy, thetas = [], []
    for _ in range(n):
        xy.append((x, y))
        thetas.append(wrap_angle(theta))
        x += v * DT * math.cos(theta)
        y += v * DT * math.sin(theta)
        theta += omega * DT
    gaze = thetas if config.uses_gaze else None
    frames = _frames_from_xy(xy, thetas, gaze)
    return TrajectoryWindow(session_id, 0, config, tuple(frames[:20]), tuple(frames[20:]))


def _random_walk_window(rng, config=FeatureConfig.POSE_ONLY, n=60, session_id=1):
    """Erratic but valid trajectory; every feature dimension varies, which
    keeps the design matrix well-conditioned for solver-identification tests."""
    steps = rng.normal(scale=0.15, size=(n, 2))
    xy = np.cumsum(steps, axis=0) + rng.uniform(-5, 5, size=2)
    thetas = [wrap_angle(t) for t in np.cumsum(rng.normal(scale=0.3, size=n))]
    gaze = thetas if config.uses_gaze else None
    frames = _frames_from_xy(xy, thetas, gaze)
    return TrajectoryWindow(session_id, 0, config, tuple(frames[:20]), tuple(frames[20:]))


def _rotate_window(window, phi):
    """Global SE(2) rotation of every frame (position, heading, world gaze)."""
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])

    def rot_frame(f):
        p = rot @ np.array([f.state.x, f.state.y])
        gaze = f.gaze_world
        if gaze is not None:
            gaze = np.array([*(rot @ gaze[:2]), gaze[2]])
        return replace(f, state=AgentState(p[0], p[1], wrap_angle(f.state.theta + phi)),
                       gaze_world=gaze)

    return TrajectoryWindow(window.session_id, window.start_index, window.feature_config,
                            tuple(rot_frame(f) for f in window.observed),
                            tuple(rot_frame(f) for f in window.future))


def _translate_window(window, dx, dy):
    def move(f):
        return replace(f, state=AgentState(f.state.x + dx, f.state.y + dy, f.state.theta))

    return TrajectoryWindow(window.session_id, window.start_index, window.feature_config,
                            tuple(move(f) for f in window.observed),
                            tuple(move(f) for f in window.future))


def _design(windows, config=FeatureConfig.POSE_ONLY):
    """Feature rows (N, D) and body-frame targets (N, 2 * H) that fit_ridge solves for."""
    pos, theta, gaze, future = window_arrays(windows, config, future=True)
    return _features(pos, theta, gaze, config), _targets(pos, theta, future)


def _cv_report(window):
    return evaluate(ConstantVelocityPredictor(FeatureConfig.POSE_ONLY), [window],
                    FeatureConfig.POSE_ONLY, k=2)


class TestConstantVelocity:
    def test_stationary_repeats_last_state(self):
        frames = _frames_from_xy([(2.0, 3.0)] * 60, [0.5] * 60)
        window = TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY,
                                  tuple(frames[:20]), tuple(frames[20:]))
        pred = ConstantVelocityPredictor(FeatureConfig.POSE_ONLY).predict(window)
        assert _cv_report(window).ade == 0.0
        assert all(s.x == 2.0 and s.y == 3.0 and s.theta == 0.5 for s in pred)

    def test_uniform_straight_motion_exact(self):
        assert _cv_report(_unicycle_window(omega=0.0, v=1.0)).ade < 1e-9

    def test_fde_grows_with_turn_angle(self):
        fdes = [_cv_report(_unicycle_window(omega=omega)).fde
                for omega in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(fdes, fdes[1:]))


class TestFeatures:
    def test_dimensionality(self):
        assert _design([_unicycle_window()])[0].shape == (1, 80)
        full = _unicycle_window(config=FeatureConfig.POSE_HEAD_GAZE)
        assert _design([full], FeatureConfig.POSE_HEAD_GAZE)[0].shape == (1, 120)

    def test_translation_invariance(self):
        window = _unicycle_window(omega=0.3, config=FeatureConfig.POSE_HEAD_GAZE)
        feats, _ = _design([window], FeatureConfig.POSE_HEAD_GAZE)
        moved, _ = _design([_translate_window(window, 10.0, -4.0)], FeatureConfig.POSE_HEAD_GAZE)
        assert np.allclose(feats, moved, atol=1e-9)

    def test_rotation_invariance(self):
        # Oracle: recompute after applying the rotation to the raw frames.
        window = _unicycle_window(omega=0.4, config=FeatureConfig.POSE_HEAD_GAZE, theta0=0.7)
        feats, _ = _design([window], FeatureConfig.POSE_HEAD_GAZE)
        for phi in (math.pi / 2, 1.0, -2.2):
            rotated, _ = _design([_rotate_window(window, phi)], FeatureConfig.POSE_HEAD_GAZE)
            assert np.allclose(feats, rotated, atol=1e-9)

    def test_targets_rotation_invariant(self):
        window = _unicycle_window(omega=0.4, theta0=0.3)
        _, targets = _design([window])
        _, rotated = _design([_rotate_window(window, 1.3)])
        assert np.allclose(targets, rotated, atol=1e-9)

    @pytest.mark.parametrize("config", [FeatureConfig.POSE_ONLY, FeatureConfig.POSE_HEAD_GAZE],
                             ids=lambda c: c.value)
    def test_speed_bits_match_norm_oracle(self, config):
        # The speed column, as two-term sums, against the reduction over the
        # xy axis that it replaced: a batch, a jittered ensemble of one
        # window (theta with fewer leading axes) and one window.
        rng = np.random.default_rng(41)
        windows = [_random_walk_window(rng, config) for _ in range(12)]
        pos, theta, gaze, _ = window_arrays(windows, config)
        one = window_arrays(windows[:1], config)[:3]
        ensemble = (pos[0] + _jitter(5, 7, 0.05), theta[0], None if gaze is None else gaze[0])
        for p, t, g in ((pos, theta, gaze), one, ensemble):
            dp = np.zeros(p.shape)
            dp[..., 1:, :] = np.diff(p, axis=-2)
            want = np.sqrt(np.add.reduce(dp * dp, axis=-1)) / FRAME_DT
            feats = _features(p, t, g, config)
            speed = feats.reshape(feats.shape[:-1] + (-1, config.channels))[..., 2]
            assert speed.shape == want.shape and speed.tobytes() == want.tobytes()

    def test_config_mismatch_rejected(self):
        robot_window = _unicycle_window(config=FeatureConfig.ROBOT_POSE_ONLY)
        with pytest.raises(ConfigError):
            window_arrays([robot_window], FeatureConfig.POSE_HEAD_GAZE)

    @pytest.mark.parametrize("future", [False, True])
    def test_no_windows_rejected(self, future):
        with pytest.raises(ValueError, match="no windows"):
            window_arrays([], FeatureConfig.POSE_ONLY, future=future)


class TestFitRidge:
    def _training_windows(self, rng, n=150):
        windows = []
        for _ in range(n):
            omega = float(rng.uniform(-0.6, 0.6))
            v = float(rng.uniform(0.6, 1.8))
            theta0 = float(rng.uniform(-math.pi, math.pi))
            origin = tuple(rng.uniform(-20, 20, size=2))
            windows.append(_unicycle_window(omega=omega, v=v, theta0=theta0, origin=origin))
        return windows

    def test_recovers_known_linear_map(self):
        # Build futures so that targets are an exact linear map of the
        # normalized features, then check weight recovery at tiny lam.
        from fusioncast.predictors import _body_rotation
        from fusioncast.sessions import AlignedFrame

        rng = np.random.default_rng(42)
        bases = [_random_walk_window(rng) for _ in range(200)]
        X = _design(bases)[0]
        std = X.std(axis=0)
        kept = std > 1e-12
        Xn = X[:, kept] / std[kept]
        w_true = rng.normal(scale=0.3, size=(int(kept.sum()), 80))
        Y = Xn @ w_true

        windows = []
        for base, y in zip(bases, Y):
            ref = base.observed[-1].state
            rel = y.reshape(40, 2)
            world = np.array([ref.x, ref.y]) + rel @ _body_rotation(ref.theta).T
            future = tuple(
                AlignedFrame(base.observed[-1].timestamp_us + (k + 1) * 100_000,
                             AgentState(p[0], p[1], 0.0))
                for k, p in enumerate(world)
            )
            windows.append(replace(base, future=future))

        model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e-8)
        scale = max(1.0, np.abs(w_true).max())
        assert np.abs(model.weights - w_true).max() / scale < 1e-6

    def test_large_lam_predicts_stationary(self):
        rng = np.random.default_rng(7)
        windows = self._training_windows(rng, n=80)
        model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e12)
        assert np.abs(model.weights).max() < 1e-6
        window = windows[0]
        pred = model.predict(window)
        last = window.observed[-1].state
        assert all(abs(s.x - last.x) < 1e-4 and abs(s.y - last.y) < 1e-4 for s in pred)

    def test_residual_decreases_with_lam(self):
        rng = np.random.default_rng(11)
        windows = self._training_windows(rng, n=100)
        X, Y = _design(windows)
        residuals = []
        for lam in (10.0, 1.0, 0.1, 0.01, 1e-4):
            model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=lam)
            Xn = X[:, model.kept] / model.std[model.kept]
            residuals.append(float(np.sum((Xn @ model.weights - Y) ** 2)))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        windows = self._training_windows(rng, n=60)
        m1 = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e-3)
        m2 = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e-3)
        assert np.array_equal(m1.weights, m2.weights)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge([_unicycle_window()], FeatureConfig.POSE_ONLY, lam=-1.0)

    @pytest.mark.parametrize("lam", [True, "x"], ids=["bool", "string"])
    def test_lam_checked_as_the_model_checks_it(self, lam):
        # True fitted a model with lam 1.0, and "x" raised TypeError.
        with pytest.raises(ValidationError, match="lam"):
            fit_ridge([_unicycle_window()], FeatureConfig.POSE_ONLY, lam=lam)

    def test_warns_when_underdetermined(self):
        with pytest.warns(RuntimeWarning):
            fit_ridge([_unicycle_window(omega=0.1)], FeatureConfig.POSE_ONLY, lam=1e-3)

    def test_matches_gradient_descent(self):
        # Oracle: plain gradient descent on the same objective, run to
        # convergence on a well-conditioned 200-window instance.
        rng = np.random.default_rng(17)
        windows = [_random_walk_window(rng) for _ in range(200)]
        lam = 1.0
        model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=lam)

        X, Y = _design(windows)
        Xn = X[:, model.kept] / model.std[model.kept]
        A = Xn.T @ Xn
        B = Xn.T @ Y
        lip = float(np.linalg.eigvalsh(A).max() + lam)
        W = np.zeros_like(model.weights)
        for _ in range(200_000):
            grad = A @ W - B + lam * W
            gmax = float(np.abs(grad).max())
            if gmax < 1e-10:
                break
            W -= grad / lip
        assert np.abs(W - model.weights).max() < 1e-4


class TestPredict:
    def test_straight_line_beats_or_ties_cv(self):
        rng = np.random.default_rng(19)
        windows = [
            _unicycle_window(omega=0.0, v=float(rng.uniform(0.5, 2.0)),
                             theta0=float(rng.uniform(-3, 3)),
                             origin=tuple(rng.uniform(-10, 10, size=2)))
            for _ in range(100)
        ]
        model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e-8)
        cv = ConstantVelocityPredictor(FeatureConfig.POSE_ONLY)
        pos, theta, _, truth = window_arrays(windows[:20], FeatureConfig.POSE_ONLY, future=True)

        def window_ades(predictor):
            return np.linalg.norm(predictor.forecast(pos, theta) - truth, axis=-1).mean(axis=1)

        assert np.all(window_ades(model) < window_ades(cv) + 1e-6)

    def test_se2_equivariance(self):
        rng = np.random.default_rng(23)
        windows = [
            _unicycle_window(omega=float(rng.uniform(-0.5, 0.5)),
                             v=float(rng.uniform(0.6, 1.8)),
                             theta0=float(rng.uniform(-3, 3)))
            for _ in range(80)
        ]
        model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e-3)
        window = windows[0]
        phi = 1.1
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        pred = model.predict(window)
        pred_rotated = model.predict(_rotate_window(window, phi))
        for a, b in zip(pred, pred_rotated):
            back = rot.T @ np.array([b.x, b.y])
            assert abs(back[0] - a.x) < 1e-9 and abs(back[1] - a.y) < 1e-9
            assert abs(wrap_angle(b.theta - phi - a.theta)) < 1e-9

    def test_zero_weights_hold_last_position(self):
        window = _unicycle_window(omega=0.2)
        dim = 80
        model = RidgeModel(
            feature_config=FeatureConfig.POSE_ONLY, lam=1.0,
            mean=np.zeros(dim), std=np.ones(dim), kept=np.ones(dim, dtype=bool),
            weights=np.zeros((dim, 80)),
        )
        pred = model.predict(window)
        last = window.observed[-1].state
        assert all(s.x == last.x and s.y == last.y for s in pred)
        assert all(s.theta == last.theta for s in pred)

    def test_config_mismatch_rejected(self):
        window = _unicycle_window(config=FeatureConfig.ROBOT_POSE_ONLY)
        model = fit_ridge([_unicycle_window() for _ in range(3)],
                          FeatureConfig.POSE_ONLY, lam=1e-2)
        with pytest.raises(ConfigError):
            model.predict(window)


def _old_travel_heading(initial, dp):
    """The batched course of the step headings that predict used, kept as the
    oracle of its per-step loop."""
    start = np.broadcast_to(np.asarray(initial)[..., None], dp.shape[:-2] + (1,))
    values = np.concatenate([start, np.arctan2(dp[..., 1], dp[..., 0])], axis=-1)
    moving = np.hypot(dp[..., 0], dp[..., 1]) >= 1e-9
    last = np.maximum.accumulate(np.where(moving, np.arange(1, dp.shape[-2] + 1), 0), axis=-1)
    return np.take_along_axis(values, last, axis=-1)


def _old_states(xy, origin, theta_ref):
    headings = _old_travel_heading(theta_ref, np.diff(xy, axis=0, prepend=origin[None]))
    return [AgentState(x, y, t) for x, y, t in zip(*xy.T.tolist(), wrap_angle(headings).tolist())]


def _jittered(window, offsets):
    """``window`` with each observed position moved by a row of ``offsets`` (T, 2)."""
    observed = tuple(replace(f, state=AgentState(f.state.x + dx, f.state.y + dy, f.state.theta))
                     for f, (dx, dy) in zip(window.observed, offsets.tolist()))
    return replace(window, observed=observed)


def _bits(states):
    return [struct.pack("<3d", s.x, s.y, s.theta) for s in states]


def _carry_model(config):
    """A ridge model whose forecast stands still for the first 5 steps (the
    heading carries the last observed one), moves for 10, and then stands
    still again (the heading carries the last step's course)."""
    dim = 20 * config.channels
    steps = np.clip(np.arange(40) - 4, 0, 10)[:, None] * np.array([0.03, 0.02])
    weights = np.ones((dim, 1)) / dim * steps.reshape(1, -1)
    return RidgeModel(feature_config=config, lam=1.0, mean=np.zeros(dim), std=np.ones(dim),
                      kept=np.ones(dim, dtype=bool), weights=weights)


@functools.cache
def _heading_cases():
    rng = np.random.default_rng(37)
    gaze_windows = [_random_walk_window(rng, FeatureConfig.POSE_HEAD_GAZE) for _ in range(130)]
    pose_windows = [_unicycle_window(omega=float(rng.uniform(-0.5, 0.5)),
                                     theta0=float(rng.uniform(-3, 3))) for _ in range(90)]
    still = _unicycle_window(v=0.0, theta0=2.5)
    return {
        "ridge_gaze": (fit_ridge(gaze_windows, FeatureConfig.POSE_HEAD_GAZE, lam=1.0), gaze_windows[0]),
        "ridge_pose": (fit_ridge(pose_windows, FeatureConfig.POSE_ONLY, lam=1e-3), pose_windows[1]),
        "cv": (ConstantVelocityPredictor(FeatureConfig.POSE_ONLY), pose_windows[2]),
        "cv_stationary": (ConstantVelocityPredictor(FeatureConfig.POSE_ONLY), still),
        "ridge_carry": (_carry_model(FeatureConfig.POSE_ONLY), pose_windows[3]),
    }


class TestPredictHeadings:
    @pytest.mark.parametrize("case", ["ridge_gaze", "ridge_pose", "cv", "cv_stationary", "ridge_carry"])
    def test_predict_matches_numpy_oracle(self, case):
        model, window = _heading_cases()[case]
        pos, theta, gaze, _ = window_arrays([window], model.feature_config)
        xy = model.forecast(pos, theta, gaze)[0]
        moving = np.hypot(*np.diff(xy, axis=0, prepend=pos[0, -1][None]).T) >= 1e-9
        if case == "cv_stationary":
            assert not moving.any()
        elif case == "ridge_carry":
            assert moving.any() and not moving.all() and not moving[0]
        got = model.predict(window)
        assert _bits(got) == _bits(_old_states(xy, pos[0, -1], theta[0, -1]))
        if case == "cv_stationary":
            assert all(s.theta == window.observed[-1].state.theta for s in got)

    @pytest.mark.parametrize("case", ["ridge_gaze", "cv", "cv_stationary", "ridge_carry"])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_sample_matches_numpy_oracle(self, case, sigma):
        # Each member (sample) of a jittered ensemble, predicted as a window of
        # its own, heads its steps as the oracle does, at the positions of the
        # ensemble forecast that evaluate scores.
        model, window = _heading_cases()[case]
        pos, theta, gaze, _ = window_arrays([window], model.feature_config)
        jitter = _jitter(3, 4, sigma)
        ensemble = model.forecast(pos[0] + jitter, theta, gaze)
        for offsets, member in zip(jitter, ensemble):
            jittered = _jittered(window, offsets)
            m_pos, m_theta, m_gaze, _ = window_arrays([jittered], model.feature_config)
            xy = model.forecast(m_pos, m_theta, m_gaze)[0]
            np.testing.assert_allclose(xy, member, rtol=0, atol=1e-12)
            want = _bits(_old_states(xy, m_pos[0, -1], m_theta[0, -1]))
            assert _bits(model.predict(jittered)) == want


class TestPredictionFrameCost:
    """One clean prediction frame (predict -> Prediction -> encode) never
    reaches the per-state fallback; a NaN state does, and raises as before."""

    def _frame(self, monkeypatch, corrupt=None):
        calls = []
        check = protocol._check_finite_tuple

        def counting(values, n, what):
            if what == "prediction state":
                calls.append(values)
            return check(values, n, what)

        monkeypatch.setattr(protocol, "_check_finite_tuple", counting)
        model, window = _heading_cases()["ridge_gaze"]
        states = [(s.x, s.y, s.theta) for s in model.predict(window)]
        if corrupt is not None:
            states[corrupt] = (math.nan, 0.0, 0.0)
        try:
            return protocol.encode(protocol.Prediction(1, 2, tuple(states))), calls
        except ValidationError as exc:
            return exc, calls

    def test_clean_frame_skips_fallback(self, monkeypatch):
        data, calls = self._frame(monkeypatch)
        assert isinstance(data, bytes) and calls == []

    def test_nan_state_reaches_fallback(self, monkeypatch):
        exc, calls = self._frame(monkeypatch, corrupt=7)
        assert str(exc) == "prediction state has non-finite component nan"
        assert len(calls) == 8


def _ensemble(model, window, k, sigma, seed):
    """The K-member forecast (K, H, 2) that evaluate scores for ``window``:
    one forecast of K input-jittered copies of its observed positions."""
    pos, theta, gaze, _ = window_arrays([window], model.feature_config)
    return model.forecast(pos[0] + _jitter(seed, k, sigma), theta, gaze)


class TestEnsemble:
    def _model(self):
        rng = np.random.default_rng(29)
        windows = [
            _unicycle_window(omega=float(rng.uniform(-0.5, 0.5)),
                             v=float(rng.uniform(0.6, 1.8)))
            for _ in range(60)
        ]
        return fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=1e-3), windows[0]

    def test_zero_sigma_collapses(self):
        model, window = self._model()
        members = _ensemble(model, window, k=8, sigma=0.0, seed=1)
        assert np.array_equal(members, np.broadcast_to(members[0], members.shape))

    def test_spread_grows_with_sigma(self):
        # Oracle: mean pairwise FDE among ensemble members per sigma.
        model, window = self._model()

        def spread(sigma):
            final = _ensemble(model, window, k=12, sigma=sigma, seed=3)[:, -1].tolist()
            pairs = [math.dist(a, b) for i, a in enumerate(final) for b in final[i + 1:]]
            return sum(pairs) / len(pairs)

        spreads = [spread(s) for s in (0.01, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(spreads, spreads[1:]))

    def test_same_seed_identical(self):
        model, window = self._model()
        a = _ensemble(model, window, k=6, sigma=0.05, seed=11)
        b = _ensemble(model, window, k=6, sigma=0.05, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _ensemble(model, window, k=6, sigma=0.05, seed=12))


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        windows = [
            _unicycle_window(omega=float(rng.uniform(-0.5, 0.5)),
                             v=float(rng.uniform(0.6, 1.8)))
            for _ in range(50)
        ]
        model = fit_ridge(windows, FeatureConfig.POSE_ONLY, lam=3e-3)
        path = tmp_path / "pose.fcm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_config is FeatureConfig.POSE_ONLY
        assert loaded.lam == model.lam
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.std, model.std)
        assert np.array_equal(loaded.kept, model.kept)
        window = windows[0]
        a, b = model.predict(window), loaded.predict(window)
        assert all(x.x == y.x and x.y == y.y for x, y in zip(a, b))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fcm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        from fusioncast.errors import ValidationError

        with pytest.raises(ValidationError):
            load_model(path)
