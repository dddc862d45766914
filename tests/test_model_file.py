"""RidgeModel shape invariants and malformed model files."""

import hashlib
import json
import struct

import numpy as np
import pytest

from fusioncast.errors import ValidationError
from fusioncast.geometry import AgentState
from fusioncast.predictors import MAX_HEADER_BYTES, MODEL_MAGIC, RidgeModel, load_model, save_model
from fusioncast.sessions import AlignedFrame
from fusioncast.windows import FeatureConfig, TrajectoryWindow

DIMS = 20 * FeatureConfig.POSE_ONLY.channels


def _model(**overrides):
    fields = dict(
        feature_config=FeatureConfig.POSE_ONLY, lam=1.0,
        mean=np.zeros(DIMS), std=np.ones(DIMS), kept=np.ones(DIMS, dtype=bool),
        weights=np.zeros((DIMS, 80)),
    )
    fields.update(overrides)
    return RidgeModel(**fields)


class TestRidgeModelShapes:
    def test_consistent_model_accepted(self):
        kept = np.ones(DIMS, dtype=bool)
        kept[:3] = False
        _model(kept=kept, weights=np.zeros((DIMS - 3, 80)))

    def test_weights_not_kept_by_horizon(self):
        with pytest.raises(ValidationError):
            _model(weights=np.zeros((DIMS, 78)))
        kept = np.ones(DIMS, dtype=bool)
        kept[0] = False
        with pytest.raises(ValidationError):
            _model(kept=kept)

    def test_mean_std_kept_lengths_differ(self):
        with pytest.raises(ValidationError):
            _model(std=np.ones(DIMS - 1))

    def test_length_not_obs_frames_times_channels(self):
        with pytest.raises(ValidationError):
            _model(feature_config=FeatureConfig.POSE_HEAD_GAZE)
        dims = 19 * FeatureConfig.POSE_ONLY.channels
        with pytest.raises(ValidationError):
            _model(mean=np.zeros(dims), std=np.ones(dims), kept=np.ones(dims, dtype=bool),
                   weights=np.zeros((dims, 80)))

    def test_no_kept_dims_predicts_last_position(self):
        frames = tuple(AlignedFrame(i * 100_000, AgentState(0.1 * i, 0.0, 0.0)) for i in range(20))
        window = TrajectoryWindow(1, 0, FeatureConfig.POSE_ONLY, frames)
        model = _model(kept=np.zeros(DIMS, dtype=bool), weights=np.zeros((0, 80)))
        last = frames[-1].state
        assert all(s.x == last.x and s.y == last.y for s in model.predict(window))


def _header_and_weights(tmp_path):
    path = tmp_path / "model.fcm"
    save_model(_model(weights=np.full((DIMS, 80), 0.25)), path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8:8 + hlen]), raw[8 + hlen:]


def _write(tmp_path, header, weights, hlen=None):
    blob = json.dumps(header).encode("utf-8")
    path = tmp_path / "edited.fcm"
    length = len(blob) if hlen is None else hlen
    path.write_bytes(MODEL_MAGIC + struct.pack("<I", length) + blob + weights)
    return path


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        header, weights = _header_and_weights(tmp_path)
        model = load_model(_write(tmp_path, header, weights))
        assert np.all(model.weights == 0.25)

    @pytest.mark.parametrize("keep", [4, 6, 8, 40, -8, -1])
    def test_truncated_file(self, tmp_path, keep):
        # Cuts inside the header length, the header and the weights.
        path = tmp_path / "model.fcm"
        save_model(_model(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(ValidationError):
            load_model(path)

    def test_extra_weight_bytes(self, tmp_path):
        header, weights = _header_and_weights(tmp_path)
        with pytest.raises(ValidationError):
            load_model(_write(tmp_path, header, weights + b"\x00" * 8))

    def test_oversized_header_length(self, tmp_path):
        header, weights = _header_and_weights(tmp_path)
        path = _write(tmp_path, header, weights, hlen=MAX_HEADER_BYTES + 1)
        with pytest.raises(ValidationError, match="exceeds"):
            load_model(path)

    @pytest.mark.parametrize("key", ["feature_config", "lam", "obs_frames", "horizon",
                                     "mean", "std", "kept", "weight_shape"])
    def test_missing_key(self, tmp_path, key):
        header, weights = _header_and_weights(tmp_path)
        del header[key]
        with pytest.raises(ValidationError):
            load_model(_write(tmp_path, header, weights))

    @pytest.mark.parametrize("edit", [
        {"weight_shape": [-80, -80]},
        {"weight_shape": [80]},
        {"feature_config": "no_such_config"},
        {"horizon": 39},
        {"kept": [True] * (DIMS - 1)},
    ])
    def test_inconsistent_header(self, tmp_path, edit):
        header, weights = _header_and_weights(tmp_path)
        header.update(edit)
        with pytest.raises(ValidationError):
            load_model(_write(tmp_path, header, weights))

    @pytest.mark.parametrize("edit,message", [
        ({"lam": "x"}, "lam"),
        ({"lam": -5.0}, "lam"),
        ({"lam": 1e400}, "lam"),  # json reads it as inf
        ({"lam": True}, "lam"),
        ({"horizon": 40.0}, "horizon"),
        ({"obs_frames": 20.0}, "obs_frames"),
        ({"obs_frames": 10, "mean": [0.0] * 40, "std": [1.0] * 40, "kept": [True] * 40,
          "weight_shape": [40, 80]}, "obs_frames"),
        ({"horizon": 5, "weight_shape": [DIMS, 10]}, "horizon"),
        ({"horizon": True}, "horizon"),
    ], ids=["lam_string", "lam_negative", "lam_inf", "lam_bool", "horizon_float",
            "obs_frames_float", "obs_frames_10", "horizon_5", "horizon_bool"])
    def test_header_fit_ridge_would_never_write(self, tmp_path, edit, message):
        # Each of these loaded before, and a float horizon failed only later,
        # in forecast. The weights are cut to the header's weight shape, so
        # only the edited keys are wrong.
        header, weights = _header_and_weights(tmp_path)
        header.update(edit)
        rows, cols = header["weight_shape"]
        path = _write(tmp_path, header, weights[:8 * rows * cols])
        with pytest.raises(ValidationError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_saved_bytes_unchanged(self, tmp_path):
        # SHA-256 recorded from an earlier build: the header checks change
        # what loads, never what is written.
        path = tmp_path / "model.fcm"
        save_model(_model(weights=np.full((DIMS, 80), 0.25)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ee6b4dbaa74a8402a41597cd6dfb8823ae6fb62d1c897069c3041cb368a0b09f")

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "garbage.fcm"
        path.write_bytes(MODEL_MAGIC + struct.pack("<I", 4) + b"\xff{[ " + b"\x00" * 16)
        with pytest.raises(ValidationError):
            load_model(path)
