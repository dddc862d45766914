"""RidgeModel shape invariants and malformed model files."""

import hashlib
import io
import json
import math
import struct

import numpy as np
import pytest

from fusioncast import predictors
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
    """A model file of ``header`` (a dict, or the whole header's text) and ``weights``."""
    blob = (header if isinstance(header, str) else json.dumps(header)).encode("utf-8")
    path = tmp_path / "edited.fcm"
    length = len(blob) if hlen is None else hlen
    path.write_bytes(MODEL_MAGIC + struct.pack("<I", length) + blob + weights)
    return path


def _count_reads(monkeypatch):
    """Open the model files of load_model through a file that counts the
    bytes its reads return; the count is the one-element list returned."""
    total = [0]

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            data = super().read(size)
            total[0] += len(data)
            return data

    monkeypatch.setattr(predictors, "open", CountingFile, raising=False)
    return total


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

    def test_reads_no_more_than_the_header_declares(self, tmp_path, monkeypatch):
        # A tail after the weights was read whole before the size check: a
        # 64 MiB one cost 128 MB of memory before the refusal.
        header, weights = _header_and_weights(tmp_path)
        path = _write(tmp_path, header, weights + b"\x00" * (1 << 20))
        total = _count_reads(monkeypatch)
        with pytest.raises(ValidationError, match=f"more than {len(weights)} weight bytes"):
            load_model(path)
        assert total[0] == 8 + len(json.dumps(header)) + len(weights) + 1

    @pytest.mark.parametrize("shape", [[DIMS + 1, 80], [DIMS, 81], [10**9, 80], [-80, -80]],
                             ids=["rows", "cols", "billion_rows", "negative"])
    def test_weight_shape_past_the_window_refused_unread(self, tmp_path, monkeypatch, shape):
        header, weights = _header_and_weights(tmp_path)
        header["weight_shape"] = shape
        path = _write(tmp_path, header, weights)
        total = _count_reads(monkeypatch)
        with pytest.raises(ValidationError, match="does not fit pose_only windows"):
            load_model(path)
        assert total[0] == 8 + len(json.dumps(header))

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
        # JSON types save_model never writes, each loaded by int() or bool() before.
        pytest.param({"weight_shape": [80.9, 80.2]}, id="weight_shape_floats"),
        pytest.param({"weight_shape": ["80", "80"]}, id="weight_shape_strings"),
        pytest.param({"kept": [1] * DIMS}, id="kept_ints"),
        pytest.param({"kept": ["no"] * DIMS}, id="kept_strings"),
        pytest.param({"kept": [0.5] * DIMS}, id="kept_floats"),
        # The whole header: nested past the recursion limit, under MAX_HEADER_BYTES.
        pytest.param("[" * 200_000 + "]" * 200_000, id="nested"),
    ])
    def test_inconsistent_header(self, tmp_path, edit):
        header, weights = _header_and_weights(tmp_path)
        if isinstance(edit, str):
            header = edit
        else:
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
        ({"std": [math.nan] + [1.0] * (DIMS - 1)}, "std"),  # NaN std scored NaN ADE
        ({"std": [math.inf] * DIMS}, "std"),
        ({"std": [1e-300] * DIMS}, "std"),  # fit_ridge drops std <= 1e-12
        ({"std": [True] * DIMS}, "std"),  # loaded as 1.0
        ({"mean": [math.nan] * DIMS}, "mean"),
        ({"mean": [False] * DIMS}, "mean"),
    ], ids=["lam_string", "lam_negative", "lam_inf", "lam_bool", "horizon_float",
            "obs_frames_float", "obs_frames_10", "horizon_5", "horizon_bool", "std_nan",
            "std_inf", "std_below_floor", "std_bool", "mean_nan", "mean_bool"])
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

    def test_mutated_headers_raise_only_validation_error(self, tmp_path):
        # Seeded mutations of a saved header: half swap one value, or one
        # element of a list, for a hostile JSON value; half change 1-4 random
        # bytes, a fifth of those also cut short. Each file loads or raises
        # ValidationError, nothing else.
        header, weights = _header_and_weights(tmp_path)
        hostile = [-1, 0, 1, 20, 40, 80, -0.0, 1.5, 1e308, 1e-300, math.nan, math.inf, True,
                   False, None, "x", "pose_only", [], [80, 80], [80, 80, 1], {}]
        rng = np.random.default_rng(29)
        outcomes = {"loaded": 0, "refused": 0}
        for _ in range(1000):
            edited = json.loads(json.dumps(header))
            key = list(edited)[int(rng.integers(0, len(edited)))]
            value = hostile[int(rng.integers(0, len(hostile)))]
            if rng.integers(0, 2):
                if isinstance(edited[key], list) and rng.integers(0, 2):
                    edited[key][int(rng.integers(0, len(edited[key])))] = value
                else:
                    edited[key] = value
                blob = json.dumps(edited).encode("utf-8")
            else:
                blob = bytearray(json.dumps(edited).encode("utf-8"))
                for pos in rng.integers(0, len(blob), size=int(rng.integers(1, 5))):
                    blob[int(pos)] = int(rng.integers(0, 256))
                if rng.integers(0, 5) == 0:
                    blob = blob[:int(rng.integers(0, len(blob)))]
            path = tmp_path / "mutated.fcm"
            path.write_bytes(MODEL_MAGIC + struct.pack("<I", len(blob)) + bytes(blob) + weights)
            try:
                load_model(path)
            except ValidationError:
                outcomes["refused"] += 1
            else:
                outcomes["loaded"] += 1
        assert min(outcomes.values()) > 25, outcomes

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
