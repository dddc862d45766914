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
1e-3 m; densities are floored at 1e-300 before the log. Each window's
ensemble is one forecast of K copies of its observed positions, each offset
by N(0, ENSEMBLE_SIGMA^2) noise drawn from a generator seeded with (seed,
window index).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .predictors import window_arrays
from .windows import OBS_FRAMES, FeatureConfig

KDE_BANDWIDTH_FLOOR = 1e-3  # m
KDE_DENSITY_FLOOR = 1e-300
SCOTT_EXPONENT = -1.0 / 6.0  # n**(-1/(d+4)) for d = 2
ENSEMBLE_SIGMA = 0.05  # m, std of the jitter on each observed x and y

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


def _kde_nll(clouds: np.ndarray, truth: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
    """KDE-NLL (...) of ensembles (..., K, T, 2) against truths (..., T, 2),
    and the number of (window, step) pairs whose ensemble is degenerate (all
    members identical), which take the bandwidth floor. A spread that
    overflows raises ValidationError naming its window, ``start`` being the
    first's test window."""
    k, t_steps = clouds.shape[-3:-1]
    pts = np.swapaxes(clouds, -3, -2)  # (..., T, K, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        std = pts.std(axis=-2, ddof=1)  # (..., T, 2)
    _check_forecast(std, start, "ensemble forecast spread")
    bw = np.maximum(std * k ** SCOTT_EXPONENT, KDE_BANDWIDTH_FLOOR)
    # K equal members can sum with rounding, so their std may miss 0; only a
    # step floored on both axes can be degenerate, and it is one when every
    # member equals the first.
    floored = pts[(bw[..., 0] == KDE_BANDWIDTH_FLOOR) & (bw[..., 1] == KDE_BANDWIDTH_FLOOR)]
    degenerate = int(np.count_nonzero((floored == floored[:, :1]).all(axis=(1, 2))))
    bw = bw[..., None, :]
    # Scaled squared distance as x term + y term, one C-ordered (..., T, K)
    # scratch array per axis, so each step's K members sit together.
    sq = np.subtract(pts[..., 0], truth[..., None, 0], order="C")
    sq /= bw[..., 0]
    sq *= sq
    sq_y = np.subtract(pts[..., 1], truth[..., None, 1], order="C")
    sq_y /= bw[..., 1]
    sq_y *= sq_y
    sq += sq_y
    sq *= -0.5
    kernel = np.exp(sq, out=sq)
    kernel /= 2.0 * math.pi * bw[..., 0] * bw[..., 1]
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
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _check_forecast(values: np.ndarray, start: int, what: str) -> None:
    """Raise ValidationError naming the first window whose forecast (or its
    error) holds a NaN or an infinity; ``values``' first window is test
    window ``start``."""
    finite = np.isfinite(values)
    if not finite.all():
        first = start + int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise ValidationError(f"{what} of test window {first} is not finite")


def evaluate(predictor, windows, config: FeatureConfig, k: int = 20,
             seed: int = 0) -> EvalReport:
    """Run a predictor over test windows and aggregate ADE/FDE/KDE-NLL.

    ``predictor`` needs ``feature_config`` and the batched ``forecast`` of
    predictors.py; all windows are forecast in one call and the ensembles a
    block of windows at a time. Windows are reduced in index order and
    per-window ensemble seeds derive from (seed, index), so reports are
    reproducible byte-for-byte at a fixed BLAS thread count (see fit_ridge).
    Steps whose ensemble is degenerate take the bandwidth floor, and one
    RuntimeWarning counts them. A NaN or infinite forecast, point or
    ensemble, a point forecast whose error overflows, or errors whose ADE
    variance or ensemble spread overflows, raises ValidationError naming a
    window.
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
    _check_forecast(pred, 0, "point forecast")
    with np.errstate(over="ignore"):  # an error too large to square is refused below
        ex, ey = np.moveaxis(pred - truth, -1, 0)
        steps = np.sqrt(ex * ex + ey * ey)  # (N, H), np.linalg.norm's own formula
    _check_forecast(steps, 0, "point forecast error")
    window_ades = steps.mean(axis=1)
    with np.errstate(over="ignore"):  # refused just below
        ade_variance = float(window_ades.var(ddof=0))
    if not math.isfinite(ade_variance):
        worst = int(np.argmax(abs(window_ades - window_ades.mean())))
        raise ValidationError(f"ADE variance overflows; test window {worst} is furthest from the mean")
    nlls, degenerate = [], 0
    block = max(1, _MEMBERS_PER_BLOCK // k)
    for start in range(0, len(windows), block):
        part = slice(start, start + block)
        jitter = np.stack([
            np.random.default_rng((seed, idx)).normal(0.0, ENSEMBLE_SIGMA, size=(k, OBS_FRAMES, 2))
            for idx in range(start, min(start + block, len(windows)))
        ])
        ensemble = predictor.forecast(pos[part, None] + jitter, theta[part, None],
                                      None if gaze is None else gaze[part, None])  # (B, K, H, 2)
        _check_forecast(ensemble, start, "ensemble forecast")
        nll, count = _kde_nll(ensemble, truth[part], start)
        nlls.append(nll)
        degenerate += count
    if degenerate:
        warnings.warn(
            f"degenerate ensemble (all members identical) at {degenerate} of {steps.size} "
            "(window, step) pairs; bandwidth floor applied", RuntimeWarning, stacklevel=2,
        )

    curve = np.cumsum(steps, axis=0)[-1] / len(windows)
    return EvalReport(
        config=config.value,
        split="test",
        window_count=len(windows),
        ade=float(window_ades.mean()),
        fde=float(curve[-1]),
        ade_variance=ade_variance,
        kde_nll=float(np.concatenate(nlls).mean()),
        displacement_curve=[float(v) for v in curve],
        ensemble_k=k,
        ensemble_sigma=ENSEMBLE_SIGMA,
        seed=seed,
    )
