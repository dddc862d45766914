"""The paper's central comparison as a seeded regression test.

On the benchmark's experiment corpus (10 humans x 40 s, session split
(0.6, 0.2, 0.2), ridge lam 1, ensembles of K = 20), the test-set ADE must
keep the order gaze ridge < pose ridge < constant velocity, and ADE, FDE and
KDE-NLL must equal the values recorded in bench/reference_experiment.json.

Robots are scored the same way on their own corpus (10 robots x 40 s, the
same split and lam, pose only): the ridge must beat constant velocity.

The walkers' head and gaze leads are the cues under test, and these controls
are why they are parameters. With both set to zero, gaze ridge must score
within 1e-3 m of pose ridge. With equal leads the gaze shows nothing the head
does not, so gaze ridge must not beat pose ridge. With a gaze lead alone,
gaze ridge must lead by at least 0.1 m while the pose-only reports stay those
of the no-lead run. With the default leads, gaze ridge must stay ahead by at
least 0.03 m, and the head lead must gain pose ridge at least 0.1 m over the
no-lead run.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from fusioncast.metrics import evaluate
from fusioncast.predictors import ConstantVelocityPredictor, fit_ridge
from fusioncast.sessions import resample
from fusioncast.simulate import (
    CorpusConfig,
    HumanWalkerParams,
    _derived_seed,
    corpus_maps,
    generate_corpus,
    simulate_human,
)
from fusioncast.windows import FeatureConfig, segment, split_sessions

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference_experiment.json"
RTOL = 1e-12
# SHA-256 of the report JSONs of seeds 0-2 (see _reports_digest), recorded
# from an earlier build of the package with one BLAS thread.
REPORTS_SHA256 = "8e858053252b326baa4be5b47ad6d97d960a594880a8dd2f0c4e13479224f4a6"


def _corpus(seed):
    return generate_corpus(CorpusConfig(n_human=10, n_robot=0, duration_s=40.0, seed=seed))


def _reports(sessions, seed):
    frames = {s.session_id: resample(s).frames for s in sessions}
    split = split_sessions(sorted(frames), (0.6, 0.2, 0.2), seed)
    reports = {}
    for config in (FeatureConfig.POSE_ONLY, FeatureConfig.POSE_HEAD_GAZE):
        train = [w for sid in split.train for w in segment(frames[sid], sid, config)]
        test = [w for sid in split.test for w in segment(frames[sid], sid, config)]
        predictors = {config.value: fit_ridge(train, config, lam=1.0)}
        if config is FeatureConfig.POSE_ONLY:
            predictors["cv"] = ConstantVelocityPredictor(config)
        for name, predictor in predictors.items():
            reports[name] = evaluate(predictor, test, config, k=20, seed=seed)
    return reports


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaze_beats_pose_beats_cv_and_matches_reference(seed):
    reference = json.loads(REFERENCE.read_text())
    assert reference["corpus"] == [10, 0, 40.0]
    reports = _reports(_corpus(seed), seed)
    assert reports["pose_head_gaze"].ade < reports["pose_only"].ade < reports["cv"].ade
    for name, expected in reference["reports"][str(seed)].items():
        for key in ("ade", "fde", "kde_nll"):
            assert getattr(reports[name], key) == pytest.approx(expected[key], rel=RTOL, abs=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_robot_ridge_beats_cv(seed):
    sessions = generate_corpus(CorpusConfig(n_human=0, n_robot=10, duration_s=40.0, seed=seed))
    frames = {s.session_id: resample(s).frames for s in sessions}
    split = split_sessions(sorted(frames), (0.6, 0.2, 0.2), seed)
    config = FeatureConfig.ROBOT_POSE_ONLY
    train = [w for sid in split.train for w in segment(frames[sid], sid, config)]
    test = [w for sid in split.test for w in segment(frames[sid], sid, config)]
    assert train and test
    ridge = evaluate(fit_ridge(train, config, lam=1.0), test, config, k=20, seed=seed)
    cv = evaluate(ConstantVelocityPredictor(config), test, config, k=20, seed=seed)
    assert ridge.ade < cv.ade


def _walkers(seed, head_lead_s, gaze_lead_s):
    """The experiment's 10 walkers, built as generate_corpus builds them but
    with the given head and gaze leads."""
    maps = corpus_maps(seed)
    return [simulate_human(maps[i % len(maps)],
                           HumanWalkerParams(head_lead_s=head_lead_s, gaze_lead_s=gaze_lead_s,
                                             seed=_derived_seed(seed, 2, i)),
                           40.0, session_id=i + 1)
            for i in range(10)]


@functools.cache
def _lead_reports(seed, head_lead_s, gaze_lead_s):
    """The reports of _walkers(seed, head_lead_s, gaze_lead_s), which the
    no-lead run shares among three controls."""
    return _reports(_walkers(seed, head_lead_s, gaze_lead_s), seed)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gaze_ridge_gains_nothing_without_leads(seed):
    # Negative control: with no head or gaze lead, the cue channels carry no
    # anticipation, so gaze ridge must score as pose ridge does.
    reports = _lead_reports(seed, 0.0, 0.0)
    assert abs(reports["pose_head_gaze"].ade - reports["pose_only"].ade) <= 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gaze_ridge_gains_nothing_over_equal_leads(seed):
    # Negative control: gaze that leads by as much as the head adds no
    # anticipation to the head yaw that pose ridge already sees (gaze ridge
    # read 0.0007-0.0117 m behind).
    reports = _lead_reports(seed, 0.4, 0.4)
    assert reports["pose_head_gaze"].ade >= reports["pose_only"].ade


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gaze_ridge_gains_with_gaze_lead_only(seed):
    # Positive control: a gaze lead alone is all gaze ridge's margin (read
    # 0.142-0.158 m). The body path and head yaw do not depend on the gaze
    # lead, so the pose-only reports are the no-lead run's to the byte.
    reports = _lead_reports(seed, 0.0, 0.8)
    assert reports["pose_only"].ade - reports["pose_head_gaze"].ade >= 0.1
    no_leads = _lead_reports(seed, 0.0, 0.0)
    for name in ("pose_only", "cv"):
        assert reports[name].to_json() == no_leads[name].to_json()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gaze_ridge_gains_with_default_leads(seed):
    # The same construction with the default leads is the reference
    # experiment, where gaze ridge leads pose ridge by at least 0.03 m, and
    # the head lead gains pose ridge at least 0.1 m over the no-lead run
    # (read 0.145-0.237 m).
    defaults = HumanWalkerParams()
    reports = _lead_reports(seed, defaults.head_lead_s, defaults.gaze_lead_s)
    reference = json.loads(REFERENCE.read_text())["reports"][str(seed)]
    for name in ("pose_only", "pose_head_gaze"):
        assert reports[name].ade == pytest.approx(reference[name]["ade"], rel=RTOL, abs=0)
    assert reports["pose_only"].ade - reports["pose_head_gaze"].ade >= 0.03
    assert _lead_reports(seed, 0.0, 0.0)["pose_only"].ade - reports["pose_only"].ade >= 0.1


def _reports_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        reports = _reports(_corpus(seed), seed)
        for name in sorted(reports):
            digest.update(reports[name].to_json().encode())
    return digest.hexdigest()


def test_report_bytes_pinned(one_thread_stdout):
    # Every byte of every report, not the values within RTOL, computed with
    # one BLAS thread (see conftest). The floats come from numpy, BLAS and
    # libm, so another platform may need its own digest.
    assert one_thread_stdout(__file__) == REPORTS_SHA256


if __name__ == "__main__":
    print(_reports_digest(range(3)))
