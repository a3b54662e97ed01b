import json

import numpy as np
import pytest

from advda import metrics as mx
from advda.backend import BackendTransform, PldaModel, apply_transform, \
    plda_score
from advda.metrics import ScoreSet, Trial, TrialList


def brute_force_rates(tgt, non, threshold):
    miss = np.mean(tgt <= threshold)
    fa = np.mean(non > threshold)
    return miss, fa


def brute_force_min_dcf(tgt, non, p):
    """Enumerate every achievable operating point directly."""
    pooled = np.unique(np.concatenate([tgt, non]))
    cands = np.concatenate([[-np.inf], pooled, [np.inf]])
    best = np.inf
    for th in cands:
        miss, fa = brute_force_rates(tgt, non, th)
        best = min(best, p * miss + (1 - p) * fa)
    return best / p


def brute_force_eer(tgt, non):
    """EER by scanning the ROC staircase for the miss/fa crossing and
    interpolating linearly between the bracketing vertices."""
    pooled = np.unique(np.concatenate([tgt, non]))
    mids = (pooled[:-1] + pooled[1:]) / 2
    sweep = np.concatenate([[-np.inf], mids, [np.inf]])
    pts = [brute_force_rates(tgt, non, th) for th in sweep]
    for k in range(len(pts)):
        miss, fa = pts[k]
        if miss >= fa:
            if k == 0 or miss == fa:
                return 100.0 * miss
            m0, f0 = pts[k - 1]
            denom = (miss - m0) - (fa - f0)
            a = (f0 - m0) / denom if denom else 0.0
            return 100.0 * (m0 + a * (miss - m0))
    raise AssertionError("no crossing")


# ---------------------------------------------------------------------------
# EER


def test_eer_perfect_separation():
    tgt = np.array([1.0, 2.0, 3.0])
    non = np.array([-1.0, -2.0, -3.0])
    assert mx.eer_from_scores(tgt, non) == 0.0


def test_eer_fully_interleaved(rng):
    x = rng.normal(size=2000)
    assert mx.eer_from_scores(x[:1000], x[1000:]) == pytest.approx(50.0, abs=5.0)


def test_eer_identical_distributions():
    s = np.array([0.0, 1.0, 2.0, 3.0])
    assert mx.eer_from_scores(s, s) == pytest.approx(50.0, abs=1e-9)


def test_eer_matches_brute_force(rng):
    for _ in range(20):
        tgt = rng.normal(loc=1.0, size=200)
        non = rng.normal(loc=-1.0, size=800)
        assert mx.eer_from_scores(tgt, non) == pytest.approx(
            brute_force_eer(tgt, non), abs=1e-10)


def test_eer_with_ties(rng):
    tgt = rng.integers(0, 5, size=300).astype(float)
    non = rng.integers(-2, 3, size=300).astype(float)
    assert mx.eer_from_scores(tgt, non) == pytest.approx(
        brute_force_eer(tgt, non), abs=1e-10)


def test_eer_invariant_under_monotone_transform(rng):
    tgt = rng.normal(loc=0.5, size=150)
    non = rng.normal(loc=-0.5, size=600)
    base = mx.eer_from_scores(tgt, non)
    for f in (lambda s: 3 * s + 7, np.tanh, lambda s: s ** 3):
        assert mx.eer_from_scores(f(tgt), f(non)) == pytest.approx(
            base, abs=1e-9)


# ---------------------------------------------------------------------------
# minDCF


def test_min_dcf_perfect_separation():
    tgt = np.array([5.0, 6.0])
    non = np.array([0.0, 1.0])
    assert mx.min_dcf_from_scores(tgt, non, 0.01) == 0.0


def test_min_dcf_constant_scores_is_one():
    # all-same scores: either reject all (cost p*1/p = 1) or accept all
    # (cost (1-p)/p, worse for p < 0.5)
    tgt = np.zeros(10)
    non = np.zeros(40)
    assert mx.min_dcf_from_scores(tgt, non, 0.01) == pytest.approx(1.0)


def test_min_dcf_never_exceeds_one_plus_rounding(rng):
    tgt = rng.normal(size=100)
    non = rng.normal(size=100)
    assert mx.min_dcf_from_scores(tgt, non, 0.01) <= 1.0 + 1e-12


def test_min_dcf_matches_brute_force(rng):
    for p in (0.01, 0.005, 0.3):
        for _ in range(10):
            tgt = rng.normal(loc=0.8, size=120)
            non = rng.normal(loc=-0.8, size=500)
            assert mx.min_dcf_from_scores(tgt, non, p) == pytest.approx(
                brute_force_min_dcf(tgt, non, p), abs=1e-12)


def test_min_dcf_bad_prior():
    tgt, non = np.ones(2), np.zeros(2)
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="p_target"):
            mx.min_dcf_from_scores(tgt, non, p)


def test_min_dcf_invariant_under_monotone_transform(rng):
    tgt = rng.normal(loc=0.5, size=80)
    non = rng.normal(loc=-0.5, size=300)
    base = mx.min_dcf_from_scores(tgt, non, 0.01)
    assert mx.min_dcf_from_scores(np.exp(tgt), np.exp(non), 0.01) == \
        pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# trial and score containers


def test_trial_list_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        TrialList([Trial("a", "b", True), Trial("a", "b", False)])


def test_trial_list_roundtrip(tmp_path):
    trials = TrialList([Trial("e1", "t1", True), Trial("e1", "t2", False),
                        Trial("e2", "t1", False)])
    path = tmp_path / "trials.txt"
    trials.write(path)
    back = TrialList.read(path)
    assert list(back) == list(trials)


def test_trial_list_bad_line(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("e1 t1 maybe\n")
    with pytest.raises(ValueError, match="bad trial line"):
        TrialList.read(path)


def test_score_set_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ScoreSet({("a", "b"): np.nan})


def test_score_set_roundtrip(tmp_path, rng):
    values = [1.234567891, -0.5, *rng.normal(scale=30.0, size=50)]
    scores = ScoreSet({(f"e{i}", f"t{i}"): float(v)
                       for i, v in enumerate(values)})
    path = tmp_path / "scores.txt"
    scores.write(path)
    assert ScoreSet.read(path).scores == scores.scores


def test_report_from_disk_equals_in_memory(tmp_path):
    # a nontarget 1e-9 above a target: a file rounded to a few decimals
    # ties them, which moves the EER from 1/3 to 1/6
    values = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0 + 1e-9]
    trials = TrialList([Trial(f"e{i}", f"t{i}", i < 3) for i in range(6)])
    scores = ScoreSet({(t.enroll, t.test): v
                       for t, v in zip(trials, values)})
    path = tmp_path / "scores.txt"
    scores.write(path)
    from_disk = mx.evaluation_report(ScoreSet.read(path), trials)
    assert from_disk == mx.evaluation_report(scores, trials)
    assert from_disk["eer_pct"] == pytest.approx(100.0 / 3)


def test_score_set_duplicate_line(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("a b 1.0\na b 2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        ScoreSet.read(path)


# ---------------------------------------------------------------------------
# trial scoring against the backend


def test_score_trials_composition_oracle(rng):
    r = 3
    a = rng.normal(size=(r, r))
    c = rng.normal(size=(r, r))
    model = PldaModel(mu=rng.normal(size=r),
                      between=a @ a.T / r + 0.1 * np.eye(r),
                      within=c @ c.T / r + 0.1 * np.eye(r))
    transform = BackendTransform(mean=rng.normal(size=5),
                                 lda=rng.normal(size=(r, 5)),
                                 length_norm=True)
    embeddings = {f"u{i}": rng.normal(size=5) for i in range(6)}
    trials = TrialList([Trial("u0", "u1", True), Trial("u2", "u3", False),
                        Trial("u4", "u5", True)])
    scores = mx.score_trials(transform, model, embeddings, trials)
    for t in trials:
        expected = plda_score(model,
                              apply_transform(transform, embeddings[t.enroll]),
                              apply_transform(transform, embeddings[t.test]))
        assert scores[(t.enroll, t.test)] == pytest.approx(expected, abs=1e-9)


def test_score_trials_missing_embedding(rng):
    model = PldaModel(mu=np.zeros(2), between=np.eye(2), within=np.eye(2))
    transform = BackendTransform(mean=np.zeros(2), lda=np.eye(2),
                                 length_norm=False)
    trials = TrialList([Trial("u0", "missing", True)])
    with pytest.raises(ValueError, match="missing"):
        mx.score_trials(transform, model, {"u0": np.ones(2)}, trials)


# ---------------------------------------------------------------------------
# report


def test_evaluation_report_fields_and_average(rng, tmp_path):
    tgt = rng.normal(loc=2.0, size=100)
    non = rng.normal(loc=-2.0, size=400)
    trials, scores = [], {}
    for i, s in enumerate(tgt):
        trials.append(Trial(f"e{i}", f"t{i}", True))
        scores[(f"e{i}", f"t{i}")] = float(s)
    for i, s in enumerate(non):
        trials.append(Trial(f"ne{i}", f"nt{i}", False))
        scores[(f"ne{i}", f"nt{i}")] = float(s)
    report = mx.evaluation_report(ScoreSet(scores), TrialList(trials))
    assert set(report) == {"eer_pct", "min_dcf_001", "min_dcf_0005",
                           "dcf_avg"}
    assert report["eer_pct"] == pytest.approx(mx.eer_from_scores(tgt, non))
    assert report["dcf_avg"] == pytest.approx(
        0.5 * (report["min_dcf_001"] + report["min_dcf_0005"]))
    path = tmp_path / "report.json"
    mx.write_report(path, report)
    assert json.loads(path.read_text()) == pytest.approx(report)


def test_report_requires_both_trial_kinds():
    scores = ScoreSet({("a", "b"): 1.0})
    trials = TrialList([Trial("a", "b", True)])
    with pytest.raises(ValueError, match="target"):
        mx.evaluation_report(scores, trials)
