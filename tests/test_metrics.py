import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advda import metrics as mx
from advda.backend import BackendTransform, PldaModel, PldaScorer, \
    apply_transform
from advda.metrics import ScoreSet, TrialList
from conftest import plda_llr


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


def trial_list(*rows):
    """TrialList from (enroll, test, target) rows."""
    return TrialList(*zip(*rows)) if rows else TrialList([], [], [])


def test_trial_list_duplicate_rejected():
    with pytest.raises(ValueError, match=r"duplicate trial \('a', 'b'\)"):
        trial_list(("a", "b", True), ("c", "d", True), ("a", "b", False))


def test_trial_list_roundtrip(tmp_path):
    trials = trial_list(("e1", "t1", True), ("e1", "t2", False),
                        ("e2", "t1", False))
    path = tmp_path / "trials.txt"
    trials.write(path)
    assert path.read_text() == ("e1 t1 target\ne1 t2 nontarget\n"
                                "e2 t1 nontarget\n")
    back = TrialList.read(path)
    assert (back.enroll, back.test) == (trials.enroll, trials.test)
    assert back.target.tolist() == [True, False, False]


def test_trial_list_bad_line(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("e1 t1 maybe\n")
    with pytest.raises(ValueError, match="bad trial line"):
        TrialList.read(path)


@pytest.mark.parametrize("text, lineno", [
    ("a b target\nc d maybe\n", 2),                  # bad kind, by column
    ("a b target\n\n  \nc d\n", 4),                # too few tokens
    ("a b target\n\nc d nontarget extra\n", 3),     # too many tokens
    ("\n\na b Target\n", 3),                        # kinds are lower case
    ("a b target\r\n\r\nc d maybe\r\n", 3),      # CRLF numbered as LF
    ("a b\x0btarget\nc d\x1cmaybe\n", 2),            # \x0b, \x1c end no line
])
def test_trial_reader_names_the_bad_line(tmp_path, text, lineno):
    path = tmp_path / "trials.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=f":{lineno}: bad trial line"):
        TrialList.read(path)


def test_trial_reader_skips_blank_lines_and_reads_crlf(tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(b"\ne1 t1 target\n  \n\t\ne1 t2 nontarget")
    crlf.write_bytes(b"\r\ne1 t1 target\r\n  \r\n\t\r\ne1 t2 nontarget\r\n")
    for path in (lf, crlf):
        back = TrialList.read(path)
        assert (back.enroll, back.test) == (["e1", "e1"], ["t1", "t2"])
        assert back.target.tolist() == [True, False]


def test_trial_reader_empty_file(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("")
    trials = TrialList.read(path)
    assert len(trials) == 0
    assert trials.target.dtype == bool


def test_score_set_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite score for trial c d"):
        ScoreSet(["a", "c"], ["b", "d"], [1.0, np.nan])


def test_score_set_roundtrip(tmp_path, rng):
    values = [1.234567891, -0.5, *rng.normal(scale=30.0, size=50)]
    scores = ScoreSet([f"e{i}" for i in range(len(values))],
                      [f"t{i}" for i in range(len(values))], values)
    path = tmp_path / "scores.txt"
    scores.write(path)
    back = ScoreSet.read(path)
    assert (back.enroll, back.test) == (scores.enroll, scores.test)
    assert back.values.tolist() == values


def test_score_file_bytes(tmp_path):
    path = tmp_path / "scores.txt"
    ScoreSet(["e1", "e1", "e2"], ["t1", "t2", "t1"],
             [0.1, -0.0, 1e-320]).write(path)
    assert path.read_bytes() == b"e1 t1 0.1\ne1 t2 -0.0\ne2 t1 1e-320\n"


def test_report_from_disk_equals_in_memory(tmp_path):
    # a nontarget 1e-9 above a target: a file rounded to a few decimals
    # ties them, which moves the EER from 1/3 to 1/6
    values = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0 + 1e-9]
    trials = trial_list(*[(f"e{i}", f"t{i}", i < 3) for i in range(6)])
    scores = ScoreSet(trials.enroll, trials.test, values)
    path = tmp_path / "scores.txt"
    scores.write(path)
    from_disk = mx.evaluation_report(ScoreSet.read(path), trials)
    assert from_disk == mx.evaluation_report(scores, trials)
    assert from_disk["eer_pct"] == pytest.approx(100.0 / 3)


def test_score_set_duplicate_line(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("a b 1.0\n\nc d 3.0\na b 2.0\n")
    with pytest.raises(ValueError, match=":4: duplicate score"):
        ScoreSet.read(path)
    with pytest.raises(ValueError, match="duplicate score for trial a b"):
        ScoreSet(["a", "a"], ["b", "b"], [1.0, 2.0])


def test_score_set_bad_line(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("a b 1.0\n\nc d\n")
    with pytest.raises(ValueError, match=":3: bad score line"):
        ScoreSet.read(path)


def test_score_set_unparseable_value(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("a b 1.0\n\nc d x1\n")
    message = re.escape(f"{path}:3: bad score line") + "$"
    with pytest.raises(ValueError, match=message):
        ScoreSet.read(path)


# Hypothesis: write -> read keeps every id and every value bit.

_ids = st.text(st.characters(exclude_categories=("Cs",)), min_size=1,
               max_size=6).filter(lambda s: s.split() == [s])
_doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308,
                                      -1e308]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_ids, _ids, st.booleans(), _doubles),
                max_size=20, unique_by=lambda r: (r[0], r[1])))
def test_containers_roundtrip_bit_exact(tmp_path, rows):
    enroll = [r[0] for r in rows]
    test = [r[1] for r in rows]
    target = [r[2] for r in rows]
    values = np.array([r[3] for r in rows], dtype=np.float64)
    path = tmp_path / "file.txt"
    TrialList(enroll, test, target).write(path)
    trials = TrialList.read(path)
    assert (trials.enroll, trials.test) == (enroll, test)
    assert trials.target.tolist() == target
    ScoreSet(enroll, test, values).write(path)
    scores = ScoreSet.read(path)
    assert (scores.enroll, scores.test) == (enroll, test)
    assert np.array_equal(scores.values.view(np.int64),
                          values.view(np.int64))


# ---------------------------------------------------------------------------
# trial scoring against the backend


def random_backend(rng, r=3, d=5):
    a = rng.normal(size=(r, r))
    c = rng.normal(size=(r, r))
    model = PldaModel(mu=rng.normal(size=r),
                      between=a @ a.T / r + 0.1 * np.eye(r),
                      within=c @ c.T / r + 0.1 * np.eye(r))
    transform = BackendTransform(mean=rng.normal(size=d),
                                 lda=rng.normal(size=(r, d)),
                                 length_norm=True)
    return transform, model


def test_score_trials_composition_oracle(rng):
    transform, model = random_backend(rng)
    embeddings = {f"u{i}": rng.normal(size=5) for i in range(6)}
    trials = trial_list(("u0", "u1", True), ("u2", "u3", False),
                        ("u4", "u5", True))
    scores = mx.score_trials(transform, model, embeddings, trials)
    for e, t in zip(trials.enroll, trials.test):
        expected = plda_llr(model,
                            apply_transform(transform, embeddings[e]),
                            apply_transform(transform, embeddings[t]))
        assert scores.values[scores.index[(e, t)]] == pytest.approx(
            expected, abs=1e-9)


def test_score_trials_bits_equal_per_trial_stacking(rng):
    # the reference: transform each trial's vectors and score the stack
    transform, model = random_backend(rng, r=4, d=7)
    embeddings = {f"u{i}": rng.normal(size=7) for i in range(12)}
    pairs = {(f"u{i}", f"u{j}") for i, j in rng.integers(0, 12, (80, 2))
             if i != j}
    trials = trial_list(*[(e, t, bool(k)) for (e, t), k in
                          zip(sorted(pairs), rng.integers(0, 2, len(pairs)))])
    scores = mx.score_trials(transform, model, embeddings, trials)
    expected = PldaScorer(model).score(
        np.stack([apply_transform(transform, embeddings[e])
                  for e in trials.enroll]),
        np.stack([apply_transform(transform, embeddings[t])
                  for t in trials.test]))
    assert (scores.enroll, scores.test) == (trials.enroll, trials.test)
    assert np.array_equal(scores.values.view(np.int64),
                          expected.view(np.int64))


def test_score_trials_missing_embedding(rng):
    model = PldaModel(mu=np.zeros(2), between=np.eye(2), within=np.eye(2))
    transform = BackendTransform(mean=np.zeros(2), lda=np.eye(2),
                                 length_norm=False)
    embeddings = {"u0": np.ones(2), "u1": np.ones(2)}
    # the first missing id in trial order, enroll before test
    trials = trial_list(("u0", "u1", True), ("u0", "gone", False),
                        ("missing", "u1", False))
    with pytest.raises(ValueError, match="'gone'"):
        mx.score_trials(transform, model, embeddings, trials)
    trials = trial_list(("u0", "u1", True), ("lost", "gone", False))
    with pytest.raises(ValueError, match="'lost'"):
        mx.score_trials(transform, model, embeddings, trials)


# ---------------------------------------------------------------------------
# report


def test_evaluation_report_fields_and_average(rng, tmp_path):
    tgt = rng.normal(loc=2.0, size=100)
    non = rng.normal(loc=-2.0, size=400)
    trials = trial_list(*[(f"e{i}", f"t{i}", True) for i in range(100)],
                        *[(f"ne{i}", f"nt{i}", False) for i in range(400)])
    scores = ScoreSet(trials.enroll, trials.test, np.concatenate([tgt, non]))
    report = mx.evaluation_report(scores, trials)
    assert set(report) == {"eer_pct", "min_dcf_001", "min_dcf_0005",
                           "dcf_avg"}
    assert report["eer_pct"] == pytest.approx(mx.eer_from_scores(tgt, non))
    assert report["dcf_avg"] == pytest.approx(
        0.5 * (report["min_dcf_001"] + report["min_dcf_0005"]))
    path = tmp_path / "report.json"
    mx.write_report(path, report)
    assert json.loads(path.read_text()) == pytest.approx(report)


def test_report_independent_of_score_file_order(rng, tmp_path):
    n = 300
    trials = trial_list(*[(f"e{i % 40}", f"t{i}", i % 3 == 0)
                          for i in range(n)])
    values = rng.normal(size=n) + 2.0 * trials.target
    ScoreSet(trials.enroll, trials.test, values).write(tmp_path / "a.txt")
    perm = rng.permutation(n)
    ScoreSet([trials.enroll[i] for i in perm], [trials.test[i] for i in perm],
             values[perm]).write(tmp_path / "b.txt")
    a, b = (mx.evaluation_report(ScoreSet.read(tmp_path / name), trials)
            for name in ("a.txt", "b.txt"))
    assert json.dumps(a) == json.dumps(b)
    assert a == mx.evaluation_report(ScoreSet(trials.enroll, trials.test,
                                              values), trials)


def test_report_names_a_trial_without_score():
    trials = trial_list(("a", "b", True), ("c", "d", False), ("e", "f", False))
    scores = ScoreSet(["e", "a"], ["f", "b"], [0.0, 1.0])
    with pytest.raises(ValueError, match="no score for trial c d"):
        mx.evaluation_report(scores, trials)


def test_report_requires_both_trial_kinds():
    scores = ScoreSet(["a"], ["b"], [1.0])
    trials = trial_list(("a", "b", True))
    with pytest.raises(ValueError, match="target"):
        mx.evaluation_report(scores, trials)
