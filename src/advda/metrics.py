"""Trial handling and detection metrics (EER, normalized minDCF).

Both metrics depend only on the ordering of scores, so they are
invariant under strictly increasing score transforms.  Thresholds are
swept at midpoints between consecutive distinct scores plus the two
infinite endpoints; tied scores cross a threshold together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .backend import PldaScorer, apply_transform


@dataclass(frozen=True)
class Trial:
    enroll: str
    test: str
    target: bool


class TrialList:
    def __init__(self, trials):
        self.trials = list(trials)
        seen = set()
        for t in self.trials:
            key = (t.enroll, t.test)
            if key in seen:
                raise ValueError(f"duplicate trial {key}")
            seen.add(key)

    def __len__(self):
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    @classmethod
    def read(cls, path):
        trials = []
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[2] not in ("target", "nontarget"):
                    raise ValueError(f"{path}:{lineno}: bad trial line")
                trials.append(Trial(parts[0], parts[1],
                                    parts[2] == "target"))
        return cls(trials)

    def write(self, path):
        with open(path, "w") as f:
            for t in self.trials:
                key = "target" if t.target else "nontarget"
                f.write(f"{t.enroll} {t.test} {key}\n")


class ScoreSet:
    def __init__(self, scores: dict):
        for key, s in scores.items():
            if not np.isfinite(s):
                raise ValueError(f"non-finite score for trial {key}")
        self.scores = dict(scores)

    def __len__(self):
        return len(self.scores)

    def __getitem__(self, key):
        return self.scores[key]

    @classmethod
    def read(cls, path):
        scores = {}
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: bad score line")
                key = (parts[0], parts[1])
                if key in scores:
                    raise ValueError(f"{path}:{lineno}: duplicate score")
                scores[key] = float(parts[2])
        return cls(scores)

    def write(self, path):
        with open(path, "w") as f:
            for (e, t), s in self.scores.items():
                # repr is the shortest string that reads back exactly
                f.write(f"{e} {t} {float(s)!r}\n")


def score_trials(transform, model, embeddings: dict,
                 trials: TrialList) -> ScoreSet:
    """PLDA LLR per trial; embeddings maps utterance id to raw vector."""
    for t in trials:
        for uid in (t.enroll, t.test):
            if uid not in embeddings:
                raise ValueError(f"no embedding for utterance {uid!r}")
    transformed = {}

    def get(uid):
        if uid not in transformed:
            transformed[uid] = apply_transform(transform, embeddings[uid])
        return transformed[uid]

    scorer = PldaScorer(model)
    if not len(trials):
        return ScoreSet({})
    enroll = np.stack([get(t.enroll) for t in trials])
    test = np.stack([get(t.test) for t in trials])
    llrs = scorer.score(enroll, test)
    return ScoreSet({(t.enroll, t.test): float(s)
                     for t, s in zip(trials, llrs)})


def _split_scores(scores: ScoreSet, trials: TrialList):
    tgt, non = [], []
    for t in trials:
        s = scores.scores.get((t.enroll, t.test))
        if s is None:
            raise ValueError(f"no score for trial {t.enroll} {t.test}")
        (tgt if t.target else non).append(s)
    if not tgt or not non:
        raise ValueError("need at least one target and one nontarget trial")
    return np.asarray(tgt, dtype=np.float64), np.asarray(non, dtype=np.float64)


def _error_rates(tgt: np.ndarray, non: np.ndarray):
    """P_miss and P_fa for the decision 'accept iff score > threshold',
    at thresholds between consecutive distinct pooled scores."""
    thresholds = np.unique(np.concatenate([tgt, non]))
    mids = (thresholds[:-1] + thresholds[1:]) / 2.0
    sweep = np.concatenate([[-np.inf], mids, [np.inf]])
    p_miss = np.searchsorted(np.sort(tgt), sweep, side="right") / len(tgt)
    p_fa = 1.0 - np.searchsorted(np.sort(non), sweep, side="right") / len(non)
    return p_miss, p_fa


def eer_from_scores(tgt: np.ndarray, non: np.ndarray) -> float:
    """Equal error rate in %, linearly interpolated on the ROC sweep."""
    p_miss, p_fa = _error_rates(tgt, non)
    diff = p_miss - p_fa
    idx = np.flatnonzero(diff >= 0)[0]   # diff is non-decreasing in threshold
    if idx == 0 or diff[idx] == 0:
        return 100.0 * p_miss[idx]
    m0, f0 = p_miss[idx - 1], p_fa[idx - 1]
    m1, f1 = p_miss[idx], p_fa[idx]
    # intersect the segment between the bracketing ROC points with miss == fa
    denom = (m1 - m0) - (f1 - f0)
    alpha = (f0 - m0) / denom if denom != 0 else 0.0
    return 100.0 * (m0 + alpha * (m1 - m0))


def min_dcf_from_scores(tgt: np.ndarray, non: np.ndarray,
                        p_target: float) -> float:
    """Minimum detection cost, normalized by the all-reject cost."""
    if not 0.0 < p_target < 1.0:
        raise ValueError("p_target must be in (0, 1)")
    p_miss, p_fa = _error_rates(tgt, non)
    dcf = p_target * p_miss + (1.0 - p_target) * p_fa
    return float(dcf.min() / p_target)


def evaluation_report(scores: ScoreSet, trials: TrialList,
                      priors=(0.01, 0.005)) -> dict:
    """EER plus minDCF at both operating points and their average."""
    tgt, non = _split_scores(scores, trials)
    d1 = min_dcf_from_scores(tgt, non, priors[0])
    d2 = min_dcf_from_scores(tgt, non, priors[1])
    return {
        "eer_pct": eer_from_scores(tgt, non),
        "min_dcf_001": d1,
        "min_dcf_0005": d2,
        "dcf_avg": 0.5 * (d1 + d2),
    }


def write_report(path, report: dict) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
