"""Trial handling and detection metrics (EER, normalized minDCF).

Both metrics depend only on the ordering of scores, so they are
invariant under strictly increasing score transforms.  Thresholds are
swept at midpoints between consecutive distinct scores plus the two
infinite endpoints; tied scores cross a threshold together.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .backend import PldaScorer, apply_transform


def _read_columns(path, what):
    """The three columns of a whitespace-separated file, and its token
    count per line, for naming lines in errors (blank lines are skipped
    but counted)."""
    with open(path) as f:
        text = f.read()
    # lines numbered as `for line in f` numbers them; str.splitlines
    # would also break them at \x0b, \x0c, \x1c-\x1e, \x85 and \u2028
    counts = list(map(len, map(str.split, text.split("\n"))))
    if not set(counts) <= {0, 3}:
        lineno = next(n for n, c in enumerate(counts, 1) if c not in (0, 3))
        raise ValueError(f"{path}:{lineno}: bad {what} line")
    tokens = text.split()
    return (tokens[0::3], tokens[1::3], tokens[2::3]), counts


def _lineno(counts, k):
    """1-based line number of the k-th non-blank line."""
    return [n for n, c in enumerate(counts, 1) if c][k]


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _first_repeat(keys):
    """Index of the first key equal to an earlier one, or None."""
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    return None


class TrialList:
    """Trials as columns: enroll and test utterance ids and a bool
    target flag per trial."""

    def __init__(self, enroll, test, target):
        self.enroll, self.test = list(enroll), list(test)
        self.target = np.asarray(target, dtype=bool)
        if len(self.test) != len(self.enroll) \
                or self.target.shape != (len(self.enroll),):
            raise ValueError("trial columns differ in length")
        if len(set(zip(self.enroll, self.test))) != len(self.enroll):
            i = _first_repeat(zip(self.enroll, self.test))
            raise ValueError(
                f"duplicate trial {(self.enroll[i], self.test[i])}")

    def __len__(self):
        return len(self.enroll)

    @classmethod
    def read(cls, path):
        (enroll, test, kind), counts = _read_columns(path, "trial")
        if not set(kind) <= {"target", "nontarget"}:
            i = next(i for i, k in enumerate(kind)
                     if k not in ("target", "nontarget"))
            raise ValueError(f"{path}:{_lineno(counts, i)}: bad trial line")
        return cls(enroll, test, [k == "target" for k in kind])

    def write(self, path):
        kinds = ("nontarget", "target")
        with open(path, "w") as f:
            f.write("".join(f"{e} {t} {kinds[k]}\n" for e, t, k in
                            zip(self.enroll, self.test,
                                self.target.tolist())))


class ScoreSet:
    """Scores as columns: enroll and test utterance ids and a float64
    value per trial, with `index` mapping each (enroll, test) pair to its
    row."""

    def __init__(self, enroll, test, values):
        self.enroll, self.test = list(enroll), list(test)
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.test) != len(self.enroll) \
                or self.values.shape != (len(self.enroll),):
            raise ValueError("score columns differ in length")
        self.index = dict(zip(zip(self.enroll, self.test),
                              range(len(self.enroll))))
        if len(self.index) != len(self.enroll):
            i = _first_repeat(zip(self.enroll, self.test))
            raise ValueError(
                f"duplicate score for trial {self.enroll[i]} {self.test[i]}")
        finite = np.isfinite(self.values)
        if not finite.all():
            i = finite.argmin()
            raise ValueError(f"non-finite score for trial "
                             f"{self.enroll[i]} {self.test[i]}")

    def __len__(self):
        return len(self.enroll)

    @classmethod
    def read(cls, path):
        (enroll, test, text), counts = _read_columns(path, "score")
        try:
            values = np.fromiter(map(float, text), np.float64, len(text))
        except ValueError:
            i = next(i for i, t in enumerate(text) if not _is_float(t))
            raise ValueError(
                f"{path}:{_lineno(counts, i)}: bad score line") from None
        try:
            return cls(enroll, test, values)
        except ValueError:
            i = _first_repeat(zip(enroll, test))
            if i is None:
                raise
            raise ValueError(
                f"{path}:{_lineno(counts, i)}: duplicate score") from None

    def write(self, path):
        with open(path, "w") as f:
            # repr is the shortest string that reads back exactly
            f.write("".join(f"{e} {t} {s!r}\n" for e, t, s in
                            zip(self.enroll, self.test,
                                self.values.tolist())))


def score_trials(transform, model, embeddings: dict,
                 trials: TrialList) -> ScoreSet:
    """PLDA LLR per trial; embeddings maps utterance id to raw vector.

    Each distinct utterance is transformed once, on its own vector, and
    the trial rows are gathered from those, so every LLR has the bits of
    scoring the stacked per-trial vectors."""
    # distinct ids in trial order, enroll before test
    uids = list(dict.fromkeys(chain.from_iterable(
        zip(trials.enroll, trials.test))))
    missing = next((u for u in uids if u not in embeddings), None)
    if missing is not None:
        raise ValueError(f"no embedding for utterance {missing!r}")
    scorer = PldaScorer(model)
    if not len(trials):
        return ScoreSet([], [], [])
    vectors = np.stack([apply_transform(transform, embeddings[u])
                        for u in uids])
    row = {u: i for i, u in enumerate(uids)}

    def gather(ids):
        return vectors[np.fromiter(map(row.__getitem__, ids), np.intp,
                                   len(ids))]

    llrs = scorer.score(gather(trials.enroll), gather(trials.test))
    return ScoreSet(trials.enroll, trials.test, llrs)


def _split_scores(scores: ScoreSet, trials: TrialList):
    rows = list(map(scores.index.get, zip(trials.enroll, trials.test)))
    if None in rows:
        i = rows.index(None)
        raise ValueError(
            f"no score for trial {trials.enroll[i]} {trials.test[i]}")
    if trials.target.all() or not trials.target.any():
        raise ValueError("need at least one target and one nontarget trial")
    values = scores.values[np.array(rows, dtype=np.intp)]
    return values[trials.target], values[~trials.target]


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


def dcf_key(prior: float) -> str:
    """Report key of the minDCF at a prior: 0.01 gives `min_dcf_001`."""
    return "min_dcf_" + np.format_float_positional(prior).replace(".", "")


def evaluation_report(scores: ScoreSet, trials: TrialList,
                      priors=(0.01, 0.005)) -> dict:
    """EER, minDCF at each prior (keyed by `dcf_key`), and their mean."""
    tgt, non = _split_scores(scores, trials)
    dcfs = {dcf_key(p): min_dcf_from_scores(tgt, non, p) for p in priors}
    return {"eer_pct": eer_from_scores(tgt, non), **dcfs,
            "dcf_avg": sum(dcfs.values()) / len(dcfs)}


def write_report(path, report: dict) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
