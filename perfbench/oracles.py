"""Output checks that share no code with `advda`.

Files are parsed with readers written here from the on-disk formats, and
each result is recomputed by a plain method: a numpy forward pass for
embeddings, scipy's multivariate normal for PLDA log-likelihood ratios,
a brute-force threshold sweep for EER and minDCF, scipy's hierarchical
clustering for pseudo-labels, and counting for the trial list.  Every
check returns a list of problems (empty when the output is right).
`self_test` runs each oracle on a case whose answer is known by hand.

Run `python3 perfbench/oracles.py` to run the self-tests alone.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter

import numpy as np
import scipy.cluster.hierarchy
import scipy.stats

VAR_FLOOR = 1e-10       # stats-pool variance floor of the extractor


# ---------------------------------------------------------------------------
# readers


class _Reader:
    def __init__(self, path):
        with open(path, "rb") as f:
            self.buf = f.read()
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise ValueError(f"{self.path}: truncated at byte {self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def named_f64(self):
        (nlen,) = self.unpack("<I")
        name = self.take(nlen).decode()
        (rank,) = self.unpack("<I")
        shape = self.unpack(f"<{rank}I") if rank else ()
        n = math.prod(shape)
        return name, np.frombuffer(self.take(8 * n), "<f8").reshape(shape)


def read_xvf(path) -> dict:
    """XVF1 archive: magic, u32 version, u64 count, then per record a
    u32-prefixed id and a (u32 T, u32 m) float32 matrix."""
    r = _Reader(path)
    if r.take(4) != b"XVF1" or r.unpack("<I") != (1,):
        raise ValueError(f"{path}: not an XVF1 archive")
    (count,) = r.unpack("<Q")
    out = {}
    for _ in range(count):
        (nlen,) = r.unpack("<I")
        uid = r.take(nlen).decode()
        t, m = r.unpack("<II")
        out[uid] = np.frombuffer(r.take(4 * t * m), "<f4").reshape(t, m)
    return out


def read_checkpoint(path):
    """ADVD checkpoint: magic, version, config JSON, named float64 blobs."""
    r = _Reader(path)
    if r.take(4) != b"ADVD" or r.unpack("<I") != (1,):
        raise ValueError(f"{path}: not an ADVD checkpoint")
    (clen,) = r.unpack("<I")
    config = json.loads(r.take(clen))
    (n,) = r.unpack("<I")
    return config, dict(r.named_f64() for _ in range(n))


def read_bundle(path):
    """ADVB backend bundle: magic, version, meta JSON, five named arrays."""
    r = _Reader(path)
    if r.take(4) != b"ADVB" or r.unpack("<I") != (1,):
        raise ValueError(f"{path}: not an ADVB bundle")
    (mlen,) = r.unpack("<I")
    meta = json.loads(r.take(mlen))
    arrays = dict(r.named_f64() for _ in range(5))
    arrays["length_norm"] = bool(meta["length_norm"])
    return arrays


def read_tsv(path) -> list:
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def read_trials(path) -> list:
    with open(path) as f:
        return [(e, t, k == "target") for e, t, k in
                (line.split() for line in f if line.strip())]


def read_scores(path) -> dict:
    with open(path) as f:
        return {(e, t): float(s) for e, t, s in
                (line.split() for line in f if line.strip())}


# ---------------------------------------------------------------------------
# embeddings: plain numpy forward pass


def forward_embedding(config: dict, params: dict, frames, bit: int):
    """Inference-mode extractor: per layer clamped splice, domain-bit
    column, affine, relu, batch norm from running statistics; then
    mean/std pooling with the variance floor, bit column, embedding
    affine.  Parameter names are those of the checkpoint."""
    x = np.asarray(frames, dtype=np.float64)
    t = x.shape[0]
    col = float(bit) if config["use_domain_bit"] else None
    eps = config["bn_eps"]
    for i, ctx in enumerate(config["tdnn_contexts"]):
        p = lambda k: params[f"extractor/tdnn{i}.{k}"]  # noqa: E731
        rows = np.clip(np.arange(t)[:, None] + np.asarray(ctx)[None, :],
                       0, t - 1)
        x = x[rows].reshape(t, -1)
        if col is not None:
            x = np.hstack([x, np.full((t, 1), col)])
        x = np.maximum(x @ p("W").T + p("b"), 0.0)
        x = (x - p("rmean")) / np.sqrt(p("rvar") + eps) * p("gamma") \
            + p("beta")
    pooled = np.concatenate([x.mean(axis=0),
                             np.sqrt(x.var(axis=0) + VAR_FLOOR)])
    if col is not None:
        pooled = np.append(pooled, col)
    return pooled @ params["extractor/embed.W"].T + params["extractor/embed.b"]


def check_embeddings(ckpt_path, feats_path, emb_path, uids, bit) -> list:
    """Recompute the embeddings of `uids` and compare them with the
    archive to float32 precision."""
    config, params = read_checkpoint(ckpt_path)
    feats, embs = read_xvf(feats_path), read_xvf(emb_path)
    problems = []
    if set(feats) != set(embs):
        problems.append(f"{emb_path}: utterance set differs from features")
    for uid in uids:
        want = forward_embedding(config, params, feats[uid], bit)
        got = embs[uid][0].astype(np.float64)
        tol = 4 * np.finfo(np.float32).eps * max(1.0, np.abs(want).max())
        if embs[uid].shape != (1, want.size) or \
                np.abs(got - want).max() > tol:
            problems.append(f"{emb_path}: embedding of {uid} differs")
    return problems


# ---------------------------------------------------------------------------
# PLDA bundles and log-likelihood ratios


def check_bundle(path) -> list:
    """Shapes agree; between is symmetric PSD and within symmetric PD."""
    b = read_bundle(path)
    r, d = b["lda"].shape
    problems = []
    if b["mean"].shape != (d,) or b["mu"].shape != (r,):
        problems.append(f"{path}: mean or mu has the wrong shape")
    for name in ("between", "within"):
        m = b[name]
        if m.shape != (r, r) or not np.allclose(m, m.T, atol=1e-8):
            problems.append(f"{path}: {name} is not a symmetric {r}x{r}")
        elif np.linalg.eigvalsh(m).min() <= (-1e-8 if name == "between"
                                               else 0.0):
            problems.append(f"{path}: {name} has a bad eigenvalue")
    return problems


def _project(b, x):
    y = b["lda"] @ (np.asarray(x, dtype=np.float64) - b["mean"])
    if b["length_norm"]:
        y = math.sqrt(y.size) * y / np.linalg.norm(y)
    return y


def plda_llr(b, enroll, test) -> float:
    """Two-covariance Gaussian log-ratio: same speaker (joint covariance
    [[B+W, B], [B, B+W]]) against different speakers, on projected and
    length-normalised vectors."""
    e, t = _project(b, enroll), _project(b, test)
    mu, bb = b["mu"], b["between"]
    total = bb + b["within"]
    joint = scipy.stats.multivariate_normal(
        np.concatenate([mu, mu]), np.block([[total, bb], [bb, total]]))
    single = scipy.stats.multivariate_normal(mu, total)
    return float(joint.logpdf(np.concatenate([e, t]))
                 - single.logpdf(e) - single.logpdf(t))


def check_llrs(bundle_path, emb_path, score_path, trials, idx) -> list:
    """Recompute the LLR of the trials at `idx` and compare with the score
    file, which rounds to 6 decimals."""
    b = read_bundle(bundle_path)
    embs, scores = read_xvf(emb_path), read_scores(score_path)
    problems = []
    if len(scores) != len(trials):
        problems.append(f"{score_path}: {len(scores)} scores for "
                        f"{len(trials)} trials")
    for i in idx:
        e, t, _ = trials[i]
        want = plda_llr(b, embs[e][0], embs[t][0])
        got = scores.get((e, t))
        if got is None or abs(got - want) > 1e-5 * max(1.0, abs(want)):
            problems.append(f"{score_path}: LLR of {e} {t} is {got}, "
                            f"oracle {want:.6f}")
    return problems


# ---------------------------------------------------------------------------
# EER and minDCF by brute force


def error_rates(tgt, non, thresholds, chunk=256):
    """P_miss and P_fa of 'accept iff score > threshold', counted
    directly at every threshold."""
    tgt, non = np.asarray(tgt), np.asarray(non)
    miss, fa = [], []
    for i in range(0, len(thresholds), chunk):
        th = thresholds[i:i + chunk, None]
        miss.append((tgt[None, :] <= th).sum(axis=1) / tgt.size)
        fa.append((non[None, :] > th).sum(axis=1) / non.size)
    return np.concatenate(miss), np.concatenate(fa)


def eer_and_dcfs(tgt, non, priors):
    """EER (%) interpolated at the miss/fa crossing, and normalised
    minDCF per prior, over midpoints between distinct pooled scores."""
    pooled = np.unique(np.concatenate([tgt, non]))
    sweep = np.concatenate([[-np.inf], (pooled[:-1] + pooled[1:]) / 2,
                            [np.inf]])
    miss, fa = error_rates(tgt, non, sweep)
    k = int(np.argmax(miss >= fa))
    if k == 0 or miss[k] == fa[k]:
        eer = 100.0 * miss[k]
    else:
        m0, f0, m1, f1 = miss[k - 1], fa[k - 1], miss[k], fa[k]
        denom = (m1 - m0) - (f1 - f0)
        a = (f0 - m0) / denom if denom else 0.0
        eer = 100.0 * (m0 + a * (m1 - m0))
    dcfs = [float((p * miss + (1 - p) * fa).min() / p) for p in priors]
    return float(eer), dcfs


def check_report(score_path, trials, report_path, priors) -> list:
    scores = read_scores(score_path)
    tgt = np.asarray([scores[(e, t)] for e, t, k in trials if k])
    non = np.asarray([scores[(e, t)] for e, t, k in trials if not k])
    eer, (d1, d2) = eer_and_dcfs(tgt, non, priors)
    with open(report_path) as f:
        rep = json.load(f)
    problems = []
    for key, want in (("eer_pct", eer), ("min_dcf_001", d1),
                      ("min_dcf_0005", d2)):
        if abs(rep[key] - want) > 1e-9:
            problems.append(f"{report_path}: {key} {rep[key]} != {want}")
    return problems


# ---------------------------------------------------------------------------
# pseudo-labels


def same_partition(a, b) -> bool:
    """True when two labelings group the items the same way."""
    def canon(labels):
        first = {}
        return [first.setdefault(x, len(first)) for x in labels]
    return len(a) == len(b) and canon(list(a)) == canon(list(b))


def cluster(embeddings, threshold):
    """Average linkage under cosine distance, cut at 1 - threshold."""
    z = scipy.cluster.hierarchy.linkage(np.asarray(embeddings, float),
                                        method="average", metric="cosine")
    return scipy.cluster.hierarchy.fcluster(z, 1.0 - threshold, "distance")


def check_pseudo_labels(ckpt_path, feats_path, labels: dict,
                        threshold) -> list:
    """Cluster the checkpoint's target embeddings (bit 1) and compare the
    partition with the labels the program produced."""
    config, params = read_checkpoint(ckpt_path)
    feats = read_xvf(feats_path)
    uids = sorted(feats)
    if sorted(labels) != uids:
        return [f"pseudo-labels cover {len(labels)} of {len(uids)} "
                f"utterances"]
    embs = [forward_embedding(config, params, feats[u], 1) for u in uids]
    want = cluster(embs, threshold)
    if not same_partition([labels[u] for u in uids], want):
        return [f"pseudo-label partition differs from scipy average "
                f"linkage ({len(set(labels.values()))} vs "
                f"{len(set(want))} clusters)"]
    return []


# ---------------------------------------------------------------------------
# trial list, training logs


def check_trials(manifest_path, trials_path, nontarget_per_target) -> list:
    speaker = {r["utt_id"]: r["speaker_id"] for r in read_tsv(manifest_path)}
    return trial_problems(speaker, read_trials(trials_path),
                          nontarget_per_target)


def trial_problems(speaker: dict, trials: list, nontarget_per_target) -> list:
    """Targets are all same-speaker pairs, nontargets the asked multiple
    of them, with no pair twice and no same-speaker nontarget."""
    sizes = Counter(speaker.values())
    n_tgt = sum(n * (n - 1) // 2 for n in sizes.values())
    problems = []
    got_tgt = sum(1 for _, _, k in trials if k)
    if got_tgt != n_tgt:
        problems.append(f"{got_tgt} target trials, expected {n_tgt}")
    got_non = len(trials) - got_tgt
    if got_non != nontarget_per_target * n_tgt:
        problems.append(f"{got_non} nontarget trials, expected "
                        f"{nontarget_per_target * n_tgt}")
    pairs = [frozenset((e, t)) for e, t, _ in trials]
    if len(set(pairs)) != len(pairs):
        problems.append("duplicate trials")
    for e, t, k in trials:
        if (speaker[e] == speaker[t]) != k:
            problems.append(f"trial {e} {t} labelled "
                            f"{'target' if k else 'nontarget'} wrongly")
            break
    return problems


LOSS_KEYS = ("l_wd", "l_grad", "source_ce", "target_ce")


def read_log(path) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_losses(log) -> list:
    bad = [(r["epoch"], k) for r in log for k in LOSS_KEYS
           if r.get(k) is not None and not math.isfinite(r[k])]
    return [f"non-finite {k} in epoch {e}" for e, k in bad]


def check_ce_falls(log) -> list:
    if len(log) < 2 or not log[-1]["source_ce"] < log[0]["source_ce"]:
        return ["source CE did not fall from the first to the last epoch"]
    return []


def check_critic_gap(log, warmup_epochs) -> list:
    warm, last = log[warmup_epochs - 1]["l_wd"], log[-1]["l_wd"]
    if not last < warm:
        return [f"critic gap {last:.4f} after the last epoch is not below "
                f"its warm-up value {warm:.4f}"]
    return []


# ---------------------------------------------------------------------------
# self-tests on cases with known answers


def self_test() -> list:
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(f"self-test: {what}")

    # forward pass: one 1-wide layer with context (-1, 0, 1) and weights
    # (0, 1, 0) is the identity; batch norm from (mean 1, var 4 - eps)
    # halves and centres; pooling then gives mean and std of the frames.
    eps = 1e-5
    config = {"use_domain_bit": True, "bn_eps": eps,
              "tdnn_contexts": [[-1, 0, 1]]}
    params = {"extractor/tdnn0.W": np.array([[0.0, 1.0, 0.0, 0.0]]),
              "extractor/tdnn0.b": np.zeros(1),
              "extractor/tdnn0.rmean": np.ones(1),
              "extractor/tdnn0.rvar": np.full(1, 4.0 - eps),
              "extractor/tdnn0.gamma": np.ones(1),
              "extractor/tdnn0.beta": np.zeros(1),
              "extractor/embed.W": np.array([[1.0, 0.0, 0.0],
                                             [0.0, 1.0, 0.0],
                                             [0.0, 0.0, 1.0]]),
              "extractor/embed.b": np.zeros(3)}
    frames = np.array([[1.0], [3.0], [5.0]])   # normalised: 0, 1, 2
    got = forward_embedding(config, params, frames, bit=1)
    expect(np.allclose(got, [1.0, math.sqrt(2 / 3 + VAR_FLOOR), 1.0]),
           f"forward pass gave {got}")
    # clamped splice: the -1 context of the first frame is the first frame
    params["extractor/tdnn0.W"] = np.array([[1.0, 0.0, 0.0, 0.0]])
    got = forward_embedding(config, params, frames, bit=0)
    expect(np.isclose(got[0], (0 + 0 + 1) / 3), "splice does not clamp")

    # LLR: 1-D, B = W = 1, mu = 0, no projection, at e = t = 0 the ratio
    # is log N2(0; [[2,1],[1,2]]) - 2 log N1(0; 2) = log(4/3) / 2.
    bundle = {"mean": np.zeros(1), "lda": np.eye(1), "mu": np.zeros(1),
              "between": np.eye(1), "within": np.eye(1),
              "length_norm": False}
    got = plda_llr(bundle, [0.0], [0.0])
    expect(abs(got - 0.5 * math.log(4 / 3)) < 1e-12, f"LLR gave {got}")
    bundle["length_norm"] = True
    expect(np.allclose(_project(bundle, [-3.0]), [-1.0]),
           "length norm does not scale to radius sqrt(r)")

    # EER/minDCF: separated scores give 0; tgt {1, 3} vs non {2, 4}
    # cross at 50% with minDCF(0.5) = 0.5 / 0.5 = 1.
    eer, dcfs = eer_and_dcfs(np.array([1.0, 2, 3]), np.array([-1.0, -2]),
                             (0.01,))
    expect(eer == 0.0 and dcfs == [0.0], f"separated gave {eer}, {dcfs}")
    eer, dcfs = eer_and_dcfs(np.array([1.0, 3]), np.array([2.0, 4]), (0.5,))
    expect(abs(eer - 50.0) < 1e-12 and abs(dcfs[0] - 1.0) < 1e-12,
           f"interleaved gave {eer}, {dcfs}")

    # clustering: two clear directions give two groups, in any numbering
    pts = [[1.0, 0.0], [1.0, 0.01], [0.0, 1.0], [0.01, 1.0]]
    expect(same_partition(cluster(pts, 0.9), [7, 7, 3, 3]),
           "clustering of two directions")
    expect(not same_partition([0, 0, 1, 1], [0, 1, 1, 1]),
           "partition comparison accepts a different grouping")

    # trial counting on a hand-made list: 2 speakers x 3 utterances give
    # 6 targets, and nontarget_per_target = 1 asks for 6 nontargets
    speakers = {"a1": "A", "a2": "A", "a3": "A",
                "b1": "B", "b2": "B", "b3": "B"}
    good = ([(x, y, True) for s in "ab" for x, y in
             ((f"{s}1", f"{s}2"), (f"{s}1", f"{s}3"), (f"{s}2", f"{s}3"))]
            + [(f"a{i}", f"b{j}", False) for i, j in
               ((1, 1), (1, 2), (2, 3), (3, 1), (3, 2), (3, 3))])
    expect(trial_problems(speakers, good, 1) == [], "valid trial list")
    bad = good[:-1] + [("a1", "a3", False)]
    expect(len(trial_problems(speakers, bad, 1)) == 2,
           "same-speaker nontarget and duplicate not caught")
    log = [{"epoch": 0, "source_ce": 2.0, "l_wd": None},
           {"epoch": 1, "source_ce": 1.0, "l_wd": 0.5}]
    expect(check_losses(log) == [] and check_ce_falls(log) == [],
           "finite, falling losses flagged")
    expect(check_losses([{"epoch": 0, "source_ce": math.nan}]) != [],
           "NaN loss not caught")
    expect(check_ce_falls([{"source_ce": 1.0}, {"source_ce": 1.0}]) != [],
           "flat source CE not caught")
    expect(check_critic_gap([{"l_wd": 1.0}, {"l_wd": 0.5}], 1) == [] and
           check_critic_gap([{"l_wd": 1.0}, {"l_wd": 1.0}], 1) != [],
           "critic gap comparison")
    return problems


if __name__ == "__main__":
    found = self_test()
    print("\n".join(found) or "all oracle self-tests pass")
    raise SystemExit(1 if found else 0)
