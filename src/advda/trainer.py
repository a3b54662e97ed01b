"""Minimax adaptation training loop with gradient-penalized critic.

One outer iteration: embed a source and a target minibatch, run n critic
steps, each a descent step on the negated critic objective
-(L_wd - gamma * L_grad), then one descent step on the classifier heads
and the (non-frozen) extractor against L_c + delta * L_wd.  Early warm-up
epochs train only the critic and the source classifier.  Plain SGD
descent throughout, rates halved on a fixed epoch schedule.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from . import autodiff as ad
from . import network as net
from .network import NetworkParams
from .schema import at_least, check

Mode = Literal["sup", "adv", "adv+sup", "adv+lan+sup"]
Scope = Literal["all", "post-pool"]
MODES, SCOPES = get_args(Mode), get_args(Scope)


@dataclass
class TrainConfig:
    gamma: float = at_least(0, default=10.0)  # gradient-penalty weight
    # adversarial weight in the extractor loss
    delta: float = at_least(0, default=0.1)
    rate_critic: float = at_least(0, default=0.001)  # critic step rate
    # classifier/extractor descent rate
    rate_main: float = at_least(0, default=1.0)
    # inner critic iterations per outer step
    critic_steps: int = at_least(1, default=10)
    mode: Mode = "adv+sup"
    scope: Scope = "all"
    source_batch: int = at_least(1, default=150)
    target_batch: int = at_least(1, default=150)
    segment_frames: tuple[int, int] = at_least(1, default=(200, 400))
    epochs: int = at_least(0, default=85)
    minibatches_per_epoch: int = at_least(1, default=400)
    warmup_epochs: int = at_least(0, default=3)  # adaptation only
    halve_every: int = at_least(1, default=5)
    source_loss_weight: float = at_least(0, default=0.8)
    target_loss_weight: float = at_least(0, default=0.2)
    seed: int = at_least(0, default=0)

    def __post_init__(self):
        check(self)
        lo, hi = self.segment_frames
        if hi < lo:
            raise ValueError(f"segment_frames must have lo <= hi, got {lo, hi}")

    @property
    def adversarial(self) -> bool:
        return self.mode != "sup"

    @property
    def supervised_target(self) -> bool:
        return self.mode in ("sup", "adv+sup", "adv+lan+sup")


@dataclass
class Minibatch:
    """Cropped segments stacked along the rows, the source ones first."""
    frames: np.ndarray  # (T, m) float64
    counts: list        # frame count of each segment
    labels: list        # speaker label of each; None for unlabelled target
    n_source: int


def lr_schedule(epoch: int, cfg: TrainConfig):
    """Both rates scaled by 0.5^(epoch // halve_every)."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    factor = 0.5 ** (epoch // cfg.halve_every)
    return cfg.rate_critic * factor, cfg.rate_main * factor


def crop_segment(frames: np.ndarray, length_range, rng) -> np.ndarray:
    """Random contiguous crop with a random length in the given range.

    Utterances shorter than the drawn length are used whole.
    """
    lo, hi = length_range
    t = frames.shape[0]
    length = int(rng.integers(lo, hi + 1))
    if length >= t:
        return frames
    start = int(rng.integers(0, t - length + 1))
    return frames[start:start + length]


class MinibatchSampler:
    """Draws minibatches from per-domain feature dicts with label maps;
    with no target domain (`target_feats` None), source-only ones that
    draw nothing from the RNG for the target."""

    def __init__(self, source_feats: dict, source_labels: dict,
                 target_feats: dict | None, target_labels: dict | None,
                 cfg: TrainConfig):
        for name, feats in (("source", source_feats),
                            ("target", target_feats)):
            if feats is not None and not feats:
                raise ValueError(f"the {name} domain is empty")
        self.cfg = cfg
        self.src_ids = sorted(source_feats)
        self.tgt_ids = None if target_feats is None else sorted(target_feats)
        self.source_feats = source_feats
        self.target_feats = target_feats
        self.source_labels = source_labels
        self.target_labels = target_labels

    def sample(self, rng) -> Minibatch:
        cfg = self.cfg
        src = [self.src_ids[i] for i in
               rng.integers(0, len(self.src_ids), size=cfg.source_batch)]
        tgt = [] if self.tgt_ids is None else [self.tgt_ids[i] for i in
               rng.integers(0, len(self.tgt_ids), size=cfg.target_batch)]
        crops = [crop_segment(np.asarray(feats[u]), cfg.segment_frames, rng)
                 for feats, ids in ((self.source_feats, src),
                                    (self.target_feats, tgt)) for u in ids]
        labels = [self.source_labels[u] for u in src] + [
            self.target_labels[u] if self.target_labels else None
            for u in tgt]
        return Minibatch(np.concatenate(crops, dtype=np.float64),
                         [len(c) for c in crops], labels, len(src))


# ---------------------------------------------------------------------------
# loss building blocks


def critic_gap_graph(params: NetworkParams, hs: ad.Node,
                     ht: ad.Node) -> ad.Node:
    """Mean critic output over source rows minus mean over target rows."""
    return ad.sub(ad.mean(net.build_critic(params, hs)),
                  ad.mean(net.build_critic(params, ht)))


def sample_interpolates(hs: np.ndarray, ht: np.ndarray, rng) -> np.ndarray:
    """Random points on segments between shuffled source/target pairs."""
    hs = np.asarray(hs, dtype=np.float64)
    ht = np.asarray(ht, dtype=np.float64)
    if hs.shape != ht.shape:
        raise ValueError("interpolation needs equal-sized batches")
    si = rng.permutation(hs.shape[0])
    ti = rng.permutation(ht.shape[0])
    eps = rng.uniform(0.0, 1.0, size=(hs.shape[0], 1))
    return eps * hs[si] + (1.0 - eps) * ht[ti]


def gradient_penalty_graph(params: NetworkParams, hhat: ad.Node) -> ad.Node:
    """Mean over rows of (||grad_h critic(h)||_2 - 1)^2."""
    grad = net.critic_input_gradient(params, hhat)
    norms = ad.sqrt(ad.sum_(ad.square(grad), axis=1))
    return ad.mean(ad.square(ad.sub(norms, ad.const(1.0))))


def critic_step(params: NetworkParams, hs: np.ndarray, ht: np.ndarray,
                cfg: TrainConfig, rate: float, rng):
    """One critic step, which raises the objective L_wd - gamma * L_grad
    by descending on its negation; returns (l_wd, l_grad).

    Embeddings are plain arrays already produced by the current
    extractor; only the critic parameters change.
    """
    interp = sample_interpolates(hs, ht, rng)
    hhat = np.concatenate([hs, ht, interp], axis=0)
    l_wd = critic_gap_graph(params, ad.const(hs), ad.const(ht))
    l_grad = gradient_penalty_graph(params, ad.const(hhat))
    # negated outside the difference: backward sums in the same order
    loss = ad.scale(ad.sub(l_wd, ad.scale(l_grad, cfg.gamma)), -1.0)
    ad.evaluate(loss)
    ad.sgd_step(params.critic, ad.backward(loss, params.critic), rate)
    return float(l_wd.value), float(l_grad.value)


def embed_minibatch(params: NetworkParams, batch: Minibatch,
                    cfg: TrainConfig) -> ad.Node:
    """Embedding node of the source then the target segments, from one
    forward pass.

    Both domains go through the same minibatch so training-mode batch
    norm sees mixed-domain statistics; per-domain batches would center
    each domain separately and erase the shift the critic must measure.
    """
    # only adv+lan+sup ("domain labels in the feature extractor") sees the
    # real bit; elsewhere bit 0 leaves the bit weights at their zero start
    # (they get no gradient), so both domains share one embedding function
    n_target = len(batch.counts) - batch.n_source
    bits = [0] * batch.n_source + [int(cfg.mode == "adv+lan+sup")] * n_target
    return net.build_embedding_batch(
        params, ad.const(batch.frames), batch.counts, bits,
        training=cfg.scope == "all")


def _descend(params: NetworkParams, loss: ad.Node, rate: float) -> None:
    """Evaluate what `loss` still lacks, fold its batch statistics, and
    take one descent step on the heads and the extractor."""
    ad.evaluate(loss, reset=False)
    ad.update_running_stats(loss)
    g_heads, g_ext = ad.backward(loss, [params.heads, params.extractor])
    ad.sgd_step(params.heads, g_heads, rate)
    ad.sgd_step(params.extractor, g_ext, rate)


def main_step(params: NetworkParams, batch: Minibatch, emb: ad.Node,
              cfg: TrainConfig, rate: float, warmup: bool = False):
    """One descent step on heads and extractor; returns loss components.

    `emb` is the already-evaluated `embed_minibatch` node of `batch`, so
    classifier and critic gradients flow into the extractor from the
    same embeddings the critic steps saw.
    """
    ns, n = batch.n_source, len(batch.counts)
    hs, ht = ad.slice_rows(emb, 0, ns), ad.slice_rows(emb, ns, n)
    ls_norm = np.log(params.config.n_source_classes)
    lt_norm = np.log(max(params.config.n_target_classes, 2))

    classify_target = cfg.supervised_target and not warmup
    if classify_target:
        if None in batch.labels[ns:]:
            raise ValueError(f"mode {cfg.mode!r} requires target labels")
    trunk = net.classifier_trunk(params, emb if classify_target else hs,
                                 training=True)
    logp_s = ad.log_softmax(net.classifier_head(
        params, ad.slice_rows(trunk, 0, ns), "source"))
    ce_s = ad.cross_entropy(logp_s, batch.labels[:ns], ls_norm)
    terms = [ad.scale(ce_s, cfg.source_loss_weight)]
    ce_t_node = None
    if classify_target:
        logp_t = ad.log_softmax(net.classifier_head(
            params, ad.slice_rows(trunk, ns, n), "target"))
        ce_t_node = ad.cross_entropy(logp_t, batch.labels[ns:], lt_norm)
        terms.append(ad.scale(ce_t_node, cfg.target_loss_weight))
    l_wd_node = None
    if cfg.adversarial and not warmup:
        l_wd_node = critic_gap_graph(params, hs, ht)
        terms.append(ad.scale(l_wd_node, cfg.delta))
    loss = terms[0]
    for t in terms[1:]:
        loss = ad.add(loss, t)
    _descend(params, loss, rate)
    return {
        "source_ce": float(ce_s.value),
        "target_ce": float(ce_t_node.value) if ce_t_node is not None else None,
        "l_wd_main": float(l_wd_node.value) if l_wd_node is not None else None,
    }


# ---------------------------------------------------------------------------
# pseudo-labels


def pseudo_label(embeddings: np.ndarray, stop_threshold: float) -> np.ndarray:
    """Average-linkage agglomerative clustering under cosine similarity.

    Merges the most similar cluster pair while that similarity is at
    least `stop_threshold`; labels are dense cluster indices ordered by
    first member.
    """
    # imported here: the module costs import time and memory that runs
    # without pseudo-labels should not pay
    from scipy.cluster.hierarchy import fcluster, linkage

    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pseudo-labeling needs at least 2 embeddings")
    if np.any(np.linalg.norm(x, axis=1) == 0):
        raise ValueError("cannot cosine-cluster a zero embedding")
    # average cosine distance is 1 - average cosine similarity, so cutting
    # the tree at 1 - threshold keeps exactly the merges at or above it
    z = linkage(x, "average", metric="cosine")
    clusters = fcluster(z, 1.0 - stop_threshold, "distance")
    index = {}
    return np.array([index.setdefault(c, len(index)) for c in clusters],
                    dtype=np.int64)


def pseudo_label_utterances(params: NetworkParams, feats: dict,
                            stop_threshold: float) -> dict:
    """Cluster current-model bit-1 (target) embeddings into labels."""
    uids = sorted(feats)
    embs = net.extract_embedding(params, [feats[u] for u in uids],
                                 [1] * len(uids))
    labels = pseudo_label(embs, stop_threshold)
    return {u: int(l) for u, l in zip(uids, labels)}


# ---------------------------------------------------------------------------
# driver


@contextlib.contextmanager
def _epoch(epoch: int, keys):
    """Run one epoch's steps.  A graph error is re-raised as a ValueError
    that names the epoch and, for a non-finite value, the config `keys` to
    lower; numpy's overflow warnings, which only announce it, are off."""
    try:
        with np.errstate(all="ignore"):
            yield
    except ad.GraphError as e:
        names = " or ".join(filter(None, (", ".join(keys[:-1]), keys[-1])))
        hint = (f"; try a lower {names}"
                if isinstance(e, ad.NonFiniteError) else "")
        raise ValueError(f"epoch {epoch}: {e}{hint}") from e


def labels_from_manifest(records) -> dict:
    """utt_id -> dense speaker index, speakers ordered by id."""
    speakers = sorted({r.speaker_id for r in records})
    index = {s: i for i, s in enumerate(speakers)}
    return {r.utt_id: index[r.speaker_id] for r in records}


def _apply_scope(params: NetworkParams, cfg: TrainConfig):
    if cfg.scope == "post-pool":
        for name in params.extractor.names():
            if not name.startswith("embed."):
                params.extractor.set_trainable(name, False)


def train(params: NetworkParams, cfg: TrainConfig,
          source_feats: dict, source_labels: dict,
          target_feats: dict, target_labels: dict | None = None):
    """Run the full adaptation loop; returns (params, train log).

    `params` is typically a pre-trained baseline.  `target_labels` (true
    or pseudo) are required for the supervised-target modes.  The log
    holds one record per completed epoch.
    """
    if cfg.mode == "adv+lan+sup" and not params.config.use_domain_bit:
        raise ValueError("mode adv+lan+sup needs a domain-bit network")
    if cfg.adversarial and cfg.source_batch != cfg.target_batch:
        # interpolates for the gradient penalty pair source and target rows
        raise ValueError(
            f"mode {cfg.mode!r} needs source_batch == target_batch, got "
            f"{cfg.source_batch} and {cfg.target_batch}")
    if cfg.supervised_target and target_labels is None:
        raise ValueError(
            f"mode {cfg.mode!r} requires target labels (true or pseudo)")
    if target_labels is not None:
        n_classes = len(set(target_labels.values()))
        if n_classes > params.config.n_target_classes:
            raise ValueError(
                f"{n_classes} target labels exceed the target head size")
    sampler = MinibatchSampler(source_feats, source_labels, target_feats,
                               target_labels if cfg.supervised_target else None,
                               cfg)
    _apply_scope(params, cfg)
    rng = np.random.default_rng(cfg.seed)
    log = []
    for epoch in range(cfg.epochs):
        rate1, rate2 = lr_schedule(epoch, cfg)
        warmup = epoch < cfg.warmup_epochs
        # the rates, and the weights of the terms this epoch's steps take
        keys = ("rate_critic", "rate_main", "gamma", "delta")[
            :3 if warmup else 4] if cfg.adversarial else ("rate_main",)
        wd_vals, grad_vals, ce_s_vals, ce_t_vals = [], [], [], []
        with _epoch(epoch, keys):
            for _ in range(cfg.minibatches_per_epoch):
                batch = sampler.sample(rng)
                emb = embed_minibatch(params, batch, cfg)
                h = ad.evaluate(emb)
                hs, ht = h[:batch.n_source], h[batch.n_source:]
                if cfg.adversarial:
                    for _ in range(cfg.critic_steps):
                        wd, gp = critic_step(params, hs, ht, cfg, rate1, rng)
                    wd_vals.append(wd)
                    grad_vals.append(gp)
                stats = main_step(params, batch, emb, cfg, rate2, warmup)
                ce_s_vals.append(stats["source_ce"])
                if stats["target_ce"] is not None:
                    ce_t_vals.append(stats["target_ce"])
        record = {
            "epoch": epoch,
            "l_wd": float(np.mean(wd_vals)) if wd_vals else None,
            "l_grad": float(np.mean(grad_vals)) if grad_vals else None,
            "source_ce": float(np.mean(ce_s_vals)),
            "target_ce": float(np.mean(ce_t_vals)) if ce_t_vals else None,
            "rate_critic": rate1,
            "rate_main": rate2,
        }
        log.append(record)
    return params, log


def train_baseline(params: NetworkParams, cfg: TrainConfig,
                   source_feats: dict, source_labels: dict):
    """Source-only classifier training (the pre-adaptation model).

    No critic, no target data: plain normalized cross-entropy descent on
    heads and extractor.  Adaptation is applied to this model afterwards
    rather than training with the adversarial loss from scratch.
    """
    sampler = MinibatchSampler(source_feats, source_labels, None, None, cfg)
    rng = np.random.default_rng(cfg.seed)
    ls_norm = np.log(params.config.n_source_classes)
    log = []
    for epoch in range(cfg.epochs):
        _, rate = lr_schedule(epoch, cfg)
        ce_vals = []
        with _epoch(epoch, ("rate_main",)):
            for _ in range(cfg.minibatches_per_epoch):
                batch = sampler.sample(rng)
                logp = net.build_classifier(params, embed_minibatch(
                    params, batch, cfg), "source", training=True)
                loss = ad.cross_entropy(logp, batch.labels, ls_norm)
                _descend(params, loss, rate)
                ce_vals.append(float(loss.value))
        log.append({"epoch": epoch, "l_wd": None, "l_grad": None,
                    "source_ce": float(np.mean(ce_vals)), "target_ce": None,
                    "rate_critic": None, "rate_main": rate})
    return params, log


def write_train_log(path, log) -> None:
    with open(path, "w") as f:
        for record in log:
            f.write(json.dumps(record) + "\n")
