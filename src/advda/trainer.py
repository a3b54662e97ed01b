"""Minimax adaptation training loop with gradient-penalized critic.

One outer iteration: embed a source and a target minibatch, run n ascent
steps on the critic objective L_wd - gamma * L_grad, then one descent
step on the classifier heads and the (non-frozen) extractor against
L_c + delta * L_wd.  Early warm-up epochs train only the critic and the
source classifier.  Plain SGD throughout, rates halved on a fixed epoch
schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .network import NetworkParams

MODES = ("sup", "adv", "adv+sup", "adv+lan+sup")
SCOPES = ("all", "post-pool")


@dataclass
class TrainConfig:
    gamma: float = 10.0           # gradient-penalty weight
    delta: float = 0.1            # adversarial weight in the extractor loss
    rate_critic: float = 0.001    # critic ascent rate
    rate_main: float = 1.0        # classifier/extractor descent rate
    critic_steps: int = 10        # inner critic iterations per outer step
    mode: str = "adv+sup"
    scope: str = "all"
    source_batch: int = 150
    target_batch: int = 150
    segment_frames: tuple = (200, 400)
    epochs: int = 85
    minibatches_per_epoch: int = 400
    warmup_epochs: int = 3
    halve_every: int = 5
    source_loss_weight: float = 0.8
    target_loss_weight: float = 0.2
    seed: int = 0
    checkpoint_every: int = 0     # 0 disables periodic checkpoints

    def __post_init__(self):
        self.segment_frames = tuple(self.segment_frames)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        for name in ("gamma", "delta", "rate_critic", "rate_main",
                     "source_loss_weight", "target_loss_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.source_batch < 1 or self.target_batch < 1:
            raise ValueError("batch sizes must be positive")
        if self.segment_frames[0] < 1 or \
                self.segment_frames[1] < self.segment_frames[0]:
            raise ValueError("bad segment length range")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ValueError("warmup must end before training does")
        if self.halve_every < 1 or self.minibatches_per_epoch < 1:
            raise ValueError("schedule parameters must be positive")

    @property
    def adversarial(self) -> bool:
        return self.mode != "sup"

    @property
    def supervised_target(self) -> bool:
        return self.mode in ("sup", "adv+sup", "adv+lan+sup")


@dataclass
class BatchItem:
    utt_id: str
    frames: np.ndarray
    label: int | None
    bit: int


@dataclass
class Minibatch:
    source: list
    target: list


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
    """Draws minibatches from per-domain feature dicts with label maps."""

    def __init__(self, source_feats: dict, source_labels: dict,
                 target_feats: dict, target_labels: dict | None,
                 cfg: TrainConfig):
        if not source_feats or not target_feats:
            raise ValueError("both domains need at least one utterance")
        self.cfg = cfg
        self.src_ids = sorted(source_feats)
        self.tgt_ids = sorted(target_feats)
        self.source_feats = source_feats
        self.target_feats = target_feats
        self.source_labels = source_labels
        self.target_labels = target_labels

    def sample(self, rng) -> Minibatch:
        cfg = self.cfg
        src = [self.src_ids[i] for i in
               rng.integers(0, len(self.src_ids), size=cfg.source_batch)]
        tgt = [self.tgt_ids[i] for i in
               rng.integers(0, len(self.tgt_ids), size=cfg.target_batch)]
        source = [BatchItem(u, crop_segment(
            np.asarray(self.source_feats[u], dtype=np.float64),
            cfg.segment_frames, rng), self.source_labels[u], 0) for u in src]
        target = [BatchItem(u, crop_segment(
            np.asarray(self.target_feats[u], dtype=np.float64),
            cfg.segment_frames, rng),
            self.target_labels[u] if self.target_labels else None, 1)
            for u in tgt]
        return Minibatch(source, target)


# ---------------------------------------------------------------------------
# loss building blocks


def critic_gap_graph(params: NetworkParams, hs: ad.Node,
                     ht: ad.Node) -> ad.Node:
    """Mean critic output over source rows minus mean over target rows."""
    return ad.sub(ad.mean(net.build_critic(params, hs)),
                  ad.mean(net.build_critic(params, ht)))


def wasserstein_loss(params: NetworkParams, hs: np.ndarray,
                     ht: np.ndarray) -> float:
    """Mean critic output over source minus mean over target."""
    hs = np.asarray(hs, dtype=np.float64)
    ht = np.asarray(ht, dtype=np.float64)
    if hs.shape[0] < 1 or ht.shape[0] < 1:
        raise ValueError("wasserstein loss needs non-empty batches")
    return float(ad.evaluate(critic_gap_graph(params, ad.const(hs),
                                              ad.const(ht))))


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


def gradient_penalty_graph(params: NetworkParams, hhat: ad.Node,
                           n_rows: int) -> ad.Node:
    grad = ad.critic_input_gradient(params.critic, hhat,
                                    params.config.leaky_slope)
    norms = ad.sqrt(ad.sum_(ad.square(grad), axis=1))
    diff = ad.sub(norms, ad.const(np.ones((n_rows, 1))))
    return ad.mean(ad.square(diff))


def gradient_penalty(params: NetworkParams, hhat: np.ndarray) -> float:
    """Mean over rows of (||grad_h critic(h)||_2 - 1)^2."""
    hhat = np.asarray(hhat, dtype=np.float64)
    if hhat.ndim != 2 or hhat.shape[0] < 1:
        raise ValueError("gradient penalty needs a non-empty (n, d) batch")
    node = gradient_penalty_graph(params, ad.const(hhat), hhat.shape[0])
    return float(ad.evaluate(node))


def critic_step(params: NetworkParams, hs: np.ndarray, ht: np.ndarray,
                cfg: TrainConfig, rate: float, rng):
    """One ascent step on the critic objective; returns (l_wd, l_grad).

    Embeddings are plain arrays already produced by the current
    extractor; only the critic parameters change.
    """
    interp = sample_interpolates(hs, ht, rng)
    hhat = np.concatenate([hs, ht, interp], axis=0)
    l_wd = critic_gap_graph(params, ad.const(hs), ad.const(ht))
    l_grad = gradient_penalty_graph(params, ad.const(hhat), hhat.shape[0])
    objective = ad.sub(l_wd, ad.scale(l_grad, cfg.gamma))
    ad.evaluate(objective)
    grads = ad.backward(objective, params.critic)
    ad.sgd_step(params.critic, grads, rate, "ascend")
    return float(l_wd.value), float(l_grad.value)


def _batch_embedding_nodes(params: NetworkParams, items, use_bit: bool,
                           tdnn_training: bool):
    return net.build_embedding_batch(
        params, ad.const(np.concatenate([it.frames for it in items])),
        [it.frames.shape[0] for it in items], [it.bit for it in items],
        training=tdnn_training, use_bit=use_bit)


def _domain_embedding_nodes(params: NetworkParams, batch: Minibatch,
                            use_bit: bool, tdnn_training: bool):
    """Source and target embedding nodes from one shared forward pass.

    Both domains go through the same minibatch so training-mode batch
    norm sees mixed-domain statistics; per-domain batches would center
    each domain separately and erase the shift the critic must measure.
    """
    emb = _batch_embedding_nodes(params, batch.source + batch.target,
                                 use_bit, tdnn_training)
    ns = len(batch.source)
    hs_node = ad.slice_rows(emb, 0, ns)
    ht_node = ad.slice_rows(emb, ns, ns + len(batch.target))
    return hs_node, ht_node


def main_step(params: NetworkParams, batch: Minibatch, cfg: TrainConfig,
              rate: float, warmup: bool = False, hs_node=None, ht_node=None):
    """One descent step on heads and extractor; returns loss components.

    When `hs_node`/`ht_node` (already-evaluated embedding nodes) are
    given, the step reuses that forward pass so classifier and critic
    gradients flow into the extractor from the same embeddings.
    """
    use_bit = params.config.use_domain_bit and cfg.mode == "adv+lan+sup"
    tdnn_training = cfg.scope == "all"
    if hs_node is None:
        hs_node, ht_node = _domain_embedding_nodes(params, batch, use_bit,
                                                   tdnn_training)
        ad.evaluate(ad.concat([hs_node, ht_node], axis=0))

    ns, nt = len(batch.source), len(batch.target)
    src_labels = [it.label for it in batch.source]
    ls_norm = np.log(params.config.n_source_classes)
    lt_norm = np.log(max(params.config.n_target_classes, 2))

    classify_target = cfg.supervised_target and not warmup
    if classify_target:
        if any(it.label is None for it in batch.target):
            raise ValueError(f"mode {cfg.mode!r} requires target labels")
        trunk_in = ad.concat([hs_node, ht_node], axis=0)
    else:
        trunk_in = hs_node
    trunk = net.classifier_trunk(params, trunk_in, training=True)
    logp_s = ad.log_softmax(net.classifier_head(
        params, ad.slice_rows(trunk, 0, ns), "source"))
    ce_s = ad.cross_entropy(logp_s, src_labels, ls_norm)
    terms = [ad.scale(ce_s, cfg.source_loss_weight)]
    ce_t_node = None
    if classify_target:
        logp_t = ad.log_softmax(net.classifier_head(
            params, ad.slice_rows(trunk, ns, ns + nt), "target"))
        ce_t_node = ad.cross_entropy(logp_t, [it.label for it in batch.target],
                                     lt_norm)
        terms.append(ad.scale(ce_t_node, cfg.target_loss_weight))
    l_wd_node = None
    if cfg.adversarial and not warmup:
        l_wd_node = critic_gap_graph(params, hs_node, ht_node)
        terms.append(ad.scale(l_wd_node, cfg.delta))
    loss = terms[0]
    for t in terms[1:]:
        loss = ad.add(loss, t)
    ad.evaluate(loss, reset=False)
    g_heads, g_ext = ad.backward(loss, [params.heads, params.extractor])
    ad.sgd_step(params.heads, g_heads, rate, "descend")
    ad.sgd_step(params.extractor, g_ext, rate, "descend")
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
                            stop_threshold: float, bit: int = 1) -> dict:
    """Cluster current-model embeddings of a feature dict into labels."""
    uids = sorted(feats)
    embs = net.extract_embeddings(params, [feats[u] for u in uids],
                                  [bit] * len(uids))
    labels = pseudo_label(embs, stop_threshold)
    return {u: int(l) for u, l in zip(uids, labels)}


# ---------------------------------------------------------------------------
# driver


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
          target_feats: dict, target_labels: dict | None = None,
          checkpoint_dir=None):
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
    use_bit = params.config.use_domain_bit and cfg.mode == "adv+lan+sup"
    tdnn_training = cfg.scope == "all"
    for epoch in range(cfg.epochs):
        rate1, rate2 = lr_schedule(epoch, cfg)
        warmup = epoch < cfg.warmup_epochs
        wd_vals, grad_vals, ce_s_vals, ce_t_vals = [], [], [], []
        for _ in range(cfg.minibatches_per_epoch):
            batch = sampler.sample(rng)
            hs_node, ht_node = _domain_embedding_nodes(params, batch, use_bit,
                                                       tdnn_training)
            h_all = ad.evaluate(ad.concat([hs_node, ht_node], axis=0))
            hs = h_all[:len(batch.source)]
            ht = h_all[len(batch.source):]
            if cfg.adversarial:
                for _ in range(cfg.critic_steps):
                    wd, gp = critic_step(params, hs, ht, cfg, rate1, rng)
                wd_vals.append(wd)
                grad_vals.append(gp)
            stats = main_step(params, batch, cfg, rate2, warmup=warmup,
                              hs_node=hs_node, ht_node=ht_node)
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
        if checkpoint_dir and cfg.checkpoint_every and \
                (epoch + 1) % cfg.checkpoint_every == 0:
            net.save_checkpoint(
                f"{checkpoint_dir}/epoch{epoch + 1:04d}.ckpt", params)
    return params, log


def train_baseline(params: NetworkParams, cfg: TrainConfig,
                   source_feats: dict, source_labels: dict,
                   checkpoint_dir=None):
    """Source-only classifier training (the pre-adaptation model).

    No critic, no target data: plain normalized cross-entropy descent on
    heads and extractor.  Adaptation is applied to this model afterwards
    rather than training with the adversarial loss from scratch.
    """
    if not source_feats:
        raise ValueError("source archive is empty")
    rng = np.random.default_rng(cfg.seed)
    ids = sorted(source_feats)
    ls_norm = np.log(params.config.n_source_classes)
    log = []
    for epoch in range(cfg.epochs):
        _, rate = lr_schedule(epoch, cfg)
        ce_vals = []
        for _ in range(cfg.minibatches_per_epoch):
            chosen = [ids[i] for i in
                      rng.integers(0, len(ids), size=cfg.source_batch)]
            items = [BatchItem(u, crop_segment(
                np.asarray(source_feats[u], dtype=np.float64),
                cfg.segment_frames, rng), source_labels[u], 0)
                for u in chosen]
            hs_node = _batch_embedding_nodes(params, items, False, True)
            logp = net.build_classifier(params, hs_node, "source",
                                        training=True)
            loss = ad.cross_entropy(logp, [it.label for it in items], ls_norm)
            ad.evaluate(loss)
            g_heads, g_ext = ad.backward(loss,
                                         [params.heads, params.extractor])
            ad.sgd_step(params.heads, g_heads, rate, "descend")
            ad.sgd_step(params.extractor, g_ext, rate, "descend")
            ce_vals.append(float(loss.value))
        log.append({"epoch": epoch, "l_wd": None, "l_grad": None,
                    "source_ce": float(np.mean(ce_vals)), "target_ce": None,
                    "rate_critic": None, "rate_main": rate})
        if checkpoint_dir and cfg.checkpoint_every and \
                (epoch + 1) % cfg.checkpoint_every == 0:
            net.save_checkpoint(
                f"{checkpoint_dir}/base{epoch + 1:04d}.ckpt", params)
    return params, log


def write_train_log(path, log) -> None:
    with open(path, "w") as f:
        for record in log:
            f.write(json.dumps(record) + "\n")


def read_train_log(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
