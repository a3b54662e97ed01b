"""Network definitions: TDNN embedding extractor, classifier heads, critic.

The extractor maps a (T, m) frame matrix to a d-dimensional utterance
embedding: five context-spliced affine+relu+batchnorm layers, a
mean/std pooling layer, then one affine layer whose pre-activation
output is the embedding.  Two classifier heads (source and target
speakers) continue from the embedding; a small leaky-relu critic maps
embeddings to a scalar.  An optional binary domain flag can be appended
to the input of every extractor affine layer, acting as a
domain-dependent bias.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Node, ParamSet

CHECKPOINT_MAGIC = b"ADVD"
CHECKPOINT_VERSION = 1

# Extraction embeds utterances in chunks whose widest frame-level array
# is about this size.  Small chunks pay per-node overhead; chunks that
# outgrow a core's L2 cache (2 MiB on the 2-core machine measured) made
# the wide-lang benchmark network slower than one utterance per graph.
EXTRACT_CHUNK_BYTES = 1 << 20


@dataclass
class NetworkConfig:
    frame_dim: int = 20
    tdnn_widths: tuple = (64, 64, 64, 64, 128)
    tdnn_contexts: tuple = ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))
    embed_dim: int = 64
    post_pool_widths: tuple = (64, 64)
    n_source_classes: int = 10
    n_target_classes: int = 10
    use_domain_bit: bool = False
    critic_widths: tuple = (64, 64)
    leaky_slope: float = 0.2
    bn_momentum: float = 0.95
    bn_eps: float = 1e-5

    def __post_init__(self):
        self.tdnn_widths = tuple(self.tdnn_widths)
        self.tdnn_contexts = tuple(tuple(c) for c in self.tdnn_contexts)
        self.post_pool_widths = tuple(self.post_pool_widths)
        self.critic_widths = tuple(self.critic_widths)
        if len(self.critic_widths) != 2:
            # the input-gradient op behind the gradient penalty is written
            # for exactly two hidden critic layers
            raise ValueError(f"critic_widths must have exactly 2 entries, "
                             f"got {self.critic_widths}")
        if len(self.tdnn_widths) != len(self.tdnn_contexts):
            raise ValueError("tdnn widths and contexts must align")
        if self.embed_dim != self.post_pool_widths[0]:
            raise ValueError("embed_dim must equal the first post-pool width")
        for ctx in self.tdnn_contexts:
            if tuple(sorted(ctx)) != ctx or any(-o not in ctx for o in ctx):
                raise ValueError(f"context offsets must be symmetric: {ctx}")


@dataclass
class NetworkParams:
    config: NetworkConfig
    extractor: ParamSet
    heads: ParamSet
    critic: ParamSet


def _glorot(rng, out_dim, in_dim):
    lim = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-lim, lim, size=(out_dim, in_dim))


def _add_affine(ps, rng, name, out_dim, in_dim, domain_bit=False):
    w = _glorot(rng, out_dim, in_dim)
    if domain_bit:
        # domain column starts at zero so outputs are bit-invariant at init
        w = np.concatenate([w, np.zeros((out_dim, 1))], axis=1)
    ps.add(f"{name}.W", w)
    ps.add(f"{name}.b", np.zeros(out_dim))


def _add_bn(ps, name, dim):
    ps.add(f"{name}.gamma", np.ones(dim))
    ps.add(f"{name}.beta", np.zeros(dim))
    ps.add(f"{name}.rmean", np.zeros(dim), trainable=False)
    ps.add(f"{name}.rvar", np.ones(dim), trainable=False)


def init_network(config: NetworkConfig, seed: int) -> NetworkParams:
    """Deterministic parameter initialization for a given seed."""
    rng = np.random.default_rng(seed)
    ext = ParamSet()
    in_dim = config.frame_dim
    for i, (width, ctx) in enumerate(zip(config.tdnn_widths,
                                         config.tdnn_contexts)):
        _add_affine(ext, rng, f"tdnn{i}", width, in_dim * len(ctx),
                    domain_bit=config.use_domain_bit)
        _add_bn(ext, f"tdnn{i}", width)
        in_dim = width
    _add_affine(ext, rng, "embed", config.embed_dim, 2 * in_dim,
                domain_bit=config.use_domain_bit)

    heads = ParamSet()
    _add_bn(heads, "post0", config.embed_dim)
    _add_affine(heads, rng, "post1", config.post_pool_widths[1],
                config.embed_dim)
    _add_bn(heads, "post1", config.post_pool_widths[1])
    _add_affine(heads, rng, "head_source", config.n_source_classes,
                config.post_pool_widths[1])
    _add_affine(heads, rng, "head_target", config.n_target_classes,
                config.post_pool_widths[1])

    critic = ParamSet()
    dims = [config.embed_dim, *config.critic_widths, 1]
    for i in range(len(dims) - 1):
        critic.add(f"W{i}", _glorot(rng, dims[i + 1], dims[i]))
        critic.add(f"b{i}", np.zeros(dims[i + 1]))
    return NetworkParams(config, ext, heads, critic)


def resize_target_head(params: NetworkParams, n_classes: int,
                       seed: int = 0) -> None:
    """Re-initialize the target head for a new class count (pseudo-labels)."""
    if n_classes < 1:
        raise ValueError("target head needs at least one class")
    rng = np.random.default_rng([seed, 31])
    width = params.config.post_pool_widths[1]
    params.heads.replace("head_target.W", _glorot(rng, n_classes, width))
    params.heads.replace("head_target.b", np.zeros(n_classes))
    params.config.n_target_classes = n_classes


def splice_context(frames: np.ndarray, offsets) -> np.ndarray:
    """Concatenate frames at t+offset per row, clamped at the edges."""
    frames = np.asarray(frames, dtype=np.float64)
    node = ad.splice(ad.const(frames), offsets)
    return ad.evaluate(node)


def stats_pool(frames: np.ndarray) -> np.ndarray:
    """Per-feature mean and floored standard deviation over time."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[0] < 1:
        raise ValueError("stats_pool needs at least one frame")
    return ad.evaluate(ad.stats_pool(ad.const(frames)))[0]


def build_embedding(params: NetworkParams, frames: Node, bit: int,
                    training: bool, use_bit: bool | None = None, *,
                    n_frames: int) -> Node:
    """Graph from a (T, m) frame node to the (1, d) embedding node.

    A batch of one utterance; see `build_embedding_batch`.
    """
    return build_embedding_batch(params, frames, [n_frames], [bit], training,
                                 use_bit=use_bit)


def build_embedding_batch(params: NetworkParams, frames: Node, counts, bits,
                          training: bool, use_bit: bool | None = None) -> Node:
    """Graph from several utterances to their (n, d) embedding rows.

    `frames` holds the utterances' frames stacked along the rows,
    `counts` their frame counts and `bits` their domain bits.  Every
    layer runs on the whole minibatch at once: splicing and pooling
    work within each utterance's rows, and training-mode batch norm uses
    statistics over the whole minibatch (mixing domains when both are
    present).

    When the network was built with the domain-bit input, the bit column
    is always appended (the weight shapes require it); `use_bit=False`
    forces its value to zero so the embedding is unconditioned.
    """
    cfg = params.config
    ext = params.extractor
    if use_bit is None:
        use_bit = cfg.use_domain_bit
    counts = [int(n) for n in counts]
    if not counts:
        raise ValueError("embedding batch needs at least one utterance")
    if len(bits) != len(counts):
        raise ValueError(f"{len(bits)} domain bits for {len(counts)} "
                         f"utterances")
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("domain bit must be 0 or 1")
    bits = [float(bit) if use_bit else 0.0 for bit in bits]

    # bit columns for frame rows and for pooled rows, shared by the layers
    frame_bits = ad.const(np.repeat(bits, counts)[:, None])
    utt_bits = ad.const(np.asarray(bits)[:, None])

    x = frames
    for i, ctx in enumerate(cfg.tdnn_contexts):
        x = ad.splice(x, ctx, counts)
        if cfg.use_domain_bit:
            x = ad.concat([x, frame_bits], axis=1)
        x = ad.affine(x, ad.param(ext, f"tdnn{i}.W"),
                      ad.param(ext, f"tdnn{i}.b"))
        x = ad.relu(x)
        x = ad.batch_norm(x, ad.param(ext, f"tdnn{i}.gamma"),
                          ad.param(ext, f"tdnn{i}.beta"), ext,
                          f"tdnn{i}.rmean", f"tdnn{i}.rvar", training,
                          cfg.bn_momentum, cfg.bn_eps)
    x = ad.stats_pool(x, counts=counts)
    if cfg.use_domain_bit:
        x = ad.concat([x, utt_bits], axis=1)
    return ad.affine(x, ad.param(ext, "embed.W"), ad.param(ext, "embed.b"))


def classifier_trunk(params: NetworkParams, h: Node,
                     training: bool) -> Node:
    """Post-pool layers shared by both heads, from embeddings (n, d)."""
    cfg = params.config
    hp = params.heads
    x = ad.relu(h)
    x = ad.batch_norm(x, ad.param(hp, "post0.gamma"),
                      ad.param(hp, "post0.beta"), hp,
                      "post0.rmean", "post0.rvar", training,
                      cfg.bn_momentum, cfg.bn_eps)
    x = ad.affine(x, ad.param(hp, "post1.W"), ad.param(hp, "post1.b"))
    x = ad.relu(x)
    return ad.batch_norm(x, ad.param(hp, "post1.gamma"),
                         ad.param(hp, "post1.beta"), hp,
                         "post1.rmean", "post1.rvar", training,
                         cfg.bn_momentum, cfg.bn_eps)


def classifier_head(params: NetworkParams, x: Node, head: str) -> Node:
    """Speaker logits of the source or target head from trunk output."""
    if head not in ("source", "target"):
        raise ValueError(f"unknown head {head!r}")
    hp = params.heads
    return ad.affine(x, ad.param(hp, f"head_{head}.W"),
                     ad.param(hp, f"head_{head}.b"))


def build_classifier(params: NetworkParams, h: Node, head: str,
                     training: bool) -> Node:
    """Continue the network from embeddings (n, d) to log-posteriors."""
    return ad.log_softmax(classifier_head(
        params, classifier_trunk(params, h, training), head))


def build_critic(params: NetworkParams, h: Node) -> Node:
    """Critic graph from embeddings (n, d) to per-row scalars (n, 1)."""
    cr = params.critic
    slope = params.config.leaky_slope
    x = ad.affine(h, ad.param(cr, "W0"), ad.param(cr, "b0"))
    x = ad.leaky_relu(x, slope)
    x = ad.affine(x, ad.param(cr, "W1"), ad.param(cr, "b1"))
    x = ad.leaky_relu(x, slope)
    return ad.affine(x, ad.param(cr, "W2"), ad.param(cr, "b2"))


def _widest_frame_array(config: NetworkConfig) -> int:
    """Widest frame-level array of the extractor, in columns."""
    bit = int(config.use_domain_bit)
    widest, in_dim = 0, config.frame_dim
    for width, ctx in zip(config.tdnn_widths, config.tdnn_contexts):
        widest = max(widest, in_dim * len(ctx) + bit, width)
        in_dim = width
    return widest


def extract_embeddings(params: NetworkParams, frames_seq, bits) -> np.ndarray:
    """(n, d) embeddings of n utterances (inference-mode batch norm).

    The utterances are embedded a chunk at a time, in one graph per
    chunk.  Inference-mode batch norm works row by row, so the result
    does not depend on the chunking beyond the rounding of the matrix
    products.  A chunk holds whole utterances, as many as keep its widest
    frame-level array within `EXTRACT_CHUNK_BYTES` (at least one).
    """
    # kept in their own dtype: each chunk is cast to float64 on its own
    frames_seq = [np.asarray(f) for f in frames_seq]
    m = params.config.frame_dim
    for frames in frames_seq:
        if frames.ndim != 2 or frames.shape[1] != m:
            raise ValueError(
                f"expected (T, {m}) frames, got {frames.shape}")
    bits = list(bits)
    if len(bits) != len(frames_seq):
        raise ValueError(f"{len(bits)} domain bits for {len(frames_seq)} "
                         f"utterances")
    budget = EXTRACT_CHUNK_BYTES // (8 * _widest_frame_array(params.config))
    out = []
    start = 0
    while start < len(frames_seq):
        stop, rows = start + 1, frames_seq[start].shape[0]
        while stop < len(frames_seq) and \
                rows + frames_seq[stop].shape[0] <= budget:
            rows += frames_seq[stop].shape[0]
            stop += 1
        chunk = frames_seq[start:stop]
        node = build_embedding_batch(
            params, ad.const(np.concatenate(chunk)),
            [f.shape[0] for f in chunk], bits[start:stop], training=False)
        out.append(ad.evaluate(node))
        start = stop
    if not out:
        return np.zeros((0, params.config.embed_dim))
    return np.concatenate(out)


def extract_embedding(params: NetworkParams, frames: np.ndarray,
                      bit: int = 0) -> np.ndarray:
    """Embedding vector for one utterance (inference-mode batch norm)."""
    return extract_embeddings(params, [frames], [bit])[0]


def classify(params: NetworkParams, h: np.ndarray, head: str) -> np.ndarray:
    """Log-posteriors over the head's speakers for one embedding."""
    h = np.asarray(h, dtype=np.float64)
    node = build_classifier(params, ad.const(h[None, :]), head,
                            training=False)
    return ad.evaluate(node)[0]


def critic_forward(params: NetworkParams, h: np.ndarray) -> float:
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (params.config.embed_dim,):
        raise ValueError(f"critic input must have size {params.config.embed_dim}")
    node = build_critic(params, ad.const(h[None, :]))
    return float(ad.evaluate(node)[0, 0])


def cross_entropy_loss(logp: np.ndarray, label: int,
                       normalizer: float) -> float:
    """Normalized cross-entropy -logp[label] / normalizer."""
    logp = np.asarray(logp, dtype=np.float64)
    if not 0 <= label < logp.shape[0]:
        raise ValueError("label out of range")
    return float(-logp[label] / normalizer)


# ---------------------------------------------------------------------------
# checkpoint format: header, config JSON, u32 count, named f64 arrays


def _param_sets(params: NetworkParams):
    return {"extractor": params.extractor, "heads": params.heads,
            "critic": params.critic}


def save_checkpoint(path, params: NetworkParams) -> None:
    arrays = [(f"{prefix}/{name}", ps.value(name))
              for prefix, ps in _param_sets(params).items()
              for name in ps.names()]
    with open(path, "wb") as f:
        container.write_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        container.write_json(f, asdict(params.config))
        f.write(struct.pack("<I", len(arrays)))
        container.write_arrays(f, arrays)


def load_checkpoint(path) -> NetworkParams:
    """Read a checkpoint; any malformed content raises `ValueError`."""
    with open(path, "rb") as f:
        r = container.Reader(f, "checkpoint")
        r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        block = r.json("config")
        if not isinstance(block, dict):
            raise ValueError(f"checkpoint {path}: config block is not an "
                             f"object")
        try:
            template = init_network(NetworkConfig(**block), seed=0)
        except (TypeError, ValueError) as e:
            raise ValueError(f"checkpoint {path}: bad config block: {e}") \
                from e
        sets = _param_sets(template)
        (count,) = r.unpack("<I", "array count")
        arrays = r.arrays(count, [f"{p}/{n}" for p, ps in sets.items()
                                  for n in ps.names()])
    for name, data in arrays.items():
        prefix, _, pname = name.partition("/")
        try:
            sets[prefix].set_value(pname, data)
        except ad.GraphError as e:
            raise ValueError(f"checkpoint {path}: array {name!r}: {e}") \
                from e
    return template
