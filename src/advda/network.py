"""Network definitions: TDNN embedding extractor, classifier heads, critic.

The extractor maps a (T, m) frame matrix to a d-dimensional utterance
embedding: five context-spliced affine+relu+batchnorm layers, a
mean/std pooling layer, then one affine layer whose pre-activation
output is the embedding.  Two classifier heads (source and target
speakers) continue from the embedding; a leaky-relu critic with one
hidden layer per `critic_widths` entry maps embeddings to a scalar, and
`critic_input_gradient` differentiates it for the gradient penalty.  An
optional binary domain flag can be appended to the input of every
extractor affine layer as a domain-dependent bias (at the frame level,
splice writes the bit column into its own output).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Node, ParamSet
from .schema import at_least, check, within

CHECKPOINT_MAGIC = b"ADVD"
CHECKPOINT_VERSION = 1

# Extraction embeds utterances in chunks whose widest frame-level array
# is about this size.  Small chunks pay per-node overhead; chunks that
# outgrow a core's L2 cache (2 MiB on the 2-core machine measured) made
# the wide-lang benchmark network slower than one utterance per graph.
EXTRACT_CHUNK_BYTES = 1 << 20


@dataclass
class NetworkConfig:
    frame_dim: int = at_least(1, default=20)
    tdnn_widths: tuple[int, ...] = at_least(1, default=(64, 64, 64, 64, 128))
    tdnn_contexts: tuple[tuple[int, ...], ...] = \
        ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))
    embed_dim: int = at_least(1, default=64)
    post_pool_widths: tuple[int, int] = at_least(1, default=(64, 64))
    n_source_classes: int = at_least(1, default=10)
    n_target_classes: int = at_least(1, default=10)
    use_domain_bit: bool = False
    critic_widths: tuple[int, ...] = at_least(1, default=(64, 64))
    leaky_slope: float = 0.2
    bn_momentum: float = within(0, 1, default=0.95)
    bn_eps: float = at_least(0, default=1e-5)

    def __post_init__(self):
        check(self)
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


def _affine(ps, name, x):
    """Graph twin of `_add_affine`: x W' + b."""
    return ad.affine(x, ad.param(ps, f"{name}.W"), ad.param(ps, f"{name}.b"))


def _bn(ps, name, x, training, cfg):
    """Graph twin of `_add_bn`: batch norm with the layer's running stats."""
    return ad.batch_norm(x, ad.param(ps, f"{name}.gamma"),
                         ad.param(ps, f"{name}.beta"), ps, f"{name}.rmean",
                         f"{name}.rvar", training, cfg.bn_momentum, cfg.bn_eps)


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


def build_embedding(params: NetworkParams, frames: Node, bit: int,
                    training: bool, *, n_frames: int) -> Node:
    """Graph from a (T, m) frame node to the (1, d) embedding node.

    A batch of one utterance; see `build_embedding_batch`.
    """
    return build_embedding_batch(params, frames, [n_frames], [bit], training)


def build_embedding_batch(params: NetworkParams, frames: Node, counts, bits,
                          training: bool) -> Node:
    """Graph from several utterances to their (n, d) embedding rows.

    `frames` holds the utterances' frames stacked along the rows,
    `counts` their frame counts and `bits` their domain bits.  Every
    layer runs on the whole minibatch at once: splicing and pooling
    work within each utterance's rows, and training-mode batch norm uses
    statistics over the whole minibatch (mixing domains when both are
    present).

    When the network was built with the domain-bit input, every
    extractor affine layer's input gets the bit column, and the bits are
    used as given; a caller that wants an unconditioned embedding passes
    zeros.
    """
    cfg = params.config
    ext = params.extractor
    counts = [int(n) for n in counts]
    if not counts:
        raise ValueError("embedding batch needs at least one utterance")
    if len(bits) != len(counts):
        raise ValueError(f"{len(bits)} domain bits for {len(counts)} "
                         f"utterances")
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("domain bit must be 0 or 1")

    # bit columns for frame rows and for pooled rows, shared by the layers
    frame_bits = ad.const(np.repeat(bits, counts)[:, None])
    utt_bits = ad.const(np.asarray(bits)[:, None])

    x = frames
    for i, ctx in enumerate(cfg.tdnn_contexts):
        x = ad.splice(x, ctx, counts,
                      frame_bits if cfg.use_domain_bit else None)
        x = ad.relu(_affine(ext, f"tdnn{i}", x))
        x = _bn(ext, f"tdnn{i}", x, training, cfg)
    x = ad.stats_pool(x, counts=counts)
    if cfg.use_domain_bit:
        x = ad.concat([x, utt_bits], axis=1)
    return _affine(ext, "embed", x)


def classifier_trunk(params: NetworkParams, h: Node,
                     training: bool) -> Node:
    """Post-pool layers shared by both heads, from embeddings (n, d)."""
    cfg, hp = params.config, params.heads
    x = _bn(hp, "post0", ad.relu(h), training, cfg)
    x = ad.relu(_affine(hp, "post1", x))
    return _bn(hp, "post1", x, training, cfg)


def classifier_head(params: NetworkParams, x: Node, head: str) -> Node:
    """Speaker logits of the source or target head from trunk output."""
    if head not in ("source", "target"):
        raise ValueError(f"unknown head {head!r}")
    return _affine(params.heads, f"head_{head}", x)


def build_classifier(params: NetworkParams, h: Node, head: str,
                     training: bool) -> Node:
    """Continue the network from embeddings (n, d) to log-posteriors."""
    return ad.log_softmax(classifier_head(
        params, classifier_trunk(params, h, training), head))


def _critic_layers(params: NetworkParams, h: Node):
    """The critic's output node and the leaky-relu mask of each hidden
    layer; a hidden activation is its pre-activation times its mask."""
    cr = params.critic
    x, masks = h, []
    for i in range(len(params.config.critic_widths) + 1):
        if i:
            masks.append(ad.leaky_relu_mask(x, params.config.leaky_slope))
            x = ad.mul(x, masks[-1])
        x = ad.affine(x, ad.param(cr, f"W{i}"), ad.param(cr, f"b{i}"))
    return x, masks


def build_critic(params: NetworkParams, h: Node) -> Node:
    """Critic graph from embeddings (n, d) to per-row scalars (n, 1)."""
    return _critic_layers(params, h)[0]


def critic_input_gradient(params: NetworkParams, h: Node) -> Node:
    """Rows of d critic / d h: the output weights carried back through
    each hidden layer i by its leaky-relu mask Di, then its weights Wi.
    Masks pass no gradient, so the penalty gives biases none."""
    cr = params.critic
    masks = _critic_layers(params, h)[1]
    g = ad.param(cr, f"W{len(masks)}")
    for i in reversed(range(len(masks))):
        g = ad.matmul(ad.mul(masks[i], g), ad.param(cr, f"W{i}"))
    return g


def _widest_frame_array(config: NetworkConfig) -> int:
    """Widest frame-level array of the extractor, in columns."""
    bit = int(config.use_domain_bit)
    widest, in_dim = 0, config.frame_dim
    for width, ctx in zip(config.tdnn_widths, config.tdnn_contexts):
        widest = max(widest, in_dim * len(ctx) + bit, width)
        in_dim = width
    return widest


def extract_embedding(params: NetworkParams, frames_seq, bits) -> np.ndarray:
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
