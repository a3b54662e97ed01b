import struct
from dataclasses import asdict

import numpy as np
import pytest

from advda import autodiff as ad
from advda import container
from advda import network as net
from advda.network import NetworkConfig


def small_config(**kw):
    base = dict(frame_dim=4,
                tdnn_widths=(6, 6, 8), tdnn_contexts=((-1, 0, 1), (0,), (0,)),
                embed_dim=5, post_pool_widths=(5, 6),
                n_source_classes=3, n_target_classes=4,
                critic_widths=(7, 7))
    base.update(kw)
    return NetworkConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="post-pool"):
        small_config(embed_dim=9)
    for widths in ((8,), (8, 8, 8)):
        with pytest.raises(ValueError, match="critic_widths"):
            small_config(critic_widths=widths)
    with pytest.raises(ValueError, match="symmetric"):
        small_config(tdnn_contexts=((-1, 0, 2), (0,), (0,)))


def test_init_deterministic():
    p1 = net.init_network(small_config(), seed=7)
    p2 = net.init_network(small_config(), seed=7)
    for name in p1.extractor.names():
        assert p1.extractor.value(name).tobytes() == \
            p2.extractor.value(name).tobytes()
    p3 = net.init_network(small_config(), seed=8)
    assert p1.extractor.value("tdnn0.W").tobytes() != \
        p3.extractor.value("tdnn0.W").tobytes()


def test_parameter_count_closed_form():
    cfg = small_config()
    params = net.init_network(cfg, seed=0)
    # hand count: affine W+b per tdnn layer, 4 bn vectors each,
    # embedding affine, head stack
    expected = 0
    in_dim = cfg.frame_dim
    for width, ctx in zip(cfg.tdnn_widths, cfg.tdnn_contexts):
        expected += width * in_dim * len(ctx) + width   # affine
        expected += 4 * width                           # bn params + stats
        in_dim = width
    expected += cfg.embed_dim * 2 * in_dim + cfg.embed_dim
    total = sum(params.extractor.value(n).size
                for n in params.extractor.names())
    assert total == expected

    head_expected = 4 * cfg.embed_dim                               # post0 bn
    head_expected += cfg.post_pool_widths[1] * cfg.embed_dim + \
        cfg.post_pool_widths[1] + 4 * cfg.post_pool_widths[1]       # post1
    head_expected += cfg.n_source_classes * cfg.post_pool_widths[1] + \
        cfg.n_source_classes
    head_expected += cfg.n_target_classes * cfg.post_pool_widths[1] + \
        cfg.n_target_classes
    assert sum(params.heads.value(n).size
               for n in params.heads.names()) == head_expected


def test_domain_bit_columns_zero_at_init():
    cfg = small_config(use_domain_bit=True)
    params = net.init_network(cfg, seed=3)
    for i in range(len(cfg.tdnn_widths)):
        assert np.all(params.extractor.value(f"tdnn{i}.W")[:, -1] == 0.0)
    assert np.all(params.extractor.value("embed.W")[:, -1] == 0.0)
    frames = np.random.default_rng(0).normal(size=(9, cfg.frame_dim))
    e0 = net.extract_embedding(params, frames, bit=0)
    e1 = net.extract_embedding(params, frames, bit=1)
    np.testing.assert_array_equal(e0, e1)


def test_domain_bit_zero_matches_unconditioned():
    # same seed, so the non-bit columns are drawn identically only if the
    # shapes match; instead check the bit-0 embedding is insensitive to
    # zeroed columns by perturbing them
    cfg = small_config(use_domain_bit=True)
    params = net.init_network(cfg, seed=3)
    frames = np.random.default_rng(1).normal(size=(8, cfg.frame_dim))
    e0 = net.extract_embedding(params, frames, bit=0)
    w = params.extractor.value("tdnn0.W").copy()
    w[:, -1] = 123.0
    params.extractor.set_value("tdnn0.W", w)
    np.testing.assert_array_equal(
        e0, net.extract_embedding(params, frames, bit=0))
    assert not np.array_equal(
        e0, net.extract_embedding(params, frames, bit=1))


# ---------------------------------------------------------------------------
# splicing


def test_splice_identity():
    x = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(net.splice_context(x, (0,)), x)


def test_splice_clamping_three_frames():
    a, b, c = [1.0, 10.0], [2.0, 20.0], [3.0, 30.0]
    out = net.splice_context(np.array([a, b, c]), (-1, 0, 1))
    np.testing.assert_array_equal(out, [a + a + b, a + b + c, b + c + c])


def test_splice_index_oracle(rng):
    x = rng.normal(size=(11, 3))
    offsets = (-3, 0, 3)
    out = net.splice_context(x, offsets)
    for t in range(11):
        for k, off in enumerate(offsets):
            np.testing.assert_array_equal(
                out[t, 3 * k:3 * (k + 1)],
                x[np.clip(t + off, 0, 10)])


def test_splice_too_short():
    with pytest.raises(Exception, match="shorter"):
        net.splice_context(np.zeros((2, 3)), (-2, 0, 2))


# ---------------------------------------------------------------------------
# stats pooling


def test_stats_pool_constant_frames():
    out = net.stats_pool(np.full((5, 3), 2.5))
    np.testing.assert_allclose(out[:3], 2.5)
    np.testing.assert_allclose(out[3:], 1e-5, rtol=1e-6)


def test_stats_pool_two_points():
    out = net.stats_pool(np.array([[0.0], [2.0]]))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(1.0, abs=1e-9)


def test_stats_pool_random_oracle(rng):
    x = rng.normal(size=(50, 7))
    out = net.stats_pool(x)
    np.testing.assert_allclose(out[:7], x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(out[7:], x.std(axis=0), rtol=1e-6)


def test_stats_pool_empty():
    with pytest.raises(ValueError):
        net.stats_pool(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# embedding and heads


def test_embedding_layer_by_layer_oracle(rng):
    cfg = small_config()
    params = net.init_network(cfg, seed=11)
    frames = rng.normal(size=(10, cfg.frame_dim))

    x = frames
    ext = params.extractor
    for i, ctx in enumerate(cfg.tdnn_contexts):
        spliced = np.concatenate(
            [x[np.clip(np.arange(x.shape[0]) + o, 0, x.shape[0] - 1)]
             for o in ctx], axis=1)
        a = np.maximum(spliced @ ext.value(f"tdnn{i}.W").T
                       + ext.value(f"tdnn{i}.b"), 0.0)
        # inference-mode bn with fresh running stats: (x - 0) / sqrt(1 + eps)
        x = a / np.sqrt(1.0 + cfg.bn_eps)
    pooled = np.concatenate([x.mean(axis=0),
                             np.sqrt(x.var(axis=0) + 1e-10)])
    expected = ext.value("embed.W") @ pooled + ext.value("embed.b")

    got = net.extract_embedding(params, frames)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def graph_ops(root):
    seen, stack, ops = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        ops.append(node.op)
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return sorted(ops)


@pytest.mark.parametrize("domain_bit", [False, True])
def test_embedding_is_batch_of_one(rng, domain_bit):
    params = net.init_network(small_config(use_domain_bit=domain_bit),
                              seed=3)
    frames = ad.const(rng.normal(size=(9, 4)))
    single = net.build_embedding(params, frames, 1, False, n_frames=9)
    batch = net.build_embedding_batch(params, frames, [9], [1], False)
    assert graph_ops(single) == graph_ops(batch)
    # one utterance needs no per-utterance slicing
    assert "slice-rows" not in graph_ops(batch)
    assert ad.evaluate(single).tobytes() == ad.evaluate(batch).tobytes()


def test_embedding_frame_dim_checked():
    params = net.init_network(small_config(), seed=0)
    with pytest.raises(ValueError, match="frames"):
        net.extract_embedding(params, np.zeros((5, 9)))


def test_embedding_permutation_invariance_without_context(rng):
    cfg = small_config(tdnn_contexts=((0,), (0,), (0,)))
    params = net.init_network(cfg, seed=5)
    frames = rng.normal(size=(12, cfg.frame_dim))
    perm = rng.permutation(12)
    e1 = net.extract_embedding(params, frames)
    e2 = net.extract_embedding(params, frames[perm])
    np.testing.assert_allclose(e1, e2, atol=1e-10)


def test_classify_uniform_with_zero_head(rng):
    cfg = small_config()
    params = net.init_network(cfg, seed=2)
    params.heads.set_value("head_source.W",
                           np.zeros_like(params.heads.value("head_source.W")))
    params.heads.set_value("head_source.b",
                           np.zeros(cfg.n_source_classes))
    logp = net.classify(params, rng.normal(size=cfg.embed_dim), "source")
    np.testing.assert_allclose(logp, np.log(1.0 / cfg.n_source_classes),
                               rtol=1e-12)


def test_classify_is_log_probability(rng):
    params = net.init_network(small_config(), seed=2)
    for head in ("source", "target"):
        logp = net.classify(params, rng.normal(size=5), head)
        assert abs(np.exp(logp).sum() - 1.0) <= 1e-12


def test_classify_argmax_matches_affine_scores(rng):
    cfg = small_config()
    params = net.init_network(cfg, seed=9)
    h = rng.normal(size=cfg.embed_dim)
    logp = net.classify(params, h, "target")

    hp = params.heads
    x = np.maximum(h, 0.0)
    x = x / np.sqrt(1.0 + cfg.bn_eps)
    x = np.maximum(hp.value("post1.W") @ x + hp.value("post1.b"), 0.0)
    x = x / np.sqrt(1.0 + cfg.bn_eps)
    scores = hp.value("head_target.W") @ x + hp.value("head_target.b")
    assert int(np.argmax(logp)) == int(np.argmax(scores))


def test_classify_unknown_head(rng):
    params = net.init_network(small_config(), seed=0)
    with pytest.raises(ValueError, match="head"):
        net.classify(params, np.zeros(5), "middle")


def test_heads_share_embedding(rng):
    # both heads consume the same embedding; only the final affine differs
    cfg = small_config()
    params = net.init_network(cfg, seed=4)
    frames = rng.normal(size=(9, cfg.frame_dim))
    e1 = net.extract_embedding(params, frames)
    e2 = net.extract_embedding(params, frames)
    np.testing.assert_array_equal(e1, e2)


# ---------------------------------------------------------------------------
# critic


def test_critic_zero_params(rng):
    params = net.init_network(small_config(), seed=1)
    for name in params.critic.names():
        params.critic.set_value(name,
                                np.zeros_like(params.critic.value(name)))
    assert net.critic_forward(params, rng.normal(size=5)) == 0.0


def test_critic_linear_passthrough(rng):
    cfg = small_config(critic_widths=(5, 5))
    params = net.init_network(cfg, seed=1)
    w = rng.uniform(0.5, 1.0, size=(1, 5))
    params.critic.set_value("W0", np.eye(5))
    params.critic.set_value("b0", np.full(5, 50.0))
    params.critic.set_value("W1", np.eye(5))
    params.critic.set_value("b1", np.full(5, 50.0))
    params.critic.set_value("W2", w)
    params.critic.set_value("b2", np.array([-0.5]))
    h = rng.normal(size=5)
    # offsets keep every activation positive: f(h) = w.(h + 100) + b
    expected = float((w @ (h + 100.0))[0] - 0.5)
    assert net.critic_forward(params, h) == pytest.approx(expected, rel=1e-12)


def test_critic_matches_numpy_oracle(rng):
    cfg = small_config()
    params = net.init_network(cfg, seed=6)
    h = rng.normal(size=cfg.embed_dim)
    cr = params.critic
    s = cfg.leaky_slope
    z0 = cr.value("W0") @ h + cr.value("b0")
    a0 = np.where(z0 > 0, z0, s * z0)
    z1 = cr.value("W1") @ a0 + cr.value("b1")
    a1 = np.where(z1 > 0, z1, s * z1)
    expected = float((cr.value("W2") @ a1 + cr.value("b2"))[0])
    assert net.critic_forward(params, h) == pytest.approx(expected, rel=1e-12)


def test_critic_dimension_checked():
    params = net.init_network(small_config(), seed=0)
    with pytest.raises(ValueError, match="size"):
        net.critic_forward(params, np.zeros(4))


# ---------------------------------------------------------------------------
# loss normalization


def test_cross_entropy_uniform_is_one():
    l = 7
    logp = np.full(l, np.log(1.0 / l))
    assert net.cross_entropy_loss(logp, 3, np.log(l)) == pytest.approx(1.0)


def test_cross_entropy_perfect_is_zero():
    logp = np.array([0.0, -50.0, -50.0])
    assert net.cross_entropy_loss(logp, 0, np.log(3)) == 0.0


def test_cross_entropy_quarter_on_four():
    logp = np.log(np.full(4, 0.25))
    assert net.cross_entropy_loss(logp, 2, np.log(4)) == pytest.approx(1.0)


def test_cross_entropy_label_range():
    with pytest.raises(ValueError):
        net.cross_entropy_loss(np.zeros(3), 3, np.log(3))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, rng):
    cfg = small_config(use_domain_bit=True)
    params = net.init_network(cfg, seed=13)
    params.extractor.set_value(
        "tdnn0.rmean", rng.normal(size=cfg.tdnn_widths[0]))
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, params)
    loaded = net.load_checkpoint(path)
    assert loaded.config == cfg
    for ps_a, ps_b in ((params.extractor, loaded.extractor),
                       (params.heads, loaded.heads),
                       (params.critic, loaded.critic)):
        for name in ps_a.names():
            assert ps_a.value(name).tobytes() == ps_b.value(name).tobytes()
    # running stats stay frozen after load
    assert not loaded.extractor.is_trainable("tdnn0.rmean")


def test_checkpoint_truncation_detected(tmp_path):
    params = net.init_network(small_config(), seed=0)
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, params)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        net.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        net.load_checkpoint(path)


def write_checkpoint(path, config: dict, arrays):
    """A checkpoint written field by field with `advda.container`."""
    with open(path, "wb") as f:
        container.write_header(f, net.CHECKPOINT_MAGIC,
                               net.CHECKPOINT_VERSION)
        container.write_json(f, config)
        f.write(struct.pack("<I", len(arrays)))
        container.write_arrays(f, arrays)


def checkpoint_parts(params):
    arrays = [(f"{prefix}/{name}", ps.value(name))
              for prefix, ps in (("extractor", params.extractor),
                                 ("heads", params.heads),
                                 ("critic", params.critic))
              for name in ps.names()]
    return asdict(params.config), arrays


def test_checkpoint_wrong_array_shape_rejected(tmp_path):
    config, arrays = checkpoint_parts(net.init_network(small_config(), 0))
    arrays = [(n, np.zeros(5) if n == "critic/b0" else a)
              for n, a in arrays]
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, config, arrays)
    with pytest.raises(ValueError, match=r"model\.ckpt.*critic/b0.*\(5,\)"):
        net.load_checkpoint(path)


@pytest.mark.parametrize("key, value, match", [
    ("dropout", 0.5, "unexpected keyword argument 'dropout'"),
    ("critic_widths", [8], "critic_widths"),
])
def test_checkpoint_bad_config_block_rejected(tmp_path, key, value, match):
    config, arrays = checkpoint_parts(net.init_network(small_config(), 0))
    config[key] = value
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, config, arrays)
    with pytest.raises(ValueError, match=rf"model\.ckpt.*{match}"):
        net.load_checkpoint(path)


# ---------------------------------------------------------------------------
# segmented minibatch graph


def per_utterance_embedding(params, frames, counts, bits, training):
    """Reference graph: each utterance sliced out, spliced and pooled on
    its own, the parts stacked again after every layer."""
    cfg, ext = params.config, params.extractor
    frame_bits = np.repeat(np.asarray(bits, dtype=float), counts)[:, None]

    def per_utterance(x, fn):
        starts = np.cumsum([0] + counts[:-1])
        return ad.concat([fn(ad.slice_rows(x, s, s + n))
                          for s, n in zip(starts, counts)], axis=0)

    x = frames
    for i, ctx in enumerate(cfg.tdnn_contexts):
        x = per_utterance(x, lambda u: ad.splice(u, ctx))
        x = ad.concat([x, ad.const(frame_bits)], axis=1)
        x = ad.affine(x, ad.param(ext, f"tdnn{i}.W"),
                      ad.param(ext, f"tdnn{i}.b"))
        x = ad.batch_norm(ad.relu(x), ad.param(ext, f"tdnn{i}.gamma"),
                          ad.param(ext, f"tdnn{i}.beta"), ext,
                          f"tdnn{i}.rmean", f"tdnn{i}.rvar", training,
                          cfg.bn_momentum, cfg.bn_eps)
    x = per_utterance(x, ad.stats_pool)
    x = ad.concat([x, ad.const(np.asarray(bits, dtype=float)[:, None])],
                  axis=1)
    return ad.affine(x, ad.param(ext, "embed.W"), ad.param(ext, "embed.b"))


def test_segmented_graph_equals_per_utterance_graphs(rng):
    # wide contexts after the first layer, where gradients reach the
    # splice: edge rows sum three and four clamped terms in order
    cfg = small_config(use_domain_bit=True,
                       tdnn_contexts=((-1, 0, 1), (-2, 0, 2), (-3, 0, 3)))
    counts = [5, 9, 4, 7]
    bits = [0, 1, 1, 0]
    frames = rng.normal(size=(sum(counts), cfg.frame_dim))
    weights = rng.normal(size=(len(counts), cfg.embed_dim))
    start = net.init_network(cfg, seed=21).extractor
    noise = {n: 0.1 * rng.normal(size=start.value(n).shape)
             for n in start.names()}
    results = []
    for build in (net.build_embedding_batch, per_utterance_embedding):
        params = net.init_network(cfg, seed=21)
        for name in params.extractor.names():
            params.extractor.set_value(
                name, params.extractor.value(name) + noise[name])
        emb = build(params, ad.const(frames), counts, bits, True)
        root = ad.mean(ad.square(ad.mul(emb, ad.const(weights))))
        ad.evaluate(root)
        grads = ad.backward(root, params.extractor)
        results.append((emb.value, grads, params.extractor))
    (e1, g1, ps1), (e2, g2, ps2) = results
    np.testing.assert_array_equal(e1, e2)
    assert g1.keys() == g2.keys()
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name], err_msg=name)
    for name in ps1.names():  # running statistics included
        np.testing.assert_array_equal(ps1.value(name), ps2.value(name))


def test_segmented_graph_is_small():
    params = net.init_network(small_config(use_domain_bit=True), seed=0)
    counts = [6] * 40
    emb = net.build_embedding_batch(
        params, ad.const(np.zeros((sum(counts), 4))), counts, [0, 1] * 20,
        training=True)
    ops = graph_ops(emb)
    assert "slice-rows" not in ops
    assert ops.count("splice") == 3 and ops.count("stats-pool") == 1
    assert len(ops) < 40


def utterances(rng, cfg, lengths):
    return [rng.normal(size=(n, cfg.frame_dim)) for n in lengths]


@pytest.mark.parametrize("domain_bit", [False, True])
def test_batched_extraction_matches_per_utterance(rng, monkeypatch,
                                                  domain_bit):
    cfg = small_config(use_domain_bit=domain_bit)
    params = net.init_network(cfg, seed=8)
    for name in params.extractor.names():
        value = params.extractor.value(name)
        params.extractor.set_value(
            name, value + 0.2 * rng.normal(size=value.shape))
    lengths = [7, 30, 12, 9, 25, 8, 40, 11]
    frames = utterances(rng, cfg, lengths)
    bits = [0, 1, 1, 0, 1, 0, 0, 1]
    single = np.stack([net.extract_embedding(params, f, bit=b)
                       for f, b in zip(frames, bits)])

    built = []
    build = net.build_embedding_batch

    def counting_build(*args, **kwargs):
        built.append(args[2])
        return build(*args, **kwargs)
    monkeypatch.setattr(net, "build_embedding_batch", counting_build)
    widest = net._widest_frame_array(cfg)
    # 1 row per chunk (one utterance each), 40 rows, everything at once
    for rows in (1, 40, 10**6):
        built.clear()
        monkeypatch.setattr(net, "EXTRACT_CHUNK_BYTES", 8 * widest * rows)
        batched = net.extract_embeddings(params, frames, bits)
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-12)
        assert [n for chunk in built for n in chunk] == lengths
        assert all(sum(c) <= rows or len(c) == 1 for c in built)
    assert len(built) == 1


def test_batched_extraction_checks_inputs(rng):
    cfg = small_config()
    params = net.init_network(cfg, seed=0)
    with pytest.raises(ValueError, match="frames"):
        net.extract_embeddings(params, [np.zeros((5, cfg.frame_dim)),
                                        np.zeros((5, 9))], [0, 0])
    with pytest.raises(ValueError, match="bits"):
        net.extract_embeddings(params, [np.zeros((5, cfg.frame_dim))],
                               [0, 1])
