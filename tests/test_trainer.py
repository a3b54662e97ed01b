import copy
import dataclasses

import numpy as np
import pytest

from advda import autodiff as ad
from advda import network as net
from advda import trainer as tr
from advda.network import NetworkConfig
from advda.trainer import Minibatch, TrainConfig
from conftest import (critic_gap, critic_value, gradient_penalty,
                      read_train_log)


def tiny_config(**kw):
    base = dict(frame_dim=4, tdnn_widths=(6, 6),
                tdnn_contexts=((-1, 0, 1), (0,)), embed_dim=8,
                post_pool_widths=(8, 6), critic_widths=(8, 8),
                n_source_classes=5, n_target_classes=4)
    base.update(kw)
    return NetworkConfig(**base)


def tiny_train_config(**kw):
    base = dict(source_batch=5, target_batch=5, segment_frames=(8, 12),
                epochs=1, minibatches_per_epoch=2, warmup_epochs=0,
                rate_critic=0.01, rate_main=0.1, critic_steps=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def make_feats(rng, n_utts, frame_dim=4, n_classes=5, prefix="u"):
    feats, labels = {}, {}
    for i in range(n_utts):
        label = i % n_classes
        t = int(rng.integers(10, 16))
        # class-dependent mean so classification is learnable
        feats[f"{prefix}{i}"] = (rng.normal(size=(t, frame_dim)) * 0.3
                                 + label).astype(np.float64)
        labels[f"{prefix}{i}"] = label
    return feats, labels


def param_bytes(ps):
    return b"".join(ps.value(n).tobytes() for n in sorted(ps.names()))


def set_linear_critic(params, v):
    """Make the critic compute exactly v . h despite the leaky-relu layers.

    Stacking [h; -h] and recombining with 1/(1+slope) undoes each
    leaky-relu, so the map is linear everywhere.  Every hidden layer is
    2d wide; the ones after the first repeat the middle block.
    """
    d = params.config.embed_dim
    s = params.config.leaky_slope
    eye = np.eye(d)
    block = np.block([[eye, -eye], [-eye, eye]]) / (1.0 + s)
    weights = [np.concatenate([eye, -eye], axis=0),
               *[block] * (len(params.config.critic_widths) - 1),
               np.concatenate([v, -v])[None, :] / (1.0 + s)]
    for i, w in enumerate(weights):
        params.critic.set_value(f"W{i}", w)
        params.critic.set_value(f"b{i}", np.zeros(w.shape[0]))


@pytest.fixture
def tiny_params():
    cfg = tiny_config(critic_widths=(16, 16))
    return net.init_network(cfg, seed=0)


# ---------------------------------------------------------------------------
# config and schedule


def test_train_config_validation():
    with pytest.raises(ValueError, match="mode"):
        tiny_train_config(mode="gan")
    with pytest.raises(ValueError, match="scope"):
        tiny_train_config(scope="frozen")
    with pytest.raises(ValueError, match="gamma must be at least 0"):
        tiny_train_config(gamma=-1.0)
    with pytest.raises(ValueError, match="segment"):
        tiny_train_config(segment_frames=(10, 5))


def test_train_config_mode_properties():
    assert not tiny_train_config(mode="sup").adversarial
    assert tiny_train_config(mode="sup").supervised_target
    assert tiny_train_config(mode="adv").adversarial
    assert not tiny_train_config(mode="adv").supervised_target
    assert tiny_train_config(mode="adv+sup").supervised_target
    assert tiny_train_config(mode="adv+lan+sup").supervised_target


def test_lr_schedule_halving():
    cfg = tiny_train_config(rate_critic=0.001, rate_main=1.0, halve_every=5,
                            epochs=100, warmup_epochs=0)
    assert tr.lr_schedule(0, cfg) == (0.001, 1.0)
    assert tr.lr_schedule(4, cfg) == (0.001, 1.0)
    assert tr.lr_schedule(5, cfg) == (0.0005, 0.5)
    assert tr.lr_schedule(14, cfg) == (0.00025, 0.25)
    with pytest.raises(ValueError, match="non-negative"):
        tr.lr_schedule(-1, cfg)


def test_crop_segment(rng):
    frames = rng.normal(size=(50, 3))
    for _ in range(20):
        out = tr.crop_segment(frames, (10, 20), rng)
        assert 10 <= out.shape[0] <= 20
        # contiguity: the crop appears verbatim in the original
        starts = [i for i in range(50) if np.array_equal(frames[i], out[0])]
        assert any(np.array_equal(frames[i:i + out.shape[0]], out)
                   for i in starts)
    short = rng.normal(size=(5, 3))
    out = tr.crop_segment(short, (10, 20), rng)
    np.testing.assert_array_equal(out, short)


def test_minibatch_sampler_composition(rng):
    sf, sl = make_feats(rng, 12, prefix="s")
    sf = {u: f.astype(np.float32) for u, f in sf.items()}
    tf, tl = make_feats(rng, 8, n_classes=4, prefix="t")
    cfg = tiny_train_config(source_batch=6, target_batch=4)
    sampler = tr.MinibatchSampler(sf, sl, tf, tl, cfg)
    replay = copy.deepcopy(rng)
    batch = sampler.sample(rng)
    # draw order: source indices, target indices, then each crop
    src = [sorted(sf)[i] for i in replay.integers(0, 12, size=6)]
    tgt = [sorted(tf)[i] for i in replay.integers(0, 8, size=4)]
    crops = [tr.crop_segment(feats[u], cfg.segment_frames, replay)
             for feats, ids in ((sf, src), (tf, tgt)) for u in ids]
    assert batch.n_source == 6
    assert batch.counts == [len(c) for c in crops]
    assert max(batch.counts) <= 12
    assert batch.labels == [sl[u] for u in src] + [tl[u] for u in tgt]
    assert batch.frames.dtype == np.float64
    np.testing.assert_array_equal(batch.frames, np.concatenate(crops))


def test_minibatch_sampler_unlabeled_target(rng):
    sf, sl = make_feats(rng, 6, prefix="s")
    tf, _ = make_feats(rng, 6, prefix="t")
    sampler = tr.MinibatchSampler(sf, sl, tf, None, tiny_train_config())
    batch = sampler.sample(rng)
    assert batch.labels[batch.n_source:] == [None] * 5


def test_minibatch_sampler_empty_domain(rng):
    sf, sl = make_feats(rng, 6)
    with pytest.raises(ValueError, match="domain"):
        tr.MinibatchSampler(sf, sl, {}, None, tiny_train_config())


# ---------------------------------------------------------------------------
# wasserstein loss and interpolates


def test_wasserstein_loss_identical_batches(tiny_params, rng):
    h = rng.normal(size=(7, 8))
    assert critic_gap(tiny_params, h, h) == pytest.approx(0.0)


def test_wasserstein_loss_linear_critic_oracle(rng):
    params = net.init_network(tiny_config(critic_widths=(16, 16)), seed=1)
    v = rng.normal(size=8)
    set_linear_critic(params, v)
    hs = rng.normal(size=(6, 8))
    ht = rng.normal(size=(9, 8))
    expected = v @ (hs.mean(axis=0) - ht.mean(axis=0))
    assert critic_gap(params, hs, ht) == pytest.approx(expected, abs=1e-10)


def test_sample_interpolates_collinear(rng):
    hs = rng.normal(size=(10, 5))
    ht = rng.normal(size=(10, 5))
    out = tr.sample_interpolates(hs, ht, rng)
    assert out.shape == (10, 5)
    for row in out:
        found = False
        for a in hs:
            for b in ht:
                d = a - b
                k = int(np.abs(d).argmax())
                if d[k] == 0:
                    continue
                eps = (row[k] - b[k]) / d[k]
                if 0.0 <= eps <= 1.0 and \
                        np.abs(row - (eps * a + (1 - eps) * b)).max() <= 1e-9:
                    found = True
                    break
            if found:
                break
        assert found


def test_sample_interpolates_shape_mismatch(rng):
    with pytest.raises(ValueError, match="equal"):
        tr.sample_interpolates(np.zeros((3, 2)), np.zeros((4, 2)), rng)


# ---------------------------------------------------------------------------
# gradient penalty


def test_gradient_penalty_unit_norm_critic_is_zero(rng):
    params = net.init_network(tiny_config(critic_widths=(16, 16)), seed=2)
    v = rng.normal(size=8)
    set_linear_critic(params, v / np.linalg.norm(v))
    hhat = rng.normal(size=(12, 8))
    assert gradient_penalty(params, hhat) == pytest.approx(0.0, abs=1e-12)


def test_gradient_penalty_linear_critic_closed_form(rng):
    params = net.init_network(tiny_config(critic_widths=(16, 16)), seed=3)
    v = rng.normal(size=8)
    set_linear_critic(params, v)
    hhat = rng.normal(size=(5, 8))
    expected = (np.linalg.norm(v) - 1.0) ** 2
    assert gradient_penalty(params, hhat) == pytest.approx(
        expected, abs=1e-10)


def test_gradient_penalty_zero_critic_is_one():
    params = net.init_network(tiny_config(), seed=4)
    for name in params.critic.names():
        params.critic.set_value(name, np.zeros_like(params.critic.value(name)))
    assert gradient_penalty(params, np.ones((3, 8))) == pytest.approx(1.0)


@pytest.mark.parametrize("widths", [(8,), (8, 8), (8, 8, 8)],
                         ids=["depth1", "depth2", "depth3"])
def test_gradient_penalty_matches_finite_differences(rng, widths):
    params = net.init_network(tiny_config(critic_widths=widths), seed=5)
    hhat = rng.normal(size=(4, 8))
    eps = 1e-6
    norms = []
    for row in hhat:
        g = np.zeros(8)
        for k in range(8):
            hp, hm = row.copy(), row.copy()
            hp[k] += eps
            hm[k] -= eps
            g[k] = (critic_value(params, hp)
                    - critic_value(params, hm)) / (2 * eps)
        norms.append(np.linalg.norm(g))
    expected = np.mean([(n - 1.0) ** 2 for n in norms])
    assert gradient_penalty(params, hhat) == pytest.approx(expected, abs=1e-5)


# ---------------------------------------------------------------------------
# critic step


def test_critic_step_improves_objective(rng):
    params = net.init_network(tiny_config(), seed=6)
    cfg = tiny_train_config(gamma=10.0)
    hs = rng.normal(size=(20, 8)) + 1.0
    ht = rng.normal(size=(20, 8)) - 1.0
    history = []
    for _ in range(150):
        l_wd, l_grad = tr.critic_step(params, hs, ht, cfg, 0.01, rng)
        history.append(l_wd - cfg.gamma * l_grad)
    assert np.mean(history[-10:]) > np.mean(history[:10]) + 0.1


def test_critic_step_touches_only_critic(rng):
    params = net.init_network(tiny_config(), seed=7)
    cfg = tiny_train_config()
    ext0 = param_bytes(params.extractor)
    heads0 = param_bytes(params.heads)
    critic0 = param_bytes(params.critic)
    tr.critic_step(params, rng.normal(size=(6, 8)), rng.normal(size=(6, 8)),
                   cfg, 0.01, rng)
    assert param_bytes(params.extractor) == ext0
    assert param_bytes(params.heads) == heads0
    assert param_bytes(params.critic) != critic0


def test_critic_step_is_the_exact_ascent_step():
    # replay the step's draws, then take the gradient of L_wd - gamma *
    # L_grad as that graph orders it: the step must add rate times it, to
    # the bit (backward's summation order shows in the last bits)
    cfg = tiny_train_config(gamma=10.0)
    for seed in range(20):
        params = net.init_network(tiny_config(), seed=seed)
        data = np.random.default_rng([seed, 1])
        hs, ht = data.normal(size=(6, 8)) + 1.0, data.normal(size=(6, 8))
        interp = tr.sample_interpolates(hs, ht, np.random.default_rng(seed))
        hhat = ad.const(np.concatenate([hs, ht, interp]))
        objective = ad.sub(
            tr.critic_gap_graph(params, ad.const(hs), ad.const(ht)),
            ad.scale(tr.gradient_penalty_graph(params, hhat), cfg.gamma))
        ad.evaluate(objective)
        grads = ad.backward(objective, params.critic)
        want = {n: params.critic.value(n) + 0.01 * g for n, g in grads.items()}
        tr.critic_step(params, hs, ht, cfg, 0.01, np.random.default_rng(seed))
        for name, value in want.items():
            np.testing.assert_array_equal(params.critic.value(name), value,
                                          err_msg=f"seed {seed}, {name}")


# ---------------------------------------------------------------------------
# main step


def make_batch(rng, params, n=5, labeled_target=True):
    sf, sl = make_feats(rng, n, prefix="s",
                        n_classes=params.config.n_source_classes)
    tf, tl = make_feats(rng, n, prefix="t",
                        n_classes=params.config.n_target_classes)
    frames = [sf[u] for u in sorted(sf)] + [tf[u] for u in sorted(tf)]
    labels = [sl[u] for u in sorted(sf)] + [
        tl[u] if labeled_target else None for u in sorted(tf)]
    return Minibatch(np.concatenate(frames), [len(f) for f in frames],
                     labels, n)


def embed_and_step(params, batch, cfg, rate, warmup=False):
    """A main step on a freshly embedded batch, as in `train`."""
    emb = tr.embed_minibatch(params, batch, cfg)
    ad.evaluate(emb)
    return tr.main_step(params, batch, emb, cfg, rate, warmup=warmup)


def test_embed_minibatch_feeds_the_bit_only_in_adv_lan_sup(rng):
    params = net.init_network(tiny_config(use_domain_bit=True), seed=14)
    for n in params.extractor.names():
        if n.endswith(".W"):
            w = params.extractor.value(n).copy()
            w[:, -1] = rng.normal(size=w.shape[0])
            params.extractor.set_value(n, w)
    batch = make_batch(rng, params)
    ns = batch.n_source
    # counted as source, the target segments get bit 0
    zeroed = dataclasses.replace(batch, n_source=len(batch.counts))

    def embed(b, mode):
        return ad.evaluate(tr.embed_minibatch(params, b,
                                              tiny_train_config(mode=mode)))

    bit0 = embed(zeroed, "adv+lan+sup")
    assert np.array_equal(embed(batch, "adv+sup")[ns:], bit0[ns:])
    lan = embed(batch, "adv+lan+sup")
    assert np.all(np.any(lan[ns:] != bit0[ns:], axis=1))


def test_main_step_reduces_source_ce(rng):
    params = net.init_network(tiny_config(), seed=8)
    cfg = tiny_train_config(mode="sup")
    batch = make_batch(rng, params)
    first = embed_and_step(params, batch, cfg, 0.5)["source_ce"]
    for _ in range(8):
        last = embed_and_step(params, batch, cfg, 0.5)["source_ce"]
    assert last < first


def test_main_step_folds_batch_statistics_once(rng):
    # as in `train`: the embeddings are evaluated before the step and
    # the step evaluates its loss on top of them
    params = net.init_network(tiny_config(), seed=13)
    cfg = tiny_train_config(mode="adv+sup")
    batch = make_batch(rng, params)
    ext = params.extractor
    w, b = ext.value("tdnn0.W").copy(), ext.value("tdnn0.b").copy()
    embed_and_step(params, batch, cfg, 0.1)
    spliced = np.concatenate([
        ad.evaluate(ad.splice(ad.const(f), params.config.tdnn_contexts[0]))
        for f in np.split(batch.frames, np.cumsum(batch.counts)[:-1])])
    mu = np.maximum(spliced @ w.T + b, 0.0).mean(axis=0)
    m = params.config.bn_momentum
    np.testing.assert_allclose(ext.value("tdnn0.rmean"), (1 - m) * mu,
                               rtol=1e-12)


def test_main_step_leaves_critic_alone(rng):
    params = net.init_network(tiny_config(), seed=9)
    cfg = tiny_train_config(mode="adv+sup")
    critic0 = param_bytes(params.critic)
    embed_and_step(params, make_batch(rng, params), cfg, 0.1)
    assert param_bytes(params.critic) == critic0


def test_main_step_warmup_skips_target_and_adversary(rng):
    params = net.init_network(tiny_config(), seed=10)
    cfg = tiny_train_config(mode="adv+sup")
    stats = embed_and_step(params, make_batch(rng, params,
                                              labeled_target=False),
                           cfg, 0.1, warmup=True)
    assert stats["target_ce"] is None
    assert stats["l_wd_main"] is None


def test_main_step_unsupervised_mode_needs_no_labels(rng):
    params = net.init_network(tiny_config(), seed=11)
    cfg = tiny_train_config(mode="adv")
    stats = embed_and_step(params, make_batch(rng, params,
                                              labeled_target=False),
                           cfg, 0.1)
    assert stats["target_ce"] is None
    assert stats["l_wd_main"] is not None


def test_main_step_supervised_mode_requires_labels(rng):
    params = net.init_network(tiny_config(), seed=12)
    cfg = tiny_train_config(mode="adv+sup")
    with pytest.raises(ValueError, match="labels"):
        embed_and_step(params, make_batch(rng, params, labeled_target=False),
                       cfg, 0.1)


# ---------------------------------------------------------------------------
# pseudo-labels


def brute_force_average_linkage(x, threshold):
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    sim = xn @ xn.T
    clusters = [[i] for i in range(len(x))]
    while len(clusters) > 1:
        best, pair = -np.inf, None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                s = np.mean([sim[i, j] for i in clusters[a]
                             for j in clusters[b]])
                if s > best:
                    best, pair = s, (a, b)
        if best < threshold:
            break
        a, b = pair
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return {frozenset(c) for c in clusters}


def partition_of(labels):
    out = {}
    for i, l in enumerate(labels):
        out.setdefault(l, []).append(i)
    return {frozenset(v) for v in out.values()}


def test_pseudo_label_separable_clusters(rng):
    a = rng.normal(size=(10, 6)) * 0.05 + np.array([5, 0, 0, 0, 0, 0])
    b = rng.normal(size=(10, 6)) * 0.05 + np.array([0, 5, 0, 0, 0, 0])
    labels = tr.pseudo_label(np.concatenate([a, b]), stop_threshold=0.5)
    assert set(labels[:10]) == {0}
    assert set(labels[10:]) == {1}


def test_pseudo_label_high_threshold_no_merges(rng):
    x = rng.normal(size=(6, 4))
    labels = tr.pseudo_label(x, stop_threshold=1.1)
    assert sorted(labels) == list(range(6))


def test_pseudo_label_low_threshold_single_cluster(rng):
    x = rng.normal(size=(6, 4))
    labels = tr.pseudo_label(x, stop_threshold=-1.01)
    assert set(labels) == {0}


def test_pseudo_label_matches_brute_force(rng):
    for threshold in (0.8, 0.3, 0.0):
        x = rng.normal(size=(30, 5))
        got = partition_of(tr.pseudo_label(x, threshold))
        want = brute_force_average_linkage(x, threshold)
        assert got == want


def test_pseudo_label_degenerate_inputs(rng):
    with pytest.raises(ValueError, match="at least 2"):
        tr.pseudo_label(np.ones((1, 3)), 0.5)
    with pytest.raises(ValueError, match="zero"):
        tr.pseudo_label(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.5)


def test_pseudo_label_utterances_mapping(rng):
    params = net.init_network(tiny_config(), seed=13)
    feats, _ = make_feats(rng, 6)
    out = tr.pseudo_label_utterances(params, feats, stop_threshold=1.1)
    assert sorted(out) == sorted(feats)
    assert sorted(out.values()) == list(range(6))


def test_labels_from_manifest():
    from advda.corpus import ManifestRecord
    records = [ManifestRecord("u2", "spkB", "source", "l", 10),
               ManifestRecord("u0", "spkA", "source", "l", 10),
               ManifestRecord("u1", "spkB", "source", "l", 10)]
    labels = tr.labels_from_manifest(records)
    assert labels == {"u0": 0, "u1": 1, "u2": 1}


# ---------------------------------------------------------------------------
# training driver


def train_setup(rng, mode="adv+sup", **kw):
    cfg_net = tiny_config(
        use_domain_bit=(mode == "adv+lan+sup"), critic_widths=(8, 8))
    params = net.init_network(cfg_net, seed=14)
    sf, sl = make_feats(rng, 10, prefix="s", n_classes=5)
    tf, tl = make_feats(rng, 8, prefix="t", n_classes=4)
    cfg = tiny_train_config(mode=mode, epochs=2, warmup_epochs=1,
                            minibatches_per_epoch=2, **kw)
    return params, cfg, sf, sl, tf, tl


def test_train_epochs_zero_is_identity(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng)
    cfg = tiny_train_config(mode="adv+sup", epochs=0, warmup_epochs=0)
    before = (param_bytes(params.extractor), param_bytes(params.heads),
              param_bytes(params.critic))
    out, log = tr.train(params, cfg, sf, sl, tf, tl)
    assert log == []
    after = (param_bytes(out.extractor), param_bytes(out.heads),
             param_bytes(out.critic))
    assert before == after


def test_train_log_structure_and_warmup(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng)
    _, log = tr.train(params, cfg, sf, sl, tf, tl)
    assert len(log) == 2
    for rec in log:
        assert set(rec) == {"epoch", "l_wd", "l_grad", "source_ce",
                            "target_ce", "rate_critic", "rate_main"}
    # critic trains through warm-up, target classification does not
    assert log[0]["l_wd"] is not None
    assert log[0]["target_ce"] is None
    assert log[1]["target_ce"] is not None


def test_train_sup_mode_has_no_adversary(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng, mode="sup")
    critic0 = param_bytes(params.critic)
    _, log = tr.train(params, cfg, sf, sl, tf, tl)
    assert log[0]["l_wd"] is None
    assert param_bytes(params.critic) == critic0


def test_train_deterministic(rng):
    runs = []
    for _ in range(2):
        r = np.random.default_rng(99)
        params, cfg, sf, sl, tf, tl = train_setup(r)
        out, log = tr.train(params, cfg, sf, sl, tf, tl)
        runs.append((param_bytes(out.extractor), param_bytes(out.heads),
                     param_bytes(out.critic), log))
    assert runs[0] == runs[1]


def test_train_post_pool_scope_freezes_tdnn(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng, scope="post-pool")
    tdnn0 = {n: params.extractor.value(n).copy()
             for n in params.extractor.names() if n.startswith("tdnn")}
    embed0 = params.extractor.value("embed.W").copy()
    tr.train(params, cfg, sf, sl, tf, tl)
    for n, v in tdnn0.items():
        np.testing.assert_array_equal(params.extractor.value(n), v)
    assert not np.array_equal(params.extractor.value("embed.W"), embed0)


def test_train_supervised_needs_labels(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng)
    with pytest.raises(ValueError, match="labels"):
        tr.train(params, cfg, sf, sl, tf, None)


def test_train_adversarial_needs_equal_batches(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng, source_batch=4,
                                              target_batch=3)
    before = param_bytes(params.critic) + param_bytes(params.extractor)
    with pytest.raises(ValueError, match="source_batch == target_batch"):
        tr.train(params, cfg, sf, sl, tf, tl)
    assert param_bytes(params.critic) + param_bytes(params.extractor) == \
        before
    # without a critic there is nothing to pair, so sup mode trains
    params, cfg, sf, sl, tf, tl = train_setup(rng, mode="sup",
                                              source_batch=4, target_batch=3)
    tr.train(params, cfg, sf, sl, tf, tl)


def test_train_language_mode_needs_domain_bit(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng)
    cfg = tiny_train_config(mode="adv+lan+sup", epochs=2, warmup_epochs=1)
    with pytest.raises(ValueError, match="domain-bit"):
        tr.train(params, cfg, sf, sl, tf, tl)


def test_train_language_mode_runs_with_bit(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng, mode="adv+lan+sup")
    _, log = tr.train(params, cfg, sf, sl, tf, tl)
    assert len(log) == 2


def test_train_rejects_oversized_label_set(rng):
    params, cfg, sf, sl, tf, tl = train_setup(rng)
    bad = {u: i for i, u in enumerate(sorted(tf))}   # 8 labels > 4 classes
    with pytest.raises(ValueError, match="head"):
        tr.train(params, cfg, sf, sl, tf, bad)


def test_train_adv_reduces_wasserstein_gap(rng):
    # with a shifted target domain the critic finds a positive gap during
    # warm-up and adaptation then shrinks it
    cfg_net = tiny_config(critic_widths=(8, 8))
    params = net.init_network(cfg_net, seed=15)
    sf, sl = make_feats(rng, 12, prefix="s", n_classes=5)
    tf = {u: f + 3.0 for u, (f) in make_feats(rng, 12, prefix="t")[0].items()}
    cfg = tiny_train_config(mode="adv", epochs=6, warmup_epochs=1,
                            minibatches_per_epoch=4, critic_steps=5,
                            rate_critic=0.01, rate_main=0.05, delta=0.5)
    _, log = tr.train(params, cfg, sf, sl, tf, None)
    assert abs(log[-1]["l_wd"]) < abs(log[0]["l_wd"])


@pytest.mark.parametrize("widths", [(8,), (8, 8), (8, 8, 8)])
def test_adaptation_step_at_any_critic_depth(rng, widths):
    params = net.init_network(tiny_config(critic_widths=widths), seed=18)
    sf, sl = make_feats(rng, 10, prefix="s", n_classes=5)
    tf, tl = make_feats(rng, 8, prefix="t", n_classes=4)
    cfg = tiny_train_config(mode="adv+sup", minibatches_per_epoch=1)
    critic0 = param_bytes(params.critic)
    out, log = tr.train(params, cfg, sf, sl, tf, tl)
    assert param_bytes(out.critic) != critic0
    assert np.isfinite(log[0]["l_wd"]) and log[0]["l_grad"] > 0.0


def test_train_baseline_learns_and_logs(rng):
    params = net.init_network(tiny_config(), seed=16)
    sf, sl = make_feats(rng, 15, prefix="s", n_classes=5)
    cfg = tiny_train_config(mode="sup", epochs=4, warmup_epochs=0,
                            minibatches_per_epoch=4, rate_main=0.3)
    critic0 = param_bytes(params.critic)
    _, log = tr.train_baseline(params, cfg, sf, sl)
    assert len(log) == 4
    assert log[-1]["source_ce"] < log[0]["source_ce"]
    assert param_bytes(params.critic) == critic0


def test_train_baseline_empty_source():
    params = net.init_network(tiny_config(), seed=17)
    with pytest.raises(ValueError, match="empty"):
        tr.train_baseline(params, tiny_train_config(), {}, {})


def test_train_log_roundtrip(tmp_path):
    log = [{"epoch": 0, "l_wd": 0.5, "l_grad": None, "source_ce": 1.0,
            "target_ce": None, "rate_critic": 0.001, "rate_main": 1.0}]
    path = tmp_path / "train.log.jsonl"
    tr.write_train_log(path, log)
    assert read_train_log(path) == log
