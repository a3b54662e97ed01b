"""Acceptance suite: the ten release criteria, one test (and one printed
pass/fail line) each.

Each criterion is verified against an oracle that is independent of the
implementation under test: central finite differences for gradients,
closed forms for the gradient penalty, wide-grid numeric integration for
PLDA likelihood ratios, eigenvalue algebra for covariance adaptation,
and exhaustive threshold sweeps for the detection metrics.
"""

import contextlib
import tempfile

import numpy as np
import pytest

from advda import autodiff as ad
from advda import backend as be
from advda import metrics as mx
from advda import network as net
from advda import pipeline as pl
from advda import trainer as tr
from advda.backend import BackendConfig, PldaModel
from advda.network import NetworkConfig
from advda.trainer import TrainConfig

from conftest import (critic_gap, embed_one, gradient_penalty, plda_llr,
                      read_train_log, rel_err)
from test_backend import random_model, sample_from, _grid_gaussian_integral
from test_metrics import brute_force_eer, brute_force_min_dcf
from test_trainer import (tiny_config, tiny_train_config, set_linear_critic,
                          param_bytes, make_feats, make_batch)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"criterion {name}: FAIL")
        raise
    print(f"criterion {name}: PASS")


def fd_gradients(root, param_sets, step=1e-5):
    """Central finite differences of a scalar graph over whole ParamSets."""
    out = []
    for ps in param_sets:
        grads = {}
        for name in ps.trainable_names():
            base = ps.value(name).copy()
            grad = np.zeros_like(base)
            for i in range(base.size):
                for sign in (1.0, -1.0):
                    bumped = base.reshape(-1).copy()
                    bumped[i] += sign * step
                    ps.set_value(name, bumped.reshape(base.shape))
                    grad.reshape(-1)[i] += sign * float(
                        ad.evaluate(root)) / (2.0 * step)
            ps.set_value(name, base)
            grads[name] = grad
        out.append(grads)
    ad.evaluate(root)
    return out


def check_against_fd(root, param_sets, tol, step=1e-5):
    ad.evaluate(root)
    analytic = [ad.backward(root, ps) for ps in param_sets]
    numeric = fd_gradients(root, param_sets, step)
    worst = 0.0
    for got, want in zip(analytic, numeric):
        for name in want:
            worst = max(worst, rel_err(got[name], want[name]))
    assert worst <= tol, f"worst relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness(rng):
    with criterion("1 (gradients match finite differences)"):
        # one graph exercising every op kind
        ps = ad.ParamSet()
        ps.add("W", rng.normal(size=(3, 4)))
        ps.add("b", rng.normal(size=3))
        ps.add("gamma", np.abs(rng.normal(size=3)) + 0.5)
        ps.add("beta", rng.normal(size=3))
        ps.add("rmean", np.zeros(3), trainable=False)
        ps.add("rvar", np.ones(3), trainable=False)
        ps.add("M", rng.normal(size=(3, 3)))
        x = ad.const(rng.normal(size=(6, 2)))
        h = ad.splice(x, (-1, 0, 1))                      # (6, 6)
        h = ad.concat([h, ad.const(rng.normal(size=(6, 2)) * 0.0 - 2.0)],
                      axis=1)                             # width 8 -> slice 4
        h = ad.slice_rows(h, 0, 6)
        h = ad.affine(ad.matmul(h, ad.const(rng.normal(size=(8, 4)))),
                      ad.param(ps, "W"), ad.param(ps, "b"))
        h = ad.add(ad.relu(h), ad.mul(h, ad.leaky_relu_mask(h, 0.2)))
        h = ad.batch_norm(h, ad.param(ps, "gamma"), ad.param(ps, "beta"),
                          ps, "rmean", "rvar", True, 0.9, 1e-5)
        h = ad.mul(h, ad.matmul(h, ad.param(ps, "M")))
        pooled = ad.stats_pool(h)                         # (1, 6)
        pieces = [
            ad.mean(ad.sqrt(ad.square(pooled))),
            ad.scale(ad.sum_(pooled), 0.3),
            ad.sqrt(ad.sum_(ad.square(pooled))),
            ad.cross_entropy(ad.log_softmax(h), [0, 2, 1, 0, 2, 1],
                             np.log(3.0)),
        ]
        loss = ad.sub(ad.add(pieces[0], pieces[1]),
                      ad.add(pieces[2], pieces[3]))
        check_against_fd(loss, [ps], tol=1e-5)

        # composed classification loss through the full extractor + heads
        params = net.init_network(tiny_config(), seed=21)
        batch = make_batch(rng, params, n=3)
        cfg = tiny_train_config(mode="adv+sup")
        emb = tr.embed_minibatch(params, batch, cfg)
        ns, n = batch.n_source, len(batch.counts)
        hs_node = ad.slice_rows(emb, 0, ns)
        ht_node = ad.slice_rows(emb, ns, n)
        trunk = net.classifier_trunk(params, emb, training=True)
        ce_s = ad.cross_entropy(
            ad.log_softmax(net.classifier_head(
                params, ad.slice_rows(trunk, 0, ns), "source")),
            batch.labels[:ns],
            np.log(params.config.n_source_classes))
        ce_t = ad.cross_entropy(
            ad.log_softmax(net.classifier_head(
                params, ad.slice_rows(trunk, ns, n), "target")),
            batch.labels[ns:],
            np.log(params.config.n_target_classes))
        l_c = ad.add(ad.scale(ce_s, cfg.source_loss_weight),
                     ad.scale(ce_t, cfg.target_loss_weight))
        check_against_fd(l_c, [params.extractor, params.heads], tol=1e-5)

        # composed critic gap loss through extractor and critic
        l_wd = ad.sub(ad.mean(net.build_critic(params, hs_node)),
                      ad.mean(net.build_critic(params, ht_node)))
        check_against_fd(l_wd, [params.extractor, params.critic], tol=1e-5)

        # gradient penalty: double-backward parameter gradients, of the
        # two-layer critic above and of a three-layer one
        hhat = rng.normal(size=(4, params.config.embed_dim))
        deep = net.init_network(tiny_config(critic_widths=(8, 6, 5)),
                                seed=21)
        for p in (params, deep):
            l_grad = tr.gradient_penalty_graph(p, ad.const(hhat))
            check_against_fd(l_grad, [p.critic], tol=1e-4)


# ---------------------------------------------------------------------------
# 2. gradient-penalty exactness


def test_criterion_2_gradient_penalty_exactness(rng):
    with criterion("2 (gradient penalty closed forms)"):
        v = rng.normal(size=8)
        hhat = rng.normal(size=(10, 8))
        for depth in (1, 2, 3):
            params = net.init_network(
                tiny_config(critic_widths=(16,) * depth), seed=22)
            set_linear_critic(params, v / np.linalg.norm(v))
            assert gradient_penalty(params, hhat) == pytest.approx(
                0.0, abs=1e-12), depth
            for name in params.critic.names():
                params.critic.set_value(
                    name, np.zeros_like(params.critic.value(name)))
            assert gradient_penalty(params, hhat) == pytest.approx(
                1.0, abs=1e-12), depth


# ---------------------------------------------------------------------------
# 3. wasserstein distance sanity


def test_criterion_3_wasserstein_sanity():
    with criterion("3 (critic estimates the distance between unit "
                   "Gaussians at separation 3)"):
        cfg_net = NetworkConfig(frame_dim=2, tdnn_widths=(4,),
                                tdnn_contexts=((0,),), embed_dim=1,
                                post_pool_widths=(1, 4),
                                critic_widths=(16, 16),
                                n_source_classes=2, n_target_classes=2)
        params = net.init_network(cfg_net, seed=0)
        data_rng = np.random.default_rng(0)
        hs = data_rng.normal(loc=3.0, size=(2000, 1))
        ht = data_rng.normal(loc=0.0, size=(2000, 1))
        cfg = tiny_train_config(gamma=10.0, source_batch=1, target_batch=1)
        step_rng = np.random.default_rng(0)
        for _ in range(2000):
            tr.critic_step(params, hs, ht, cfg, 0.01, step_rng)
        estimate = critic_gap(params, hs, ht)
        assert abs(estimate - 3.0) / 3.0 <= 0.15, estimate


# ---------------------------------------------------------------------------
# 4. directional adaptation on the reference corpus


def reference_experiment(seed):
    out = tempfile.mkdtemp()
    cfg = pl.ExperimentConfig.from_dict({
        "seed": seed, "out_dir": out,
        "corpus": {"eval_speakers": 50, "eval_utts_per_speaker": 10,
                   "shift_offset": 3.0, "shift_rotation": 1.0},
        "network": {"tdnn_widths": [24, 24],
                    "tdnn_contexts": [[-1, 0, 1], [0]],
                    "embed_dim": 16, "post_pool_widths": [16, 16],
                    "critic_widths": [24, 24]},
        "train_base": {"epochs": 12, "warmup_epochs": 0,
                       "minibatches_per_epoch": 60, "source_batch": 48,
                       "segment_frames": [30, 50], "rate_main": 1.0},
        "train_adapt": {"epochs": 12, "warmup_epochs": 2,
                        "minibatches_per_epoch": 30, "source_batch": 48,
                        "target_batch": 48, "segment_frames": [30, 50],
                        "critic_steps": 5, "rate_critic": 0.01,
                        "rate_main": 0.1, "delta": 0.2},
        "backend": {"lda_dim": 12, "plda_iterations": 8},
    })
    rows = pl.run_experiment(cfg, [(None, "all"), ("adv+sup", "all"),
                                   ("adv", "all")])
    log = read_train_log(cfg.path("adapt_adv_sup.log.jsonl"))
    warmup_l_wd = log[cfg.train_adapt["warmup_epochs"] - 1]["l_wd"]
    return (rows["baseline"]["eer_pct"], rows["adv_sup"]["eer_pct"],
            rows["adv"]["eer_pct"], warmup_l_wd, log[-1]["l_wd"])


def test_criterion_4_directional_adaptation():
    with criterion("4 (adaptation lowers target EER and closes the "
                   "critic gap on seeds 1-3)"):
        for seed in (1, 2, 3):
            base, adv_sup, adv, wu_l_wd, final_l_wd = \
                reference_experiment(seed)
            print(f"  seed {seed}: baseline EER {base:.2f}%, "
                  f"adv+sup {adv_sup:.2f}%, unsupervised adv {adv:.2f}% "
                  f"(recorded); l_wd {wu_l_wd:.3f} -> {final_l_wd:.3f}")
            assert adv_sup < base
            assert wu_l_wd > 0.0
            assert final_l_wd < 0.2 * wu_l_wd


# ---------------------------------------------------------------------------
# 5. PLDA scoring and estimation


def test_criterion_5_plda_oracles(rng):
    with criterion("5 (PLDA scoring matches numeric integration; EM "
                   "recovers the generating model)"):
        for _ in range(100):
            model = random_model(rng, 2)
            e = model.mu + rng.normal(size=2) * 1.5
            t = model.mu + rng.normal(size=2) * 1.5
            oracle = (_grid_gaussian_integral(model, [e, t])
                      - _grid_gaussian_integral(model, [e])
                      - _grid_gaussian_integral(model, [t]))
            assert abs(plda_llr(model, e, t) - oracle) <= 1e-6

        true = random_model(rng, 10)
        vectors, labels, latents, noises = sample_from(
            true, rng, 500, 10, return_draws=True)
        fitted = be.plda_train_em(vectors, labels, iterations=60)
        emp_between = np.cov(latents.T, bias=True)
        emp_within = np.cov(noises.T, bias=True)
        for got, want in ((fitted.between, emp_between),
                          (fitted.within, emp_within)):
            rel = (np.linalg.norm(got - want, "fro")
                   / np.linalg.norm(want, "fro"))
            assert rel <= 0.10, rel

        def eer_of(model):
            n = 400
            pair_rng = np.random.default_rng(7)
            tgt, non = [], []
            for _ in range(n):
                y = true.mu + np.linalg.cholesky(true.between) \
                    @ pair_rng.normal(size=10)
                lw = np.linalg.cholesky(true.within)
                e = y + lw @ pair_rng.normal(size=10)
                t = y + lw @ pair_rng.normal(size=10)
                y2 = true.mu + np.linalg.cholesky(true.between) \
                    @ pair_rng.normal(size=10)
                o = y2 + lw @ pair_rng.normal(size=10)
                tgt.append(plda_llr(model, e, t))
                non.append(plda_llr(model, e, o))
            return mx.eer_from_scores(np.asarray(tgt), np.asarray(non))

        assert abs(eer_of(fitted) - eer_of(true)) <= 1.0


# ---------------------------------------------------------------------------
# 6. covariance adaptation algebra


def test_criterion_6_adaptation_algebra(rng):
    with criterion("6 (covariance adaptation splits excess variance as "
                   "specified)"):
        model = random_model(rng, 5)
        vectors = rng.normal(size=(4000, 5)) @ rng.normal(size=(5, 5)) * 1.5
        adapted = be.plda_adapt(model, vectors, BackendConfig(xi=0.3, eta=0.7))
        total = model.between + model.within
        cov = np.cov(vectors.T, bias=True)
        evals, evecs = np.linalg.eigh(total)
        whiten = evecs @ np.diag(evals ** -0.5) @ evecs.T
        v = np.linalg.eigvalsh(whiten @ cov @ whiten.T)
        new_total = whiten @ (adapted.between + adapted.within) @ whiten.T
        np.testing.assert_allclose(np.linalg.eigvalsh(new_total),
                                   np.maximum(v, 1.0), atol=1e-8)

        frozen = be.plda_adapt(model, vectors, BackendConfig(xi=0.0, eta=0.0))
        np.testing.assert_allclose(frozen.between, model.between, atol=1e-8)
        np.testing.assert_allclose(frozen.within, model.within, atol=1e-8)

        preset = BackendConfig()
        assert preset.xi == 0.25 and preset.eta == 0.75


# ---------------------------------------------------------------------------
# 7. detection metric oracles


def test_criterion_7_metric_oracles(rng):
    with criterion("7 (EER and minDCF match exhaustive threshold "
                   "sweeps and are monotone-invariant)"):
        tgt = rng.normal(loc=1.0, size=500)
        non = rng.normal(loc=-1.0, size=500)
        assert mx.eer_from_scores(tgt, non) == pytest.approx(
            brute_force_eer(tgt, non), abs=1e-10)
        for p in (0.01, 0.005):
            assert mx.min_dcf_from_scores(tgt, non, p) == pytest.approx(
                brute_force_min_dcf(tgt, non, p), abs=1e-12)

        def warp(x):
            return np.exp(0.3 * x) + 5.0 * x ** 3 + x

        assert mx.eer_from_scores(warp(tgt), warp(non)) == pytest.approx(
            mx.eer_from_scores(tgt, non), abs=1e-12)
        for p in (0.01, 0.005):
            assert mx.min_dcf_from_scores(warp(tgt), warp(non), p) == \
                pytest.approx(mx.min_dcf_from_scores(tgt, non, p), abs=1e-12)


# ---------------------------------------------------------------------------
# 8. classification loss normalization


def test_criterion_8_loss_normalization(rng):
    with criterion("8 (uniform predictions give unit classification "
                   "loss on both heads)"):
        params = net.init_network(tiny_config(), seed=28)
        for head, n in (("source", 5), ("target", 4)):
            params.heads.set_value(f"head_{head}.W",
                                   np.zeros((n, params.heads.value(
                                       f"head_{head}.W").shape[1])))
            params.heads.set_value(f"head_{head}.b", np.zeros(n))
            logits = ad.const(np.zeros((6, n)))
            labels = list(rng.integers(0, n, size=6))
            loss = ad.cross_entropy(ad.log_softmax(logits), labels,
                                    np.log(n))
            assert float(ad.evaluate(loss)) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# 9. mode and scope contracts


def test_criterion_9_mode_scope_contracts(rng):
    with criterion("9 (scope freezes, warm-up isolation, and domain-bit "
                   "invariance hold exactly)"):
        # post-pool scope leaves frame-level parameters bit-identical
        params = net.init_network(tiny_config(critic_widths=(8, 8)), seed=29)
        sf, sl = make_feats(rng, 10, prefix="s", n_classes=5)
        tf, tl = make_feats(rng, 8, prefix="t", n_classes=4)
        frozen0 = {n: params.extractor.value(n).tobytes()
                   for n in params.extractor.names()
                   if n.startswith("tdnn")}
        cfg = tiny_train_config(mode="adv+sup", scope="post-pool", epochs=2,
                                warmup_epochs=1, minibatches_per_epoch=2)
        tr.train(params, cfg, sf, sl, tf, tl)
        for n, blob in frozen0.items():
            assert params.extractor.value(n).tobytes() == blob

        # warm-up updates neither the target head nor, through the
        # adversarial term, the extractor: in mode "adv" (no target
        # classification) a warm-up step must not depend on the critic
        runs = []
        for critic_seed in (1, 2):
            p = net.init_network(tiny_config(), seed=30)
            scrap = net.init_network(tiny_config(), seed=100 + critic_seed)
            for n in p.critic.names():
                p.critic.set_value(n, scrap.critic.value(n))
            batch = make_batch(np.random.default_rng(4), p,
                               labeled_target=False)
            head0 = p.heads.value("head_target.W").tobytes()
            cfg = tiny_train_config(mode="adv")
            emb = tr.embed_minibatch(p, batch, cfg)
            ad.evaluate(emb)
            tr.main_step(p, batch, emb, cfg, 0.1, warmup=True)
            assert p.heads.value("head_target.W").tobytes() == head0
            runs.append(b"".join(p.extractor.value(n).tobytes()
                                 for n in sorted(p.extractor.names())))
        assert runs[0] == runs[1]

        # zeroed domain-bit weight columns make outputs bit-invariant
        p = net.init_network(tiny_config(use_domain_bit=True), seed=31)
        for n in p.extractor.names():
            if n.endswith(".W"):
                w = p.extractor.value(n).copy()
                w[:, -1] = 0.0
                p.extractor.set_value(n, w)
        frames = rng.normal(size=(12, 4))
        e0 = embed_one(p, frames, bit=0)
        e1 = embed_one(p, frames, bit=1)
        assert e0.tobytes() == e1.tobytes()


# ---------------------------------------------------------------------------
# 10. determinism and learning-rate schedule


def test_criterion_10_determinism_and_schedule(rng):
    with criterion("10 (identical seeds give identical reports; learning "
                   "rate halves every five epochs)"):
        reports = []
        for _ in range(2):
            out = tempfile.mkdtemp()
            cfg = pl.ExperimentConfig.from_dict({
                "seed": 9, "out_dir": out,
                "corpus": {"frame_dim": 5, "source_speakers": 6,
                           "source_utts_per_speaker": 4,
                           "target_speakers": 4,
                           "target_utts_per_speaker": 3,
                           "eval_speakers": 5, "eval_utts_per_speaker": 3,
                           "frames_range": [12, 18], "shift_offset": 2.0},
                "network": {"tdnn_widths": [6, 6],
                            "tdnn_contexts": [[-1, 0, 1], [0]],
                            "embed_dim": 8, "post_pool_widths": [8, 6],
                            "critic_widths": [8, 8]},
                "train_base": {"epochs": 1, "warmup_epochs": 0,
                               "minibatches_per_epoch": 2, "source_batch": 4,
                               "segment_frames": [10, 14], "rate_main": 0.2},
                "train_adapt": {"epochs": 2, "warmup_epochs": 1,
                                "minibatches_per_epoch": 2, "critic_steps": 2,
                                "source_batch": 4, "target_batch": 4,
                                "segment_frames": [10, 14]},
                "backend": {"lda_dim": 4, "plda_iterations": 5},
            })
            reports.append(pl.run_experiment(
                cfg, [(None, "all"), ("adv+sup", "all")]))
        assert reports[0] == reports[1]

        # logged learning rates follow rate * 0.5^floor(epoch / 5)
        params = net.init_network(tiny_config(critic_widths=(8, 8)), seed=32)
        sf, sl = make_feats(rng, 8, prefix="s", n_classes=5)
        tf, tl = make_feats(rng, 6, prefix="t", n_classes=4)
        cfg = tiny_train_config(mode="sup", epochs=12, warmup_epochs=1,
                                minibatches_per_epoch=1, rate_critic=1.0,
                                rate_main=1.0, halve_every=5)
        _, log = tr.train(params, cfg, sf, sl, tf, tl)
        for rec in log:
            want = 0.5 ** (rec["epoch"] // 5)
            assert rec["rate_main"] == want
            assert rec["rate_critic"] == want
