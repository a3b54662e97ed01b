import json

import numpy as np
import pytest

from advda import autodiff as ad
from advda import backend as be
from advda import network as net
from advda import trainer as tr


def fd_param_gradient(root, params, name, step=1e-5):
    """Central finite differences of a scalar graph w.r.t. one parameter."""
    base = params.value(name).copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            params.set_value(name, bumped.reshape(base.shape))
            val = float(ad.evaluate(root))
            grad.reshape(-1)[i] += sign * val / (2.0 * step)
    params.set_value(name, base)
    ad.evaluate(root)
    return grad


def fd_all_gradients(root, params, step=1e-5):
    return {n: fd_param_gradient(root, params, n, step)
            for n in params.trainable_names()}


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def critic_value(params, h):
    """Critic output for one embedding vector."""
    return float(ad.evaluate(net.build_critic(params,
                                              ad.const(h[None])))[0, 0])


def critic_gap(params, hs, ht):
    """`trainer.critic_gap_graph` on two arrays of embedding rows."""
    return float(ad.evaluate(tr.critic_gap_graph(params, ad.const(hs),
                                                 ad.const(ht))))


def gradient_penalty(params, hhat):
    """`trainer.gradient_penalty_graph` on an array of embedding rows."""
    return float(ad.evaluate(tr.gradient_penalty_graph(params,
                                                       ad.const(hhat))))


def plda_llr(model, enroll, test):
    """PLDA log-likelihood ratio of one enroll/test vector pair."""
    return float(be.PldaScorer(model).score(np.asarray(enroll)[None],
                                            np.asarray(test)[None])[0])


def embed_one(params, frames, bit=0):
    """Embedding vector of one utterance."""
    return net.extract_embedding(params, [frames], [bit])[0]


def read_train_log(path):
    """Records of a `*.log.jsonl` training log."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
