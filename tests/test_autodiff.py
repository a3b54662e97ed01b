import numpy as np
import pytest

from advda import autodiff as ad
from advda.autodiff import GraphError, ParamSet

from conftest import fd_all_gradients, fd_param_gradient, rel_err

FD_TOL = 1e-5


def _params_with(rng, **shapes):
    ps = ParamSet()
    for name, shape in shapes.items():
        v = rng.uniform(-2.0, 2.0, size=shape)
        ps.add(name, v)
    return ps


def _check_grads(root, ps, tol=FD_TOL):
    ad.evaluate(root)
    grads = ad.backward(root, ps)
    fd = fd_all_gradients(root, ps)
    for name in grads:
        assert rel_err(grads[name], fd[name]) <= tol, name


# ---------------------------------------------------------------------------
# forward semantics


def test_affine_identity():
    x = np.array([[1.0, -2.0, 3.0]])
    ps = ParamSet()
    ps.add("w", np.eye(3))
    ps.add("b", np.zeros(3))
    out = ad.evaluate(ad.affine(ad.const(x), ad.param(ps, "w"),
                                ad.param(ps, "b")))
    np.testing.assert_array_equal(out, x)


def test_leaky_relu_definition():
    out = ad.evaluate(ad.leaky_relu(ad.const(np.array([[-1.0, 2.0]])), 0.2))
    np.testing.assert_allclose(out, [[-0.2, 2.0]])


def test_three_layer_forward_matches_manual(rng):
    # independent re-computation of the same formulas with plain numpy
    x = rng.uniform(-2, 2, size=(4, 5))
    ps = _params_with(rng, w0=(6, 5), b0=(6,), w1=(3, 6), b1=(3,),
                      w2=(1, 3), b2=(1,))
    h = ad.affine(ad.const(x), ad.param(ps, "w0"), ad.param(ps, "b0"))
    h = ad.relu(h)
    h = ad.affine(h, ad.param(ps, "w1"), ad.param(ps, "b1"))
    h = ad.leaky_relu(h, 0.2)
    out = ad.evaluate(ad.affine(h, ad.param(ps, "w2"), ad.param(ps, "b2")))

    a = np.maximum(x @ ps.value("w0").T + ps.value("b0"), 0.0)
    z = a @ ps.value("w1").T + ps.value("b1")
    a2 = np.where(z > 0, z, 0.2 * z)
    expected = a2 @ ps.value("w2").T + ps.value("b2")
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_non_finite_detected():
    with pytest.raises(GraphError, match="non-finite"):
        ad.evaluate(ad.sqrt(ad.const(np.array([-1.0]))))


def test_shape_mismatch_raises(rng):
    ps = _params_with(rng, w=(3, 4), b=(3,))
    node = ad.affine(ad.const(rng.normal(size=(2, 5))),
                     ad.param(ps, "w"), ad.param(ps, "b"))
    with pytest.raises(GraphError, match="shape mismatch"):
        ad.evaluate(node)


# ---------------------------------------------------------------------------
# backward: closed forms


def test_backward_sum_is_ones(rng):
    ps = _params_with(rng, x=(3, 4))
    root = ad.sum_(ad.param(ps, "x"))
    ad.evaluate(root)
    grads = ad.backward(root, ps)
    np.testing.assert_array_equal(grads["x"], np.ones((3, 4)))


def test_backward_l2_norm_closed_form():
    ps = ParamSet()
    ps.add("x", np.array([3.0, 4.0]))
    root = ad.l2_norm(ad.param(ps, "x"))
    ad.evaluate(root)
    grads = ad.backward(root, ps)
    np.testing.assert_allclose(grads["x"], [0.6, 0.8], rtol=1e-12)


def test_backward_requires_scalar_root(rng):
    ps = _params_with(rng, x=(2, 2))
    root = ad.square(ad.param(ps, "x"))
    ad.evaluate(root)
    with pytest.raises(GraphError, match="scalar"):
        ad.backward(root, ps)


def test_backward_requires_forward(rng):
    ps = _params_with(rng, x=(2,))
    root = ad.mean(ad.param(ps, "x"))
    with pytest.raises(GraphError, match="evaluate"):
        ad.backward(root, ps)


# ---------------------------------------------------------------------------
# backward: finite differences per op-kind


def test_fd_affine(rng):
    ps = _params_with(rng, w=(4, 3), b=(4,), x=(5, 3))
    root = ad.mean(ad.affine(ad.param(ps, "x"), ad.param(ps, "w"),
                             ad.param(ps, "b")))
    _check_grads(root, ps)


def test_fd_concat(rng):
    ps = _params_with(rng, a=(2, 3), b=(4, 3))
    root = ad.mean(ad.square(ad.concat([ad.param(ps, "a"),
                                        ad.param(ps, "b")], axis=0)))
    _check_grads(root, ps)


def test_fd_relu_like(rng):
    ps = ParamSet()
    # keep activations away from the kink so differences are clean
    v = rng.uniform(0.2, 2.0, size=(3, 4)) * rng.choice([-1, 1], size=(3, 4))
    ps.add("x", v)
    for act in (ad.relu, lambda n: ad.leaky_relu(n, 0.2)):
        root = ad.mean(ad.square(act(ad.param(ps, "x"))))
        _check_grads(root, ps)


def test_fd_batch_norm_training(rng):
    ps = _params_with(rng, x=(6, 3), gamma=(3,), beta=(3,))
    state = ParamSet()
    state.add("rm", np.zeros(3), trainable=False)
    state.add("rv", np.ones(3), trainable=False)
    root = ad.mean(ad.square(ad.batch_norm(
        ad.param(ps, "x"), ad.param(ps, "gamma"), ad.param(ps, "beta"),
        state, "rm", "rv", training=True)))
    _check_grads(root, ps, tol=1e-4)


def test_fd_batch_norm_inference(rng):
    ps = _params_with(rng, x=(6, 3), gamma=(3,), beta=(3,))
    state = ParamSet()
    state.add("rm", rng.normal(size=3), trainable=False)
    state.add("rv", rng.uniform(0.5, 2.0, size=3), trainable=False)
    root = ad.mean(ad.square(ad.batch_norm(
        ad.param(ps, "x"), ad.param(ps, "gamma"), ad.param(ps, "beta"),
        state, "rm", "rv", training=False)))
    _check_grads(root, ps)


def test_fd_stats_pool(rng):
    ps = _params_with(rng, x=(7, 4))
    root = ad.mean(ad.square(ad.stats_pool(ad.param(ps, "x"))))
    _check_grads(root, ps)


def test_fd_splice(rng):
    ps = _params_with(rng, x=(8, 3))
    root = ad.mean(ad.square(ad.splice(ad.param(ps, "x"), (-2, 0, 2))))
    _check_grads(root, ps)


def test_fd_segmented_splice(rng):
    # unequal segments, the shortest one just longer than the context, so
    # clamping happens at every boundary between segments
    counts = (3, 6, 4, 5)
    ps = _params_with(rng, x=(sum(counts), 3))
    weights = rng.normal(size=(sum(counts), 9))
    spliced = ad.splice(ad.param(ps, "x"), (-2, 0, 2), counts)
    _check_grads(ad.mean(ad.square(ad.mul(spliced, ad.const(weights)))), ps)


def test_segmented_splice_clamps_within_segments(rng):
    counts = (3, 6, 4)
    x = rng.normal(size=(sum(counts), 2))
    got = ad.evaluate(ad.splice(ad.const(x), (-2, 0, 2), counts))
    parts = np.split(x, np.cumsum(counts)[:-1])
    expected = np.concatenate([ad.evaluate(ad.splice(ad.const(u), (-2, 0, 2)))
                               for u in parts])
    np.testing.assert_array_equal(got, expected)
    # first row of the second segment: its -2 context is itself
    np.testing.assert_array_equal(got[3, :2], x[3])


@pytest.mark.parametrize("offsets", [(-3, 0, 3), (-2, -1, 0, 1, 2)])
def test_segmented_splice_backward_sums_like_add_at(rng, offsets):
    # the gradient of each clamped edge row is a sum of several terms;
    # it must add them in np.add.at's order (offset by offset, rows
    # ascending), the order of the per-utterance op it replaces
    counts = (4, 7, 5)
    ps = _params_with(rng, x=(sum(counts), 3))
    weights = rng.normal(size=(sum(counts), 3 * len(offsets)))
    spliced = ad.splice(ad.param(ps, "x"), offsets, counts)
    root = ad.sum_(ad.mul(spliced, ad.const(weights)))
    ad.evaluate(root)
    expected = np.zeros((sum(counts), 3))
    start = 0
    for n in counts:
        seg = np.zeros((n, 3))
        for k, o in enumerate(offsets):
            np.add.at(seg, np.clip(np.arange(n) + o, 0, n - 1),
                      weights[start:start + n, 3 * k:3 * (k + 1)])
        expected[start:start + n] = seg
        start += n
    np.testing.assert_array_equal(ad.backward(root, ps)["x"], expected)


def test_fd_segmented_stats_pool(rng):
    counts = (2, 5, 3, 4)
    ps = _params_with(rng, x=(sum(counts), 3))
    weights = rng.normal(size=(len(counts), 6))
    pooled = ad.stats_pool(ad.param(ps, "x"), counts=counts)
    _check_grads(ad.mean(ad.square(ad.mul(pooled, ad.const(weights)))), ps)


def test_segmented_stats_pool_rows(rng):
    counts = (2, 5, 3)
    x = rng.normal(size=(sum(counts), 4))
    got = ad.evaluate(ad.stats_pool(ad.const(x), counts=counts))
    for row, u in zip(got, np.split(x, np.cumsum(counts)[:-1])):
        np.testing.assert_array_equal(
            row, ad.evaluate(ad.stats_pool(ad.const(u)))[0])


def test_segment_too_short_named():
    x = ad.const(np.zeros((9, 2)))
    with pytest.raises(GraphError, match="sequence of 2 frames"):
        ad.evaluate(ad.splice(x, (-2, 0, 2), counts=(4, 2, 3)))
    with pytest.raises(GraphError, match="8 rows"):
        ad.evaluate(ad.stats_pool(x, counts=(4, 4)))
    with pytest.raises(GraphError, match="positive"):
        ad.splice(x, (0,), counts=(9, 0))


def test_fd_log_softmax_cross_entropy(rng):
    ps = _params_with(rng, x=(5, 4))
    logp = ad.log_softmax(ad.param(ps, "x"))
    root = ad.cross_entropy(logp, [0, 3, 2, 1, 0], np.log(4))
    _check_grads(root, ps)


def test_fd_elementwise_and_matmul(rng):
    ps = _params_with(rng, a=(3, 4), b=(3, 4), c=(4, 2))
    a, b, c = ad.param(ps, "a"), ad.param(ps, "b"), ad.param(ps, "c")
    root = ad.mean(ad.square(ad.matmul(ad.add(ad.mul(a, b),
                                              ad.sub(a, b)), c)))
    _check_grads(root, ps)


def test_fd_sqrt_sum_scale_slice(rng):
    ps = ParamSet()
    ps.add("x", rng.uniform(0.5, 2.0, size=(5, 3)))
    x = ad.param(ps, "x")
    root = ad.mean(ad.scale(ad.sqrt(ad.sum_(ad.slice_rows(x, 1, 4),
                                            axis=1)), 0.7))
    _check_grads(root, ps)


def test_fd_l2_norm(rng):
    ps = _params_with(rng, x=(6,))
    root = ad.l2_norm(ad.param(ps, "x"))
    _check_grads(root, ps)


def test_fd_overlapping_slices(rng):
    ps = _params_with(rng, x=(6, 3))
    x = ad.param(ps, "x")
    weights = ad.const(rng.normal(size=(4, 3)))
    root = ad.add(ad.mean(ad.square(ad.slice_rows(x, 0, 4))),
                  ad.mean(ad.square(ad.mul(ad.slice_rows(x, 2, 6),
                                           weights))))
    _check_grads(root, ps)
    grad = ad.backward(root, ps)["x"]
    xv, w = ps.value("x"), weights.value
    expected = np.zeros_like(xv)
    expected[0:4] += 2.0 * xv[0:4] / 12
    expected[2:6] += 2.0 * xv[2:6] * w ** 2 / 12
    np.testing.assert_allclose(grad, expected, rtol=1e-14)


def test_backward_several_sets_in_one_pass(rng):
    a = _params_with(rng, w=(4, 3), b=(4,))
    b = _params_with(rng, w=(2, 4), b=(2,))
    other = _params_with(rng, s=(2, 2))
    b.set_trainable("b", False)
    x = ad.const(rng.normal(size=(5, 3)))
    h = ad.relu(ad.affine(x, ad.param(a, "w"), ad.param(a, "b")))
    h = ad.affine(h, ad.param(b, "w"), ad.param(b, "b"))
    root = ad.mean(ad.square(ad.matmul(h, ad.param(other, "s"))))
    ad.evaluate(root)
    both = ad.backward(root, [a, b])
    single = [ad.backward(root, a), ad.backward(root, b)]
    assert isinstance(single[0], dict) and len(both) == 2
    for got, want in zip(both, single):
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes()
    assert set(both[1]) == {"w"}  # frozen "b" is not reported


def test_backward_skips_nodes_without_parameters(rng):
    ps = _params_with(rng, w=(2, 6), b=(2,))
    x = ad.const(rng.normal(size=(5, 3)))
    spliced = ad.splice(x, (-1, 1))
    root = ad.mean(ad.affine(spliced, ad.param(ps, "w"), ad.param(ps, "b")))
    ad.evaluate(root)
    ad.backward(root, ps)
    assert x.grad is None and spliced.grad is None
    # a set the root does not depend on gets zero gradients
    unused = ad.backward(root, _params_with(rng, v=(1,)))
    assert list(unused) == ["v"] and not unused["v"].any()


# ---------------------------------------------------------------------------
# determinism


def test_evaluate_backward_deterministic(rng):
    ps = _params_with(rng, w=(4, 3), b=(4,))
    x = rng.uniform(-2, 2, size=(6, 3))

    def run():
        root = ad.mean(ad.square(ad.affine(ad.const(x), ad.param(ps, "w"),
                                           ad.param(ps, "b"))))
        val = ad.evaluate(root).copy()
        grads = ad.backward(root, ps)
        return val, grads

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    for n in g1:
        assert g1[n].tobytes() == g2[n].tobytes()


# ---------------------------------------------------------------------------
# batch-norm statistics invariant


def test_batch_norm_normalizes_batch(rng):
    x = rng.normal(3.0, 2.5, size=(64, 5))
    ps = ParamSet()
    ps.add("gamma", np.ones(5))
    ps.add("beta", np.zeros(5))
    state = ParamSet()
    state.add("rm", np.zeros(5), trainable=False)
    state.add("rv", np.ones(5), trainable=False)
    out = ad.evaluate(ad.batch_norm(ad.const(x), ad.param(ps, "gamma"),
                                    ad.param(ps, "beta"), state, "rm", "rv",
                                    training=True, eps=1e-12))
    assert np.abs(out.mean(axis=0)).max() <= 1e-9
    assert np.abs(out.var(axis=0) - 1.0).max() <= 1e-6


def test_batch_norm_running_average_update():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    ps = ParamSet()
    ps.add("gamma", np.ones(2))
    ps.add("beta", np.zeros(2))
    state = ParamSet()
    state.add("rm", np.zeros(2), trainable=False)
    state.add("rv", np.ones(2), trainable=False)
    ad.evaluate(ad.batch_norm(ad.const(x), ad.param(ps, "gamma"),
                              ad.param(ps, "beta"), state, "rm", "rv",
                              training=True, momentum=0.95))
    np.testing.assert_allclose(state.value("rm"), 0.05 * x.mean(axis=0))
    np.testing.assert_allclose(state.value("rv"),
                               0.95 + 0.05 * x.var(axis=0))


# ---------------------------------------------------------------------------
# critic input gradient


def _critic(rng, d=5, u0=6, u1=4):
    ps = ParamSet()
    ps.add("W0", rng.uniform(-1, 1, size=(u0, d)))
    ps.add("b0", rng.uniform(-1, 1, size=u0))
    ps.add("W1", rng.uniform(-1, 1, size=(u1, u0)))
    ps.add("b1", rng.uniform(-1, 1, size=u1))
    ps.add("W2", rng.uniform(-1, 1, size=(1, u1)))
    ps.add("b2", rng.uniform(-1, 1, size=1))
    return ps


def _critic_value(ps, h, slope=0.2):
    z0 = h @ ps.value("W0").T + ps.value("b0")
    a0 = np.where(z0 > 0, z0, slope * z0)
    z1 = a0 @ ps.value("W1").T + ps.value("b1")
    a1 = np.where(z1 > 0, z1, slope * z1)
    return (a1 @ ps.value("W2").T + ps.value("b2"))[:, 0]


def test_input_gradient_linear_critic(rng):
    # hidden layers wired as positive pass-through leave a pure linear map
    d = 3
    ps = ParamSet()
    w = rng.uniform(0.5, 1.5, size=(1, d))
    ps.add("W0", np.eye(d))
    ps.add("b0", np.full(d, 10.0))   # keeps activations positive
    ps.add("W1", np.eye(d))
    ps.add("b1", np.full(d, 10.0))
    ps.add("W2", w)
    ps.add("b2", np.zeros(1))
    h = rng.uniform(-2, 2, size=(4, d))
    out = ad.evaluate(ad.critic_input_gradient(ps, ad.const(h), 0.2))
    np.testing.assert_allclose(out, np.tile(w, (4, 1)), rtol=1e-12)


def test_input_gradient_matches_fd_over_h(rng):
    ps = _critic(rng)
    h = rng.uniform(-2, 2, size=(6, 5))
    out = ad.evaluate(ad.critic_input_gradient(ps, ad.const(h), 0.2))
    step = 1e-5
    fd = np.zeros_like(h)
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            hp, hm = h.copy(), h.copy()
            hp[i, j] += step
            hm[i, j] -= step
            fd[i, j] = (_critic_value(ps, hp)[i]
                        - _critic_value(ps, hm)[i]) / (2 * step)
    assert rel_err(out, fd) <= 1e-5


def test_gradient_penalty_param_grads_match_fd(rng):
    # second-order check: d/dparams of (||grad_h f_w|| - 1)^2
    ps = _critic(rng)
    h = rng.uniform(-2, 2, size=(5, 5))
    grad_node = ad.critic_input_gradient(ps, ad.const(h), 0.2)
    norms = ad.sqrt(ad.sum_(ad.square(grad_node), axis=1))
    root = ad.mean(ad.square(ad.sub(norms, ad.const(np.ones((5, 1))))))
    ad.evaluate(root)
    grads = ad.backward(root, ps)
    for name in ("W0", "W1", "W2"):
        fd = fd_param_gradient(root, ps, name)
        assert rel_err(grads[name], fd) <= 1e-4, name
    # bias gradients of the penalty are zero under the constant-mask rule
    np.testing.assert_array_equal(grads["b0"], np.zeros_like(ps.value("b0")))
    np.testing.assert_array_equal(grads["b1"], np.zeros_like(ps.value("b1")))


# ---------------------------------------------------------------------------
# sgd


def test_sgd_zero_rate_keeps_params():
    ps = ParamSet()
    ps.add("p", np.array([1.0, 2.0]))
    ad.sgd_step(ps, {"p": np.array([5.0, -5.0])}, 0.0)
    np.testing.assert_array_equal(ps.value("p"), [1.0, 2.0])


def test_sgd_descend_arithmetic():
    ps = ParamSet()
    ps.add("p", np.array([1.0]))
    ad.sgd_step(ps, {"p": np.array([2.0])}, 0.5, "descend")
    np.testing.assert_array_equal(ps.value("p"), [0.0])


def test_sgd_frozen_rejected():
    ps = ParamSet()
    ps.add("p", np.array([1.0]), trainable=False)
    with pytest.raises(GraphError, match="non-trainable"):
        ad.sgd_step(ps, {"p": np.array([1.0])}, 0.1)


def test_sgd_negative_rate_rejected():
    ps = ParamSet()
    ps.add("p", np.array([1.0]))
    with pytest.raises(GraphError):
        ad.sgd_step(ps, {"p": np.array([1.0])}, -0.1)


def test_sgd_shape_mismatch():
    ps = ParamSet()
    ps.add("p", np.array([1.0, 2.0]))
    with pytest.raises(GraphError, match="shape"):
        ad.sgd_step(ps, {"p": np.array([1.0])}, 0.1)


def test_ascent_converges_on_concave_objective():
    # f(p) = -p^2, gradient -2p; ascent from 1.0 at rate 0.1 approaches 0
    ps = ParamSet()
    ps.add("p", np.array([1.0]))
    for _ in range(100):
        root = ad.scale(ad.sum_(ad.square(ad.param(ps, "p"))), -1.0)
        ad.evaluate(root)
        grads = ad.backward(root, ps)
        ad.sgd_step(ps, grads, 0.1, "ascend")
    assert abs(float(ps.value("p")[0])) < 1e-6
