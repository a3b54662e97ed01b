import gc
import weakref

import numpy as np
import pytest

from advda import autodiff as ad
from advda import network as net
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
    x = ad.const(np.array([[-1.0, 2.0]]))
    out = ad.evaluate(ad.mul(x, ad.leaky_relu_mask(x, 0.2)))
    np.testing.assert_allclose(out, [[-0.2, 2.0]])


def test_three_layer_forward_matches_manual(rng):
    # independent re-computation of the same formulas with plain numpy
    x = rng.uniform(-2, 2, size=(4, 5))
    ps = _params_with(rng, w0=(6, 5), b0=(6,), w1=(3, 6), b1=(3,),
                      w2=(1, 3), b2=(1,))
    h = ad.affine(ad.const(x), ad.param(ps, "w0"), ad.param(ps, "b0"))
    h = ad.relu(h)
    h = ad.affine(h, ad.param(ps, "w1"), ad.param(ps, "b1"))
    h = ad.mul(h, ad.leaky_relu_mask(h, 0.2))
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
    # a gradient must have its node's shape, not one that broadcasts to it
    root = ad.sum_(ad.add(ad.param(ps, "b"), ad.const(np.ones((2, 3)))))
    ad.evaluate(root)
    with pytest.raises(GraphError, match=r"gradient \(2, 3\) for a value"):
        ad.backward(root, ps)


# ---------------------------------------------------------------------------
# backward: closed forms


def test_backward_sum_is_ones(rng):
    ps = _params_with(rng, x=(3, 4))
    root = ad.sum_(ad.param(ps, "x"))
    ad.evaluate(root)
    grads = ad.backward(root, ps)
    np.testing.assert_array_equal(grads["x"], np.ones((3, 4)))


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
    for act in (ad.relu, lambda n: ad.mul(n, ad.leaky_relu_mask(n, 0.2))):
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


def test_batch_norm_inference_backward_raises(rng):
    # no stage differentiates through inference mode, so backward names
    # the op instead of keeping a branch that nothing runs
    ps = _params_with(rng, x=(6, 3), gamma=(3,), beta=(3,))
    state = ParamSet()
    state.add("rm", rng.normal(size=3), trainable=False)
    state.add("rv", rng.uniform(0.5, 2.0, size=3), trainable=False)
    root = ad.mean(ad.square(ad.batch_norm(
        ad.param(ps, "x"), ad.param(ps, "gamma"), ad.param(ps, "beta"),
        state, "rm", "rv", training=False)))
    ad.evaluate(root)
    with pytest.raises(GraphError, match="'batch-norm' in inference mode"):
        ad.backward(root, ps)
    # frozen, it passes no gradient and backward never reaches it
    for name in ps.names():
        ps.set_trainable(name, False)
    assert ad.backward(root, ps) == {}


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


def test_fd_segmented_splice_with_column(rng):
    counts = (3, 6, 4, 5)
    ps = _params_with(rng, x=(sum(counts), 3))
    column = ad.const(rng.normal(size=(sum(counts), 2)))
    weights = rng.normal(size=(sum(counts), 11))
    spliced = ad.splice(ad.param(ps, "x"), (-2, 0, 2), counts, column)
    _check_grads(ad.mean(ad.square(ad.mul(spliced, ad.const(weights)))), ps)


@pytest.mark.parametrize("offsets", [(0,), (-2, 0, 2)])
def test_splice_column_is_concat_without_copy(rng, offsets):
    # the same bytes forward, and under an affine layer the same input
    # and weight gradients, as concatenating the column after splicing
    counts = (4, 7, 5)
    k = len(offsets)
    ps = _params_with(rng, x=(sum(counts), 3), w=(4, 3 * k + 2), b=(4,))
    column = ad.const(rng.normal(size=(sum(counts), 2)))
    results = []
    for written in (True, False):
        x = ad.param(ps, "x")
        if written:
            spliced = ad.splice(x, offsets, counts, column)
        else:
            spliced = ad.concat([ad.splice(x, offsets, counts), column],
                                axis=1)
        out = ad.affine(spliced, ad.param(ps, "w"), ad.param(ps, "b"))
        root = ad.mean(ad.square(out))
        ad.evaluate(root)
        assert spliced.value.flags.c_contiguous
        results.append((spliced.value, out.value, ad.backward(root, ps)))
    (s1, o1, g1), (s2, o2, g2) = results
    assert s1.tobytes() == s2.tobytes() and o1.tobytes() == o2.tobytes()
    for name in ("x", "w", "b"):
        assert g1[name].tobytes() == g2[name].tobytes(), name


def test_splice_column_checked(rng):
    ps = _params_with(rng, x=(5, 2), c=(5, 1))
    with pytest.raises(GraphError, match="constant"):
        ad.splice(ad.param(ps, "x"), (0,), column=ad.param(ps, "c"))
    short = ad.splice(ad.param(ps, "x"), (0,),
                      column=ad.const(np.ones((4, 1))))
    with pytest.raises(GraphError, match="for 5 rows"):
        ad.evaluate(short)


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


def _pool_per_segment(x, counts):
    """numpy's own mean and floored std of each segment, one call each."""
    return np.array([np.concatenate([
        seg.mean(axis=0), np.sqrt(seg.var(axis=0) + ad.STATS_POOL_VAR_FLOOR)])
        for seg in np.split(x, np.cumsum(counts)[:-1])])


@pytest.mark.parametrize("f", [1, 2, 4, 7, 64])
def test_stats_pool_is_per_segment_numpy_bit_for_bit(rng, f):
    # the pool sums all segments at once; every row must keep the bits
    # of numpy's per-segment mean and var, which sum a single column
    # (f = 1) pairwise and wider rows one after another
    for trial in range(30):
        counts = rng.integers(1, 401, size=rng.integers(1, 9))
        if trial % 5 == 0:
            counts[::2] = 1  # single-frame segments
        x = rng.normal(size=(counts.sum(), f)) * 10.0 ** rng.integers(-3, 4)
        if trial % 3 == 0:
            x += 1e6  # a large offset: the deviations carry few bits
        if trial % 4 == 0:
            x[:, -1] = -0.0
        got = ad.evaluate(ad.stats_pool(ad.const(x), counts))
        assert got.tobytes() == _pool_per_segment(x, counts).tobytes(), trial


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


def test_fd_mul_broadcast_row(rng):
    # a (1, k) operand scales every row; its gradient sums over the rows
    ps = _params_with(rng, a=(4, 3), w=(1, 3))
    a, w = ad.param(ps, "a"), ad.param(ps, "w")
    _check_grads(ad.mean(ad.square(ad.add(ad.mul(a, w), ad.mul(w, a)))), ps)


def test_leaky_relu_mask_passes_no_gradient(rng):
    ps = _params_with(rng, x=(3, 4))
    x = ad.param(ps, "x")
    mask = ad.leaky_relu_mask(x, 0.2)
    root = ad.sum_(ad.mul(mask, x))
    ad.evaluate(root)
    np.testing.assert_array_equal(
        mask.value, np.where(ps.value("x") > 0, 1.0, 0.2))
    # d/dx of mask * x with the mask held constant is the mask
    np.testing.assert_array_equal(ad.backward(root, ps)["x"], mask.value)


def test_fd_sqrt_sum_scale_slice(rng):
    ps = ParamSet()
    ps.add("x", rng.uniform(0.5, 2.0, size=(5, 3)))
    x = ad.param(ps, "x")
    root = ad.mean(ad.scale(ad.sqrt(ad.sum_(ad.slice_rows(x, 1, 4),
                                            axis=1)), 0.7))
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


def test_backward_skips_nodes_without_parameters(rng, monkeypatch):
    ps = _params_with(rng, w=(2, 6), b=(2,))
    x = ad.const(rng.normal(size=(5, 3)))
    spliced = ad.splice(x, (-1, 1))
    root = ad.mean(ad.affine(spliced, ad.param(ps, "w"), ad.param(ps, "b")))
    ad.evaluate(root)
    differentiated = []
    backward_node = ad._backward_node
    monkeypatch.setattr(ad, "_backward_node", lambda node: (
        differentiated.append(node), backward_node(node)))
    ad.backward(root, ps)
    # every node but these two is differentiated; these two never are
    assert not x.live and not spliced.live
    assert root in differentiated
    assert not any(n is x or n is spliced for n in differentiated)
    # a set the root does not depend on gets zero gradients
    unused = ad.backward(root, _params_with(rng, v=(1,)))
    assert list(unused) == ["v"] and not unused["v"].any()


def test_one_walk_per_root(rng):
    # evaluate, update_running_stats and backward on one root share the
    # order walked by the first of them, which the root keeps without
    # itself in it
    ps = _params_with(rng, w=(3, 4), b=(3,))
    root = ad.mean(ad.square(ad.affine(ad.const(rng.normal(size=(5, 4))),
                                       ad.param(ps, "w"), ad.param(ps, "b"))))
    ad.evaluate(root)
    below = root.below
    assert sorted(n.op for n in below) == ["affine", "constant", "param",
                                           "param", "square"]
    ad.update_running_stats(root)
    grads = ad.backward(root, ps)
    ad.evaluate(root)
    assert root.below is below
    assert ad._topo_order(root) == [*below, root]
    assert grads.keys() == {"w", "b"}


def test_backward_keeps_only_parameter_gradients(rng):
    # a graph of most ops, two sets of parameters and a shared subterm;
    # afterwards no other node holds a gradient, and the returned ones
    # still match finite differences
    a = _params_with(rng, w=(4, 7), b=(4,), gamma=(4,), beta=(4,))
    b = _params_with(rng, v=(8, 3))
    counts = (3, 4, 5)
    state = ParamSet()
    state.add("rm", np.zeros(4), trainable=False)
    state.add("rv", np.ones(4), trainable=False)
    x = ad.const(rng.normal(size=(sum(counts), 2)))
    bits = ad.const(rng.integers(0, 2, size=(sum(counts), 1)))
    h = ad.affine(ad.splice(x, (-1, 0, 1), counts, bits), ad.param(a, "w"),
                  ad.param(a, "b"))
    h = ad.batch_norm(ad.relu(h), ad.param(a, "gamma"), ad.param(a, "beta"),
                      state, "rm", "rv", training=True)
    pooled = ad.stats_pool(h, counts)
    z = ad.matmul(pooled, ad.param(b, "v"))
    shared = ad.square(ad.slice_rows(z, 0, 2))
    root = ad.add(ad.mean(ad.add(shared, ad.scale(shared, 0.5))),
                  ad.sum_(ad.sqrt(ad.sum_(shared, axis=1))))
    for ps in (a, b):
        _check_grads(root, ps)
    ad.evaluate(root)
    ad.backward(root, [a, b])
    order = ad._topo_order(root)
    assert not [n.op for n in order if n.op != "param" and n.grad is not None]
    assert all(n.grad is not None for n in order if n.op == "param")


def test_add_gives_each_parent_its_own_gradient(rng):
    # `add` passes one array to both parents.  Stored uncopied, the outer
    # add's array would be the gradient of both `u` and `inner`, and
    # `inner` adding into `u` would double what reaches the square
    ps = _params_with(rng, x=(3, 2))
    x = ad.param(ps, "x")
    u = ad.scale(x, 2.0)
    inner = ad.add(u, ad.square(x))
    root = ad.sum_(ad.add(u, inner))
    ad.evaluate(root)
    xv = ps.value("x")
    np.testing.assert_array_equal(ad.backward(root, ps)["x"],
                                  2.0 + 2.0 + 2.0 * xv)
    _check_grads(root, ps)


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


@pytest.mark.parametrize("f", [1, 2, 24, 256])
def test_batch_norm_forward_is_numpy_var_bit_for_bit(rng, f):
    # training mode centres x once and sums the squares itself; the
    # statistics and the output keep the bits of x.mean and x.var
    state = ParamSet()
    state.add("rm", np.zeros(f), trainable=False)
    state.add("rv", np.ones(f), trainable=False)
    for trial in range(10):
        x = rng.normal(size=(int(rng.integers(2, 600)), f))
        x = x * 10.0 ** rng.integers(-3, 4) + (1e6 if trial % 2 else 0.0)
        gamma, beta = rng.normal(size=f), rng.normal(size=f)
        node = ad.batch_norm(ad.const(x), ad.const(gamma), ad.const(beta),
                             state, "rm", "rv", training=True)
        out = ad.evaluate(node)
        mu, var = x.mean(axis=0), x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        assert node.cache[2].tobytes() == mu.tobytes()
        assert node.cache[3].tobytes() == var.tobytes()
        assert out.tobytes() == ((x - mu) * inv_std * gamma + beta).tobytes()


def _training_step_value(rng):
    """A weak reference to a value of a training graph that has been
    evaluated, folded and differentiated as a main step does, then
    dropped."""
    cfg = net.NetworkConfig(frame_dim=4, tdnn_widths=(6, 6),
                            tdnn_contexts=((-1, 0, 1), (0,)), embed_dim=5,
                            post_pool_widths=(5, 6), n_source_classes=3)
    params = net.init_network(cfg, seed=0)
    counts = [7, 9, 8]
    emb = net.build_embedding_batch(
        params, ad.const(rng.normal(size=(sum(counts), 4))), counts,
        [0, 1, 0], training=True)
    loss = ad.cross_entropy(
        net.build_classifier(params, emb, "source", training=True),
        [0, 2, 1], np.log(3))
    ad.evaluate(emb)
    ad.evaluate(loss, reset=False)
    ad.update_running_stats(loss)
    ad.backward(loss, [params.heads, params.extractor])
    return weakref.ref(emb.value)


def test_graph_is_freed_without_the_cycle_collector(rng):
    # each root keeps its topological order; a graph that held itself
    # would live until a collection, and every step's arrays with it
    enabled = gc.isenabled()
    gc.disable()
    try:
        value = _training_step_value(rng)
        assert value() is None
    finally:
        if enabled:
            gc.enable()


def _bn_graph(x, training):
    ps = ParamSet()
    ps.add("gamma", np.ones(2))
    ps.add("beta", np.zeros(2))
    state = ParamSet()
    state.add("rm", np.zeros(2), trainable=False)
    state.add("rv", np.ones(2), trainable=False)
    node = ad.batch_norm(ad.const(x), ad.param(ps, "gamma"),
                         ad.param(ps, "beta"), state, "rm", "rv",
                         training=training, momentum=0.95)
    return node, state


def test_batch_norm_running_average_update():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    node, state = _bn_graph(x, training=True)
    ad.evaluate(node)
    ad.update_running_stats(node)
    np.testing.assert_allclose(state.value("rm"), 0.05 * x.mean(axis=0))
    np.testing.assert_allclose(state.value("rv"),
                               0.95 + 0.05 * x.var(axis=0))


def test_running_stats_folded_once_per_update():
    # evaluate writes nothing; one update after two evaluations folds
    # the batch statistics once
    x = np.array([[1.0, 2.0], [3.0, 6.0], [-2.0, 0.5]])
    node, state = _bn_graph(x, training=True)
    root = ad.sum_(ad.add(node, node))
    for _ in range(2):
        ad.evaluate(root)
        np.testing.assert_array_equal(state.value("rm"), np.zeros(2))
        np.testing.assert_array_equal(state.value("rv"), np.ones(2))
    ad.update_running_stats(root)
    m = 0.95
    np.testing.assert_array_equal(state.value("rm"),
                                  m * 0.0 + (1 - m) * x.mean(axis=0))
    np.testing.assert_array_equal(state.value("rv"),
                                  m * 1.0 + (1 - m) * x.var(axis=0))


def test_running_stats_update_needs_training_graph_evaluated():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    node, state = _bn_graph(x, training=False)
    ad.evaluate(node)
    ad.update_running_stats(node)  # inference mode: nothing to fold
    np.testing.assert_array_equal(state.value("rm"), np.zeros(2))
    node, _ = _bn_graph(x, training=True)
    with pytest.raises(GraphError, match="evaluate must run"):
        ad.update_running_stats(node)


# ---------------------------------------------------------------------------
# critic input gradient


# hidden widths of the critics checked: depth 2 (first, so it draws what
# the two-layer check always drew), then depths 1 and 3
CRITIC_WIDTHS = [(6, 4), (6,), (6, 4, 5)]


def _critic(rng, widths, d=5):
    ps = ParamSet()
    dims = [d, *widths, 1]
    for i in range(len(dims) - 1):
        ps.add(f"W{i}", rng.uniform(-1, 1, size=(dims[i + 1], dims[i])))
        ps.add(f"b{i}", rng.uniform(-1, 1, size=dims[i + 1]))
    return ps


def _critic_depth(ps):
    """Hidden layer count of critic parameters `ps`."""
    return sum(name.startswith("W") for name in ps.names()) - 1


def _critic_net(ps, slope=0.2):
    """Network whose critic is `ps`; the other parameter sets are empty."""
    d = ps.value("W0").shape[1]
    widths = tuple(ps.value(f"W{i}").shape[0]
                   for i in range(_critic_depth(ps)))
    cfg = net.NetworkConfig(embed_dim=d, post_pool_widths=(d, d),
                            critic_widths=widths, leaky_slope=slope)
    return net.NetworkParams(cfg, ParamSet(), ParamSet(), ps)


def _critic_value(ps, h, slope=0.2):
    k, a = _critic_depth(ps), h
    for i in range(k):
        z = a @ ps.value(f"W{i}").T + ps.value(f"b{i}")
        a = np.where(z > 0, z, slope * z)
    return (a @ ps.value(f"W{k}").T + ps.value(f"b{k}"))[:, 0]


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
    out = ad.evaluate(net.critic_input_gradient(_critic_net(ps), ad.const(h)))
    np.testing.assert_allclose(out, np.tile(w, (4, 1)), rtol=1e-12)


def test_input_gradient_matches_fd_over_h(rng):
    for widths in CRITIC_WIDTHS:
        ps = _critic(rng, widths)
        h = rng.uniform(-2, 2, size=(6, 5))
        out = ad.evaluate(net.critic_input_gradient(_critic_net(ps),
                                                    ad.const(h)))
        step = 1e-5
        fd = np.zeros_like(h)
        for i in range(h.shape[0]):
            for j in range(h.shape[1]):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += step
                hm[i, j] -= step
                fd[i, j] = (_critic_value(ps, hp)[i]
                            - _critic_value(ps, hm)[i]) / (2 * step)
        assert rel_err(out, fd) <= 1e-5, widths


def test_gradient_penalty_param_grads_match_fd(rng):
    # second-order check: d/dparams of (||grad_h f_w|| - 1)^2
    for widths in CRITIC_WIDTHS:
        ps = _critic(rng, widths)
        h = rng.uniform(-2, 2, size=(5, 5))
        grad_node = net.critic_input_gradient(_critic_net(ps), ad.const(h))
        norms = ad.sqrt(ad.sum_(ad.square(grad_node), axis=1))
        root = ad.mean(ad.square(ad.sub(norms, ad.const(np.ones((5, 1))))))
        ad.evaluate(root)
        grads = ad.backward(root, ps)
        for i in range(len(widths) + 1):
            fd = fd_param_gradient(root, ps, f"W{i}")
            assert rel_err(grads[f"W{i}"], fd) <= 1e-4, (widths, i)
            # the penalty's bias gradients are zero: masks pass none
            np.testing.assert_array_equal(grads[f"b{i}"],
                                          np.zeros_like(ps.value(f"b{i}")))


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
    ad.sgd_step(ps, {"p": np.array([2.0])}, 0.5)
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


def test_non_finite_values_raise_their_own_error():
    # the trainer tells a diverged value from a malformed graph by type
    with np.errstate(invalid="ignore"), \
            pytest.raises(ad.NonFiniteError, match="op 'sqrt'"):
        ad.evaluate(ad.sqrt(ad.const(np.array([-1.0]))))
    ps = ParamSet()
    ps.add("p", np.array([1.0]))
    with pytest.raises(ad.NonFiniteError, match="parameter 'p'"):
        ad.sgd_step(ps, {"p": np.array([np.nan])}, 0.1)
    np.testing.assert_array_equal(ps.value("p"), [1.0])


def test_descent_converges_on_convex_objective():
    # f(p) = p^2, gradient 2p; descent from 1.0 at rate 0.1 approaches 0
    ps = ParamSet()
    ps.add("p", np.array([1.0]))
    for _ in range(100):
        root = ad.sum_(ad.square(ad.param(ps, "p")))
        ad.evaluate(root)
        grads = ad.backward(root, ps)
        ad.sgd_step(ps, grads, 0.1)
    assert abs(float(ps.value("p")[0])) < 1e-6
