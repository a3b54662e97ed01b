"""Reverse-mode differentiation over dense float64 arrays.

Small computation-graph engine: build a graph of `Node`s with the
constructor functions below, run `evaluate` to get values and `backward`
to get parameter gradients.  Second-order support is limited to the
critic input-gradient construction (`critic_input_gradient`), which is
all the gradient-penalty loss needs.
"""

from __future__ import annotations

import numpy as np


class GraphError(Exception):
    """Raised on malformed graphs, shape mismatches or non-finite values."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class ParamSet:
    """Named map of parameter arrays, each tagged trainable or frozen."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, name: str, value, trainable: bool = True) -> None:
        if name in self._values:
            raise GraphError(f"duplicate parameter name {name!r}")
        self._values[name] = _as_f64(value)
        self._trainable[name] = bool(trainable)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def set_value(self, name: str, value) -> None:
        v = _as_f64(value)
        if v.shape != self._values[name].shape:
            raise GraphError(
                f"shape mismatch for {name!r}: {v.shape} vs {self._values[name].shape}"
            )
        self._values[name] = v

    def replace(self, name: str, value, trainable: bool = True) -> None:
        """Swap a parameter for one of a possibly different shape."""
        if name not in self._values:
            raise GraphError(f"unknown parameter {name!r}")
        self._values[name] = _as_f64(value)
        self._trainable[name] = bool(trainable)

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def set_trainable(self, name: str, trainable: bool) -> None:
        self._trainable[name] = bool(trainable)

    def names(self):
        return list(self._values)

    def trainable_names(self):
        return [n for n, t in self._trainable.items() if t]

    def __contains__(self, name: str) -> bool:
        return name in self._values


class Node:
    """One graph operation with cached value and gradient slot."""

    __slots__ = ("op", "parents", "attrs", "value", "grad", "cache")

    def __init__(self, op: str, parents=(), **attrs):
        self.op = op
        self.parents = list(parents)
        self.attrs = attrs
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | None = None
        self.cache = None


# ---------------------------------------------------------------------------
# graph constructors


def const(value) -> Node:
    n = Node("constant", value=_as_f64(value))
    return n


def param(params: ParamSet, name: str) -> Node:
    if name not in params:
        raise GraphError(f"unknown parameter {name!r}")
    return Node("param", params=params, name=name)


def affine(x: Node, w: Node, b: Node) -> Node:
    """y = x @ w.T + b with w of shape (out, in) and x of shape (n, in)."""
    return Node("affine", (x, w, b))


def concat(nodes, axis: int = 0) -> Node:
    return Node("concat", nodes, axis=axis)


def relu(x: Node) -> Node:
    return Node("relu", (x,))


def leaky_relu(x: Node, slope: float = 0.2) -> Node:
    return Node("leaky-relu", (x,), slope=float(slope))


def batch_norm(x: Node, gamma: Node, beta: Node, state: ParamSet,
               mean_name: str, var_name: str, training: bool,
               momentum: float = 0.95, eps: float = 1e-5) -> Node:
    """Per-feature batch norm over axis 0.

    Training mode uses batch statistics and folds them into the running
    averages stored in `state`; inference mode reads the running averages.
    """
    return Node("batch-norm", (x, gamma, beta), state=state,
                mean_name=mean_name, var_name=var_name,
                training=bool(training), momentum=float(momentum),
                eps=float(eps))


def stats_pool(x: Node, var_floor: float = 1e-10) -> Node:
    """(T, F) frames -> (1, 2F) concatenated mean and std over time."""
    return Node("stats-pool", (x,), var_floor=float(var_floor))


def splice(x: Node, offsets) -> Node:
    """Temporal context splicing with edges clamped to the boundary row."""
    return Node("splice", (x,), offsets=tuple(int(o) for o in offsets))


def slice_rows(x: Node, start: int, stop: int) -> Node:
    return Node("slice-rows", (x,), start=int(start), stop=int(stop))


def mean(x: Node) -> Node:
    return Node("mean", (x,))


def sum_(x: Node, axis: int | None = None) -> Node:
    return Node("sum", (x,), axis=axis)


def square(x: Node) -> Node:
    return Node("square", (x,))


def sqrt(x: Node) -> Node:
    return Node("sqrt", (x,))


def l2_norm(x: Node) -> Node:
    return Node("l2-norm", (x,))


def log_softmax(x: Node) -> Node:
    return Node("log-softmax", (x,))


def cross_entropy(logp: Node, labels, normalizer: float) -> Node:
    """Mean over rows of -logp[i, labels[i]] / normalizer."""
    labels = np.asarray(labels, dtype=np.int64)
    if float(normalizer) <= 0:
        raise GraphError("cross-entropy normalizer must be positive")
    return Node("cross-entropy", (logp,), labels=labels,
                normalizer=float(normalizer))


def scale(x: Node, c: float) -> Node:
    return Node("scale", (x,), c=float(c))


def add(a: Node, b: Node) -> Node:
    return Node("add", (a, b))


def sub(a: Node, b: Node) -> Node:
    return Node("sub", (a, b))


def mul(a: Node, b: Node) -> Node:
    return Node("mul", (a, b))


def matmul(a: Node, b: Node) -> Node:
    return Node("matmul", (a, b))


def critic_input_gradient(critic: ParamSet, h: Node, slope: float = 0.2) -> Node:
    """Graph node for the critic's gradient w.r.t. its input rows.

    The critic must be the fixed chain affine("W0","b0") -> leaky-relu ->
    affine("W1","b1") -> leaky-relu -> affine("W2","b2") -> scalar, the
    depth `NetworkConfig` enforces through `critic_widths`.  The
    returned node evaluates, for each row h, W0' D0 W1' D1 w2 where the Di
    are diagonal activation-derivative masks.  The masks are treated as
    constants under differentiation (leaky-relu curvature is zero almost
    everywhere), so `backward` through this node yields correct critic
    parameter gradients of the gradient-penalty loss.
    """
    parents = (h, param(critic, "W0"), param(critic, "b0"),
               param(critic, "W1"), param(critic, "b1"),
               param(critic, "W2"))
    return Node("input-gradient", parents, slope=float(slope))


# ---------------------------------------------------------------------------
# evaluation


def _topo_order(root: Node) -> list[Node]:
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def _lrelu_mask(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0.0, 1.0, slope)


def _forward(node: Node) -> np.ndarray:
    op = node.op
    p = node.parents
    if op == "constant":
        return node.attrs["value"]
    if op == "param":
        return node.attrs["params"].value(node.attrs["name"])
    if op == "affine":
        x, w, b = p[0].value, p[1].value, p[2].value
        if x.ndim != 2 or x.shape[1] != w.shape[1]:
            raise GraphError(f"affine shape mismatch: x {x.shape}, w {w.shape}")
        return x @ w.T + b
    if op == "concat":
        return np.concatenate([q.value for q in p], axis=node.attrs["axis"])
    if op == "relu":
        return np.maximum(p[0].value, 0.0)
    if op == "leaky-relu":
        s = node.attrs["slope"]
        x = p[0].value
        return np.where(x > 0.0, x, s * x)
    if op == "batch-norm":
        x, gamma, beta = p[0].value, p[1].value, p[2].value
        eps = node.attrs["eps"]
        if node.attrs["training"]:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            state = node.attrs["state"]
            m = node.attrs["momentum"]
            rm = state.value(node.attrs["mean_name"])
            rv = state.value(node.attrs["var_name"])
            state.set_value(node.attrs["mean_name"], m * rm + (1 - m) * mu)
            state.set_value(node.attrs["var_name"], m * rv + (1 - m) * var)
        else:
            state = node.attrs["state"]
            mu = state.value(node.attrs["mean_name"])
            var = state.value(node.attrs["var_name"])
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv_std
        node.cache = (xhat, inv_std)
        return xhat * gamma + beta
    if op == "stats-pool":
        x = p[0].value
        if x.ndim != 2 or x.shape[0] < 1:
            raise GraphError("stats-pool needs a non-empty (T, F) matrix")
        m = x.mean(axis=0)
        var = x.var(axis=0) + node.attrs["var_floor"]
        s = np.sqrt(var)
        node.cache = (m, s)
        return np.concatenate([m, s])[None, :]
    if op == "splice":
        x = p[0].value
        t = x.shape[0]
        offsets = node.attrs["offsets"]
        if t <= max(abs(o) for o in offsets):
            raise GraphError(f"sequence of {t} frames shorter than context span")
        idx = [np.clip(np.arange(t) + o, 0, t - 1) for o in offsets]
        node.cache = idx
        return np.concatenate([x[i] for i in idx], axis=1)
    if op == "slice-rows":
        return p[0].value[node.attrs["start"]:node.attrs["stop"]]
    if op == "mean":
        return np.asarray(p[0].value.mean())
    if op == "sum":
        axis = node.attrs["axis"]
        if axis is None:
            return np.asarray(p[0].value.sum())
        return p[0].value.sum(axis=axis, keepdims=True)
    if op == "square":
        return p[0].value ** 2
    if op == "sqrt":
        # negative inputs become NaN and are reported by the finiteness
        # check rather than as a numpy warning
        with np.errstate(invalid="ignore"):
            return np.sqrt(p[0].value)
    if op == "l2-norm":
        return np.asarray(np.sqrt((p[0].value ** 2).sum()))
    if op == "log-softmax":
        x = p[0].value
        z = x - x.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    if op == "cross-entropy":
        logp = p[0].value
        labels = node.attrs["labels"]
        if labels.min() < 0 or labels.max() >= logp.shape[1]:
            raise GraphError("cross-entropy label out of range")
        picked = logp[np.arange(logp.shape[0]), labels]
        return np.asarray(-picked.mean() / node.attrs["normalizer"])
    if op == "scale":
        return node.attrs["c"] * p[0].value
    if op == "add":
        return p[0].value + p[1].value
    if op == "sub":
        return p[0].value - p[1].value
    if op == "mul":
        return p[0].value * p[1].value
    if op == "matmul":
        return p[0].value @ p[1].value
    if op == "input-gradient":
        h, w0, b0, w1, b1, w2 = (q.value for q in p)
        s = node.attrs["slope"]
        z0 = h @ w0.T + b0
        d0 = _lrelu_mask(z0, s)
        a0 = np.where(z0 > 0.0, z0, s * z0)
        z1 = a0 @ w1.T + b1
        d1 = _lrelu_mask(z1, s)
        u = d1 * w2  # (n, u1), w2 is (1, u1)
        pm = u @ w1  # (n, u0)
        v = pm * d0
        node.cache = (d0, d1, u, pm, v)
        return v @ w0
    raise GraphError(f"unknown op {op!r}")


def _accum(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _backward_node(node: Node) -> None:
    op = node.op
    g = node.grad
    p = node.parents
    if op in ("constant", "param"):
        return
    if op == "affine":
        x, w = p[0].value, p[1].value
        _accum(p[0], g @ w)
        _accum(p[1], g.T @ x)
        _accum(p[2], g.sum(axis=0))
        return
    if op == "concat":
        axis = node.attrs["axis"]
        start = 0
        for q in p:
            size = q.value.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _accum(q, g[tuple(sl)])
            start += size
        return
    if op == "relu":
        _accum(p[0], g * (p[0].value > 0.0))
        return
    if op == "leaky-relu":
        _accum(p[0], g * _lrelu_mask(p[0].value, node.attrs["slope"]))
        return
    if op == "batch-norm":
        x, gamma = p[0].value, p[1].value
        xhat, inv_std = node.cache
        _accum(p[1], (g * xhat).sum(axis=0))
        _accum(p[2], g.sum(axis=0))
        dxhat = g * gamma
        if node.attrs["training"]:
            n = x.shape[0]
            dx = (inv_std / n) * (
                n * dxhat - dxhat.sum(axis=0)
                - xhat * (dxhat * xhat).sum(axis=0)
            )
        else:
            dx = dxhat * inv_std
        _accum(p[0], dx)
        return
    if op == "stats-pool":
        x = p[0].value
        t, f = x.shape
        m, s = node.cache
        gm, gs = g[0, :f], g[0, f:]
        dx = np.tile(gm / t, (t, 1)) + gs * (x - m) / (t * s)
        _accum(p[0], dx)
        return
    if op == "splice":
        x = p[0].value
        f = x.shape[1]
        dx = np.zeros_like(x)
        for k, idx in enumerate(node.cache):
            np.add.at(dx, idx, g[:, k * f:(k + 1) * f])
        _accum(p[0], dx)
        return
    if op == "slice-rows":
        dx = np.zeros_like(p[0].value)
        dx[node.attrs["start"]:node.attrs["stop"]] = g
        _accum(p[0], dx)
        return
    if op == "mean":
        _accum(p[0], np.full_like(p[0].value, g / p[0].value.size))
        return
    if op == "sum":
        axis = node.attrs["axis"]
        if axis is None:
            _accum(p[0], np.full_like(p[0].value, g))
        else:
            _accum(p[0], np.broadcast_to(g, p[0].value.shape).copy())
        return
    if op == "square":
        _accum(p[0], 2.0 * p[0].value * g)
        return
    if op == "sqrt":
        _accum(p[0], 0.5 * g / node.value)
        return
    if op == "l2-norm":
        _accum(p[0], g * p[0].value / node.value)
        return
    if op == "log-softmax":
        sm = np.exp(node.value)
        _accum(p[0], g - sm * g.sum(axis=1, keepdims=True))
        return
    if op == "cross-entropy":
        logp = p[0].value
        labels = node.attrs["labels"]
        dl = np.zeros_like(logp)
        n = logp.shape[0]
        dl[np.arange(n), labels] = -g / (n * node.attrs["normalizer"])
        _accum(p[0], dl)
        return
    if op == "scale":
        _accum(p[0], node.attrs["c"] * g)
        return
    if op == "add":
        _accum(p[0], g)
        _accum(p[1], g)
        return
    if op == "sub":
        _accum(p[0], g)
        _accum(p[1], -g)
        return
    if op == "mul":
        _accum(p[0], g * p[1].value)
        _accum(p[1], g * p[0].value)
        return
    if op == "matmul":
        _accum(p[0], g @ p[1].value.T)
        _accum(p[1], p[0].value.T @ g)
        return
    if op == "input-gradient":
        # Masks d0, d1 are constants of the differentiation; gradients flow
        # to the critic weights only (input and biases get zero).
        w0, w1 = p[1].value, p[3].value
        d0, d1, u, pm, v = node.cache
        vbar = g @ w0.T
        _accum(p[1], v.T @ g)
        pbar = vbar * d0
        ubar = pbar @ w1.T
        _accum(p[3], u.T @ pbar)
        _accum(p[5], (d1 * ubar).sum(axis=0, keepdims=True))
        return
    raise GraphError(f"unknown op {op!r}")


def evaluate(root: Node, reset: bool = True) -> np.ndarray:
    """Forward-evaluate the graph and return the root value.

    With reset=True (default), cached values of non-constant nodes are
    cleared first, so repeated calls with changed parameters recompute.
    reset=False computes only nodes whose value is unset, which lets a
    caller extend an already-evaluated graph.
    """
    order = _topo_order(root)
    if reset:
        for node in order:
            if node.op != "constant":
                node.value = None
            node.grad = None
    for node in order:
        if node.value is None:
            node.value = _forward(node)
            if not np.all(np.isfinite(node.value)):
                raise GraphError(f"non-finite value in op {node.op!r}")
    return root.value


def backward(root: Node, params: ParamSet) -> dict[str, np.ndarray]:
    """Gradients of a scalar root w.r.t. every trainable param in `params`.

    Requires a prior `evaluate` of the same graph.  Parameters of other
    ParamSets appearing in the graph receive gradients internally but are
    not reported.
    """
    if root.value is None:
        raise GraphError("evaluate must run before backward")
    if np.asarray(root.value).size != 1:
        raise GraphError("backward root must be scalar")
    order = _topo_order(root)
    for node in order:
        if node.value is None:
            raise GraphError("graph has nodes without cached forward values")
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        _backward_node(node)
    grads = {n: np.zeros_like(params.value(n))
             for n in params.trainable_names()}
    for node in order:
        if node.op == "param" and node.attrs["params"] is params:
            name = node.attrs["name"]
            if name in grads and node.grad is not None:
                grads[name] += node.grad
    return grads


def sgd_step(params: ParamSet, grads: dict[str, np.ndarray], rate: float,
             direction: str = "descend") -> ParamSet:
    """In-place plain SGD step; returns `params`. Frozen params untouched."""
    if rate < 0:
        raise GraphError("learning rate must be non-negative")
    if direction not in ("ascend", "descend"):
        raise GraphError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "ascend" else -1.0
    for name, g in grads.items():
        if name not in params or not params.is_trainable(name):
            raise GraphError(f"gradient for non-trainable param {name!r}")
        v = params.value(name)
        g = _as_f64(g)
        if g.shape != v.shape:
            raise GraphError(f"gradient shape mismatch for {name!r}")
        params.set_value(name, v + sign * rate * g)
    return params
