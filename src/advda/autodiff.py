"""Reverse-mode differentiation over dense float64 arrays.

Small computation-graph engine: build a graph of `Node`s with the
constructor functions below, run `evaluate` to get values and `backward`
to get parameter gradients of one or several ParamSets in one pass.
`splice` and `stats-pool` work on a batch of variable-length segments
(utterances) stacked along the rows, so a whole minibatch is one graph
of a few dozen nodes.  The engine knows no model, and `evaluate` writes
to no ParamSet: batch-norm running averages change only in
`update_running_stats`.
"""

from __future__ import annotations

import numpy as np


# added to each pooled variance before its square root
STATS_POOL_VAR_FLOOR = 1e-10


class GraphError(Exception):
    """Raised on malformed graphs, shape mismatches or non-finite values."""


class NonFiniteError(GraphError):
    """Raised when a node's value or an updated parameter is not finite."""


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

    __slots__ = ("op", "parents", "attrs", "value", "grad", "cache", "live",
                 "below")

    def __init__(self, op: str, parents=(), **attrs):
        self.op = op
        self.parents = tuple(parents)
        self.attrs = attrs
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | None = None
        self.cache = None
        # set by `backward`: the node leads to a parameter it reports
        self.live = False
        # set by `_topo_order` on a root: the nodes under it, in order
        self.below: list[Node] | None = None


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


def leaky_relu_mask(x: Node, slope: float = 0.2) -> Node:
    """1 where x > 0, else `slope`: leaky relu is `mul(x, mask)`, and the
    mask its derivative at x, a constant under differentiation."""
    return Node("leaky-relu-mask", (x,), slope=float(slope))


def batch_norm(x: Node, gamma: Node, beta: Node, state: ParamSet,
               mean_name: str, var_name: str, training: bool,
               momentum: float = 0.95, eps: float = 1e-5) -> Node:
    """Per-feature batch norm over axis 0.

    Training mode uses batch statistics, which `update_running_stats`
    folds into the running averages in `state`; inference mode reads the
    running averages.
    """
    return Node("batch-norm", (x, gamma, beta), state=state,
                mean_name=mean_name, var_name=var_name,
                training=bool(training), momentum=float(momentum),
                eps=float(eps))


def _counts(counts):
    if counts is None:
        return None
    counts = tuple(int(n) for n in counts)
    if not counts or min(counts) < 1:
        raise GraphError(f"segment frame counts must be positive: {counts}")
    return counts


def _segment_counts(node: Node, x: np.ndarray) -> tuple:
    """Frame count of each segment of `x`; one segment when unset."""
    counts = node.attrs["counts"] or (x.shape[0],)
    if x.ndim != 2 or sum(counts) != x.shape[0]:
        raise GraphError(f"{node.op} segments {sum(counts)} rows in total, "
                         f"input has shape {x.shape}")
    return counts


def stats_pool(x: Node, counts=None) -> Node:
    """(T, F) frames -> (n, 2F) mean and std over time of each segment.

    `counts` gives the frame counts of the n segments stacked in x's
    rows; None means one segment of all T rows.
    """
    return Node("stats-pool", (x,), counts=_counts(counts))


def splice(x: Node, offsets, counts=None, column: Node | None = None) -> Node:
    """Temporal context splicing, clamped at the edges of each segment.

    Row t of the output concatenates rows t+o of x for each offset o,
    each clamped to the first and last row of t's segment.  `counts`
    gives the segment frame counts as for `stats_pool`.  A constant
    (T, c) `column` is appended to the output without a concat's copy.
    """
    if column is not None and column.op != "constant":
        raise GraphError("splice column must be a constant")
    return Node("splice", (x,) if column is None else (x, column),
                offsets=tuple(int(o) for o in offsets),
                counts=_counts(counts))


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
    """Elementwise product; either operand may be one row against n rows."""
    return Node("mul", (a, b))


def matmul(a: Node, b: Node) -> Node:
    return Node("matmul", (a, b))


# ---------------------------------------------------------------------------
# evaluation


def _topo_order(root: Node) -> list[Node]:
    """The nodes under `root`, parents before children, then `root`.

    The walk runs once per root: `evaluate`, `update_running_stats` and
    `backward` on one root share it, and as a node's parents are fixed
    when it is made, it never goes stale.  The root keeps only the nodes
    under it, never itself, so no graph is a reference cycle that would
    wait for the cyclic garbage collector.
    """
    if root.below is not None:
        return [*root.below, root]
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
    root.below = order[:-1]
    return order


def _pool(x: np.ndarray, counts: tuple) -> np.ndarray:
    """Mean and std over the rows of each segment, the bits of numpy's
    `seg.mean(axis=0)` and `np.sqrt(seg.var(axis=0) + floor)`.

    With more than one column numpy sums the rows of a C-ordered segment
    one after another, so it is done for all segments at once over a
    (segments, longest, F) buffer padded with -0.0, which leaves every
    sum as it was.  A single column numpy sums pairwise, which padding
    would change, so there it is one mean/var call per segment.
    """
    f = x.shape[1]
    rows = np.split(x, np.cumsum(counts[:-1]))
    out = np.empty((len(counts), 2 * f))
    if f == 1:
        for row, seg in zip(out, rows):
            row[:f] = seg.mean(axis=0)
            row[f:] = np.sqrt(seg.var(axis=0) + STATS_POOL_VAR_FLOOR)
        return out
    n = np.asarray(counts)[:, None]
    buf = np.full((len(counts), max(counts), f), -0.0)
    for b, seg in zip(buf, rows):
        b[:len(seg)] = seg
    mu = np.divide(buf.sum(axis=1), n, out=out[:, :f])
    for b, seg, m in zip(buf, rows, mu):  # the padding stays -0.0
        np.subtract(seg, m, out=b[:len(seg)])
    np.square(buf, out=buf)
    out[:, f:] = np.sqrt(buf.sum(axis=1) / n + STATS_POOL_VAR_FLOOR)
    return out


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
    if op == "leaky-relu-mask":
        return np.where(p[0].value > 0.0, 1.0, node.attrs["slope"])
    if op == "batch-norm":
        x, gamma, beta = p[0].value, p[1].value, p[2].value
        if node.attrs["training"]:
            mu = x.mean(axis=0)
            xhat = x - mu
            # x.var(axis=0)'s own sums, without centring x a second time
            var = (xhat * xhat).sum(axis=0) / len(x)
        else:
            state = node.attrs["state"]
            mu = state.value(node.attrs["mean_name"])
            var = state.value(node.attrs["var_name"])
            xhat = x - mu
        inv_std = 1.0 / np.sqrt(var + node.attrs["eps"])
        xhat *= inv_std
        node.cache = (xhat, inv_std, mu, var)
        return xhat * gamma + beta
    if op == "stats-pool":
        x = p[0].value
        if x.ndim != 2 or x.shape[0] < 1:
            raise GraphError("stats-pool needs a non-empty (T, F) matrix")
        counts = _segment_counts(node, x)
        node.cache = counts
        return _pool(x, counts)
    if op == "splice":
        x = p[0].value
        counts = _segment_counts(node, x)
        offsets = node.attrs["offsets"]
        span = max(abs(o) for o in offsets)
        short = [n for n in counts if n <= span]
        if short:
            raise GraphError(f"sequence of {short[0]} frames shorter than "
                             f"context span {offsets}")
        # (T, K) source row of every output row and offset
        starts = np.repeat(np.cumsum((0,) + counts[:-1]), counts)
        ends = starts + np.repeat(counts, counts) - 1
        idx = np.clip(np.arange(x.shape[0])[:, None] + offsets,
                      starts[:, None], ends[:, None])
        node.cache = idx
        col = p[1].value if len(p) > 1 else np.empty((len(x), 0))
        if col.ndim != 2 or len(col) != len(x):
            raise GraphError(f"splice column {col.shape} for {len(x)} rows")
        width = idx.shape[1] * x.shape[1]
        out = np.empty((len(x), width + col.shape[1]))
        out[:, :width].reshape(idx.shape + x.shape[1:])[...] = x[idx]
        out[:, width:] = col
        return out
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
    raise GraphError(f"unknown op {op!r}")


def _accum(node: Node, g: np.ndarray) -> None:
    if not node.live:
        return
    if node.grad is None:
        if g.shape != node.value.shape:
            raise GraphError(f"gradient {g.shape} for a value "
                             f"{node.value.shape}")
        node.grad = g + 0.0  # a copy: `add` passes one g to both parents
    else:
        node.grad += g


def _scatter_rows(dx: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """dx[idx[r]] += g[r] for r in order, like `np.add.at`, but in passes.

    Pass m adds the rows that are the m-th to reach their target row, so
    each pass has distinct targets and is one fancy-indexed add.  `idx`
    must be non-decreasing; the additions into each row happen in the
    same order as `np.add.at`'s, so the sums are the same bits.  It is
    here for speed: `np.add.at` adds into a 2-D array one row at a time,
    and using it here made `adapt_s` 10-15% slower in the benchmark.
    """
    rows = np.arange(idx.shape[0])
    rank = rows - np.searchsorted(idx, idx, side="left")
    for m in range(int(rank.max()) + 1):
        sel = rows[rank == m]
        dx[idx[sel]] += g[sel]


def _backward_node(node: Node) -> None:
    op = node.op
    g = node.grad
    p = node.parents
    if op in ("constant", "param"):
        return
    if op == "affine":
        x, w = p[0].value, p[1].value
        if p[0].live:
            _accum(p[0], g @ w)
        if p[1].live:
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
    if op == "batch-norm":
        # no stage differentiates through inference mode: the post-pool
        # scope freezes every layer under it
        if not node.attrs["training"]:
            raise GraphError("backward through op 'batch-norm' in "
                             "inference mode is not supported")
        x, gamma = p[0].value, p[1].value
        xhat, inv_std = node.cache[:2]
        _accum(p[1], (g * xhat).sum(axis=0))
        _accum(p[2], g.sum(axis=0))
        if not p[0].live:
            return
        dxhat = g * gamma
        n = x.shape[0]
        _accum(p[0], (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                      - xhat * (dxhat * xhat).sum(axis=0)))
        return
    if op == "stats-pool":
        # dx = gm / n + gs * (x - m) / (n * s) with the segment's row of
        # each per-segment term gathered to its frames; the arithmetic is
        # elementwise, so batching it changes no bit
        x = p[0].value
        f = x.shape[1]
        counts = node.cache
        seg = np.repeat(np.arange(len(counts)), counts)  # of each frame
        n = np.asarray(counts, dtype=np.float64)[:, None]
        dx = x - node.value[seg, :f]
        dx *= g[seg, f:]
        dx /= (n * node.value[:, f:])[seg]
        dx += (g[:, :f] / n)[seg]
        _accum(p[0], dx)
        return
    if op == "splice":
        x = p[0].value
        f = x.shape[1]
        dx = np.zeros_like(x)
        for k in range(node.cache.shape[1]):
            _scatter_rows(dx, node.cache[:, k], g[:, k * f:(k + 1) * f])
        _accum(p[0], dx)
        return
    if op == "slice-rows":
        # accumulate in place: no full-size array per slice
        parent = p[0]
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.value)
        parent.grad[node.attrs["start"]:node.attrs["stop"]] += g
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
        for q, other in ((p[0], p[1]), (p[1], p[0])):
            if q.live:
                dq = g * other.value
                if dq.shape != q.value.shape:  # a broadcast row
                    dq = dq.sum(axis=0, keepdims=True)
                _accum(q, dq)
        return
    if op == "matmul":
        if p[0].live:
            _accum(p[0], g @ p[1].value.T)
        if p[1].live:
            _accum(p[1], p[0].value.T @ g)
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
            if not np.isfinite(node.value).all():
                raise NonFiniteError(f"non-finite value in op {node.op!r}")
    return root.value


def backward(root: Node, params):
    """Gradients of a scalar root w.r.t. the trainable params of ParamSets.

    `params` is one ParamSet, for which a dict name -> gradient is
    returned, or a sequence of them, for which a list of such dicts is
    returned in the same order; one traversal serves them all.  Requires
    a prior `evaluate` of the same graph.  Only nodes that lead to a
    reported parameter are differentiated: inputs, and parameters of
    other ParamSets or frozen ones, get no gradient.  Other gradients
    are freed once passed on: afterwards only parameter nodes hold one.
    """
    sets = [params] if isinstance(params, ParamSet) else list(params)
    if root.value is None:
        raise GraphError("evaluate must run before backward")
    if np.asarray(root.value).size != 1:
        raise GraphError("backward root must be scalar")
    order = _topo_order(root)
    for node in order:  # parents come before their children
        if node.value is None:
            raise GraphError("graph has nodes without cached forward values")
        node.grad = None
        if node.op == "param":
            ps = node.attrs["params"]
            node.live = any(ps is s for s in sets) and \
                ps.is_trainable(node.attrs["name"])
        else:  # no gradient passes through a mask
            node.live = node.op != "leaky-relu-mask" and \
                any(q.live for q in node.parents)
    if root.live:
        root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is not None:
            _backward_node(node)
            if node.op != "param":
                node.grad = None
    out = []
    for ps in sets:
        grads = {n: np.zeros_like(ps.value(n)) for n in ps.trainable_names()}
        for node in order:  # only param nodes still hold a gradient
            if node.grad is not None and node.attrs["params"] is ps:
                grads[node.attrs["name"]] += node.grad
        out.append(grads)
    return out[0] if isinstance(params, ParamSet) else out


def update_running_stats(root: Node) -> None:
    """Fold the batch statistics of each training-mode batch norm under an
    evaluated `root` into its running averages; once per training step."""
    for node in _topo_order(root):
        if node.op != "batch-norm" or not node.attrs["training"]:
            continue
        if node.value is None:
            raise GraphError("evaluate must run before update_running_stats")
        state, m = node.attrs["state"], node.attrs["momentum"]
        for name, batch in zip((node.attrs["mean_name"],
                                node.attrs["var_name"]), node.cache[2:]):
            state.set_value(name, m * state.value(name) + (1 - m) * batch)


def sgd_step(params: ParamSet, grads: dict[str, np.ndarray],
             rate: float) -> ParamSet:
    """In-place SGD descent step; returns `params`. Frozen params untouched."""
    if rate < 0:
        raise GraphError("learning rate must be non-negative")
    for name, g in grads.items():
        if name not in params or not params.is_trainable(name):
            raise GraphError(f"gradient for non-trainable param {name!r}")
        v = params.value(name)
        g = _as_f64(g)
        if g.shape != v.shape:
            raise GraphError(f"gradient shape mismatch for {name!r}")
        new = v - rate * g
        if not np.isfinite(new).all():
            raise NonFiniteError(f"non-finite value in parameter {name!r}")
        params.set_value(name, new)
    return params
