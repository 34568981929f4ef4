"""Dense float64 tensors with reverse-mode automatic differentiation.

An operation whose result needs a gradient (some input has
`requires_grad`) builds a node that remembers its parent tensors and a
backward rule; any other result is a plain value that holds no graph, so
its inputs and intermediates are freed as soon as nothing else uses them.
Inside `with no_grad():` nothing is recorded at all, whatever the inputs;
inference runs there. `backward(loss)` walks the recorded graph once in
reverse topological order and accumulates gradients into every
`requires_grad` leaf; gradients keep accumulating across backward calls
until the leaf is explicitly zeroed. Graphs are rebuilt per forward pass.

Everything is double precision and CPU-only on purpose: the models here
are desk-scale and the whole engine is validated against central finite
differences. The fused ops `lora_linear` and `mlp` are one node each where
their compositions of primitive ops were several; they are checked against
finite differences too, and against those compositions bit for bit, in value
and in every gradient.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np

# glibc moves its mmap and trim thresholds with the heap's history, so whether a
# forward pass's multi-megabyte arrays reuse resident heap or fault in fresh
# pages (thousands per batch decode) would vary from process to process. Fixed
# thresholds keep freed arrays resident for reuse, whatever ran before.
try:
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap up to 32 MiB
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep 64 MiB free
except (AttributeError, OSError, TypeError):  # no glibc mallopt
    pass

__all__ = [
    "Tensor",
    "backward",
    "zero_grads",
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "narrow",
    "concat",
    "relu",
    "gelu",
    "softmax",
    "attention_core",
    "layer_norm",
    "embedding",
    "linear",
    "lora_linear",
    "mlp",
    "dropout",
    "mean",
    "tensor_sum",
    "tensor_abs",
    "cross_entropy",
]


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    Leaves are created directly; op results that need a gradient carry
    `_parents` and a `_backward` rule. `grad` is lazily allocated by
    `backward` and only ever populated on requires_grad leaves.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        kind = "leaf" if self._backward is None else "node"
        return f"Tensor(shape={self.values.shape}, {kind}, requires_grad={self.requires_grad})"


# whether ops record the graph; no_grad() clears it for the length of a block
_recording = True


@contextmanager
def no_grad():
    """Record no graph inside the block: every op result needs no gradient.

    The previous state comes back on exit, also when the block raises. The
    state is one module flag, shared by every thread of the process.
    """
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _node(values: np.ndarray, parents: tuple[Tensor, ...], rule) -> Tensor:
    """An op result; it keeps its parents and rule only if a gradient can reach them."""
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = rule
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` after numpy broadcasting in the forward pass."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def zero_grads(params) -> None:
    """Drop accumulated gradients so the next backward starts from zero."""
    for p in params:
        p.grad = None


def backward(loss: Tensor) -> None:
    """Populate gradients of `loss` w.r.t. every reachable requires_grad leaf.

    The per-call gradient flow is kept in a scratch map, so repeated calls
    on the same graph each add one full gradient into the leaves. A leaf
    without a gradient gets a copy of its first one; later ones are added.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        return

    # iterative DFS topological order over the requires_grad subgraph
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is None:
                node.grad = g.copy()  # a copy: g may alias another node's gradient
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            held = flow.get(pid)
            # out-of-place accumulate: rules may return views aliasing g
            flow[pid] = pg if held is None else held + pg


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    values = a.values + b.values

    def rule(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return _node(values, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    values = a.values - b.values

    def rule(g):
        return _unbroadcast(g, a.values.shape), -_unbroadcast(g, b.values.shape)

    return _node(values, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    values = a.values * b.values

    def rule(g):
        ga = _unbroadcast(g * b.values, a.values.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.values, b.values.shape) if b.requires_grad else None
        return ga, gb

    return _node(values, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def rule(g):
        return (g * c,)

    return _node(a.values * c, (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with stacked leading dimensions; dA = dC @ Bᵀ, dB = Aᵀ @ dC."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ValueError(
            f"matmul needs at least 2-d operands, got {a.values.shape} and {b.values.shape}"
        )
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.values.shape} x {b.values.shape}"
        )
    values = a.values @ b.values

    def rule(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.values.swapaxes(-1, -2), a.values.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.values.swapaxes(-1, -2) @ g, b.values.shape)
        return ga, gb

    return _node(values, (a, b), rule)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes; default swaps the last two."""
    if axes is None:
        values = a.values.swapaxes(-1, -2)

        def rule(g):
            return (g.swapaxes(-1, -2),)

    else:
        inverse = np.argsort(axes)
        values = a.values.transpose(axes)

        def rule(g):
            return (g.transpose(inverse),)

    return _node(values, (a,), rule)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.values.shape

    def rule(g):
        return (g.reshape(old),)

    return _node(a.values.reshape(shape), (a,), rule)


def narrow(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Contiguous slice along one axis; gradient scatters back into place."""
    index = [slice(None)] * a.values.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def rule(g):
        ga = np.zeros_like(a.values)
        ga[index] = g
        return (ga,)

    return _node(a.values[index], (a,), rule)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(values, tensors, rule)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

_GELU_C = float(np.sqrt(2.0 / np.pi))


def relu(a: Tensor) -> Tensor:
    x = a.values
    values = np.maximum(x, 0.0)

    def rule(g):
        return (g * (x > 0.0),)

    return _node(values, (a,), rule)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU."""
    x = a.values
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    values = 0.5 * x * (1.0 + t)

    def rule(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dx,)

    return _node(values, (a,), rule)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max subtraction."""
    z = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(z)
    values = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        # dz = y * (g - sum(g*y))
        return (values * (g - (g * values).sum(axis=-1, keepdims=True)),)

    return _node(values, (a,), rule)


def attention_core(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    num_heads: int,
    add_mask: np.ndarray | None = None,
) -> Tensor:
    """Scaled dot-product attention over heads, fused into one graph node.

    q is (B, Tq, H), k and v are (B, Tk, H) with H divisible by num_heads;
    add_mask is an additive (broadcastable) bias on the (B, nh, Tq, Tk)
    score matrix, typically 0 / -1e30 for causal or padding masks.
    """
    bsz, t_q, dim = q.values.shape
    t_k = k.values.shape[1]
    if dim % num_heads != 0:
        raise ValueError(f"hidden dim {dim} not divisible by {num_heads} heads")
    dh = dim // num_heads
    inv = 1.0 / np.sqrt(dh)

    def heads(x, t):  # a (B, nh, T, dh) view of (B, T, H); its products round as a copy's
        return x.reshape(bsz, t, num_heads, dh).transpose(0, 2, 1, 3)

    def merged(a, b, t):  # the product a @ b of head-split operands, written as (B, T, H)
        out = np.empty((bsz, t, dim))
        np.matmul(a, b, out=heads(out, t))
        return out

    qh, kh, vh = heads(q.values, t_q), heads(k.values, t_k), heads(v.values, t_k)

    # scores, their exponentials and the weights share one array, op for op as out of place
    w = qh @ kh.swapaxes(-1, -2)
    w *= inv
    if add_mask is not None:
        w += add_mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    ctx = merged(w, vh, t_q)

    def rule(g):
        gh = heads(g, t_q)
        dq = dk = dv = None
        if q.requires_grad or k.requires_grad:
            ds = gh @ vh.swapaxes(-1, -2)  # dw, turned in place into w * (dw - sum(dw * w)) * inv
            ds -= (ds * w).sum(axis=-1, keepdims=True)
            ds *= w
            ds *= inv
            if q.requires_grad:
                dq = merged(ds, kh, t_q)
            if k.requires_grad:
                dk = merged(ds.swapaxes(-1, -2), qh, t_k)
        if v.requires_grad:
            dv = merged(w.swapaxes(-1, -2), gh, t_k)
        return dq, dk, dv

    return _node(ctx, (q, k, v), rule)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x = a.values
    n = x.shape[-1]
    # each mean is ndarray.mean's own sum-then-divide, without its Python wrapper
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu  # centred, then scaled in place
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    values = gain.values * xhat
    values += bias.values

    def rule(g):
        gx = ggain = gbias = None
        if gain.requires_grad:
            ggain = _unbroadcast(g * xhat, gain.values.shape)
        if bias.requires_grad:
            gbias = _unbroadcast(g, bias.values.shape)
        if a.requires_grad:
            dxhat = g * gain.values
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
            m1 /= n
            m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
            m2 /= n
            gx = dxhat  # (dxhat - m1 - xhat * m2) * inv_std, in place
            gx -= m1
            gx -= xhat * m2
            gx *= inv_std
        return gx, ggain, gbias

    return _node(values, (a, gain, bias), rule)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.values.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    values = table.values[ids]

    def rule(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.values.shape[1]))
        return (gt,)

    return _node(values, (table,), rule)


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The gradient of w in x @ wᵀ for its output's gradient g, over every leading axis."""
    return _rows(g).T @ _rows(x)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map y = x @ wᵀ (+ b) with w stored as (d_out, d_in)."""
    if x.values.shape[-1] != w.values.shape[-1]:
        raise ValueError(
            f"linear shapes disagree: x {x.values.shape} vs w {w.values.shape}"
        )
    values = x.values @ w.values.T
    if b is not None:
        values += b.values

    def rule(g):
        gx = g @ w.values if x.requires_grad else None
        gw = _weight_grad(g, x.values) if w.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, _rows(g).sum(axis=0) if b.requires_grad else None

    parents = (x, w) if b is None else (x, w, b)
    return _node(values, parents, rule)


def lora_linear(x: Tensor, d: Tensor, w: Tensor, b: Tensor, a: Tensor, b_lora: Tensor, c: float) -> Tensor:
    """x @ wᵀ + b + c * ((d @ aᵀ) @ b_loraᵀ) as one node, op for op as `add(linear(x, w, b),
    scale(linear(linear(d, a), b_lora), c))`; `d` is `x` or `dropout(x)`."""
    c = float(c)
    values = x.values @ w.values.T
    values += b.values
    t = d.values @ a.values.T
    delta = t @ b_lora.values.T
    delta *= c
    values += delta

    def rule(g):
        gs = g * c
        gt = gs @ b_lora.values if d.requires_grad or a.requires_grad else None
        return (g @ w.values if x.requires_grad else None,
                gt @ a.values if d.requires_grad else None,
                _weight_grad(g, x.values) if w.requires_grad else None,
                _rows(g).sum(axis=0) if b.requires_grad else None,
                _weight_grad(gt, d.values) if a.requires_grad else None,
                _weight_grad(gs, t) if b_lora.requires_grad else None)

    return _node(values, (x, d, w, b, a, b_lora), rule)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(relu(linear(x, w1, b1)), w2, b2) as one node, op for op; the ReLU runs in
    place, as `h > 0` is the same mask before and after it."""
    h = x.values @ w1.values.T
    h += b1.values
    np.maximum(h, 0.0, out=h)
    values = h @ w2.values.T
    values += b2.values

    def rule(g):
        first = x.requires_grad or w1.requires_grad or b1.requires_grad
        gh = (g @ w2.values) * (h > 0.0) if first else None
        return (gh @ w1.values if x.requires_grad else None,
                _weight_grad(gh, x.values) if w1.requires_grad else None,
                _rows(gh).sum(axis=0) if b1.requires_grad else None,
                _weight_grad(g, h) if w2.requires_grad else None,
                _rows(g).sum(axis=0) if b2.requires_grad else None)

    return _node(values, (x, w1, b1, w2, b2), rule)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; callers only apply this in train mode."""
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = np.where(rng.random(a.values.shape, dtype=np.float32) >= rate, 1.0 / (1.0 - rate), 0.0)

    def rule(g):
        return (g * keep,)

    return _node(a.values * keep, (a,), rule)


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------


def mean(a: Tensor) -> Tensor:
    n = a.values.size

    def rule(g):
        return (np.full_like(a.values, float(g) / n),)

    return _node(np.asarray(a.values.mean()), (a,), rule)


def tensor_sum(a: Tensor) -> Tensor:
    def rule(g):
        return (np.full_like(a.values, float(g)),)

    return _node(np.asarray(a.values.sum()), (a,), rule)


def tensor_abs(a: Tensor) -> Tensor:
    def rule(g):
        return (g * np.sign(a.values),)

    return _node(np.abs(a.values), (a,), rule)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -1) -> Tensor:
    """Mean of -log softmax(logits)[target] over positions not equal to ignore_index.

    logits has shape (..., V); targets matches the leading shape. When every
    position is ignored the loss is defined as 0 with zero gradient.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.values.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.values.shape}"
        )
    vocab = logits.values.shape[-1]
    flat = logits.values.reshape(-1, vocab)
    t = targets.reshape(-1)
    valid = t != ignore_index
    n_valid = int(valid.sum())
    if n_valid and ((t[valid] < 0).any() or (t[valid] >= vocab).any()):
        bad = t[valid]
        bad = bad[(bad < 0) | (bad >= vocab)][0]
        raise IndexError(f"target id {bad} out of range [0, {vocab})")
    if n_valid == 0:
        return Tensor(0.0)

    z = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    rows = np.arange(flat.shape[0])
    loss = -logp[rows, t][valid].mean()

    def rule(g):
        p = np.exp(logp)
        p[rows, np.where(valid, t, 0)] -= np.where(valid, 1.0, 0.0)
        p[~valid] = 0.0
        return ((float(g) / n_valid) * p.reshape(logits.values.shape),)

    return _node(np.asarray(loss), (logits,), rule)
