"""Dense tensors with reverse-mode automatic differentiation on numpy.

Scope is deliberately small: ranks 0..3, float32/float64, explicit gradient
accumulation, no higher-order derivatives. backward() frees the graph it walks,
so a graph is backwarded once. Every operation used by the model
lives here so the whole network can be gradient-checked against central
differences with no framework in the loop.

The sequence ops (matmul/linear, conv1d, mask_rows, layer_norm, logsumexp,
multi_head_attention) take an optional leading batch axis: an (L, d) item
and a padded (B, L, d) batch run through the same body, with (L,) or
(B, L) masks.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np


class ShapeError(ValueError):
    pass


class GradCheckError(RuntimeError):
    pass


_GRAD_ENABLED = True

# A node's _backward_fn once backward() has run it: the graph behind it is freed
_RELEASED = object()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} tensor not supported (max 3)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    # -- autodiff ------------------------------------------------------

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)  # a leaf keeps its buffer

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError("seed gradient shape mismatch")
        # iterative topological sort; graphs can be deep (GRU scans, stacked blocks)
        topo = []
        visited = set()
        stack = [(self, False)]
        # a leaf takes its gradient from its consumers and runs nothing itself,
        # so only parents with a backward function (or a freed one) are walked
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _RELEASED:
                raise RuntimeError("backward through a graph a previous backward() already freed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward_fn is not None and id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, grad)
        # Walk consumers before producers, releasing each node's closure and
        # parents before running it: an activation only a closure kept dies
        # as soon as that backward has run, and one the caller still holds
        # keeps its .data and .grad.
        while topo:
            node = topo.pop()
            fn = node._backward_fn
            if fn is None:
                continue
            node._backward_fn, node._parents = _RELEASED, ()
            if node.grad is not None:
                fn(node.grad)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def _node(data, parents, backward_fn):
    """Internal fast constructor; skips finiteness validation on hot paths."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    t.requires_grad = needs
    t._parents = tuple(p for p in parents if p.requires_grad) if needs else ()
    t._backward_fn = backward_fn if needs else None
    return t


def _accumulate(t, g):
    """Add g into t.grad. A leaf owns its buffer (a parameter's is its view of
    the grad arena): it copies the first g, adds later ones in place."""
    if not t.requires_grad:
        return
    if t._backward_fn is not None:
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if isinstance(like, Tensor) else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def maximum(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = np.maximum(a.data, b.data)
    pick_a = a.data >= b.data  # ties route to the first argument

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * pick_a, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape))

    return _node(out_data, (a, b), backward)


def minimum(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = np.minimum(a.data, b.data)
    pick_a = a.data <= b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * pick_a, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape))

    return _node(out_data, (a, b), backward)


def clip01(t):
    return minimum(maximum(t, 0.0), 1.0)


# -- unary ----------------------------------------------------------------


def relu(t):
    out_data = np.maximum(t.data, 0.0)

    def backward(g):
        # max(x, 0) > 0 exactly where x > 0; NaN is False in both
        _accumulate(t, g * (out_data > 0.0))

    return _node(out_data, (t,), backward)


def absval(t):
    out_data = np.abs(t.data)
    sign = np.sign(t.data)  # subgradient 0 at the kink

    def backward(g):
        _accumulate(t, g * sign)

    return _node(out_data, (t,), backward)


def exp(t):
    out_data = np.exp(t.data)

    def backward(g):
        _accumulate(t, g * out_data)

    return _node(out_data, (t,), backward)


def log(t):
    out_data = np.log(t.data)

    def backward(g):
        _accumulate(t, g / t.data)

    return _node(out_data, (t,), backward)


def sqrt(t):
    out_data = np.sqrt(t.data)

    def backward(g):
        _accumulate(t, g * 0.5 / out_data)

    return _node(out_data, (t,), backward)


def tanh(t):
    out_data = np.tanh(t.data)

    def backward(g):
        _accumulate(t, g * (1.0 - out_data * out_data))

    return _node(out_data, (t,), backward)


def stable_sigmoid(x, out):
    """Logistic function of array x, written into out (None: a new array).

    1 / (1 + e) where x >= 0, else e / (1 + e), for e = exp(-|x|): exp only
    sees non-positive arguments, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def sigmoid(t):
    out_data = stable_sigmoid(t.data, None)

    def backward(g):
        _accumulate(t, g * out_data * (1.0 - out_data))

    return _node(out_data, (t,), backward)


def square(t):
    return mul(t, t)


# -- shape / structure ----------------------------------------------------


def _rows(x):
    """x flattened to rows of its last axis: (..., k) -> (prod(...), k)."""
    return x.reshape(-1, x.shape[-1])


def _gemm(x, w):
    """x @ w as one GEMM when w is a 2-D weight: a (B, m, k) x runs as its
    (B*m, k) rows, not as B stacked products. Any other x @ w is numpy's."""
    if x.ndim == 3 and w.ndim == 2:
        b, m, k = x.shape
        return (x.reshape(b * m, k) @ w).reshape(b, m, w.shape[1])
    return x @ w


def matmul(a, b):
    """a @ b for (m, k) or (B, m, k) a and a (k, n) weight, or per item for (B, k, n) b.

    With a weight, the product and both gradients flatten the leading axes of
    a into one GEMM each, so no per-item (B, k, n) stack is ever formed.
    """
    x, w = a.data, b.data
    if x.ndim not in (2, 3) or w.ndim not in (2, x.ndim):
        raise ShapeError(f"matmul expects (m, k) or (B, m, k) @ (k, n), or (B, m, k) @ (B, k, n); "
                         f"got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[-2] or (w.ndim == 3 and x.shape[0] != w.shape[0]):
        raise ShapeError(f"matmul dims differ: {x.shape} @ {w.shape}")
    out_data = _gemm(x, w)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _gemm(g, w.swapaxes(-1, -2)))
        if b.requires_grad:
            if w.ndim == 2:
                _accumulate(b, _rows(x).T @ _rows(g))
            else:
                _accumulate(b, x.swapaxes(-1, -2) @ g)

    return _node(out_data, (a, b), backward)


def transpose(t):
    """Swap the last two axes of a rank-2 or rank-3 tensor."""
    if t.data.ndim not in (2, 3):
        raise ShapeError("transpose expects a rank-2 or rank-3 tensor")
    out_data = t.data.swapaxes(-1, -2)

    def backward(g):
        _accumulate(t, g.swapaxes(-1, -2))

    return _node(out_data, (t,), backward)


def reshape(t, shape):
    out_data = t.data.reshape(shape)
    in_shape = t.data.shape

    def backward(g):
        _accumulate(t, g.reshape(in_shape))

    return _node(out_data, (t,), backward)


def tsum(t, axis=None, keepdims=False):
    out_data = t.data.sum(axis=axis, keepdims=keepdims)
    in_shape = t.data.shape

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(t, np.broadcast_to(gg, in_shape))

    return _node(np.asarray(out_data), (t,), backward)


def tmean(t, axis=None, keepdims=False):
    if axis is None:
        n = t.data.size
    else:
        n = t.data.shape[axis]
    return mul(tsum(t, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(tensors, axis=0):
    tensors = [t for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + size)
            _accumulate(t, g[tuple(idx)])
            start += size

    return _node(out_data, tuple(tensors), backward)


def narrow(t, axis, start, length):
    """Contiguous slice [start, start+length) along `axis`."""
    if start < 0 or start + length > t.data.shape[axis]:
        raise ShapeError("narrow out of range")
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = t.data[idx]
    in_shape = t.data.shape

    def backward(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[idx] = g
        _accumulate(t, full)

    return _node(out_data, (t,), backward)


def _unfold(x, kernel):
    """unfold1d's windows of array x, and the function that folds a window
    gradient back into x's shape: (unfolded, fold). fold holds no array."""
    if kernel % 2 != 1:
        raise ShapeError("unfold1d requires an odd kernel")
    length, ch = x.shape[-2:]
    pad = (kernel - 1) // 2
    shape, dtype = x.shape[:-2] + (length + 2 * pad, ch), x.dtype
    padded = np.zeros(shape, dtype=dtype)
    padded[..., pad:pad + length, :] = x

    def fold(g):
        gp = np.zeros(shape, dtype=dtype)
        for j in range(kernel):
            gp[..., j:j + length, :] += g[..., j * ch:(j + 1) * ch]
        return gp[..., pad:pad + length, :]

    return np.concatenate([padded[..., j:j + length, :] for j in range(kernel)], axis=-1), fold


def unfold1d(t, kernel):
    """Zero-padded sliding windows: (L, C) -> (L, kernel*C), same length.

    Window j of output row n holds the input row n + j - (kernel-1)//2;
    out-of-range rows are zeros. Requires an odd kernel. A (B, L, C) batch
    is unfolded per item, so windows never cross items.
    """
    if t.data.ndim not in (2, 3):
        raise ShapeError("unfold1d expects a rank-2 or rank-3 tensor")
    out_data, fold = _unfold(t.data, kernel)

    def backward(g):
        _accumulate(t, fold(g))

    return _node(out_data, (t,), backward)


# -- masks ------------------------------------------------------------------


def keep_mask(mask, shape):
    """Boolean keep array of the given shape (an int is a length); None keeps all."""
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    keep = np.ones(shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if keep.shape != shape:
        raise ShapeError(f"mask of shape {keep.shape} does not match {shape}")
    return keep


def mask_rows(t, mask=None):
    """Zero the rows of t whose mask entry is False.

    The mask covers t's leading axes: (L,) for the rows of an (L, ...)
    tensor, (B, L) for the rows of each item of a (B, L, ...) batch. A mask
    that keeps every row (or None) returns t itself, with no node.
    """
    if mask is None:
        return t
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != t.data.shape[:keep.ndim]:
        raise ShapeError(f"mask of shape {keep.shape} does not match rows {t.data.shape[:keep.ndim]}")
    if keep.all():
        return t
    keep = keep.astype(t.data.dtype).reshape(keep.shape + (1,) * (t.data.ndim - keep.ndim))

    def backward(g):
        _accumulate(t, g * keep)

    return _node(t.data * keep, (t,), backward)


# -- normalization / attention pieces --------------------------------------


def _masked_exp(x, keep, shifted):
    """(m, e, row_sum) over the last axis within keep (True keeps all): the
    kept row max, exp(x - m) on kept entries and 0 elsewhere (dropped entries
    never overflow), and e's row sums. e is the C-contiguous array shifted,
    x itself when the caller made x, into which x - m is written and then
    exponentiated in place, so its sums group the same way whatever x's strides."""
    m = np.maximum.reduce(x, axis=-1, keepdims=True, where=keep, initial=-np.inf)
    e = np.subtract(x, m, out=shifted)
    np.exp(e, out=e, where=keep)
    if keep is not True:
        np.copyto(e, 0.0, where=~keep)  # also the +inf of a row with no kept entry
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


def _masked_softmax(x, keep):
    """Softmax over the last axis of an array the caller made, restricted to
    the columns in keep (True keeps all); x becomes the softmax.

    A row with no kept column is all zero. A row with one sums exp(0) = 1 and
    non-negative terms, so flooring the sums at 1, which only a mask needs,
    changes only the empty rows.
    """
    _, e, denom = _masked_exp(x, keep, x)
    if keep is not True:
        np.maximum(denom, 1.0, out=denom)
    e /= denom
    return e


def softmax_masked(scores, key_mask=None):
    """Row softmax over the last axis with an optional boolean key mask.

    Masked columns contribute exactly zero. A row whose keys are all masked
    yields an all-zero row, never NaN.
    """
    x = scores.data
    if x.ndim != 2:
        raise ShapeError("softmax_masked expects rank-2 scores")
    y = _masked_softmax(x.copy(), True if key_mask is None else keep_mask(key_mask, x.shape[1]))

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        _accumulate(scores, y * (g - inner))

    return _node(y, (scores,), backward)


def _logsumexp(x, include):
    """(log sum exp, softmax weights) of an array over the last axis within include.

    The weights have the broadcast shape of x and include, zero outside it.
    """
    inc = np.ones(x.shape, dtype=bool) if include is None else np.asarray(include, dtype=bool)
    try:
        shape = np.broadcast_shapes(x.shape, inc.shape)
    except ValueError as err:
        raise ShapeError(f"include of shape {inc.shape} does not match {x.shape}") from err
    if x.ndim == 0 or not np.broadcast_to(inc, shape).any(axis=-1).all():
        raise ShapeError("logsumexp over an empty subset")
    m, e, s = _masked_exp(np.broadcast_to(x, shape), inc, np.empty(shape, x.dtype))
    return np.asarray((m + np.log(s))[..., 0], dtype=x.dtype), e / s


def logsumexp(t, include=None):
    """log sum exp over the last axis of t, restricted to the entries include keeps.

    include (default: all) broadcasts against t, so it may hold one subset
    per row of a (B, L) tensor, or several subsets of each row when t carries
    a unit axis: t (B, 1, L) with include (B, R, L) gives a (B, R) result.
    A subset with no kept entry is an error.
    """
    x = t.data
    out_data, weights = _logsumexp(x, include)

    def backward(g):
        _accumulate(t, _unbroadcast(g[..., None] * weights, x.shape))

    return _node(out_data, (t,), backward)


def log_softmax_rows(t):
    """Log softmax over the last axis, stabilized with a detached row max."""
    m = Tensor(t.data.max(axis=-1, keepdims=True))
    z = sub(t, m)
    lse = log(tsum(exp(z), axis=-1, keepdims=True))
    return sub(z, lse)


LAYER_NORM_EPS = 1e-5


def layer_norm(t, gamma, beta):
    """Per-row layer normalization over the last axis, as one node."""
    x = t.data
    if x.ndim not in (2, 3):
        raise ShapeError("layer_norm expects a rank-2 or rank-3 tensor")
    scale = 1.0 / x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) * scale  # centred, then scaled in place
    out_data = xhat * xhat
    inv = np.add.reduce(out_data, axis=-1, keepdims=True)
    inv *= scale
    inv += LAYER_NORM_EPS
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out_data)
    out_data += beta.data

    def backward(g):
        _accumulate(beta, _unbroadcast(g, beta.data.shape))
        _accumulate(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        if t.requires_grad:
            # inv * (gx - mean(gx) - xhat * mean(gx * xhat)), formed in gx
            gx = g * gamma.data
            term = gx * xhat
            mean_gx_xhat = np.add.reduce(term, axis=-1, keepdims=True) * scale
            gx -= np.add.reduce(gx, axis=-1, keepdims=True) * scale
            gx -= np.multiply(xhat, mean_gx_xhat, out=term)
            gx *= inv
            _accumulate(t, gx)

    return _node(out_data, (t, gamma, beta), backward)


def dropout(t, p, rng=None, train=False):
    """Inverted dropout; identity outside training or at p == 0."""
    if not train or p <= 0.0:
        return t
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit RNG")
    # kept entries scale by 1 / (1 - p), divided in t's dtype; dropped ones by 0.
    # The node holds the bool mask and forms the scaled one on each use.
    keep = rng.random(t.data.shape) >= p
    scale = np.ones((), t.data.dtype) / (1.0 - p)

    def backward(g):
        _accumulate(t, g * (keep * scale))

    return _node(t.data * (keep * scale), (t,), backward)


def identity(t):
    """The dropout function of a stage run without dropout."""
    return t


def conv1d(x, weight, bias):
    """Same-padding 1-D convolution over rows: (L, C_in) -> (L, C_out), per item of a (B, L, C_in) batch.

    weight has shape (kernel, C_in, C_out); kernel must be odd. One node: the
    unfold1d windows of x times the (kernel * C_in, C_out) weight, plus bias.
    """
    if weight.data.ndim != 3:
        raise ShapeError("conv1d weight must be rank-3 (kernel, C_in, C_out)")
    kernel, c_in, c_out = weight.data.shape
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != c_in:
        raise ShapeError(f"conv1d input shape {x.data.shape} does not match C_in={c_in}")
    unf, fold = _unfold(x.data, kernel)
    w = weight.data.reshape(kernel * c_in, c_out)
    out_data = _gemm(unf, w) + bias.data
    # the node holds x, not its kernel-times-larger windows: the weight gradient unfolds x again

    def backward(g):
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            _accumulate(x, fold(_gemm(g, w.T)))
        if weight.requires_grad:
            _accumulate(weight, (_rows(_unfold(x.data, kernel)[0]).T @ _rows(g)).reshape(weight.data.shape))

    return _node(out_data, (x, weight, bias), backward)


def linear(x, weight, bias):
    """x @ weight + bias for an (m, k) or (B, m, k) x, a (k, n) weight and an (n,) bias, as one node."""
    xd, w = x.data, weight.data
    if xd.ndim not in (2, 3) or w.ndim != 2 or xd.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear expects (m, k) or (B, m, k) @ (k, n); got {xd.shape} @ {w.shape}")
    out_data = _gemm(xd, w) + bias.data

    def backward(g):
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            _accumulate(x, _gemm(g, w.T))
        if weight.requires_grad:
            _accumulate(weight, _rows(xd).T @ _rows(g))

    return _node(out_data, (x, weight, bias), backward)


def multi_head_attention(q, k, v, params, heads, key_mask=None):
    """Scaled dot-product attention with input/output projections, as one node.

    params is the ((w, b) of q, k, v, out) projections, each w (d, d).
    q: (n_q, d), k/v: (n_k, d), with an (n_k,) key mask; or per item of a
    batch, q: (B, n_q, d), k/v: (B, n_k, d), with a (B, n_k) key mask. All
    heads run at once over (..., heads, n, d/heads) arrays. Masked keys are
    never exponentiated, so their scores cannot overflow. Queries whose keys
    are all masked produce exact zero output rows and receive zero gradient.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim not in (2, 3) or kd.ndim != qd.ndim or kd.shape[:-2] != qd.shape[:-2]:
        raise ShapeError("multi_head_attention expects (n, d) or (B, n, d) queries and keys "
                         "with the same leading axes")
    if kd.shape != vd.shape:
        raise ShapeError("key/value shapes differ")
    d = qd.shape[-1]
    if kd.shape[-1] != d:
        raise ShapeError(f"query width {d} != key width {kd.shape[-1]}")
    if d % heads != 0:
        raise ShapeError(f"model dim {d} not divisible by {heads} heads")
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = params
    if not wq.data.shape == wk.data.shape == wv.data.shape == wo.data.shape == (d, d):
        raise ShapeError(f"attention projections must be ({d}, {d})")
    # keep is shared by heads and queries, the scalar True when no key is
    # masked; alive says per item whether any key is kept: an item without
    # one has only dead query rows
    keep, alive = True, None
    if key_mask is not None:
        mask = keep_mask(key_mask, kd.shape[:-1])
        if not mask.all():
            keep, alive = mask[..., None, None, :], mask.any(axis=-1, keepdims=True)[..., None]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x):  # (..., n, d) -> (..., heads, n, dh)
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-2, -3)

    def merge(x):  # (..., heads, n, dh) -> (..., n, d)
        return x.swapaxes(-2, -3).reshape(qd.shape[:-2] + (-1, d))

    def project(x, w, b):  # x @ w + b into the product's fresh array, split into heads
        out = _gemm(x, w.data)
        out += b.data
        return split(out)

    qh, kh, vh = project(qd, wq, bq), project(kd, wk, bk), project(vd, wv, bv)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    attn = _masked_softmax(scores, keep)
    merged = merge(attn @ vh)
    out_data = _gemm(merged, wo.data)
    out_data += bo.data
    live = None
    if alive is not None and not alive.all():
        live = alive.astype(out_data.dtype)
        out_data *= live

    def project_back(x, w, b, g):
        """Gradients of x @ w + b given the output gradient g."""
        _accumulate(w, _rows(x.data).T @ _rows(g))
        _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, _gemm(g, w.data.T))

    def backward(g):
        if live is not None:
            g = g * live
        _accumulate(wo, _rows(merged).T @ _rows(g))
        _accumulate(bo, _unbroadcast(g, bo.data.shape))
        g_out = split(_gemm(g, wo.data.T))
        # attn * (g_attn - sum(g_attn * attn)) * scale, formed in place in g_attn's array
        g_scores = g_out @ vh.swapaxes(-1, -2)
        g_scores -= np.add.reduce(g_scores * attn, axis=-1, keepdims=True)
        g_scores *= attn
        g_scores *= scale
        project_back(q, wq, bq, merge(g_scores @ kh))
        project_back(k, wk, bk, merge(g_scores.swapaxes(-1, -2) @ qh))
        project_back(v, wv, bv, merge(attn.swapaxes(-1, -2) @ g_out))

    return _node(out_data, (q, k, v, wq, bq, wk, bk, wv, bv, wo, bo), backward)


# -- initialization ---------------------------------------------------------


# float64 draws per chunk of xavier_uniform (512 KB)
DRAW_CHUNK = 1 << 16


def xavier_uniform(rng, out, fan_in, fan_out):
    """Fill the C-contiguous array out in place, and return it, with the
    stream and arithmetic of rng.uniform(-b, b, out.shape): lower + range * u
    per float64 draw u, b = sqrt(6 / (fan_in + fan_out)). The draws go
    DRAW_CHUNK at a time into out itself when it is float64, else through
    one float64 scratch, cast on write."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    flat = out.reshape(-1)  # a view, as out is C-contiguous
    scratch = None if out.dtype == np.float64 else np.empty(min(DRAW_CHUNK, flat.size))
    for c0 in range(0, flat.size, DRAW_CHUNK):
        dst = flat[c0:c0 + DRAW_CHUNK]
        u = dst if scratch is None else scratch[:dst.size]
        rng.random(out=u)
        u *= bound - -bound
        u += -bound
        if scratch is not None:
            dst[...] = u
    return out


# -- verification -----------------------------------------------------------


def grad_check(f, inputs, h=1e-5, max_coords_per_input=None, rng=None,
               denom_floor=1e-8):
    """Compare reverse-mode gradients of scalar f(*inputs) to central differences.

    Returns the worst relative error max(|num - ana|) / max(|num|, |ana|, floor)
    over the checked coordinates. With max_coords_per_input set, a seeded
    subset of coordinates is checked per input instead of a full sweep.
    Raise denom_floor for large objectives: a coordinate with zero true
    gradient (softmax-inert key biases) measures pure cancellation noise,
    eps * |f| / 2h, which the floor must absorb.
    Non-finite function values raise GradCheckError.
    """
    for t in inputs:
        if not t.requires_grad:
            raise ValueError("grad_check inputs must require gradients")
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ShapeError("grad_check target must return a scalar")
    if not np.isfinite(out.data).all():
        raise GradCheckError("non-finite function value at the base point")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else np.array(t.grad, copy=True) for t in inputs]
    if max_coords_per_input is not None and rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    with no_grad():
        for t, ana in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            n = flat.size
            if max_coords_per_input is None or n <= max_coords_per_input:
                coords = range(n)
            else:
                coords = rng.choice(n, size=max_coords_per_input, replace=False)
            for i in coords:
                saved = flat[i]
                flat[i] = saved + h
                f_plus = float(f(*inputs).data)
                flat[i] = saved - h
                f_minus = float(f(*inputs).data)
                flat[i] = saved
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise GradCheckError(f"non-finite value while perturbing coordinate {i}")
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = float(ana.reshape(-1)[i])
                rel = abs(numeric - a) / max(abs(numeric), abs(a), denom_floor)
                worst = max(worst, rel)
    return worst
