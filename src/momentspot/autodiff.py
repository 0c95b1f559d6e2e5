"""Dense tensors with reverse-mode automatic differentiation on numpy.

Scope is deliberately small: ranks 0..3, float32/float64, explicit gradient
accumulation, no higher-order derivatives. Every operation used by the model
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
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


class GradCheckError(RuntimeError):
    pass


_GRAD_ENABLED = True


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

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
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

    def detach(self):
        return Tensor(self.data)

    # -- autodiff ------------------------------------------------------

    def zero_grad(self):
        self.grad = None

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
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


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
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


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
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def maximum(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = np.maximum(a.data, b.data)
    pick_a = a.data >= b.data  # ties route to the first argument

    def backward(g):
        _accumulate(a, _unbroadcast(g * pick_a, a.data.shape))
        _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape))

    return _node(out_data, (a, b), backward)


def minimum(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = np.minimum(a.data, b.data)
    pick_a = a.data <= b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * pick_a, a.data.shape))
        _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape))

    return _node(out_data, (a, b), backward)


def clip01(t):
    return minimum(maximum(t, 0.0), 1.0)


# -- unary ----------------------------------------------------------------


def relu(t):
    out_data = np.maximum(t.data, 0.0)
    mask = t.data > 0.0

    def backward(g):
        _accumulate(t, g * mask)

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


def stable_sigmoid(x):
    """Logistic function on an array; exp only sees non-positive arguments, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)


def sigmoid(t):
    out_data = stable_sigmoid(t.data)

    def backward(g):
        _accumulate(t, g * out_data * (1.0 - out_data))

    return _node(out_data, (t,), backward)


def square(t):
    return mul(t, t)


# -- shape / structure ----------------------------------------------------


def _rows(x):
    """x flattened to rows of its last axis: (..., k) -> (prod(...), k)."""
    return x.reshape(-1, x.shape[-1])


def matmul(a, b):
    """a @ b for (m, k) or (B, m, k) a and a (k, n) weight, or per item for (B, k, n) b.

    A weight's gradient flattens the leading axes of a into one GEMM, so no
    per-item (B, k, n) stack is ever formed.
    """
    x, w = a.data, b.data
    if x.ndim not in (2, 3) or w.ndim not in (2, x.ndim):
        raise ShapeError(f"matmul expects (m, k) or (B, m, k) @ (k, n), or (B, m, k) @ (B, k, n); "
                         f"got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[-2] or (w.ndim == 3 and x.shape[0] != w.shape[0]):
        raise ShapeError(f"matmul dims differ: {x.shape} @ {w.shape}")
    out_data = x @ w

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ w.swapaxes(-1, -2))
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


def unfold1d(t, kernel):
    """Zero-padded sliding windows: (L, C) -> (L, kernel*C), same length.

    Window j of output row n holds the input row n + j - (kernel-1)//2;
    out-of-range rows are zeros. Requires an odd kernel. A (B, L, C) batch
    is unfolded per item, so windows never cross items.
    """
    if t.data.ndim not in (2, 3):
        raise ShapeError("unfold1d expects a rank-2 or rank-3 tensor")
    if kernel % 2 != 1:
        raise ShapeError("unfold1d requires an odd kernel")
    length, ch = t.data.shape[-2:]
    pad = (kernel - 1) // 2
    padded = np.zeros(t.data.shape[:-2] + (length + 2 * pad, ch), dtype=t.data.dtype)
    padded[..., pad:pad + length, :] = t.data
    out_data = np.concatenate([padded[..., j:j + length, :] for j in range(kernel)], axis=-1)

    def backward(g):
        gp = np.zeros_like(padded)
        for j in range(kernel):
            gp[..., j:j + length, :] += g[..., j * ch:(j + 1) * ch]
        _accumulate(t, gp[..., pad:pad + length, :])

    return _node(out_data, (t,), backward)


def gather(t, index):
    """Rows t.data[index] picked by integer arrays over t's leading axes.

    index is one array (rows of an (N, C) tensor) or a tuple of arrays
    ((item, row) pairs of a (B, N, C) batch); repeated rows accumulate.
    """
    out_data = t.data[index]

    def backward(g):
        full = np.zeros_like(t.data)
        np.add.at(full, index, g)
        _accumulate(t, full)

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
    tensor, (B, L) for the rows of each item of a (B, L, ...) batch.
    """
    keep = np.ones(t.data.shape[:1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if keep.shape != t.data.shape[:keep.ndim]:
        raise ShapeError(f"mask of shape {keep.shape} does not match rows {t.data.shape[:keep.ndim]}")
    keep = keep.astype(t.data.dtype).reshape(keep.shape + (1,) * (t.data.ndim - keep.ndim))

    def backward(g):
        _accumulate(t, g * keep)

    return _node(t.data * keep, (t,), backward)


# -- normalization / attention pieces --------------------------------------


def _masked_softmax(x, keep):
    """Softmax over the last axis of an array, restricted to the columns in keep.

    Returns (weights, dead): masked columns are never exponentiated, so they
    cannot overflow, and a row with no kept column is all zero and marked dead.
    """
    m = x.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    e = np.exp(x - m, where=keep, out=np.zeros_like(x))
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom == 0.0, 1.0, denom), denom[..., 0] == 0.0


def softmax_masked(scores, key_mask=None, flags=None):
    """Row softmax over the last axis with an optional boolean key mask.

    Masked columns contribute exactly zero. A row whose keys are all masked
    yields an all-zero row (flagged via flags["all_masked_rows"]), never NaN.
    """
    x = scores.data
    if x.ndim != 2:
        raise ShapeError("softmax_masked expects rank-2 scores")
    y, dead = _masked_softmax(x, keep_mask(key_mask, x.shape[1]))
    if flags is not None:
        flags["all_masked_rows"] = dead

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        _accumulate(scores, y * (g - inner))

    return _node(y, (scores,), backward)


def logsumexp(t, include=None):
    """log sum exp over the last axis of t, restricted to the entries include keeps.

    include (default: all) broadcasts against t, so it may hold one subset
    per row of a (B, L) tensor, or several subsets of each row when t carries
    a unit axis: t (B, 1, L) with include (B, R, L) gives a (B, R) result.
    A subset with no kept entry is an error.
    """
    x = t.data
    inc = np.ones(x.shape, dtype=bool) if include is None else np.asarray(include, dtype=bool)
    try:
        shape = np.broadcast_shapes(x.shape, inc.shape)
    except ValueError as err:
        raise ShapeError(f"include of shape {inc.shape} does not match {x.shape}") from err
    if x.ndim == 0 or not np.broadcast_to(inc, shape).any(axis=-1).all():
        raise ShapeError("logsumexp over an empty subset")
    xb = np.broadcast_to(x, shape)
    m = xb.max(axis=-1, keepdims=True, where=inc, initial=-np.inf)
    e = np.exp(xb - m, where=inc, out=np.zeros(shape, dtype=x.dtype))
    s = e.sum(axis=-1, keepdims=True)
    out_data = np.asarray((m + np.log(s))[..., 0], dtype=x.dtype)
    weights = e / s

    def backward(g):
        _accumulate(t, _unbroadcast(g[..., None] * weights, x.shape))

    return _node(out_data, (t,), backward)


def log_softmax_rows(t):
    """Log softmax over the last axis, stabilized with a detached row max."""
    m = Tensor(t.data.max(axis=-1, keepdims=True))
    z = sub(t, m)
    lse = log(tsum(exp(z), axis=-1, keepdims=True))
    return sub(z, lse)


def layer_norm(t, gamma, beta, eps=1e-5):
    """Per-row layer normalization over the last axis, as one node."""
    x = t.data
    if x.ndim not in (2, 3):
        raise ShapeError("layer_norm expects a rank-2 or rank-3 tensor")
    scale = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * scale
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * scale + eps)
    xhat = centered * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        _accumulate(beta, _unbroadcast(g, beta.data.shape))
        _accumulate(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        if t.requires_grad:
            gx = g * gamma.data
            mean_gx = gx.sum(axis=-1, keepdims=True) * scale
            mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) * scale
            _accumulate(t, inv * (gx - mean_gx - xhat * mean_gx_xhat))

    return _node(out_data, (t, gamma, beta), backward)


def dropout(t, p, rng=None, train=False):
    """Inverted dropout; identity outside training or at p == 0."""
    if not train or p <= 0.0:
        return t
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit RNG")
    keep = (rng.random(t.data.shape) >= p).astype(t.data.dtype) / (1.0 - p)
    return mul(t, Tensor(keep))


def conv1d(x, weight, bias=None):
    """Same-padding 1-D convolution over rows: (L, C_in) -> (L, C_out), per item of a (B, L, C_in) batch.

    weight has shape (kernel, C_in, C_out); kernel must be odd.
    """
    if weight.data.ndim != 3:
        raise ShapeError("conv1d weight must be rank-3 (kernel, C_in, C_out)")
    kernel, c_in, c_out = weight.data.shape
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != c_in:
        raise ShapeError(f"conv1d input shape {x.data.shape} does not match C_in={c_in}")
    unf = unfold1d(x, kernel)
    w2 = reshape(weight, (kernel * c_in, c_out))
    out = matmul(unf, w2)
    if bias is not None:
        out = add(out, bias)
    return out


def linear(x, weight, bias=None):
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


@dataclass
class MhaParams:
    """Projection parameters for one multi-head attention call."""
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def multi_head_attention(q, k, v, params, heads, key_mask=None, flags=None):
    """Scaled dot-product attention with input/output projections, as one node.

    q: (n_q, d), k/v: (n_k, d), with an (n_k,) key mask; or per item of a
    batch, q: (B, n_q, d), k/v: (B, n_k, d), with a (B, n_k) key mask. All
    heads run at once over (..., heads, n, d/heads) arrays. Masked keys are
    never exponentiated, so their scores cannot overflow. Queries whose keys
    are all masked produce exact zero output rows and receive zero gradient.
    With flags given, each call appends its (..., heads, n_q, n_k) weights to
    flags["attention_weights"] and its (..., n_q) dead-query mask to
    flags["all_keys_masked"].
    """
    qd, kd, vd = q.data, k.data, v.data
    lead = qd.shape[:-2]
    if qd.ndim not in (2, 3) or kd.ndim != qd.ndim or kd.shape[:-2] != lead:
        raise ShapeError("multi_head_attention expects (n, d) or (B, n, d) queries and keys "
                         "with the same leading axes")
    if kd.shape != vd.shape:
        raise ShapeError("key/value shapes differ")
    d = qd.shape[-1]
    if kd.shape[-1] != d:
        raise ShapeError(f"query width {d} != key width {kd.shape[-1]}")
    if d % heads != 0:
        raise ShapeError(f"model dim {d} not divisible by {heads} heads")
    if any(w.data.shape != (d, d) for w in (params.wq, params.wk, params.wv, params.wo)):
        raise ShapeError(f"attention projections must be ({d}, {d})")
    keep = keep_mask(key_mask, kd.shape[:-1])
    if lead:
        keep = keep[:, None, None, :]  # each item's keys, shared by its heads and queries
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    perm = (0, 2, 1, 3) if lead else (1, 0, 2)  # swaps the n and heads axes

    def split(x):  # (..., n, d) -> (..., heads, n, dh)
        return x.reshape(x.shape[:-1] + (heads, dh)).transpose(perm)

    def merge(x):  # (..., heads, n, dh) -> (..., n, d)
        return x.transpose(perm).reshape(lead + (-1, d))

    qh = split(qd @ params.wq.data + params.bq.data)
    kh = split(kd @ params.wk.data + params.bk.data)
    vh = split(vd @ params.wv.data + params.bv.data)
    attn, dead = _masked_softmax((qh @ kh.swapaxes(-1, -2)) * scale, keep)
    # a query row is dead when no key is kept: the same rows in every head
    dead = dead[:, 0] if lead else dead[0]
    merged = merge(attn @ vh)
    out_data = merged @ params.wo.data + params.bo.data
    live = None
    if dead.any():
        live = (~dead).astype(out_data.dtype)[..., None]
        out_data = out_data * live
    if flags is not None:
        flags.setdefault("attention_weights", []).append(attn.copy())
        flags.setdefault("all_keys_masked", []).append(dead)

    def project_back(x, w, b, g):
        """Gradients of x @ w + b given the output gradient g."""
        _accumulate(w, _rows(x.data).T @ _rows(g))
        _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)

    def backward(g):
        if live is not None:
            g = g * live
        _accumulate(params.wo, _rows(merged).T @ _rows(g))
        _accumulate(params.bo, _unbroadcast(g, params.bo.data.shape))
        g_out = split(g @ params.wo.data.T)
        g_attn = g_out @ vh.swapaxes(-1, -2)
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * scale
        project_back(q, params.wq, params.bq, merge(g_scores @ kh))
        project_back(k, params.wk, params.bk, merge(g_scores.swapaxes(-1, -2) @ qh))
        project_back(v, params.wv, params.bv, merge(attn.swapaxes(-1, -2) @ g_out))

    parents = (q, k, v, params.wq, params.bq, params.wk, params.bk,
               params.wv, params.bv, params.wo, params.bo)
    return _node(out_data, parents, backward)


# -- initialization ---------------------------------------------------------


def xavier_uniform(rng, shape, fan_in, fan_out, dtype=np.float64):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


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
