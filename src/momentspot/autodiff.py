"""Dense tensors with reverse-mode automatic differentiation on numpy.

Scope is deliberately small: ranks 0..3, float32/float64, explicit gradient
accumulation, no higher-order derivatives. Every operation used by the model
lives here so the whole network can be gradient-checked against central
differences with no framework in the loop.
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


def sigmoid(t):
    out_data = np.where(t.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(t.data))),
                        np.exp(-np.abs(t.data)) / (1.0 + np.exp(-np.abs(t.data))))
    out_data = out_data.astype(t.data.dtype, copy=False)

    def backward(g):
        _accumulate(t, g * out_data * (1.0 - out_data))

    return _node(out_data, (t,), backward)


def square(t):
    return mul(t, t)


# -- shape / structure ----------------------------------------------------


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def transpose(t):
    if t.data.ndim != 2:
        raise ShapeError("transpose expects a rank-2 tensor")
    out_data = t.data.T

    def backward(g):
        _accumulate(t, g.T)

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
    out-of-range rows are zeros. Requires an odd kernel.
    """
    if t.data.ndim != 2:
        raise ShapeError("unfold1d expects a rank-2 tensor")
    if kernel % 2 != 1:
        raise ShapeError("unfold1d requires an odd kernel")
    length, ch = t.data.shape
    pad = (kernel - 1) // 2
    padded = np.zeros((length + 2 * pad, ch), dtype=t.data.dtype)
    padded[pad:pad + length] = t.data
    out_data = np.concatenate([padded[j:j + length] for j in range(kernel)], axis=1)

    def backward(g):
        gp = np.zeros_like(padded)
        for j in range(kernel):
            gp[j:j + length] += g[:, j * ch:(j + 1) * ch]
        _accumulate(t, gp[pad:pad + length])

    return _node(out_data, (t,), backward)


# -- masks ------------------------------------------------------------------


def keep_mask(mask, n):
    """Boolean keep vector of length n; None keeps all."""
    keep = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if keep.shape != (n,):
        raise ShapeError(f"mask of shape {keep.shape} does not match length {n}")
    return keep


def mask_rows(t, mask=None):
    """Zero the rows (axis-0 entries) of t whose mask entry is False."""
    keep = keep_mask(mask, t.data.shape[0]).astype(t.data.dtype)
    keep = keep.reshape(keep.shape + (1,) * (t.data.ndim - 1))

    def backward(g):
        _accumulate(t, g * keep)

    return _node(t.data * keep, (t,), backward)


# -- normalization / attention pieces --------------------------------------


def softmax_masked(scores, key_mask=None, flags=None):
    """Row softmax over the last axis with an optional boolean key mask.

    Masked columns contribute exactly zero. A row whose keys are all masked
    yields an all-zero row (flagged via flags["all_masked_rows"]), never NaN.
    """
    x = scores.data
    if x.ndim != 2:
        raise ShapeError("softmax_masked expects rank-2 scores")
    km = keep_mask(key_mask, x.shape[1])
    m = x.max(axis=1, keepdims=True, where=km, initial=-np.inf)
    # masked columns are never exponentiated, so they cannot overflow
    e = np.exp(x - m, where=km, out=np.zeros_like(x))
    denom = e.sum(axis=1, keepdims=True)
    dead = denom[:, 0] == 0.0
    safe = np.where(denom == 0.0, 1.0, denom)
    y = (e / safe).astype(x.dtype, copy=False)
    if flags is not None:
        flags["all_masked_rows"] = dead.copy()

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        _accumulate(scores, y * (g - inner))

    return _node(y, (scores,), backward)


def logsumexp(t, include=None):
    """log sum exp of a rank-1 tensor over an optional boolean subset."""
    x = t.data
    if x.ndim != 1:
        raise ShapeError("logsumexp expects a rank-1 tensor")
    inc = keep_mask(include, x.shape[0])
    if not inc.any():
        raise ShapeError("logsumexp over an empty subset")
    m = x[inc].max()
    e = np.exp(x - m) * inc
    s = e.sum()
    out_data = np.asarray(m + np.log(s), dtype=x.dtype)
    weights = e / s

    def backward(g):
        _accumulate(t, g * weights)

    return _node(out_data, (t,), backward)


def log_softmax_rows(t):
    """Row-wise log softmax, stabilized with a detached row max."""
    m = Tensor(t.data.max(axis=1, keepdims=True))
    z = sub(t, m)
    lse = log(tsum(exp(z), axis=1, keepdims=True))
    return sub(z, lse)


def layer_norm(t, gamma, beta, eps=1e-5):
    """Per-row layer normalization over the last axis."""
    if t.data.ndim != 2:
        raise ShapeError("layer_norm expects a rank-2 tensor")
    mu = tmean(t, axis=1, keepdims=True)
    centered = sub(t, mu)
    var = tmean(square(centered), axis=1, keepdims=True)
    inv = div(as_tensor(1.0, like=t), sqrt(add(var, eps)))
    return add(mul(mul(centered, inv), gamma), beta)


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
    """Same-padding 1-D convolution over rows: (L, C_in) -> (L, C_out).

    weight has shape (kernel, C_in, C_out); kernel must be odd.
    """
    if weight.data.ndim != 3:
        raise ShapeError("conv1d weight must be rank-3 (kernel, C_in, C_out)")
    kernel, c_in, c_out = weight.data.shape
    if x.data.ndim != 2 or x.data.shape[1] != c_in:
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
    """Scaled dot-product attention with input/output projections.

    q: (n_q, d), k/v: (n_k, d). Queries whose keys are all masked produce
    exact zero output rows and are reported via flags["all_keys_masked"].
    """
    d = q.data.shape[1]
    if d % heads != 0:
        raise ShapeError(f"model dim {d} not divisible by {heads} heads")
    if k.data.shape != v.data.shape:
        raise ShapeError("key/value shapes differ")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    qp = linear(q, params.wq, params.bq)
    kp = linear(k, params.wk, params.bk)
    vp = linear(v, params.wv, params.bv)
    outs = []
    weight_rows = []
    dead_rows = None
    for h in range(heads):
        qh = narrow(qp, 1, h * dh, dh)
        kh = narrow(kp, 1, h * dh, dh)
        vh = narrow(vp, 1, h * dh, dh)
        scores = mul(matmul(qh, transpose(kh)), scale)
        local = {}
        attn = softmax_masked(scores, key_mask=key_mask, flags=local)
        dead_rows = local["all_masked_rows"]
        weight_rows.append(attn.data)
        outs.append(matmul(attn, vh))
    merged = concat(outs, axis=1)
    out = linear(merged, params.wo, params.bo)
    if dead_rows.any():
        out = mask_rows(out, ~dead_rows)
    if flags is not None:
        flags["all_keys_masked"] = dead_rows
        flags["attention_weights"] = np.stack(weight_rows, axis=0)
    return out


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
