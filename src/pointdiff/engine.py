"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors wrap numpy arrays in the active precision: 32- or 64-bit, set by the
POINTDIFF_PRECISION environment variable at import and switched for a block
by ``precision(bits)``.
Every primitive records a backward rule, except inside ``no_grad()``;
``backward`` walks the recorded graph in reverse topological order and
returns the gradients of the tensors it is asked for.
Broadcasting is the usual numpy kind restricted in practice to leading batch
dimensions; gradients are summed back over broadcast axes.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import InvalidArgument, ShapeError

_DTYPES = {32: np.float32, 64: np.float64}
_precision_bits = int(os.environ.get("POINTDIFF_PRECISION", "64"))
if _precision_bits not in _DTYPES:
    raise InvalidArgument(f"POINTDIFF_PRECISION must be 32 or 64, got {_precision_bits}")


def get_precision():
    return _precision_bits


def get_dtype():
    return _DTYPES[_precision_bits]


@contextmanager
def precision(bits):
    """Compute in ``bits`` (32 or 64) inside the block, then restore the
    previous width."""
    global _precision_bits
    if bits not in _DTYPES:
        raise InvalidArgument(f"precision must be 32 or 64, got {bits}")
    prev, _precision_bits = _precision_bits, bits
    try:
        yield
    finally:
        _precision_bits = prev


class Tensor:
    """A node in the computation graph; ``data`` is a numpy array in the
    active dtype."""

    __slots__ = ("data", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=get_dtype())
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph inside the block: every primitive returns a plain
    tensor.  The previous state is restored on exit, also when the block
    raises."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward_fn):
    if _grad_enabled:
        return Tensor(data, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError.mismatch("add", a.shape, b.shape)

    def bwd(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape))]

    return _make(data, (a, b), bwd)


def neg(a):
    a = as_tensor(a)

    def bwd(g):
        return [(a, -g)]

    return _make(-a.data, (a,), bwd)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError.mismatch("mul", a.shape, b.shape)

    def bwd(g):
        return [
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        ]

    return _make(data, (a, b), bwd)


def scale(a, s):
    """Multiply by a python scalar (kept out of the graph)."""
    a = as_tensor(a)
    s = get_dtype()(s)

    def bwd(g):
        return [(a, g * s)]

    return _make(a.data * s, (a,), bwd)


def matmul(a, b):
    """2-D x 2-D, batched 3-D x 3-D, or batched 3-D x shared 2-D product."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError.mismatch("matmul", a.shape, b.shape)
    if a.data.ndim == 3 and b.data.ndim == 3 and a.data.shape[0] != b.data.shape[0]:
        raise ShapeError.mismatch("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        if b.data.ndim == 2 and a.data.ndim > 2:
            k, m = b.data.shape
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return [(a, ga.reshape(a.data.shape)), (b, gb.reshape(b.data.shape))]

    return _make(data, (a, b), bwd)


def reshape(a, shape):
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def bwd(g):
        return [(a, g.reshape(a.data.shape))]

    return _make(data, (a,), bwd)


def transpose(a, axes):
    a = as_tensor(a)
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def bwd(g):
        return [(a, g.transpose(inverse))]

    return _make(data, (a,), bwd)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            out.append((t, g[tuple(index)]))
        return out

    return _make(data, tuple(tensors), bwd)


def split(a, sizes, axis=0):
    """Split into consecutive chunks of the given sizes along ``axis``."""
    a = as_tensor(a)
    if sum(sizes) != a.data.shape[axis]:
        raise ShapeError(f"split: sizes {sizes} do not cover axis of length {a.data.shape[axis]}")
    offsets = np.cumsum([0] + list(sizes))
    pieces = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        index = [slice(None)] * a.data.ndim
        index[axis] = slice(lo, hi)
        index = tuple(index)

        def bwd(g, index=index):
            full = np.zeros_like(a.data)
            full[index] = g
            return [(a, full)]

        pieces.append(_make(a.data[index], (a,), bwd))
    return pieces


def sum_(a, axis=None):
    a = as_tensor(a)
    data = a.data.sum(axis=axis)

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg, a.data.shape).copy())]

    return _make(data, (a,), bwd)


def mean(a):
    """Mean over every entry."""
    a = as_tensor(a)
    return scale(sum_(a), 1.0 / a.data.size)


def softmax(a):
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return [(a, (g - dot) * data)]

    return _make(data, (a,), bwd)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a):
    """Exact (erf-based) GELU."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    data = (x * cdf).astype(x.dtype)

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return [(a, g * (cdf + x * pdf).astype(x.dtype))]

    return _make(data, (a,), bwd)


def layer_norm(a):
    """Normalize to zero mean / unit variance along the last axis (no affine,
    eps 1e-5)."""
    a = as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return [(a, inv_std * (g - gm - xhat * gx))]

    return _make(xhat.astype(a.data.dtype), (a,), bwd)


def max_pool(a, axis):
    """Max over one axis; gradient routes to the first arg-max entry."""
    a = as_tensor(a)
    data = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return [(a, full)]

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss, params):
    """Back-propagate from a scalar ``loss``; returns a name->gradient dict
    for the ``params`` (a name->Tensor mapping), with zeros for any tensor
    the loss never reached."""
    loss = as_tensor(loss)
    if loss.data.size != 1:
        raise InvalidArgument(f"backward expects a scalar loss, got shape {loss.shape}")

    topo, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    wanted = {id(t) for t in params.values()}
    reached = {}
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in wanted:
            reached[id(node)] = g
        if node._backward is not None:
            for parent, pg in node._backward(g):
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    return {name: reached[id(t)] if id(t) in reached else np.zeros_like(t.data)
            for name, t in params.items()}


# ---------------------------------------------------------------------------
# optimizer


def adam_init(params):
    return {
        "step": 0,
        "m": {k: np.zeros_like(v.data) for k, v in params.items()},
        "v": {k: np.zeros_like(v.data) for k, v in params.items()},
    }


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, state, lr):
    """One Adam update with bias correction (betas 0.9 and 0.999, eps 1e-8);
    mutates params and state."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
