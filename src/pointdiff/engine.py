"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors wrap numpy arrays in the active precision (32- or 64-bit, selectable
via ``set_precision`` or the POINTDIFF_PRECISION environment variable).
Every primitive records a backward rule, except inside ``no_grad()``;
``backward`` walks the recorded graph in reverse topological order.
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


def set_precision(bits):
    """Select the global floating-point width (32 or 64)."""
    global _precision_bits
    if bits not in _DTYPES:
        raise InvalidArgument(f"precision must be 32 or 64, got {bits}")
    _precision_bits = bits


def get_precision():
    return _precision_bits


def get_dtype():
    return _DTYPES[_precision_bits]


@contextmanager
def precision(bits):
    """Temporarily switch precision (used by gradient-check suites)."""
    prev = _precision_bits
    set_precision(bits)
    try:
        yield
    finally:
        set_precision(prev)


class Tensor:
    """A node in the computation graph.

    ``data`` is a numpy array in the active dtype.  ``grad`` is populated by
    ``backward`` for tensors with ``requires_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=None):
        self.data = np.asarray(data, dtype=get_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; everything routes through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def assert_finite(t, context=""):
    if not np.all(np.isfinite(t.data)):
        raise InvalidArgument(f"non-finite values encountered {context}".strip())
    return t


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
    tensor, as if no input required a gradient.  The previous state is
    restored on exit, also when the block raises."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward_fn):
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
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


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.data.shape).copy())]
        gg = g if keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg, a.data.shape).copy())]

    return _make(data, (a,), bwd)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
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


def layer_norm(a, axis=-1, eps=1e-5):
    """Normalize to zero mean / unit variance along ``axis`` (no affine)."""
    a = as_tensor(a)
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def bwd(g):
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        return [(a, inv_std * (g - gm - xhat * gx))]

    return _make(xhat.astype(a.data.dtype), (a,), bwd)


def embedding_lookup(table, indices):
    """Gather rows of ``table`` (first axis) at integer ``indices``."""
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= table.data.shape[0]):
        raise InvalidArgument("embedding_lookup: index out of range")
    data = table.data[indices]

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, indices, g)
        return [(table, full)]

    return _make(data, (table,), bwd)


def max_pool(a, axis):
    """Max over one axis; gradient routes to the first arg-max entry."""
    a = as_tensor(a)
    data = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)

    def bwd(g):
        full = np.zeros_like(a.data)
        grid = np.indices(data.shape)
        index = list(grid)
        index.insert(axis if axis >= 0 else a.data.ndim + axis, idx)
        full[tuple(index)] = g
        return [(a, full)]

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss, params=None):
    """Back-propagate from a scalar ``loss``.

    Populates ``.grad`` on every ``requires_grad`` tensor reachable from the
    loss.  When ``params`` (a name->Tensor mapping) is given, returns a
    name->gradient dict with zeros for parameters the loss never touched.
    """
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

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is not None:
            for parent, pg in node._backward(g):
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    if params is not None:
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in params.items()
        }
    return None


def zero_grads(params):
    for t in params.values():
        t.grad = None


def grad_check(f, point, h=None, atol=0.0):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor.  Runs in the active precision;
    call under ``precision(64)`` for meaningful results.  Entries whose
    absolute analytic/numeric discrepancy is at most ``atol`` are ignored —
    structurally-zero gradients (e.g. parameters a softmax is invariant to)
    leave only rounding noise, where a relative error is meaningless.
    """
    point = as_tensor(point)
    probe = Tensor(point.data.copy(), requires_grad=True)
    loss = f(probe)
    backward(loss)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = point.data.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        step = h if h is not None else 1e-5 * (1.0 + abs(flat[i]))
        for sign in (+1.0, -1.0):
            shifted = flat.copy()
            shifted[i] += sign * step
            val = f(Tensor(shifted.reshape(point.data.shape))).item()
            numeric[i] += sign * val / (2.0 * step)
    numeric = numeric.reshape(point.data.shape)

    gap = np.abs(analytic - numeric)
    rel = gap / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(np.max(np.where(gap <= atol, 0.0, rel)))


# ---------------------------------------------------------------------------
# optimizer


def adam_init(params):
    return {
        "step": 0,
        "m": {k: np.zeros_like(v.data) for k, v in params.items()},
        "v": {k: np.zeros_like(v.data) for k, v in params.items()},
    }


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update with bias correction; mutates params and state."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
