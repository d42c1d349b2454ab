import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import pointdiff
from conftest import grad_check
from pointdiff import engine as eg
from pointdiff import training
from pointdiff.engine import Tensor
from pointdiff.errors import InvalidArgument, ShapeError


@pytest.fixture(autouse=True)
def high_precision():
    with eg.precision(64):
        yield


def test_precision_switch():
    with eg.precision(32):
        assert eg.get_dtype() == np.float32
        assert Tensor(np.ones(3)).data.dtype == np.float32
    with eg.precision(64):
        assert eg.get_dtype() == np.float64
    with pytest.raises(InvalidArgument, match="precision must be 32 or 64"):
        with eg.precision(16):
            pass
    with pytest.raises(KeyError):
        with pointdiff.precision(32):
            raise KeyError
    assert eg.get_dtype() == np.float64  # restored on the way out of both blocks


def test_forward_values(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    assert np.allclose(eg.add(Tensor(a), Tensor(b)).data, a + b)
    assert np.allclose(eg.mul(Tensor(a), Tensor(b)).data, a * b)
    assert np.allclose(eg.sub(Tensor(a), Tensor(b)).data, a - b)
    assert np.allclose(eg.scale(Tensor(a), 2.5).data, 2.5 * a)
    assert np.allclose(eg.mean(Tensor(a)).data, a.mean())
    assert np.allclose(eg.sum_(Tensor(a), axis=1).data, a.sum(axis=1))
    sm = eg.softmax(Tensor(a)).data
    assert np.allclose(sm.sum(axis=-1), 1.0)


def test_matmul_variants(rng):
    a2 = rng.normal(size=(3, 4))
    b2 = rng.normal(size=(4, 5))
    assert np.allclose(eg.matmul(Tensor(a2), Tensor(b2)).data, a2 @ b2)
    a3 = rng.normal(size=(2, 3, 4))
    b3 = rng.normal(size=(2, 4, 5))
    assert np.allclose(eg.matmul(Tensor(a3), Tensor(b3)).data, a3 @ b3)
    # batched times shared
    assert np.allclose(eg.matmul(Tensor(a3), Tensor(b2)).data, a3 @ b2)


def test_gelu_is_erf_exact():
    x = np.linspace(-4, 4, 101)
    expected = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    assert np.allclose(eg.gelu(Tensor(x)).data, expected, atol=1e-12)


def test_layer_norm_moments(rng):
    x = rng.normal(size=(6, 16)) * 3 + 1
    y = eg.layer_norm(Tensor(x)).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_split_concat_round_trip(rng):
    x = rng.normal(size=(7, 3))
    a, b = eg.split(Tensor(x), [4, 3], axis=0)
    back = eg.concat([a, b], axis=0)
    assert np.array_equal(back.data, x)


def test_item_reads_any_one_element_tensor():
    t = Tensor(np.array([[3.0]]))
    loss = eg.sum_(eg.mul(t, t), axis=1)  # shape (1,): backward takes it
    assert loss.shape == (1,)
    assert loss.item() == 9.0
    assert eg.backward(loss, {"t": t})["t"].tolist() == [[6.0]]
    assert Tensor(np.full((1, 1, 1), -2.5)).item() == -2.5
    assert Tensor(1.5).item() == 1.5
    for shape in [(2,), (0,), (1, 3)]:
        with pytest.raises(ShapeError, match=rf"got shape \({shape[0]},"):
            Tensor(np.ones(shape)).item()


def test_backward_scalar_only():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(InvalidArgument):
        eg.backward(eg.scale(t, 2.0), {"t": t})


def test_backward_untouched_param_gets_zeros():
    used = Tensor(np.ones(3))
    unused = Tensor(np.ones(4))
    loss = eg.mean(eg.mul(used, used))
    grads = eg.backward(loss, {"used": used, "unused": unused})
    assert list(grads) == ["used", "unused"]
    assert np.allclose(grads["used"], 2.0 * np.ones(3) / 3.0)
    assert np.array_equal(grads["unused"], np.zeros(4))


def test_broadcast_add_grad(rng):
    # bias broadcast over the batch axis must accumulate, not broadcast back
    x = rng.normal(size=(5, 3))
    b = Tensor(rng.normal(size=3))
    loss = eg.sum_(eg.add(Tensor(x), b))
    grads = eg.backward(loss, {"b": b})
    assert np.allclose(grads["b"], 5.0 * np.ones(3))


PRIMITIVE_CASES = [
    ("add", lambda t, c: eg.sum_(eg.mul(eg.add(t, Tensor(c)), eg.add(t, Tensor(c)))), (3, 4)),
    ("neg", lambda t, c: eg.sum_(eg.mul(eg.neg(t), Tensor(c))), (3, 4)),
    ("mul", lambda t, c: eg.sum_(eg.mul(t, eg.mul(t, Tensor(c)))), (3, 4)),
    ("scale", lambda t, c: eg.sum_(eg.scale(eg.mul(t, t), -1.7)), (3, 4)),
    ("matmul2", lambda t, c: eg.sum_(eg.mul(eg.matmul(t, Tensor(c.T)), eg.matmul(t, Tensor(c.T)))), (3, 4)),
    ("reshape", lambda t, c: eg.sum_(eg.mul(eg.reshape(t, (4, 3)), eg.reshape(t, (4, 3)))), (3, 4)),
    ("transpose", lambda t, c: eg.sum_(eg.mul(eg.transpose(t, (1, 0)), Tensor(c.T))), (3, 4)),
    ("softmax", lambda t, c: eg.sum_(eg.mul(eg.softmax(t), Tensor(c))), (3, 4)),
    ("gelu", lambda t, c: eg.sum_(eg.mul(eg.gelu(t), Tensor(c))), (3, 4)),
    ("layer_norm", lambda t, c: eg.sum_(eg.mul(eg.layer_norm(t), Tensor(c))), (3, 4)),
    ("mean", lambda t, c: eg.mean(eg.mul(t, t)), (3, 4)),
    ("max_pool", lambda t, c: eg.sum_(eg.mul(eg.max_pool(t, axis=0), Tensor(c[0]))), (3, 4)),
]


@pytest.mark.parametrize("name,builder,shape", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_grad_check(name, builder, shape, rng):
    point = rng.normal(size=shape)
    coeff = rng.normal(size=shape)
    err = grad_check(lambda t: builder(t, coeff), Tensor(point))
    assert err < 1e-6, f"{name}: relative error {err}"


def test_concat_split_grad(rng):
    x = rng.normal(size=(6, 2))

    def f(t):
        a, b = eg.split(t, [2, 4], axis=0)
        joined = eg.concat([b, a], axis=0)
        return eg.sum_(eg.mul(joined, joined))

    assert grad_check(f, Tensor(x)) < 1e-6


def test_matmul_batched_grad(rng):
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 5))

    def f_x(t):
        return eg.sum_(eg.mul(eg.matmul(t, Tensor(w)), eg.matmul(t, Tensor(w))))

    def f_w(t):
        return eg.sum_(eg.mul(eg.matmul(Tensor(x), t), eg.matmul(Tensor(x), t)))

    assert grad_check(f_x, Tensor(x)) < 1e-6
    assert grad_check(f_w, Tensor(w)) < 1e-6


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        eg.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_adam_matches_reference(rng):
    # one step against a hand-computed bias-corrected Adam update
    theta0 = rng.normal(size=4)
    g = rng.normal(size=4)
    p = {"w": Tensor(theta0.copy())}
    state = eg.adam_init(p)
    eg.adam_step(p, {"w": g}, state, lr=0.1)
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expected = theta0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p["w"].data, expected, atol=1e-12)


def test_grad_accumulates_on_reuse():
    x = Tensor(np.array([2.0]))
    y = eg.add(eg.mul(x, x), eg.mul(x, x))  # 2x^2 -> dy/dx = 4x
    grads = eg.backward(eg.sum_(y), {"x": x})
    assert np.allclose(grads["x"], [8.0])


def test_no_grad_records_nothing_and_restores_on_exception():
    x = Tensor(np.array([2.0]))
    with eg.no_grad():
        y = eg.mul(x, x)
    assert y._parents == () and y._backward is None
    with pytest.raises(RuntimeError):
        with eg.no_grad():
            raise RuntimeError("inside")
    z = eg.mul(x, x)
    assert z._parents  # recording is back on after the exception
    grads = eg.backward(eg.sum_(z), {"x": x})
    assert np.allclose(grads["x"], [4.0])


def test_backward_frees_the_walked_graph(rng):
    w = Tensor(rng.normal(size=(4, 3)))
    x = Tensor(rng.normal(size=(5, 4)))

    def graph():
        hidden = eg.gelu(eg.matmul(x, w))
        # once this returns, the hidden value is held by the graph alone
        return eg.mean(eg.mul(hidden, hidden)), weakref.ref(hidden.data)

    loss, ref = graph()
    assert ref() is not None
    grads = eg.backward(loss, {"w": w})
    assert ref() is None  # freed by the walk while the caller holds ``loss``
    assert loss._parents == () and np.isfinite(loss.item())
    with pytest.raises(InvalidArgument, match="already walked"):
        eg.backward(loss, {"w": w})  # a second walk, not silent zeros
    with pytest.raises(InvalidArgument, match="already walked"):
        eg.backward(eg.add(eg.scale(loss, 2.0), eg.sum_(w)), {"w": w})
    # the leaves are untouched: a fresh graph over the same parameter
    assert np.array_equal(eg.backward(graph()[0], {"w": w})["w"], grads["w"])
    assert np.any(grads["w"])


# ---------------------------------------------------------------------------
# GELU and layer norm pinned bitwise to their plain expressions.  These are
# the rules as first written, kept verbatim: every fresh temporary and the
# trailing ``astype`` copies; the engine computes them in place.

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def reference_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    data = (x * cdf).astype(x.dtype)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return data, g * (cdf + x * pdf).astype(x.dtype)


def reference_layer_norm(x, g):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * xhat).mean(axis=-1, keepdims=True)
    return xhat.astype(x.dtype), inv_std * (g - gm - xhat * gx)


def assert_bitwise(got, want):
    """Equal dtype, shape and bits: unlike ``==``, tells -0 from +0 and
    compares NaNs."""
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = np.dtype(f"u{got.dtype.itemsize}")
    assert np.array_equal(np.atleast_1d(got).view(bits), np.atleast_1d(want).view(bits))


# ±0, and values where erf saturates to ±1 (|x| / √2 past 3.9 at 32 bit and
# 5.9 at 64 bit) or x * x overflows
_SPECIAL = np.array([0.0, -0.0, 6.0, -6.0, 9.0, -9.0, 40.0, -40.0, 1e20, -1e30])
_TOKEN_SHAPE = (8, 4, 32, 64)  # the acceptance config's per-point token layer

_shapes = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(1, 5), min_size=0, max_size=3).map(lambda s: (*s, 1)),
    st.just(_TOKEN_SHAPE),
)


@st.composite
def _rule_inputs(draw):
    """An input of rank 1-4 with magnitudes between 1e-30 and 1e30, some
    specials, maybe transposed (non-contiguous), and an incoming gradient."""
    shape = draw(_shapes)
    lo = draw(st.integers(-30, 30))
    hi = draw(st.integers(lo, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = math.prod(shape)
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(lo, hi, size)
    n_special = draw(st.integers(0, min(size, 6)))
    x[rng.choice(size, n_special, replace=False)] = rng.choice(_SPECIAL, n_special)
    if draw(st.booleans()):
        x = x.reshape(shape[::-1]).T
    else:
        x = x.reshape(shape)
    g = rng.normal(size=shape) * 10.0 ** draw(st.integers(-3, 3))
    return x, g


@settings(max_examples=80, deadline=None)
@given(inputs=_rule_inputs(), bits=st.sampled_from([32, 64]))
def test_gelu_and_layer_norm_are_bitwise_their_plain_expressions(inputs, bits):
    x, g = inputs
    with eg.precision(bits), np.errstate(all="ignore"):
        t = Tensor(x)
        g = g.astype(t.data.dtype)
        for rule, reference in ((eg.gelu, reference_gelu), (eg.layer_norm, reference_layer_norm)):
            out = rule(t)
            [(parent, grad)] = out._backward(g)
            want_out, want_grad = reference(t.data, g)
            assert parent is t
            assert_bitwise(out.data, want_out)
            assert_bitwise(grad, want_grad)


def test_gelu_gradient_promotes_like_its_plain_expression(rng):
    # a float32 node reached by a float64 gradient, as when a 32-bit graph
    # uses a 64-bit parameter: numpy's promotion, as in ``g * (...)``
    with eg.precision(32):
        t = Tensor(rng.normal(size=(3, 4)))
    g = rng.normal(size=(3, 4))
    [(_, grad)] = eg.gelu(t)._backward(g)
    assert_bitwise(grad, reference_gelu(t.data, g)[1])
    assert grad.dtype == np.float64


# ---------------------------------------------------------------------------
# the read-only contract: a rule writes only into arrays it allocated

WRITE_CASES = PRIMITIVE_CASES + [
    ("chamfer_loss", lambda t, c: training.chamfer_loss(t, list(c)), (2, 5, 3)),
]


def _recorded_nodes(loss):
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("name,builder,shape", WRITE_CASES, ids=[c[0] for c in WRITE_CASES])
def test_no_rule_writes_outside_what_it_allocated(name, builder, shape, rng):
    point, coeff = rng.normal(size=shape), rng.normal(size=shape)
    inputs = [(point, point.copy()), (coeff, coeff.copy())]
    nodes = _recorded_nodes(builder(Tensor(point), coeff))
    values = [(node.data, node.data.copy()) for node in nodes]
    for array, snapshot in inputs:
        assert_bitwise(array, snapshot)  # the forward pass wrote into no input
    for node in nodes:
        if node._backward is None:
            continue
        # one incoming gradient handed to the rule twice, as ``add`` hands
        # one array to both its parents' rules
        g = np.asarray(rng.normal(size=node.shape), dtype=node.data.dtype)
        g_snapshot = g.copy()
        first = [pg.copy() for _, pg in node._backward(g)]
        second = [pg for _, pg in node._backward(g)]
        assert_bitwise(g, g_snapshot)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert_bitwise(b, a)
    for array, snapshot in values + inputs:
        assert_bitwise(array, snapshot)
