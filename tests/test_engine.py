import numpy as np
import pytest

import pointdiff
from conftest import grad_check
from pointdiff import engine as eg
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
    from scipy.special import erf

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
