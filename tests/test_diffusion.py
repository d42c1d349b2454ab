import numpy as np
import pytest

from pointdiff.diffusion import (
    RESIDUAL_SIGMA,
    RESIDUAL_SQRT_SIGMA,
    build_schedule,
    q_sample,
    reverse_step,
    sample,
)
from pointdiff.errors import InvalidArgument, NonFiniteSample, PointdiffError


def test_schedule_endpoints_and_shapes():
    s = build_schedule(200)
    assert s.T == 200
    assert s.beta[0] == 1e-4
    assert s.beta[-1] == 0.05
    assert s.beta.shape == (200,)
    assert np.all(np.diff(s.beta) > 0)


def test_alpha_bar_strictly_decreasing():
    s = build_schedule(200)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[0] == 1.0 - 1e-4
    # sigma_t = 1 - alpha_bar_t in this paper's convention
    assert np.allclose(s.sigma, 1.0 - s.alpha_bar)
    # shifted product, anchored at 1 for t=0
    assert s.alpha_bar_prev[0] == 1.0
    assert np.array_equal(s.alpha_bar_prev[1:], s.alpha_bar[:-1])


def test_schedule_validation():
    with pytest.raises(InvalidArgument):
        build_schedule(0)
    with pytest.raises(InvalidArgument):
        build_schedule(10, beta_start=0.5, beta_end=0.1)


def test_q_sample_closed_form(rng):
    s = build_schedule(50)
    x0 = rng.normal(size=(20, 3))
    eps = rng.normal(size=(20, 3))
    t = 17
    expected = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1.0 - s.alpha_bar[t]) * eps
    assert np.allclose(q_sample(x0, t, eps, s), expected, atol=1e-15)


def test_q_sample_t_bounds(rng):
    s = build_schedule(10)
    x0 = rng.normal(size=(4, 3))
    eps = np.zeros_like(x0)
    with pytest.raises(InvalidArgument):
        q_sample(x0, 10, eps, s)
    with pytest.raises(InvalidArgument):
        q_sample(x0, -1, eps, s)


def test_reverse_step_t0_collapses_to_prediction(rng):
    s = build_schedule(50)
    x_t = rng.normal(size=(8, 3))
    x_rec = rng.normal(size=(8, 3))
    for residual in (RESIDUAL_SQRT_SIGMA, RESIDUAL_SIGMA):
        out = reverse_step(x_t, 0, x_rec, s, residual=residual)
        assert np.allclose(out, x_rec, atol=1e-12)


def test_reverse_step_mean_formula(rng):
    s = build_schedule(50)
    t = 30
    x_t = rng.normal(size=(8, 3))
    x_rec = rng.normal(size=(8, 3))
    a_t, ab_t, ab_prev = s.alpha[t], s.alpha_bar[t], s.alpha_bar_prev[t]
    mean = (
        np.sqrt(a_t) * (1 - ab_prev) / (1 - ab_t) * x_t
        + np.sqrt(ab_prev) * s.beta[t] / (1 - ab_t) * x_rec
    )
    out = reverse_step(x_t, t, x_rec, s, residual=RESIDUAL_SQRT_SIGMA)
    # the deterministic residual adds sqrt(sigma_t) * x_rec on top of the mean
    assert np.allclose(out - mean, np.sqrt(s.sigma[t]) * x_rec, atol=1e-12)

    out2 = reverse_step(x_t, t, x_rec, s, residual=RESIDUAL_SIGMA)
    assert np.allclose(out2 - mean, s.sigma[t] * x_rec, atol=1e-12)


def test_reverse_step_rejects_unknown_residual(rng):
    s = build_schedule(10)
    x = rng.normal(size=(2, 3))
    with pytest.raises(InvalidArgument):
        reverse_step(x, 1, x, s, residual="noise")


@pytest.mark.parametrize("T", [1, 10, 50])
@pytest.mark.parametrize("residual", [RESIDUAL_SQRT_SIGMA, RESIDUAL_SIGMA])
def test_perfect_denoiser_fixpoint(T, residual, rng):
    """An oracle decoder that always returns x0 must recover x0 exactly."""
    s = build_schedule(T)
    x0 = rng.normal(size=(32, 3))
    out = sample(lambda x_t, t: x0, 32, s, rng_seed=5, residual=residual)
    assert np.max(np.abs(out - x0)) < 1e-6


def test_sample_deterministic_and_traced():
    s = build_schedule(20)
    a = sample(lambda x, t: np.zeros_like(x), 16, s, rng_seed=3)
    steps = []
    b = sample(lambda x, t: np.zeros_like(x), 16, s, rng_seed=3,
               on_step=lambda t, x: steps.append((t, x.copy())))
    assert np.array_equal(a, b)
    assert [t for t, _ in steps] == list(range(19, -1, -1))
    assert np.array_equal(steps[-1][1], b)


def test_sample_rejects_wrong_decoder_shape():
    from pointdiff.errors import ShapeError

    s = build_schedule(5)
    with pytest.raises(ShapeError):
        sample(lambda x, t: np.zeros((3, 3)), 16, s)


@pytest.mark.parametrize("bad_t, value", [(3, np.nan), (0, np.inf), (5, -np.inf)])
def test_sample_names_the_first_non_finite_step(bad_t, value):
    schedule = build_schedule(6)
    calls = []

    def decoder(x, t):
        calls.append(t)
        return np.full_like(x, value) if t <= bad_t else np.zeros_like(x)

    with pytest.raises(NonFiniteSample, match=f"decoder prediction at step t={bad_t}$"):
        sample(decoder, 10, schedule, rng_seed=1, on_step=lambda t, x: calls.append(("step", t)))
    # the chain stops at that step, before handing its state on
    assert calls[-1] == bad_t and ("step", bad_t) not in calls
    assert issubclass(NonFiniteSample, PointdiffError)


def test_sample_reports_a_state_that_overflows():
    # the largest finite prediction: x_3 stays finite, and x_2, which adds a
    # second near-maximal term to it, overflows
    schedule = build_schedule(4)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteSample,
                                                   match="new state at step t=2$"):
        sample(lambda x, t: np.full_like(x, np.finfo(np.float64).max), 5, schedule)
