import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdl.errors import ConfigInvalid, TimestepOutOfRange
from jdl.schedule import make_linear_schedule, q_sample


def brute_force_alpha_bar(T, beta_start, beta_end):
    # independent oracle: plain python product over the linear betas
    if T == 1:
        betas = [beta_start]
    else:
        betas = [beta_start + (beta_end - beta_start) * i / (T - 1) for i in range(T)]
    prod, out = 1.0, []
    for b in betas:
        prod *= (1.0 - b)
        out.append(prod)
    return np.asarray(out)


def test_single_step_schedule():
    s = make_linear_schedule(1, 0.5, 0.5)
    assert np.allclose(s.alpha_bars[1:], [0.5])


def test_two_step_by_hand():
    s = make_linear_schedule(2, 0.1, 0.3)
    assert np.allclose(s.alpha_bars[1:], [0.9, 0.9 * 0.7])


def test_default_t200_against_product_oracle():
    s = make_linear_schedule(200, 1e-4, 0.02)
    oracle = brute_force_alpha_bar(200, 1e-4, 0.02)
    assert np.allclose(s.alpha_bars[1:], oracle, rtol=0, atol=1e-15)
    # frozen value from the oracle, run once up front
    assert s.alpha_bars[200] == pytest.approx(oracle[-1])
    assert 0.0 < s.alpha_bars[200] < 1.0


def test_invariants_hold():
    s = make_linear_schedule(50, 1e-3, 0.1)
    betas = np.linspace(1e-3, 0.1, 50)
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert s.alpha_bars[0] == 1.0
    # exact recurrence abar_t = abar_{t-1} * (1 - beta_t)
    assert np.array_equal(s.alpha_bars[1:], s.alpha_bars[:-1] * (1.0 - betas))


def test_rejects_bad_ranges():
    with pytest.raises(ConfigInvalid):
        make_linear_schedule(0, 1e-4, 0.02)
    with pytest.raises(ConfigInvalid):
        make_linear_schedule(10, 0.3, 0.1)
    with pytest.raises(ConfigInvalid):
        make_linear_schedule(10, 0.0, 0.1)
    # a fractional or NaN T used to raise a bare TypeError, and True gave T = True
    for T in (10.5, float("nan"), True):
        with pytest.raises(ConfigInvalid):
            make_linear_schedule(T, 1e-4, 0.02)


def test_q_sample_zero_signal():
    s = make_linear_schedule(10, 1e-3, 0.1)
    eps = np.random.default_rng(1).standard_normal((4, 1, 8, 8))
    zt = q_sample(np.zeros_like(eps), 5, eps, s)
    assert np.allclose(zt, np.sqrt(1 - s.alpha_bars[5]) * eps)


def test_q_sample_zero_noise():
    s = make_linear_schedule(10, 1e-3, 0.1)
    z0 = np.random.default_rng(2).standard_normal((4, 1, 8, 8))
    zt = q_sample(z0, 5, np.zeros_like(z0), s)
    assert np.allclose(zt, np.sqrt(s.alpha_bars[5]) * z0)


def test_q_sample_hand_value_from_two_step_schedule():
    s = make_linear_schedule(2, 0.1, 0.3)  # abar_2 = 0.63
    zt = q_sample(np.ones((1, 1, 1, 1)), 2, np.ones((1, 1, 1, 1)), s)
    assert zt[0, 0, 0, 0] == pytest.approx(np.sqrt(0.63) + np.sqrt(0.37))
    assert zt[0, 0, 0, 0] == pytest.approx(1.4021, abs=1e-4)


def test_q_sample_per_item_timesteps():
    s = make_linear_schedule(20, 1e-3, 0.1)
    z0 = np.ones((3, 1, 2, 2))
    eps = np.zeros_like(z0)
    zt = q_sample(z0, np.array([1, 10, 20]), eps, s)
    for i, t in enumerate([1, 10, 20]):
        assert np.allclose(zt[i], np.sqrt(s.alpha_bars[t]))


def test_q_sample_rejects_out_of_range():
    s = make_linear_schedule(10, 1e-3, 0.1)
    z = np.zeros((1, 1, 2, 2))
    with pytest.raises(TimestepOutOfRange):
        q_sample(z, 0, z, s)
    with pytest.raises(TimestepOutOfRange):
        q_sample(z, 11, z, s)


def test_q_sample_rejects_malformed_t():
    s = make_linear_schedule(10, 1e-3, 0.1)
    z = np.zeros((2, 1, 2, 2))
    for t in (np.array([[1], [2]]), 2.5, np.array([1.0, 2.0]), True):
        with pytest.raises(TimestepOutOfRange):
            q_sample(z, t, z, s)


def test_q_sample_mean_converges():
    # E[z_t] -> sqrt(abar) z0 within 3 sigma of the Monte-Carlo error
    s = make_linear_schedule(10, 1e-3, 0.1)
    rng = np.random.default_rng(3)
    z0 = np.full((1, 1, 4, 4), 0.7)
    n = 4000
    acc = np.zeros_like(z0)
    for _ in range(n):
        acc += q_sample(z0, 5, rng.standard_normal(z0.shape), s)
    m = acc / n
    sd = np.sqrt(1 - s.alpha_bars[5]) / np.sqrt(n)
    assert np.all(np.abs(m - np.sqrt(s.alpha_bars[5]) * z0) < 3 * sd + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_q_sample_algebraic_inverse(t_frac, seed):
    s = make_linear_schedule(30, 1e-3, 0.1)
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((2, 1, 3, 3))
    eps = rng.standard_normal((2, 1, 3, 3))
    t = t_frac
    zt = q_sample(z0, t, eps, s)
    eps_hat = (zt - np.sqrt(s.alpha_bars[t]) * z0) / np.sqrt(1 - s.alpha_bars[t])
    assert np.allclose(eps_hat, eps, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_q_sample_linear_in_both_arguments(seed):
    s = make_linear_schedule(10, 1e-3, 0.1)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, 1, 2, 2))
    b = rng.standard_normal((1, 1, 2, 2))
    e = rng.standard_normal((1, 1, 2, 2))
    lhs = q_sample(a + b, 4, e, s) + q_sample(np.zeros_like(a), 4, e, s)
    rhs = q_sample(a, 4, e, s) + q_sample(b, 4, e, s)
    assert np.allclose(lhs, rhs, atol=1e-12)
