import numpy as np
import pytest

from jdl.errors import BadClassIndex, BadSubsequence
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.sampling import (GuidanceConfig, GuidanceStats, SamplerConfig,
                          ddim_sample, ddim_subsequence, ddpm_reverse_from,
                          ddpm_sample, guided_epsilon)
from jdl.schedule import make_linear_schedule

CFG = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=8,
                 time_embed_dim=8, classifier_hidden=16)


class ConstantTargetDenoiser:
    """Analytic oracle: eps_hat such that the posterior collapses to c."""

    def __init__(self, c: np.ndarray, sched):
        self.c = c
        self.sched = sched
        self.calls = []

    def predict_noise(self, z, t):
        self.calls.append(int(t))
        abar = self.sched.alpha_bar(t)
        return (z - np.sqrt(abar) * self.c) / np.sqrt(1.0 - abar)


@pytest.fixture(scope="module")
def model():
    m = JointModel.build(CFG, seed=3)
    r = np.random.default_rng(0)
    # non-degenerate heads so guidance actually produces gradients
    m.params["dec.out.w"].data = 0.05 * r.standard_normal(m.params["dec.out.w"].shape)
    m.params["cls.fc2.w"].data = 0.3 * r.standard_normal(m.params["cls.fc2.w"].shape)
    return m


@pytest.fixture(scope="module")
def sched():
    return make_linear_schedule(20, 1e-3, 0.1)


def test_guided_epsilon_scale_zero_bitwise(model, sched):
    z = np.random.default_rng(1).standard_normal((2, 1, 8, 8))
    base = model.predict_noise(z, 5)
    for g in (GuidanceConfig(direction="none"),
              GuidanceConfig(direction="toward", target_class=1, scale=0.0)):
        assert np.array_equal(guided_epsilon(model, z, 5, g, sched), base)


def test_guided_epsilon_moves_prediction(model, sched):
    z = np.random.default_rng(2).standard_normal((2, 1, 8, 8))
    g = GuidanceConfig(direction="toward", target_class=0, scale=50.0)
    adjusted = guided_epsilon(model, z, 5, g, sched)
    assert not np.array_equal(adjusted, model.predict_noise(z, 5))


def test_guidance_direction_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(direction="sideways")


def test_guidance_rejects_negative_class_at_construction():
    # checked once up front, even when the scale means no step would use it
    with pytest.raises(BadClassIndex):
        GuidanceConfig(direction="toward", target_class=-1, scale=0.0)


def test_ddpm_guidance_zero_equivalence(model, sched):
    none = ddpm_sample(model, 2, GuidanceConfig(direction="none"), sched,
                       stream(9, "s"))
    zero = ddpm_sample(model, 2, GuidanceConfig(direction="toward", scale=0.0),
                       sched, stream(9, "s"))
    assert np.array_equal(none, zero)


def test_ddim_guidance_zero_equivalence(model, sched):
    cfg = SamplerConfig(kind="ddim", ddim_steps=7)
    none = ddim_sample(model, 2, GuidanceConfig(direction="none"), cfg, sched,
                       stream(10, "s"))
    zero = ddim_sample(model, 2, GuidanceConfig(direction="away", scale=0.0),
                       cfg, sched, stream(10, "s"))
    assert np.array_equal(none, zero)


def test_ddpm_deterministic_under_seed(model, sched):
    g = GuidanceConfig(direction="none")
    a = ddpm_sample(model, 2, g, sched, stream(4, "x"))
    b = ddpm_sample(model, 2, g, sched, stream(4, "x"))
    assert np.array_equal(a, b)


def test_ddpm_single_step_schedule_is_noiseless():
    sched1 = make_linear_schedule(1, 0.5, 0.5)
    c = np.full((1, 1, 2, 2), 0.3)
    oracle = ConstantTargetDenoiser(c, sched1)
    out = ddpm_sample(oracle, 1, GuidanceConfig(direction="none"), sched1,
                      stream(0, "z"), shape=(1, 1, 2, 2))
    # T=1: z_0 = mu exactly, and the oracle mean collapses to c
    assert np.allclose(out, c, atol=1e-12)


@pytest.mark.parametrize("T", [2, 200])
def test_ddpm_oracle_collapses_to_target(T):
    sched = make_linear_schedule(T, 1e-4, 0.02)
    c = np.full((2, 1, 4, 4), -0.4)
    oracle = ConstantTargetDenoiser(c, sched)
    out = ddpm_sample(oracle, 2, GuidanceConfig(direction="none"), sched,
                      stream(1, "z"), shape=(2, 1, 4, 4))
    assert np.abs(out - c).max() < 1e-6


def test_ddim_full_subsequence_visits_every_step(sched):
    c = np.zeros((1, 1, 2, 2))
    oracle = ConstantTargetDenoiser(c, sched)
    cfg = SamplerConfig(kind="ddim", ddim_steps=sched.T)
    ddim_sample(oracle, 1, GuidanceConfig(direction="none"), cfg, sched,
                stream(2, "z"), shape=(1, 1, 2, 2))
    assert oracle.calls == list(range(sched.T, 0, -1))


def test_ddim_eta_zero_ignores_rng(model, sched):
    cfg = SamplerConfig(kind="ddim", ddim_steps=5)
    z0 = stream(11, "fixed").standard_normal((2, 1, 8, 8))
    g = GuidanceConfig(direction="none")
    a = ddim_sample(model, 2, g, cfg, sched, stream(1, "a"), z_init=z0)
    b = ddim_sample(model, 2, g, cfg, sched, stream(2, "b"), z_init=z0)
    assert np.array_equal(a, b)


def test_ddim_subsequence_contract():
    taus = ddim_subsequence(200, 50)
    assert taus[-1] == 200 and taus[0] == 1
    assert np.all(np.diff(taus) > 0)
    with pytest.raises(BadSubsequence):
        ddim_subsequence(10, 11)
    with pytest.raises(BadSubsequence):
        ddim_subsequence(10, 0)


def test_partial_reverse_preserves_finiteness(model, sched):
    rng = stream(3, "p")
    z = rng.standard_normal((2, 1, 8, 8))
    g = GuidanceConfig(direction="away", target_class=2, scale=100.0)
    out = ddpm_reverse_from(model, z, 10, g, sched, rng)
    assert np.isfinite(out).all()


def test_gradient_clipping_counted(sched):
    class LoudClassifier:
        cfg = CFG

        def predict_noise(self, z, t):
            return np.zeros_like(z)

        def class_score_grad(self, z, t, k, toward=True):
            return np.full_like(z, 1e6)

    stats = GuidanceStats()
    g = GuidanceConfig(direction="toward", target_class=0, scale=1.0)
    out = guided_epsilon(LoudClassifier(), np.zeros((3, 1, 8, 8)), 5, g, sched,
                         stats=stats)
    assert stats.clipped == 3 and stats.total == 3
    norms = np.sqrt((out.reshape(3, -1) ** 2).sum(axis=1))
    coef = g.scale * np.sqrt(1 - sched.alpha_bar(5))
    assert np.allclose(norms, coef * 1e3)
