import numpy as np
import pytest

from jdl.errors import BadClassIndex, BadSubsequence
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.sampling import (GRAD_CLIP_NORM, GuidanceConfig, GuidanceStats,
                          SamplerConfig, ddim_reverse_from, ddim_sample,
                          ddim_subsequence, guided_epsilon)
from jdl.schedule import make_linear_schedule

CFG = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=8,
                 time_embed_dim=8, classifier_hidden=16)


class ConstantTargetDenoiser:
    """Analytic oracle: eps_hat such that the posterior collapses to c."""

    def __init__(self, c: np.ndarray, sched):
        self.c = c
        self.sched = sched
        self.calls = []
        # the samplers read the batch shape (n, 1, S, S) from cfg
        self.cfg = UNetConfig(image_side=c.shape[-1], channel_multipliers=(1,))

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
    for g in (GuidanceConfig(),
              GuidanceConfig(direction="toward", target_class=1, scale=0.0),
              GuidanceConfig(direction="away", target_class=2, scale=0.0)):
        assert np.array_equal(guided_epsilon(model, z, 5, g, sched), base)


def test_guided_epsilon_moves_prediction(model, sched):
    z = np.random.default_rng(2).standard_normal((2, 1, 8, 8))
    g = GuidanceConfig(direction="toward", target_class=0, scale=50.0)
    adjusted = guided_epsilon(model, z, 5, g, sched)
    assert not np.array_equal(adjusted, model.predict_noise(z, 5))


def test_guidance_direction_validation():
    for direction in ("sideways", "none"):
        with pytest.raises(ValueError):
            GuidanceConfig(direction=direction)


def test_sampler_config_rejects_bad_eta():
    for eta in (np.nan, np.inf, -0.1, 1.5):
        with pytest.raises(ValueError):
            SamplerConfig(kind="ddim", eta=eta)
    assert SamplerConfig(kind="ddim", eta=1.0).eta == 1.0


def test_guidance_rejects_negative_class_at_construction():
    # checked once up front, even when the scale means no step would use it
    with pytest.raises(BadClassIndex):
        GuidanceConfig(direction="toward", target_class=-1, scale=0.0)


DDPM = SamplerConfig(kind="ddpm")


def test_ddpm_guidance_zero_equivalence(model, sched):
    plain = ddim_sample(model, 2, GuidanceConfig(), DDPM, sched, stream(9, "s"))
    zero = ddim_sample(model, 2, GuidanceConfig(direction="away", target_class=1,
                                                scale=0.0),
                       DDPM, sched, stream(9, "s"))
    assert np.array_equal(plain, zero)


def test_ddim_guidance_zero_equivalence(model, sched):
    cfg = SamplerConfig(kind="ddim", ddim_steps=7)
    plain = ddim_sample(model, 2, GuidanceConfig(), cfg, sched, stream(10, "s"))
    zero = ddim_sample(model, 2, GuidanceConfig(direction="away", scale=0.0),
                       cfg, sched, stream(10, "s"))
    assert np.array_equal(plain, zero)


def test_ddpm_deterministic_under_seed(model, sched):
    g = GuidanceConfig()
    a = ddim_sample(model, 2, g, DDPM, sched, stream(4, "x"))
    b = ddim_sample(model, 2, g, DDPM, sched, stream(4, "x"))
    assert np.array_equal(a, b)


def test_ddpm_single_step_schedule_is_noiseless():
    sched1 = make_linear_schedule(1, 0.5, 0.5)
    c = np.full((1, 1, 2, 2), 0.3)
    oracle = ConstantTargetDenoiser(c, sched1)
    out = ddim_sample(oracle, 1, GuidanceConfig(), DDPM, sched1, stream(0, "z"))
    # T=1: z_0 = mu exactly, and the oracle mean collapses to c
    assert np.allclose(out, c, atol=1e-12)


@pytest.mark.parametrize("T", [2, 200])
def test_ddpm_oracle_collapses_to_target(T):
    sched = make_linear_schedule(T, 1e-4, 0.02)
    c = np.full((2, 1, 4, 4), -0.4)
    oracle = ConstantTargetDenoiser(c, sched)
    out = ddim_sample(oracle, 2, GuidanceConfig(), DDPM, sched, stream(1, "z"))
    assert np.abs(out - c).max() < 1e-6


def test_ddim_full_subsequence_visits_every_step(sched):
    c = np.zeros((1, 1, 2, 2))
    oracle = ConstantTargetDenoiser(c, sched)
    cfg = SamplerConfig(kind="ddim", ddim_steps=sched.T)
    ddim_sample(oracle, 1, GuidanceConfig(), cfg, sched, stream(2, "z"))
    assert oracle.calls == list(range(sched.T, 0, -1))


def test_sampler_kind_selects_the_chain(sched):
    c = np.zeros((1, 1, 2, 2))
    ddpm = ConstantTargetDenoiser(c, sched)
    ddim_sample(ddpm, 1, GuidanceConfig(), DDPM, sched, stream(2, "z"))
    assert ddpm.calls == list(range(sched.T, 0, -1))

    ddim = ConstantTargetDenoiser(c, sched)
    cfg = SamplerConfig(kind="ddim", ddim_steps=7)
    ddim_sample(ddim, 1, GuidanceConfig(), cfg, sched, stream(2, "z"))
    assert ddim.calls == [int(t) for t in ddim_subsequence(sched.T, 7)[::-1]]
    assert len(ddim.calls) == cfg.ddim_steps


class LinearDenoiser:
    """Cheap, non-trivial eps_hat(z, t) that depends on both arguments."""
    cfg = CFG

    def predict_noise(self, z, t):
        return np.tanh(z) * (0.2 + t / 40.0)


def test_ddpm_matches_textbook_ancestral_update(sched):
    # Ho et al. 2020, Algorithm 2, written from the beta/alpha tables
    model = LinearDenoiser()
    rng = stream(6, "ref")
    z = rng.standard_normal((2, 1, 8, 8))
    for t in range(sched.T, 0, -1):
        eps = model.predict_noise(z, t)
        beta, abar = sched.betas[t], sched.alpha_bars[t]
        mu = (z - beta / np.sqrt(1.0 - abar) * eps) / np.sqrt(sched.alphas[t])
        if t > 1:
            var = beta * (1.0 - sched.alpha_bars[t - 1]) / (1.0 - abar)
            z = mu + np.sqrt(var) * rng.standard_normal(z.shape)
        else:
            z = mu
    out = ddim_sample(model, 2, GuidanceConfig(), DDPM, sched, stream(6, "ref"))
    assert np.allclose(out, z, rtol=0, atol=1e-12)


def test_ddim_eta_zero_ignores_rng(model, sched):
    cfg = SamplerConfig(kind="ddim", ddim_steps=5)
    z0 = stream(11, "fixed").standard_normal((2, 1, 8, 8))
    taus = ddim_subsequence(sched.T, 5)
    g = GuidanceConfig()
    a = ddim_reverse_from(model, z0, taus, g, sched, stream(1, "a"), eta=cfg.eta)
    b = ddim_reverse_from(model, z0, taus, g, sched, stream(2, "b"), eta=cfg.eta)
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
    # a partial ancestral chain from t = 10
    out = ddim_reverse_from(model, z, np.arange(1, 11), g, sched, rng, eta=1.0)
    assert np.isfinite(out).all()


def test_gradient_clipping_counted(sched):
    class LoudClassifier:
        cfg = CFG

        def predict_noise(self, z, t):
            return np.zeros_like(z)

        def class_score_grad(self, z, t, k, toward=True):
            return GRADS.copy()

    # items 0-1 over the cap, item 2 under it, item 3 exactly zero
    GRADS = np.zeros((4, 1, 8, 8))
    GRADS[0], GRADS[1], GRADS[2] = 1e6, -3e5, 1e-3
    stats = GuidanceStats()
    g = GuidanceConfig(direction="toward", target_class=0, scale=1.0)
    out = guided_epsilon(LoudClassifier(), np.zeros((4, 1, 8, 8)), 5, g, sched,
                         stats=stats)
    assert stats.clipped == 2 and stats.total == 4
    coef = g.scale * np.sqrt(1 - sched.alpha_bar(5))
    norms = np.sqrt((out.reshape(4, -1) ** 2).sum(axis=1))
    assert np.allclose(norms[:2], coef * GRAD_CLIP_NORM)
    # under the cap the gradient passes through unscaled, bit for bit
    assert np.array_equal(out[2:], -coef * GRADS[2:])
