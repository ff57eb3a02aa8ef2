from dataclasses import replace

import numpy as np
import pytest

from avsep import checks
from avsep import tensor as T
from avsep.blocks import (
    InterBParams,
    ScalePyramid,
    inter_a_b,
    inter_a_m,
    inter_a_t,
    intra_a_global,
    intra_a_prime,
    pooled_sum,
    top_down_pass,
)
from avsep.errors import GeometryError
from avsep.model import ModelConfig, build_params
from avsep.nn import (
    Conv1dParams,
    GlnParams,
    QParams,
    avg_pool1d,
    ffn,
    interp_resample,
    q_op,
)
from avsep.tensor import Tensor


def _q(rng, c_in, c_out, dtype=np.float64):
    return QParams(
        conv=Conv1dParams(
            weight=Tensor(rng.standard_normal((c_out, c_in, 1)), dtype=dtype,
                          requires_grad=True),
            bias=None),
        gln=GlnParams(gain=Tensor(np.ones(c_out, dtype=dtype), requires_grad=True),
                      bias=Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)),
    )


def _zero_q(c_in, c_out):
    return QParams(
        conv=Conv1dParams(weight=Tensor(np.zeros((c_out, c_in, 1))), bias=None),
        gln=GlnParams(gain=Tensor(np.ones(c_out)), bias=Tensor(np.zeros(c_out))),
    )


def _pyramid(rng, c, l0, depth, dtype=np.float64):
    return ScalePyramid(
        levels=[Tensor(rng.standard_normal((c, l0 >> i)), dtype=dtype)
                for i in range(depth + 1)])


class TestScalePyramid:
    def test_rejects_wrong_halving(self):
        with pytest.raises(GeometryError):
            ScalePyramid(levels=[Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 5)))])
        with pytest.raises(GeometryError, match="at least one level"):
            ScalePyramid(levels=[])

    def test_depth(self):
        p = ScalePyramid(levels=[Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 4)))])
        assert p.depth == 1


class TestIntraAttention:
    def test_global_composition_oracle(self, rng):
        # hand-composed: m = q(up(y)); out = sigmoid(m)*x + m
        x = Tensor(rng.standard_normal((3, 16)).astype(np.float32))
        y = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        q = _q(rng, 3, 3, dtype=np.float32)
        m = q_op(interp_resample(y, 16), q)
        want = T.ew_add(T.ew_mul(T.sigmoid(m), x), m).data
        got = intra_a_global(x, y, q).data
        assert np.max(np.abs(got - want)) < 1e-6

    def test_prime_composition_oracle(self, rng):
        x = Tensor(rng.standard_normal((3, 16)).astype(np.float32))
        y = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        want = T.ew_mul(T.sigmoid(interp_resample(y, 16)), x).data
        got = intra_a_prime(x, y).data
        assert np.max(np.abs(got - want)) < 1e-6

    def test_prime_needs_matching_channels(self, rng):
        with pytest.raises(GeometryError):
            intra_a_prime(Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 4))))

    def test_zero_parameter_trace(self, rng):
        # zero Q: modulation is exactly 0, sigmoid(0) = 0.5 -> 0.5 * x
        x32 = rng.standard_normal((3, 8)).astype(np.float32)
        x = Tensor(x32)
        y = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        got = intra_a_global(x, y, _zero_q(3, 3)).data
        np.testing.assert_array_equal(got, np.float32(0.5) * x32)

    def test_prime_zero_trace(self, rng):
        x32 = rng.standard_normal((3, 8)).astype(np.float32)
        got = intra_a_prime(Tensor(x32), Tensor(np.zeros((3, 4), dtype=np.float32))).data
        np.testing.assert_array_equal(got, np.float32(0.5) * x32)


class TestInterM:
    def test_composition_oracle(self, rng):
        s = Tensor(rng.standard_normal((4, 12)).astype(np.float32))
        v = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        q = _q(rng, 2, 4, dtype=np.float32)
        want = T.ew_mul(T.sigmoid(q_op(interp_resample(v, 12), q)), s).data
        got = inter_a_m(s, v, q).data
        assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_parameter_trace(self, rng):
        s32 = rng.standard_normal((4, 12)).astype(np.float32)
        v = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        got = inter_a_m(Tensor(s32), v, _zero_q(2, 4)).data
        np.testing.assert_array_equal(got, np.float32(0.5) * s32)


class TestPointwiseQBeforeResample:
    """A 1x1 Q runs before the upsample (and its gLN too on an integer
    ratio); both blocks must equal Q run after the resample."""

    LENGTHS = [(4, 16), (3, 12), (5, 12), (7, 13), (12, 12), (13, 7)]

    def _q(self, rng, c_in, c_out):
        q = _q(rng, c_in, c_out)
        q.gln.gain.data = rng.uniform(0.5, 1.5, c_out)
        q.gln.bias.data = rng.uniform(-0.5, 0.5, c_out)
        return q

    @pytest.mark.parametrize("l,target", LENGTHS)
    def test_intra_global(self, l, target, rng):
        x = Tensor(rng.standard_normal((3, target)), dtype=np.float64)
        y = Tensor(rng.standard_normal((3, l)), dtype=np.float64)
        q = self._q(rng, 3, 3)
        m = q_op(interp_resample(y, target), q)
        want = T.ew_add(T.ew_mul(T.sigmoid(m), x), m).data
        np.testing.assert_allclose(intra_a_global(x, y, q).data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("l,target", LENGTHS)
    def test_inter_m(self, l, target, rng):
        s = Tensor(rng.standard_normal((4, target)), dtype=np.float64)
        v = Tensor(rng.standard_normal((2, l)), dtype=np.float64)
        q = self._q(rng, 2, 4)
        want = T.ew_mul(T.sigmoid(q_op(interp_resample(v, target), q)), s).data
        np.testing.assert_allclose(inter_a_m(s, v, q).data, want, rtol=0, atol=1e-12)

    def test_inter_m_gradient_at_non_integer_ratio(self, rng):
        s = Tensor(rng.uniform(-2, 2, (3, 12)), dtype=np.float64)
        v = Tensor(rng.uniform(-2, 2, (2, 5)), dtype=np.float64)
        q = self._q(rng, 2, 3)
        w = Tensor(rng.uniform(-1, 1, (3, 12)), dtype=np.float64)
        res = checks.gradcheck(
            "inter_a_m_12_from_5", lambda: T.sum_all(T.ew_mul(inter_a_m(s, v, q), w)),
            [s, v, q.conv.weight, q.gln.gain, q.gln.bias])
        assert res.passed, res.max_rel_err


class TestFiveTapQGradients:
    """A Q wider than one tap runs after the upsample (``_q_up``'s
    resample-first branch), as every upsampled Q at paper scale does: the
    blocks equal that composition, and their gradients the oracle's."""

    def _q(self, rng, c_in, c_out):
        conv = Conv1dParams(weight=Tensor(rng.uniform(-1, 1, (c_out, c_in, 5)), dtype=np.float64),
                            bias=None, padding=2)
        return QParams(conv=conv, gln=GlnParams(
            gain=Tensor(rng.uniform(0.5, 1.5, c_out), dtype=np.float64),
            bias=Tensor(rng.uniform(-0.5, 0.5, c_out), dtype=np.float64)))

    @pytest.mark.parametrize("l", [3, 5])  # 12 <- 3 is an integer ratio, 12 <- 5 is not
    def test_intra_global(self, l, rng):
        x = Tensor(rng.uniform(-2, 2, (3, 12)), dtype=np.float64)
        y = Tensor(rng.uniform(-2, 2, (3, l)), dtype=np.float64)
        q = self._q(rng, 3, 3)
        m = q_op(interp_resample(y, 12), q)
        want = T.ew_add(T.ew_mul(T.sigmoid(m), x), m).data
        np.testing.assert_allclose(intra_a_global(x, y, q).data, want, rtol=0, atol=1e-12)
        w = Tensor(rng.uniform(-1, 1, (3, 12)), dtype=np.float64)
        res = checks.gradcheck(
            f"intra_a_global_5tap_12_from_{l}",
            lambda: T.sum_all(T.ew_mul(intra_a_global(x, y, q), w)),
            [x, y, q.conv.weight, q.gln.gain, q.gln.bias])
        assert res.passed, res.max_rel_err

    @pytest.mark.parametrize("l", [3, 5])
    def test_inter_m(self, l, rng):
        s = Tensor(rng.uniform(-2, 2, (3, 12)), dtype=np.float64)
        v = Tensor(rng.uniform(-2, 2, (2, l)), dtype=np.float64)
        q = self._q(rng, 2, 3)
        want = T.ew_mul(T.sigmoid(q_op(interp_resample(v, 12), q)), s).data
        np.testing.assert_allclose(inter_a_m(s, v, q).data, want, rtol=0, atol=1e-12)
        w = Tensor(rng.uniform(-1, 1, (3, 12)), dtype=np.float64)
        res = checks.gradcheck(
            f"inter_a_m_5tap_12_from_{l}", lambda: T.sum_all(T.ew_mul(inter_a_m(s, v, q), w)),
            [s, v, q.conv.weight, q.gln.gain, q.gln.bias])
        assert res.passed, res.max_rel_err


class TestInterT:
    def _params(self, rng, na, nv):
        cfg = ModelConfig(n_audio_channels=na, n_video_channels=nv, depth=2,
                          ffn_channels=(na, 2 * na, na))
        return build_params(cfg, seed=3, dtype=np.float64).inter_t

    def test_composition_oracle(self, rng):
        na, nv = 4, 3
        p = self._params(rng, na, nv)
        audio = _pyramid(rng, na, 16, 2)
        video = _pyramid(rng, nv, 8, 2)
        s_g, v_g = inter_a_t(audio, video, p)

        def pooled(levels):
            d = len(levels) - 1
            acc = levels[d]
            for i in range(d):
                acc = T.ew_add(acc, avg_pool1d(levels[i], 2 ** (d - i)))
            return acc

        f_s, f_v = pooled(audio.levels), pooled(video.levels)
        ga = q_op(f_v, p.q_av)
        gv = q_op(f_s, p.q_va)
        want_s = ffn(T.ew_mul(f_s, T.sigmoid(interp_resample(ga, f_s.shape[1]))), p.ffn_s)
        want_v = ffn(T.ew_mul(f_v, T.sigmoid(interp_resample(gv, f_v.shape[1]))), p.ffn_v)
        assert np.max(np.abs(s_g.data - want_s.data)) < 1e-6
        assert np.max(np.abs(v_g.data - want_v.data)) < 1e-6

    def test_cross_attention_off_feeds_ffn_directly(self, rng):
        na, nv = 4, 3
        p = self._params(rng, na, nv)
        audio = _pyramid(rng, na, 16, 2)
        video = _pyramid(rng, nv, 8, 2)
        s_g, v_g = inter_a_t(audio, video, replace(p, q_av=None, q_va=None))

        def pooled(levels):
            d = len(levels) - 1
            acc = levels[d]
            for i in range(d):
                acc = T.ew_add(acc, avg_pool1d(levels[i], 2 ** (d - i)))
            return acc

        np.testing.assert_array_equal(s_g.data, ffn(pooled(audio.levels), p.ffn_s).data)
        np.testing.assert_array_equal(v_g.data, ffn(pooled(video.levels), p.ffn_v).data)

    def test_dropout_gradient_matches_finite_difference(self, rng):
        # every evaluation draws from a freshly seeded generator, so the
        # finite differences see the keep masks the tape recorded
        na, nv = 3, 2
        p = self._params(rng, na, nv)
        audio = _pyramid(rng, na, 16, 2)
        video = _pyramid(rng, nv, 8, 2)
        w_s = Tensor(rng.uniform(-1, 1, (na, 4)))
        w_v = Tensor(rng.uniform(-1, 1, (nv, 2)))

        def loss():
            s_g, v_g = inter_a_t(audio, video, p, 0.3, np.random.default_rng(7))
            return T.ew_add(T.sum_all(T.ew_mul(s_g, w_s)), T.sum_all(T.ew_mul(v_g, w_v)))

        dropped = inter_a_t(audio, video, p, 0.3, np.random.default_rng(7))[0].data == 0
        assert np.any(dropped)
        leaves = [audio.levels[0], video.levels[1], p.q_av.conv.weight,
                  p.q_va.gln.gain, p.ffn_s.conv1.weight, p.ffn_v.gln.bias]
        assert checks.gradcheck("inter_a_t_dropout", loss, leaves).passed

    def test_without_video_only_the_audio_ffn_runs(self, rng):
        p = self._params(rng, 4, 3)
        audio = _pyramid(rng, 4, 16, 2)
        want = ffn(pooled_sum(audio.levels), p.ffn_s).data
        s_g, v_g = inter_a_t(audio, None, p)
        assert v_g is None
        np.testing.assert_array_equal(s_g.data, want)
        # dropout needs a generator: without one the rate alone changes nothing
        np.testing.assert_array_equal(inter_a_t(audio, None, p, 0.3)[0].data, want)
        dropped = inter_a_t(audio, None, p, 0.3, np.random.default_rng(7))[0].data
        assert np.any(dropped == 0) and np.any(dropped != want)

    def test_depth_mismatch_rejected(self, rng):
        p = self._params(rng, 4, 3)
        audio = _pyramid(rng, 4, 16, 2)
        video = _pyramid(rng, 3, 8, 1)
        with pytest.raises(GeometryError):
            inter_a_t(audio, video, p)


class TestInterB:
    def test_composition_oracle(self, rng):
        na, nv = 4, 3
        s0 = Tensor(rng.standard_normal((na, 16)), dtype=np.float64)
        v0 = Tensor(rng.standard_normal((nv, 6)), dtype=np.float64)
        p = InterBParams(gate_s=_q(rng, na, nv), out_s=_q(rng, nv, na),
                         gate_v=_q(rng, nv, na), out_v=_q(rng, na, nv))
        es, ev = inter_a_b(s0, v0, p)
        want_s = T.ew_add(s0, q_op(T.ew_mul(interp_resample(v0, 16),
                                            T.sigmoid(q_op(s0, p.gate_s))), p.out_s))
        want_v = T.ew_add(v0, q_op(T.ew_mul(interp_resample(s0, 6),
                                            T.sigmoid(q_op(v0, p.gate_v))), p.out_v))
        assert np.max(np.abs(es.data - want_s.data)) < 1e-6
        assert np.max(np.abs(ev.data - want_v.data)) < 1e-6

    def test_zero_parameter_trace(self, rng):
        na, nv = 4, 3
        s32 = rng.standard_normal((na, 16)).astype(np.float32)
        v32 = rng.standard_normal((nv, 6)).astype(np.float32)
        p = InterBParams(gate_s=_zero_q(na, nv), out_s=_zero_q(nv, na),
                         gate_v=_zero_q(nv, na), out_v=_zero_q(na, nv))
        es, ev = inter_a_b(Tensor(s32), Tensor(v32), p)
        np.testing.assert_array_equal(es.data, s32)
        np.testing.assert_array_equal(ev.data, v32)

    def test_shapes_preserved(self, rng):
        s0 = Tensor(rng.standard_normal((4, 16)), dtype=np.float64)
        v0 = Tensor(rng.standard_normal((3, 6)), dtype=np.float64)
        p = InterBParams(gate_s=_q(rng, 4, 3), out_s=_q(rng, 3, 4),
                         gate_v=_q(rng, 3, 4), out_v=_q(rng, 4, 3))
        es, ev = inter_a_b(s0, v0, p)
        assert es.shape == s0.shape and ev.shape == v0.shape

    def test_wrong_width_out_q_is_rejected(self, rng):
        # out_s maps onto 5 channels, not the audio's 4: the residual add refuses it
        s0 = Tensor(rng.standard_normal((4, 16)), dtype=np.float64)
        v0 = Tensor(rng.standard_normal((3, 6)), dtype=np.float64)
        p = InterBParams(gate_s=_q(rng, 4, 3), out_s=_q(rng, 3, 5),
                         gate_v=_q(rng, 3, 4), out_v=_q(rng, 4, 3))
        with pytest.raises(GeometryError, match=r"^shapes \(4, 16\) and \(5, 16\) differ"):
            inter_a_b(s0, v0, p)


class TestTopDown:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("channels", [2, 4, 8])
    def test_output_shapes(self, depth, channels, rng):
        cfg = ModelConfig(n_audio_channels=channels, n_video_channels=channels,
                          depth=depth, ffn_channels=(channels, 2 * channels, channels))
        p = build_params(cfg, seed=0, dtype=np.float64)
        l0 = 8 << depth
        audio = _pyramid(rng, channels, l0, depth)
        video = _pyramid(rng, channels, l0 // 2, depth)
        s_g, v_g = inter_a_t(audio, video, p.inter_t)
        s0, v0 = top_down_pass(audio, video, s_g, v_g, p)
        assert s0.shape == (channels, l0)
        assert v0.shape == (channels, l0 // 2)

    def test_composition_oracle(self, rng):
        cfg = ModelConfig(n_audio_channels=4, n_video_channels=4, depth=2,
                          ffn_channels=(4, 8, 4))
        p = build_params(cfg, seed=1, dtype=np.float64)
        audio = _pyramid(rng, 4, 16, 2)
        video = _pyramid(rng, 4, 8, 2)
        s_g, v_g = inter_a_t(audio, video, p.inter_t)
        s0, v0 = top_down_pass(audio, video, s_g, v_g, p)

        s_bar = [intra_a_global(x, s_g, p.global_intra_s[i]) for i, x in enumerate(audio.levels)]
        v_bar = [intra_a_global(x, v_g, p.global_intra_v[i]) for i, x in enumerate(video.levels)]
        s_mod = [inter_a_m(s_bar[i], v_bar[i], p.inter_m[i]) for i in range(3)]
        s_want = intra_a_global(s_mod[1], s_mod[2], p.local_intra_s[1])
        s_want = intra_a_global(s_mod[0], s_want, p.local_intra_s[0])
        v_want = intra_a_global(v_bar[1], v_bar[2], p.local_intra_v[1])
        v_want = intra_a_global(v_bar[0], v_want, p.local_intra_v[0])
        assert np.max(np.abs(s0.data - s_want.data)) < 1e-6
        assert np.max(np.abs(v0.data - v_want.data)) < 1e-6

    def test_depth_zero_rejected(self, rng):
        p = build_params(ModelConfig(n_audio_channels=4, n_video_channels=4, depth=2,
                                     ffn_channels=(4, 8, 4)), seed=0, dtype=np.float64)
        audio = _pyramid(rng, 4, 16, 0)
        with pytest.raises(GeometryError, match="needs depth >= 1"):
            top_down_pass(audio, None, audio.levels[0], None, p)

    def test_prime_variant_skips_global_q(self, rng):
        cfg = ModelConfig(n_audio_channels=4, n_video_channels=4, depth=2,
                          ffn_channels=(4, 8, 4), intra_variant="phi_prime")
        p = build_params(cfg, seed=1, dtype=np.float64)
        assert p.global_intra_s is None and p.global_intra_v is None
        audio = _pyramid(rng, 4, 16, 2)
        video = _pyramid(rng, 4, 8, 2)
        s_g, v_g = inter_a_t(audio, video, p.inter_t)
        s0, v0 = top_down_pass(audio, video, s_g, v_g, p)
        assert s0.shape == (4, 16) and v0.shape == (4, 8)
