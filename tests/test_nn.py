import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avsep import checks
from avsep import tensor as T
from avsep.errors import GeometryError
from avsep.nn import (
    GLN_EPS,
    Conv1dParams,
    FfnParams,
    GlnParams,
    QParams,
    _correlate,
    avg_pool1d,
    conv1d,
    conv1d_out_len,
    conv_transpose1d,
    conv_transpose1d_out_len,
    crop_time,
    dropout,
    ffn,
    gln,
    interp_resample,
    pad_right,
    q_op,
    slice_channels,
)
from avsep.tensor import Tensor


def conv1d_reference(x, w, b, stride, padding, groups=1):
    """Brute-force loop cross-correlation; shares no code with the
    vectorized implementation. Output channel ``co`` reads only the input
    channels of its group, ``w.shape[1]`` of them."""
    c_out, c_per_group, k = w.shape
    out_per_group = c_out // groups
    xp = np.pad(x, ((0, 0), (padding, padding)))
    l_out = (xp.shape[1] - k) // stride + 1
    y = np.zeros((c_out, l_out), dtype=np.float64)
    for co in range(c_out):
        first = (co // out_per_group) * c_per_group
        for t in range(l_out):
            acc = 0.0
            for ci in range(c_per_group):
                for kk in range(k):
                    acc += w[co, ci, kk] * xp[first + ci, t * stride + kk]
            y[co, t] = acc + (b[co] if b is not None else 0.0)
    return y


def _conv_params(rng, c_out, c_in, k, stride=1, padding=0, bias=False, groups=1):
    w = Tensor(rng.standard_normal((c_out, c_in // groups, k)), dtype=np.float64,
               requires_grad=True)
    b = Tensor(rng.standard_normal(c_out), dtype=np.float64, requires_grad=True) if bias else None
    return Conv1dParams(weight=w, bias=b, stride=stride, padding=padding, groups=groups)


class TestConv1d:
    def test_hand_computed_example(self):
        # x = [1 2 3 4], w = [1 1]: sliding sums [3 5 7]
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        p = Conv1dParams(weight=Tensor([[[1.0, 1.0]]]), bias=None)
        np.testing.assert_array_equal(conv1d(x, p).data, [[3.0, 5.0, 7.0]])

    @pytest.mark.parametrize("stride,padding,bias", [
        (1, 0, False), (1, 2, True), (2, 0, False), (2, 2, True), (3, 1, False),
    ])
    def test_matches_brute_force(self, stride, padding, bias, rng):
        x = rng.standard_normal((4, 17))
        for groups in (1, 2, 4):  # dense, grouped, depthwise (multiplier 2)
            p = _conv_params(rng, 8, 4, 5, stride, padding, bias, groups)
            got = conv1d(Tensor(x, dtype=np.float64), p).data
            want = conv1d_reference(x, p.weight.data,
                                    None if p.bias is None else p.bias.data,
                                    stride, padding, groups)
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"groups={groups}")

    @pytest.mark.parametrize("k", [1, 5])
    def test_columns_view_the_input_only_for_one_tap(self, k, rng):
        # a fancy-index gather such as x[:, idx] gives this transposed layout
        x = rng.standard_normal((17, 4)).T
        p = _conv_params(rng, 6, 4, k, bias=True)
        _, cols = _correlate(x, p)
        assert np.shares_memory(cols, x) == (k == 1)
        got = conv1d(Tensor(x, dtype=np.float64), p).data
        np.testing.assert_array_equal(got, conv1d(Tensor(x.copy(), dtype=np.float64), p).data)
        want = conv1d_reference(x, p.weight.data, p.bias.data, 1, 0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_mismatch(self, rng):
        p = _conv_params(rng, 2, 3, 3)
        with pytest.raises(GeometryError):
            conv1d(Tensor(np.zeros((4, 10))), p)

    def test_groups_must_divide_channels(self, rng):
        # 2 groups cannot split 3 output channels
        with pytest.raises(GeometryError):
            Conv1dParams(weight=Tensor(np.zeros((3, 2, 5))), bias=None, groups=2)
        with pytest.raises(GeometryError):
            Conv1dParams(weight=Tensor(np.zeros((4, 2, 5))), bias=None, groups=0)
        # nor 3 input channels: 2 groups of 1 read 2 channels
        p = _conv_params(rng, 4, 2, 5, groups=2)
        assert p.in_channels == 2
        with pytest.raises(GeometryError):
            conv1d(Tensor(np.zeros((3, 10))), p)
        with pytest.raises(GeometryError):
            conv_transpose1d(Tensor(np.zeros((3, 10))), p)

    def test_too_short_input(self, rng):
        p = _conv_params(rng, 1, 1, 8)
        with pytest.raises(GeometryError):
            conv1d(Tensor(np.zeros((1, 4))), p)

    @given(l=st.integers(1, 200), k=st.integers(1, 16),
           s=st.integers(1, 8), pad=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_output_length_formula(self, l, k, s, pad):
        want = conv1d_out_len(l, k, s, pad)
        if want < 1:
            return
        x = Tensor(np.zeros((1, l)))
        p = Conv1dParams(weight=Tensor(np.zeros((1, 1, k))), bias=None,
                         stride=s, padding=pad)
        assert conv1d(x, p).shape == (1, want)


class TestConvTranspose1d:
    def test_hand_computed_example(self):
        # transposed conv scatters each input frame through the kernel
        x = Tensor([[1.0, 2.0]])
        p = Conv1dParams(weight=Tensor([[[1.0, 10.0]]]), bias=None, stride=2)
        # frame 0 -> [1, 10] at t=0; frame 1 -> [2, 20] at t=2
        np.testing.assert_array_equal(conv_transpose1d(x, p).data, [[1.0, 10.0, 2.0, 20.0]])

    # geometries where conv followed by its adjoint round-trips the length
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 2), (3, 0)])
    def test_adjoint_identity(self, stride, padding, rng):
        # <conv(x), y> == <x, convT(y)> for the same parameter struct
        x = np.random.default_rng(1).standard_normal((4, 24))
        for groups in (1, 2, 4):  # dense, grouped, depthwise (multiplier 2)
            p = _conv_params(rng, 8, 4, 6, stride, padding, groups=groups)
            yc = conv1d(Tensor(x, dtype=np.float64), p).data
            y = np.random.default_rng(2).standard_normal(yc.shape)
            xt = conv_transpose1d(Tensor(y, dtype=np.float64), p).data
            assert float((yc * y).sum()) == pytest.approx(float((x * xt).sum()), rel=1e-10)

    @given(l=st.integers(1, 100), k=st.integers(1, 12),
           s=st.integers(1, 6), pad=st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_output_length_formula(self, l, k, s, pad):
        want = conv_transpose1d_out_len(l, k, s, pad)
        if want < 1:
            return
        p = Conv1dParams(weight=Tensor(np.zeros((2, 1, k))), bias=None,
                         stride=s, padding=pad)
        assert conv_transpose1d(Tensor(np.zeros((2, l))), p).shape == (1, want)

    def test_round_trip_lengths_cancel(self):
        # kernel = 2*stride keeps conv -> transpose length-preserving
        for l in (8, 16, 40):
            assert conv_transpose1d_out_len(conv1d_out_len(l, 4, 2, 0), 4, 2, 0) == l


class TestPoolingAndResampling:
    def test_avg_pool_matches_reshape_mean(self, rng):
        x = rng.standard_normal((3, 12))
        got = avg_pool1d(Tensor(x, dtype=np.float64), 4).data
        np.testing.assert_allclose(got, x.reshape(3, 3, 4).mean(axis=2))

    def test_avg_pool_divisibility(self):
        with pytest.raises(GeometryError):
            avg_pool1d(Tensor(np.zeros((1, 10))), 3)

    def test_nearest_index_formula(self, rng):
        x = rng.standard_normal((2, 5))
        got = interp_resample(Tensor(x, dtype=np.float64), 12).data
        idx = (np.arange(12) * 5) // 12
        np.testing.assert_array_equal(got, x[:, idx])

    @pytest.mark.parametrize("l,target", [
        (5, 12), (12, 5), (7, 7), (7, 13), (13, 7), (125, 2000), (2000, 25),
    ])
    def test_resample_backward_matches_scatter_add(self, l, target, rng):
        x = Tensor(rng.standard_normal((3, l)), dtype=np.float64, requires_grad=True)
        g = rng.standard_normal((3, target))
        T.sum_all(T.ew_mul(interp_resample(x, target), Tensor(g, dtype=np.float64))).backward()
        want = np.zeros((3, l))
        np.add.at(want, (slice(None), (np.arange(target) * l) // target), g)
        np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)

    def test_downsampling_gradient_matches_finite_difference(self, rng):
        x = Tensor(rng.uniform(-2, 2, (3, 13)), dtype=np.float64)
        w = Tensor(rng.uniform(-1, 1, (3, 5)), dtype=np.float64)
        res = checks._gradcheck(
            "interp_resample_down", lambda: T.sum_all(T.ew_mul(interp_resample(x, 5), w)), [x])
        assert res.passed

    @pytest.mark.parametrize("l,target", [
        (5, 12), (12, 5), (7, 7), (7, 13), (125, 2000), (2000, 25),
    ])
    def test_resample_is_a_c_ordered_gather(self, l, target, rng):
        # element-wise ops on a transposed-layout result run ~10x slower
        x = rng.standard_normal((3, l)).astype(np.float32)
        got = interp_resample(Tensor(x), target).data
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, x[:, (np.arange(target) * l) // target])

    def test_resample_identity(self, rng):
        x = rng.standard_normal((2, 7))
        np.testing.assert_array_equal(interp_resample(Tensor(x), 7).data, x)


class TestGln:
    def test_normalizes_over_all_entries(self, rng):
        x = rng.standard_normal((4, 9)) * 3 + 7
        p = GlnParams(gain=Tensor(np.ones(4)), bias=Tensor(np.zeros(4)))
        y = gln(Tensor(x, dtype=np.float64), p).data
        assert y.mean() == pytest.approx(0.0, abs=1e-9)
        assert y.var() == pytest.approx(1.0, rel=1e-6)

    def test_small_spread_about_a_large_mean(self, rng):
        # an E[x^2] - m^2 variance would lose the 1e-6 variance against 1e6
        x = 1e3 + 1e-3 * rng.standard_normal((4, 50))
        p = GlnParams(gain=Tensor(np.ones(4), dtype=np.float64),
                      bias=Tensor(np.zeros(4), dtype=np.float64))
        y = gln(Tensor(x, dtype=np.float64), p).data
        m = x.mean()
        want = (x - m) / np.sqrt(((x - m) ** 2).mean() + GLN_EPS)
        np.testing.assert_allclose(y, want, rtol=0, atol=1e-9)

    def test_affine_is_per_channel(self, rng):
        x = rng.standard_normal((2, 6))
        p = GlnParams(gain=Tensor([2.0, 3.0]), bias=Tensor([1.0, -1.0]))
        p0 = GlnParams(gain=Tensor(np.ones(2)), bias=Tensor(np.zeros(2)))
        y0 = gln(Tensor(x, dtype=np.float64), p0).data
        y = gln(Tensor(x, dtype=np.float64), p).data
        np.testing.assert_allclose(y, y0 * np.array([[2.0], [3.0]]) + np.array([[1.0], [-1.0]]),
                                   atol=1e-12)

    def test_channel_count_checked(self):
        p = GlnParams(gain=Tensor(np.ones(3)), bias=Tensor(np.zeros(3)))
        with pytest.raises(GeometryError):
            gln(Tensor(np.zeros((2, 4))), p)


class TestCompositeOps:
    def test_q_op_is_conv_then_gln(self, rng):
        x = Tensor(rng.standard_normal((3, 10)), dtype=np.float64)
        conv = _conv_params(rng, 4, 3, 1)
        norm = GlnParams(gain=Tensor(rng.standard_normal(4), dtype=np.float64),
                         bias=Tensor(rng.standard_normal(4), dtype=np.float64))
        got = q_op(x, QParams(conv=conv, gln=norm)).data
        np.testing.assert_array_equal(got, gln(conv1d(x, conv), norm).data)

    def test_ffn_is_three_convs_then_gln(self, rng):
        x = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        convs = [_conv_params(rng, 4, 4, 1),
                 _conv_params(rng, 8, 4, 5, padding=2, bias=True),
                 _conv_params(rng, 4, 8, 1)]
        norm = GlnParams(gain=Tensor(np.ones(4)), bias=Tensor(np.zeros(4)))
        got = ffn(x, FfnParams(convs=convs, gln=norm)).data
        want = gln(conv1d(conv1d(conv1d(x, convs[0]), convs[1]), convs[2]), norm).data
        np.testing.assert_array_equal(got, want)

    def test_ffn_preserves_length(self, rng):
        x = Tensor(rng.standard_normal((4, 11)), dtype=np.float64)
        convs = [_conv_params(rng, 6, 4, 1),
                 _conv_params(rng, 8, 6, 5, padding=2, bias=True),
                 _conv_params(rng, 4, 8, 1)]
        norm = GlnParams(gain=Tensor(np.ones(4)), bias=Tensor(np.zeros(4)))
        assert ffn(x, FfnParams(convs=convs, gln=norm)).shape == (4, 11)


class TestPadCrop:
    def test_round_trip(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float32)
        t = Tensor(x)
        np.testing.assert_array_equal(crop_time(pad_right(t, 3), 5).data, x)

    def test_crop_bounds(self):
        with pytest.raises(GeometryError):
            crop_time(Tensor(np.zeros((1, 4))), 5)

    def test_slice_channels_routes_gradient_to_its_rows(self, rng):
        x = Tensor(rng.standard_normal((6, 5)), dtype=np.float64, requires_grad=True)
        y = slice_channels(x, 2, 4)
        np.testing.assert_array_equal(y.data, x.data[2:4])
        T.sum_all(T.scale(y, 3.0)).backward()
        want = np.zeros((6, 5))
        want[2:4] = 3.0
        np.testing.assert_array_equal(x.grad, want)


class TestDropout:
    def test_identity_at_inference(self, rng):
        x = Tensor(rng.standard_normal((3, 7)))
        assert dropout(x, 0.5, rng=None) is x

    def test_identity_at_p_zero(self, rng):
        x = Tensor(rng.standard_normal((3, 7)))
        g = np.random.default_rng(3)
        assert dropout(x, 0.0, rng=g) is x
        assert g.random() == np.random.default_rng(3).random()  # nothing drawn

    def test_inverted_scaling(self):
        g = np.random.default_rng(0)
        x = Tensor(np.ones((50, 50)))
        y = dropout(x, 0.25, rng=g).data
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(kept.size / y.size - 0.75) < 0.03

    def test_mask_reused_in_backward(self):
        g = np.random.default_rng(1)
        x = Tensor(np.ones((4, 4), dtype=np.float64), requires_grad=True)
        y = dropout(x, 0.5, rng=g)
        T.sum_all(y).backward()
        np.testing.assert_array_equal((x.grad != 0), (y.data != 0))
