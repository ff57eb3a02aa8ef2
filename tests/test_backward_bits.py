"""The kernels skip work nobody reads, reuse buffers and hand fresh
gradients over without a copy, but do the same floating-point operations
in the same order as the plain expressions below. Every comparison with
them is exact."""

import weakref

import numpy as np
import pytest
from conftest import tiny_config

from avsep import checks, metrics, nn
from avsep.data import energy_envelope
from avsep.model import build_params, named_tensors, separate
from avsep import tensor as T
from avsep.nn import (
    Conv1dParams,
    GlnParams,
    _correlate,
    _overlap_add,
    avg_pool1d,
    conv1d,
    conv_transpose1d,
    crop_time,
    gate,
    gln,
    interp_resample,
    pad_right,
    q_op,
)
from avsep.tensor import Tensor, _accum

DTYPES = [np.float32, np.float64]


def _arr(rng, shape, dtype, loc=0.0, scale=1.0):
    return (loc + scale * rng.standard_normal(shape)).astype(dtype)


def _backward_with(y: Tensor, g: np.ndarray) -> None:
    """Run the tape with upstream gradient exactly ``g`` at ``y``."""
    T.sum_all(T.ew_mul(y, Tensor(g))).backward()


def gln_reference(x, gain, bias, eps, g):
    """Forward and backward of gLN as two-pass mean and eight temporaries."""
    c, l = x.shape
    n = c * l
    m = x.mean()
    d = x - m
    inv = 1.0 / np.sqrt(np.vdot(d, d) / n + eps)
    d *= (gain * inv)[:, None]
    d += bias[:, None]
    xhat = (x - m) * inv
    g_gain = (g * xhat).sum(axis=1)
    g_bias = g.sum(axis=1)
    u = g * gain[:, None]
    gx = inv * (u - u.mean() - xhat * (u * xhat).sum() / n)
    return d, gx, g_gain, g_bias


def overlap_add_reference(y, p, length, dtype):
    """Adjoint of the correlation, always through a zero-filled buffer."""
    k, stride, pad = p.kernel, p.stride, p.padding
    l = y.shape[1]
    tmp = p.weight_blocks().transpose(0, 2, 1) @ y.reshape(p.groups, -1, l)
    tmp = tmp.reshape(p.in_channels, k, l)
    out = np.zeros((p.in_channels, length + 2 * pad), dtype=dtype)
    for kk in range(k):
        out[:, kk : kk + stride * l : stride] += tmp[:, kk, :]
    return out[:, pad : pad + length]


def correlate_reference(x, p):
    """Correlation over strided im2col windows of an already padded ``x``:
    the result and the columns."""
    k, stride = p.kernel, p.stride
    c, lp = x.shape
    l_out = (lp - k) // stride + 1
    s0, s1 = x.strides
    win = np.lib.stride_tricks.as_strided(x, shape=(c, k, l_out), strides=(s0, s1, s1 * stride))
    cols = win.reshape(p.groups, -1, l_out)
    return (p.weight_blocks() @ cols).reshape(p.out_channels, l_out), cols


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,loc,scale", [
    ((1, 1), 0.0, 1.0), ((3, 8), 0.0, 1.0), ((16, 250), 0.5, 2.0),
    ((64, 2000), 0.0, 1.0), ((4, 50), 1e3, 1e-3),
])
def test_gln_matches_reference(shape, loc, scale, dtype):
    rng = np.random.default_rng(sum(shape))
    x = _arr(rng, shape, dtype, loc, scale)
    gain = _arr(rng, shape[:1], dtype, 1.0, 0.3)
    bias = _arr(rng, shape[:1], dtype)
    g = _arr(rng, shape, dtype)
    xt, gt, bt = Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True), \
        Tensor(bias, requires_grad=True)
    y = gln(xt, GlnParams(gain=gt, bias=bt))
    _backward_with(y, g)
    want = gln_reference(x, gain, bias, nn.GLN_EPS, g)
    for got, ref in zip((y.data, xt.grad, gt.grad, bt.grad), want):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, ref)


def _resample_grad(l, target, dtype, rng):
    x = Tensor(_arr(rng, (3, l), dtype), requires_grad=True)
    g = _arr(rng, (3, target), dtype)
    _backward_with(interp_resample(x, target), g)
    idx = (np.arange(target) * l) // target
    return x.grad, np.add.reduceat(g, np.searchsorted(idx, np.arange(l)), axis=1)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ratio", list(range(1, 13)) + [16, 125])
def test_upsample_backward_matches_reduceat_at_integer_ratios(ratio, dtype):
    rng = np.random.default_rng(ratio)
    for l in (1, 7, 125):
        got, want = _resample_grad(l, l * ratio, dtype, rng)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("l,target", [(5, 12), (7, 13), (3, 8), (13, 100), (125, 1999)])
def test_upsample_backward_matches_reduceat_at_other_ratios(l, target, dtype):
    got, want = _resample_grad(l, target, dtype, np.random.default_rng(l))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("l,target", [(2000, 32), (2000, 25), (13, 5), (7, 3), (125, 2)])
def test_downsample_gather_matches_the_repeat(l, target, dtype):
    x = _arr(np.random.default_rng(l + target), (5, l), dtype)
    y = interp_resample(Tensor(x), target).data
    idx = (np.arange(target) * l) // target
    assert y.flags.c_contiguous and y.dtype == dtype
    np.testing.assert_array_equal(y, np.repeat(x, np.bincount(idx, minlength=l), axis=1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("l,target", [(7, 14), (16, 2000), (2, 250), (3, 300)])
def test_integer_upsample_matches_the_index_gather(l, target, dtype):
    x = _arr(np.random.default_rng(target), (4, l), dtype)
    y = interp_resample(Tensor(x), target).data
    assert y.flags.c_contiguous and y.dtype == dtype
    np.testing.assert_array_equal(y, np.repeat(x, target // l, axis=1))
    np.testing.assert_array_equal(y, x[:, (np.arange(target) * l) // target])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ratio", list(range(1, 17)) + [32, 128, 129, 256])
def test_avg_pool_matches_the_window_mean(ratio, dtype):
    rng = np.random.default_rng(ratio)
    for c, windows in ((1, 1), (3, 1), (5, 7), (16, 40)):
        # magnitudes over six decades, so a changed summation order shows
        x = (rng.standard_normal((c, windows * ratio))
             * 10.0 ** rng.uniform(-3, 3, (c, windows * ratio))).astype(dtype)
        g = _arr(rng, (c, windows), dtype)
        xt = Tensor(x, requires_grad=True)
        y = avg_pool1d(xt, ratio)
        _backward_with(y, g)
        assert y.data.dtype == xt.grad.dtype == dtype
        np.testing.assert_array_equal(y.data, x.reshape(c, windows, ratio).mean(axis=2))
        np.testing.assert_array_equal(xt.grad, np.repeat(g / ratio, ratio, axis=1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", ["interp_resample", "avg_pool1d"])
def test_ratio_one_copies_both_ways(op, dtype):
    # the same bytes in a buffer of its own, forward and backward
    rng = np.random.default_rng(3)
    x = Tensor(_arr(rng, (3, 11), dtype), requires_grad=True)
    y = interp_resample(x, 11) if op == "interp_resample" else avg_pool1d(x, 1)
    g = _arr(rng, (3, 11), dtype)
    g.flags.writeable = False  # as the tape hands an upstream gradient over
    y._backward(g)
    for got, src in ((y.data, x.data), (x.grad, g)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, src)
        assert not np.shares_memory(got, src)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("groups", [1, 2, 4])
def test_one_by_one_adjoint_is_the_gemm(groups, dtype):
    rng = np.random.default_rng(groups)
    w = Tensor(_arr(rng, (8, 4 // groups, 1), dtype))
    p = Conv1dParams(weight=w, bias=None, groups=groups)
    y = _arr(rng, (8, 37), dtype)
    np.testing.assert_array_equal(_overlap_add(y, p, 37, dtype),
                                  overlap_add_reference(y, p, 37, dtype))
    x = _arr(rng, (4, 37), dtype)
    got, cols = _correlate(x, p)
    assert np.shares_memory(cols, x)
    np.testing.assert_array_equal(got, correlate_reference(x, p)[0])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("c_out,c_in,k,l", [
    (1, 1, 1, 1), (1, 3, 1, 9), (6, 1, 1, 9), (6, 4, 1, 1), (1, 4, 5, 9), (6, 4, 5, 1),
    (6, 4, 5, 30), (16, 16, 1, 200),
])
def test_dense_correlation_is_the_matmul_of_its_columns(c_out, c_in, k, l, order, dtype):
    # the one-group product runs through ndarray.dot, which makes the same
    # BLAS call as @ on every layout here: row, column and 1x1 operands
    # included, and a column-major input that a pointwise conv reads as is
    rng = np.random.default_rng(c_out * c_in * k * l)
    p = Conv1dParams(weight=Tensor(_arr(rng, (c_out, c_in, k), dtype)), bias=None,
                     padding=k // 2)
    x = np.asarray(_arr(rng, (c_in, l), dtype), order=order)
    got, cols = _correlate(x, p)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, p.weight.data.reshape(c_out, -1) @ cols)


@pytest.mark.parametrize("k,stride,pad", [(1, 2, 0), (1, 1, 1), (5, 1, 2), (5, 2, 0)])
def test_other_adjoints_keep_the_overlap_add(k, stride, pad):
    rng = np.random.default_rng(k)
    p = Conv1dParams(weight=Tensor(_arr(rng, (6, 3, k), np.float32)), bias=None,
                     stride=stride, padding=pad)
    y = _arr(rng, (6, 11), np.float32)
    length = nn.conv_transpose1d_out_len(11, k, stride, pad)
    np.testing.assert_array_equal(_overlap_add(y, p, length, np.float32),
                                  overlap_add_reference(y, p, length, np.float32))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 3, 5])
def test_depthwise_adjoint_is_the_overlap_add_of_its_taps(k, dtype):
    # the strided multiply-adds against the [C, K, L] temporary, also where
    # the input is longer than the taps reach
    rng = np.random.default_rng(k)
    p = Conv1dParams(weight=Tensor(_arr(rng, (16, 1, k), dtype)), bias=None, groups=16)
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            p.stride, p.padding = stride, pad
            y = _arr(rng, (16, 50), dtype)
            reach = nn.conv_transpose1d_out_len(50, k, stride, pad)
            for length in (reach, reach + stride - 1):
                np.testing.assert_array_equal(_overlap_add(y, p, length, dtype),
                                              overlap_add_reference(y, p, length, dtype))


def _conv1d_grads(x_taped, dtype, k):
    """Weight, bias and input grads of a conv1d; the last is None when the
    input is not on the tape."""
    rng = np.random.default_rng(k)
    p = Conv1dParams(weight=Tensor(_arr(rng, (6, 4, k), dtype), requires_grad=True),
                     bias=Tensor(_arr(rng, (6,), dtype), requires_grad=True), padding=k // 2)
    x = Tensor(_arr(rng, (4, 20), dtype), requires_grad=x_taped)
    _backward_with(conv1d(x, p), _arr(rng, (6, 20), dtype))
    return p.weight.grad, p.bias.grad, x.grad


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 5])
def test_conv1d_skips_the_adjoint_of_an_untaped_input(k, dtype, monkeypatch):
    want_w, want_b, want_x = _conv1d_grads(True, dtype, k)
    assert want_x is not None

    def no_adjoint(*args):
        raise AssertionError("computed the gradient of an untaped input")

    monkeypatch.setattr(nn, "_overlap_add", no_adjoint)
    got_w, got_b, got_x = _conv1d_grads(False, dtype, k)
    assert got_x is None
    np.testing.assert_array_equal(got_w, want_w)
    np.testing.assert_array_equal(got_b, want_b)


def conv1d_reference(x, p, g):
    """Output and weight, bias and input grads of a conv1d whose backward
    reads the im2col columns kept from its forward."""
    pad = p.padding
    y, cols = correlate_reference(np.pad(x, ((0, 0), (pad, pad))) if pad else x, p)
    g_w = (g.reshape(p.groups, -1, y.shape[1]) @ cols.transpose(0, 2, 1)).reshape(p.weight.shape)
    g_x = overlap_add_reference(g, p, x.shape[1], x.dtype)
    return y + p.bias.data[:, None], g_w, g.sum(axis=1), g_x


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("groups", [1, 2, 16])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_backward_matches_the_kept_columns(k, groups, dtype):
    # at 16 x 200 a depthwise weight gradient over a contiguous copy of
    # its strided columns already differs in the last bits
    rng = np.random.default_rng(10 * k + groups)
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            p = Conv1dParams(
                weight=Tensor(_arr(rng, (16, 16 // groups, k), dtype), requires_grad=True),
                bias=Tensor(_arr(rng, (16,), dtype), requires_grad=True),
                stride=stride, padding=pad, groups=groups)
            x = Tensor(_arr(rng, (16, 200), dtype), requires_grad=True)
            y = conv1d(x, p)
            g = _arr(rng, y.shape, dtype)
            _backward_with(y, g)
            want = conv1d_reference(x.data, p, g)
            for got, ref in zip((y.data, p.weight.grad, p.bias.grad, x.grad), want):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("k,stride,pad,groups", [(1, 1, 0, 1), (5, 2, 2, 1), (5, 1, 2, 4)])
def test_conv1d_tape_keeps_no_array(k, stride, pad, groups):
    rng = np.random.default_rng(k)
    p = Conv1dParams(weight=Tensor(_arr(rng, (8, 4 // groups, k), np.float32), requires_grad=True),
                     bias=Tensor(_arr(rng, (8,), np.float32)),
                     stride=stride, padding=pad, groups=groups)
    y = conv1d(Tensor(_arr(rng, (4, 30), np.float32)), p)
    assert y.requires_grad
    kept = [c.cell_contents for c in y._backward.__closure__]
    assert not any(isinstance(v, np.ndarray) for v in kept)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 5])
def test_conv_transpose1d_with_an_untaped_input(k, dtype):
    rng = np.random.default_rng(k)
    w = _arr(rng, (6, 4, k), dtype)
    xd = _arr(rng, (6, 9), dtype)
    g = _arr(rng, (4, nn.conv_transpose1d_out_len(9, k, 2, 0)), dtype)
    results = []
    for taped in (True, False):
        p = Conv1dParams(weight=Tensor(w, requires_grad=True), bias=None, stride=2)
        x = Tensor(xd, requires_grad=taped)
        _backward_with(conv_transpose1d(x, p), g)
        results.append((p.weight.grad, x.grad))
    (w1, x1), (w0, x0) = results
    assert x1 is not None and x0 is None
    np.testing.assert_array_equal(w0, w1)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("add", [False, True])
def test_gate_with_an_untaped_input(add, dtype):
    rng = np.random.default_rng(int(add))
    xd, md, g = (_arr(rng, (3, 11), dtype) for _ in range(3))
    results = []
    for taped in (True, False):
        x, m = Tensor(xd, requires_grad=taped), Tensor(md, requires_grad=True)
        y = gate(x, m, add)
        _backward_with(y, g)
        results.append((y.data, m.grad, x.grad))
    (y1, m1, x1), (y0, m0, x0) = results
    assert x1 is not None and x0 is None
    np.testing.assert_array_equal(y0, y1)
    np.testing.assert_array_equal(m0, m1)


# (m's frames, x's frames): integer upsampling at the ratios the per-repeat
# copy, np.repeat and the adjoint's three branches take, the non-integer
# 2 -> 125 and full scale's 32 -> 2000 (62.5x), and a downsample
GATE_LENGTHS = [(7, 7), (7, 14), (7, 21), (7, 28), (7, 35), (7, 56), (7, 112),
                (2, 125), (32, 2000), (125, 2)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("add", [False, True])
@pytest.mark.parametrize("l_m,l", GATE_LENGTHS)
@pytest.mark.parametrize("taped", ["both", "x", "m"])
def test_gate_resamples_its_modulation_like_interp_resample(l_m, l, add, dtype, taped):
    rng = np.random.default_rng(1000 * l_m + l)
    xd, g = _arr(rng, (5, l), dtype), _arr(rng, (5, l), dtype)
    md = _arr(rng, (5, l_m), dtype, scale=3.0)
    results = []
    for resample_first in (False, True):
        x = Tensor(xd, requires_grad=taped != "m")
        m = Tensor(md, requires_grad=taped != "x")
        y = gate(x, interp_resample(m, l) if resample_first else m, add)
        if not resample_first:
            assert y._parents == (x, m)  # one tape node
        _backward_with(y, g)
        results.append((y.data, x.grad, m.grad))
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _q_params(rng, c, k, groups, bias, dtype):
    conv = Conv1dParams(
        weight=Tensor(_arr(rng, (c, c // groups, k), dtype), requires_grad=True),
        bias=Tensor(_arr(rng, (c,), dtype), requires_grad=True) if bias else None,
        padding=k // 2, groups=groups)
    norm = GlnParams(gain=Tensor(_arr(rng, (c,), dtype, 1.0, 0.3), requires_grad=True),
                     bias=Tensor(_arr(rng, (c,), dtype), requires_grad=True))
    return nn.QParams(conv=conv, gln=norm)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("groups", [1, 2, 4])
@pytest.mark.parametrize("length", [None, 24, 15, 4])  # none, up x4, up x2.5, down
def test_q_op_is_one_node_equal_to_the_composed_ops(length, groups, k, dtype):
    rng = np.random.default_rng(100 * k + 10 * groups + (length or 0))
    xd = _arr(rng, (4, 6), dtype)
    g = _arr(rng, (4, length or 6), dtype)
    for taped in (True, False):
        for bias in (False, True):
            results = []
            for fused in (True, False):
                q = _q_params(np.random.default_rng(groups), 4, k, groups, bias, dtype)
                x = Tensor(xd, requires_grad=taped)
                if fused:
                    y = q_op(x, q, length)
                    conv, norm = q.conv, q.gln
                    want = (x, conv.weight, norm.gain, norm.bias) + ((conv.bias,) if bias else ())
                    assert y._parents == want  # one tape node
                else:
                    up = x if length is None else interp_resample(x, length)
                    y = gln(conv1d(up, q.conv), q.gln)
                _backward_with(y, g)
                leaves = [x, q.conv.weight, q.conv.bias, q.gln.gain, q.gln.bias]
                results.append([y.data] + [None if t is None else t.grad for t in leaves])
            for got, want in zip(*results):
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == dtype
                    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("length", [None, 24, 15, 4])
def test_q_op_keeps_its_input_and_no_intermediate(length):
    rng = np.random.default_rng(3)
    x = Tensor(_arr(rng, (4, 6), np.float32), requires_grad=True)
    y = q_op(x, _q_params(rng, 4, 5, 1, True, np.float32), length)
    kept = [c.cell_contents for c in y._backward.__closure__]
    arrays = [v for v in kept if isinstance(v, np.ndarray)]
    # x's data, and for a non-integer ratio the nearest-neighbour map
    assert any(v is x.data for v in arrays)
    assert all(v is x.data or v.dtype.kind == "i" for v in arrays)


@pytest.mark.parametrize("over", [{}, {"q_kernel": 5, "depthwise": True, "dropout_p": 0.1}])
def test_a_model_step_keeps_no_q_intermediate(over):
    # no conv output that only a gLN reads, and no upsampled copy that only
    # a conv reads: each Q's node rebuilds both in its backward
    cfg = tiny_config(**over)
    p = build_params(cfg, seed=0)
    for _, t in named_tensors(p):
        t.requires_grad = True
    rng = np.random.default_rng(0)
    mix = rng.standard_normal(800).astype(np.float32)
    out = separate(Tensor(mix[None, :]), Tensor(energy_envelope(mix, cfg.sample_rate)), cfg, p,
                   np.random.default_rng(1))
    loss = metrics.pit_si_snr_loss(out.waveforms, [rng.standard_normal(800)])
    nodes, readers = loss.tape(), {}
    for node in nodes:
        for parent in node._parents:
            readers.setdefault(parent, []).append(node)

    def op(node):
        return node._backward.__qualname__.split(".")[0]

    assert {"conv1d", "interp_resample"} <= {op(n) for n in nodes}
    for node in nodes:
        reads = {op(r) for r in readers.get(node, [])}
        assert not (op(node) == "conv1d" and reads == {"gln"})
        assert not (op(node) == "interp_resample" and reads == {"conv1d"})


def test_gradcheck_oracle_runs_tape_free_and_unmarks_its_leaves():
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), dtype=np.float64)
    taped = []

    def loss():
        y = checks._weighted_sum(T.sigmoid(x), 3)
        taped.append(y.requires_grad)
        return y

    assert checks.gradcheck("sigmoid", loss, [x]).passed
    assert taped[0] and not any(taped[1:])
    assert len(taped) == 1 + 2 * x.size
    assert not x.requires_grad and x.grad is None


def test_gradcheck_drops_its_tape_before_the_oracle_runs(refcount_only):
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), dtype=np.float64)
    losses, live = [], []

    def loss():
        # Tensor has no __weakref__, so each loss is watched through its data
        live.append(sum(r() is not None for r in losses))
        y = checks._weighted_sum(T.sigmoid(x), 3)
        losses.append(weakref.ref(y.data))
        return y

    assert checks.gradcheck("sigmoid", loss, [x]).passed
    assert len(live) == 1 + 2 * x.size and not any(live)


def test_readout_is_drawn_once_per_seed_and_shape():
    a = checks._readout(5, (2, 3))
    assert checks._readout(5, (2, 3)) is a
    np.testing.assert_array_equal(a.data, np.random.default_rng(5).uniform(-1, 1, (2, 3)))


# -- gradient hand-over ------------------------------------------------------


def test_accum_keeps_a_fresh_buffer_and_copies_the_rest():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    fresh = np.ones((2, 3))
    _accum(t, fresh)
    assert t.grad is fresh
    whole = np.ones(6).reshape(2, 3)  # a whole reshape of a fresh buffer
    t.grad = None
    _accum(t, whole)
    assert t.grad is whole
    big = np.ones((2, 4))
    for other in (np.broadcast_to(np.ones(3), (2, 3)),  # read-only
                  big[:, :3],  # part of a larger buffer
                  np.ones((3, 2)).T):  # not C-contiguous
        t.grad = None
        _accum(t, other)
        assert t.grad is not other and not np.shares_memory(t.grad, other)
        assert t.grad.flags.writeable and t.grad.flags.c_contiguous
        np.testing.assert_array_equal(t.grad, other)


def test_fan_out_inputs_that_gain_more_gradient_keep_their_own():
    # ew_add hands its upstream to both inputs; each then receives more
    x1 = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x2 = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    a, b = T.scale(x1, 1.0), T.scale(x2, 1.0)
    w, u, v = (Tensor(np.array(q)) for q in ([2.0, 3.0], [5.0, 7.0], [11.0, 13.0]))
    z = T.ew_add(T.ew_mul(T.ew_add(a, b), w), T.ew_add(T.ew_mul(a, u), T.ew_mul(b, v)))
    T.sum_all(z).backward()
    np.testing.assert_array_equal(x1.grad, [7.0, 10.0])
    np.testing.assert_array_equal(x2.grad, [13.0, 16.0])
    for leaf in (x1, x2):
        leaf_b = T.ew_add(leaf, leaf)  # a leaf used twice, through one node
        leaf.grad = None
        T.sum_all(T.ew_mul(leaf_b, w)).backward()
        np.testing.assert_array_equal(leaf.grad, [4.0, 6.0])


def test_sum_all_gradient_is_a_writable_copy():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.sum_all(x).backward()
    assert x.grad.flags.writeable and x.grad.flags.owndata
    first = x.grad
    T.sum_all(x).backward()  # the same graph built again
    assert x.grad is first
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


@pytest.mark.parametrize("dtype", DTYPES)
def test_pad_and_crop_gradients_with_more_gradient_later(dtype):
    # small integers, so every order of the sums is exact
    rng = np.random.default_rng(7)
    x = Tensor(_arr(rng, (3, 10), dtype), requires_grad=True)
    g1, g2, g3 = (rng.integers(-8, 8, (3, n)).astype(dtype) for n in (14, 6, 10))

    def loss():
        return T.ew_add(T.ew_add(T.sum_all(T.ew_mul(pad_right(x, 4), Tensor(g1))),
                                 T.sum_all(T.ew_mul(crop_time(x, 6), Tensor(g2)))),
                        T.sum_all(T.ew_mul(x, Tensor(g3))))

    loss().backward()
    want = g1[:, :10] + g3
    want[:, :6] += g2
    np.testing.assert_array_equal(x.grad, want)
    first = x.grad
    loss().backward()  # the same graph built again adds the same gradients once more
    assert x.grad is first
    np.testing.assert_array_equal(x.grad, want + want)


def test_every_upstream_gradient_of_a_model_step_is_c_contiguous():
    cfg = tiny_config()
    p = build_params(cfg, seed=0)
    for _, t in named_tensors(p):
        t.requires_grad = True
    rng = np.random.default_rng(0)
    mix = rng.standard_normal(800).astype(np.float32)
    out = separate(Tensor(mix[None, :]), Tensor(energy_envelope(mix, cfg.sample_rate)), cfg, p)
    loss = metrics.pit_si_snr_loss(out.waveforms, [rng.standard_normal(800)])
    flags = []
    for node in loss.tape():
        def spy(g, back=node._backward):
            flags.append(np.asarray(g).flags.c_contiguous)
            back(g)
        node._backward = spy
    loss.backward()
    assert len(flags) > 90 and all(flags)  # this tape records 96 nodes
    assert all(t.grad.flags.c_contiguous for _, t in named_tensors(p) if t.grad is not None)
