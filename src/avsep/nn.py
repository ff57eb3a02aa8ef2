"""Layer primitives: 1-D convolutions, pooling, interpolation, global
layer norm, the conv+norm unit, the three-conv feed-forward stack, and
dropout.

All operate on [channels x time] tensors and are differentiable through
the tape in :mod:`avsep.tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .tensor import Tensor, _accum, _node, _sigmoid

GLN_EPS = 1e-8


@dataclass
class Conv1dParams:
    """Weights of a 1-D convolution whose channels split into ``groups``
    independent blocks: output block ``j`` sees only input block ``j``.
    ``groups=1`` is the dense conv; ``groups == C_in`` is depthwise. The
    bias, if any, is [C_out] and only :func:`conv1d` adds it:
    :func:`conv_transpose1d` takes none."""

    weight: Tensor  # [C_out, C_in / groups, K]
    bias: Tensor | None  # [C_out]
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        if self.weight.data.ndim != 3:
            raise GeometryError(f"conv weight must be 3-D, got {self.weight.shape}")
        if self.weight.shape[2] < 1 or self.stride < 1 or self.padding < 0:
            raise GeometryError("invalid conv geometry")
        if self.groups < 1 or self.out_channels % self.groups:
            raise GeometryError(
                f"groups={self.groups} does not divide {self.out_channels} output channels"
            )

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    def weight_blocks(self) -> np.ndarray:
        """The weight as [groups, C_out/groups, (C_in/groups)*K] matrices."""
        return self.weight.data.reshape(self.groups, self.out_channels // self.groups, -1)


@dataclass
class GlnParams:
    gain: Tensor  # [C]
    bias: Tensor  # [C]


@dataclass
class QParams:
    """A 1-D convolution followed by a global layer norm."""

    conv: Conv1dParams
    gln: GlnParams


@dataclass
class FfnParams:
    """Three chained convolutions followed by one global layer norm."""

    conv0: Conv1dParams
    conv1: Conv1dParams
    conv2: Conv1dParams
    gln: GlnParams


def conv1d_out_len(l_in: int, kernel: int, stride: int, padding: int) -> int:
    return (l_in + 2 * padding - kernel) // stride + 1


def conv_transpose1d_out_len(l_in: int, kernel: int, stride: int, padding: int) -> int:
    return (l_in - 1) * stride + kernel - 2 * padding


def _columns(x: np.ndarray, p: Conv1dParams) -> np.ndarray:
    """The im2col columns [G, C_in/G*K, L_out] of ``x`` [C_in, L] zero-padded
    by ``p.padding``. With K = 1, stride 1 and no padding they are a view of
    ``x``, and with ``groups == C_in`` a strided view of ``x`` or of its
    padded copy, so they may not be written to."""
    k = p.weight.data.shape[2]
    stride, pad, groups = p.stride, p.padding, p.groups
    if k == 1 and stride == 1 and not pad:
        return x.reshape(groups, -1, x.shape[1])
    if pad:  # zero-filled copy; np.pad costs more than the conv at small sizes
        xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad), dtype=x.dtype)
        xp[:, pad:-pad] = x
        x = xp
    else:
        x = np.ascontiguousarray(x)
    c, lp = x.shape
    l_out = (lp - k) // stride + 1
    s0, s1 = x.strides
    # a window view over x's buffer: a fifth of as_strided's fixed cost
    win = np.ndarray((c, k, l_out), x.dtype, x, 0, (s0, s1, s1 * stride))
    return win.reshape(groups, -1, l_out)  # copies when K > 1 and groups < C_in


def _correlate(x: np.ndarray, p: Conv1dParams) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlate ``x`` [C_in, L] with the weight and add the bias when
    ``p`` has one: each channel group is one matrix product over its
    :func:`_columns`, and the groups run as one batched matmul (one plain
    matmul when there is one group). Returns the result [C_out, L_out] in a
    new buffer and the columns the weight gradient reads."""
    cols = _columns(x, p)
    w = p.weight.data
    if p.groups == 1:
        y = w.reshape(w.shape[0], -1) @ cols[0]
    else:
        y = (p.weight_blocks() @ cols).reshape(w.shape[0], cols.shape[2])
    if p.bias is not None:
        y += p.bias.data[:, None]
    return y, cols


def _overlap_add(y: np.ndarray, p: Conv1dParams, length: int, dtype) -> np.ndarray:
    """Adjoint of :func:`_correlate` on [C_out, L] ``y``: spread each frame
    over its K taps through the transposed weight, overlap-add tap ``k`` of
    frame ``t`` at ``t*stride + k`` into a ``dtype`` buffer, and crop the
    padding to ``length`` samples of [C_in, length]. With K = 1, stride 1
    and no padding nothing overlaps, and the product is the result."""
    w = p.weight.data
    c_out, c_group, k = w.shape
    groups, stride, pad = p.groups, p.stride, p.padding
    c_in, l = c_group * groups, y.shape[1]
    pointwise = k == 1 and stride == 1 and not pad
    if groups == c_in == c_out and not pointwise:
        # depthwise: each tap is one strided multiply-add, the same products
        # summed in the same order as through a [C, K, L] temporary
        out = np.zeros((c_in, length + 2 * pad), dtype=dtype)
        for kk in range(k):
            out[:, kk : kk + stride * l : stride] += y * w[:, :, kk]
        return out[:, pad : pad + length]
    if groups == 1:
        tmp = w.reshape(c_out, -1).T @ y
    else:
        tmp = p.weight_blocks().transpose(0, 2, 1) @ y.reshape(groups, -1, l)
    if pointwise:
        return tmp.reshape(c_in, l).astype(dtype, copy=False)
    tmp = tmp.reshape(c_in, k, l)
    out = np.zeros((c_in, length + 2 * pad), dtype=dtype)
    for kk in range(k):
        out[:, kk : kk + stride * l : stride] += tmp[:, kk, :]
    return out[:, pad : pad + length]


def _weight_grad(y: np.ndarray, cols: np.ndarray, p: Conv1dParams) -> np.ndarray:
    """Weight gradient from the [C_out, L] side and the [C_in] side's columns."""
    shape = p.weight.data.shape
    if p.groups == 1:
        return (y @ cols[0].T).reshape(shape)
    return (y.reshape(p.groups, -1, cols.shape[2]) @ cols.transpose(0, 2, 1)).reshape(shape)


def _conv_param_grads(g: np.ndarray, cols: np.ndarray, p: Conv1dParams) -> None:
    """Accumulate the weight and bias gradients of the conv from its
    upstream gradient ``g`` [C_out, L_out] and its input's columns."""
    _accum(p.weight, _weight_grad(g, cols, p))
    if p.bias is not None:
        _accum(p.bias, g.sum(axis=1))


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Cross-correlation with zero padding over the time axis. The tape
    keeps the input, not its im2col columns: the backward rebuilds the
    columns from ``x`` with the forward's own code, so the weight gradient
    reads the same values in the same layout at the cost of one im2col."""
    xd = x.data
    if xd.ndim != 2:
        raise GeometryError(f"conv1d expects [C, L], got {xd.shape}")
    c_in, l_in = xd.shape
    w, bias = p.weight, p.bias
    _, c_group, k = w.data.shape
    if c_in != c_group * p.groups:
        raise GeometryError(f"conv1d channel mismatch: input {c_in}, weight {c_group * p.groups}")
    stride, pad = p.stride, p.padding
    if conv1d_out_len(l_in, k, stride, pad) < 1:
        raise GeometryError(f"conv1d input too short: L={l_in}, K={k}, stride={stride}, pad={pad}")

    y = _correlate(xd, p)[0]
    parents = (x, w) if bias is None else (x, w, bias)

    def back(grad):
        _conv_param_grads(grad, _columns(x.data, p), p)
        if x.requires_grad:
            _accum(x, _overlap_add(grad, p, l_in, x.data.dtype))

    return _node(y, parents, back)


def conv_transpose1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Adjoint of :func:`conv1d` with the same parameters.

    ``x`` must have ``p.out_channels`` channels; the result has
    ``p.in_channels`` channels and length ``(L-1)*stride + K - 2*padding``.
    It adds no bias: ``p.bias`` must be None.
    """
    if x.data.ndim != 2:
        raise GeometryError(f"conv_transpose1d expects [C, L], got {x.shape}")
    if p.bias is not None:
        raise GeometryError("conv_transpose1d takes no bias")
    c, l_in = x.shape
    if c != p.out_channels:
        raise GeometryError(
            f"conv_transpose1d channel mismatch: input {c}, weight {p.out_channels}"
        )
    l_out = conv_transpose1d_out_len(l_in, p.kernel, p.stride, p.padding)
    if l_out < 1:
        raise GeometryError("conv_transpose1d output would be empty")

    def back(grad):
        gx, cols = _correlate(grad, p)
        _accum(x, gx)
        _accum(p.weight, _weight_grad(x.data, cols, p))

    return _node(_overlap_add(x.data, p, l_out, x.dtype), (x, p.weight), back)


def _window_sums(x3: np.ndarray) -> np.ndarray:
    """``x3.sum(axis=2)`` of [C, N, r] windows with r <= 128, in
    ``np.add.reduce``'s own pairwise order but over strided slices, which
    beats its per-window reduction loop: below 8 the sequential sum; from
    8 up eight running sums of every eighth element, folded as
    ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``, then the sequential rest."""
    r = x3.shape[2]
    if r < 8:
        acc = x3[:, :, 0] + x3[:, :, 1]
        for k in range(2, r):
            acc += x3[:, :, k]
        return acc
    n8 = r - r % 8
    acc = x3[:, :, :8]
    for k in range(8, n8, 8):
        acc = acc + x3[:, :, k : k + 8]
    while acc.shape[2] > 1:
        acc = acc[:, :, 0::2] + acc[:, :, 1::2]
    acc = acc[:, :, 0]
    for k in range(n8, r):
        acc += x3[:, :, k]
    return acc


def avg_pool1d(x: Tensor, ratio: int) -> Tensor:
    """Non-overlapping window means along time; L must divide by ratio.
    Equal bit for bit to ``reshape(C, L // ratio, ratio).mean(axis=2)``,
    which it computes at ratio 1 and for windows longer than 128, where
    numpy's pairwise sum splits the window."""
    if ratio < 1:
        raise GeometryError("pool ratio must be >= 1")
    c, l = x.shape
    if l % ratio:
        raise GeometryError(f"length {l} not divisible by pool ratio {ratio}")
    x3 = x.data.reshape(c, l // ratio, ratio)
    if 1 < ratio <= 128:
        y = _window_sums(x3)
        y /= ratio
    else:
        y = x3.mean(axis=2)

    def back(g):
        _accum(x, np.repeat(g / ratio, ratio, axis=1))

    return _node(y, (x,), back)


def _nearest_map(l: int, target_len: int) -> tuple[int, np.ndarray | None]:
    """The nearest-neighbour map from ``l`` source frames to ``target_len``:
    output ``t`` reads source ``floor(t*l/target_len)``. Returns the ratio
    ``r`` and None when ``target_len`` is a multiple of ``l``, else 0 and
    the source frame of every output."""
    if target_len % l == 0:
        return target_len // l, None
    return 0, (np.arange(target_len) * l) // target_len


def _resample(a: np.ndarray, target_len: int, r: int, idx: np.ndarray | None) -> np.ndarray:
    """``a`` [C, L] copied along the :func:`_nearest_map` ``(r, idx)`` into
    a new C-ordered [C, target_len] buffer, where ``a[:, idx]`` returns a
    transposed layout that slows every element-wise op on it.
    Downsampling gathers with ``np.take``, reading each source frame at
    most once. Upsampling by an integer ratio up to 4 writes one strided
    copy per repeat: 1.7-2.2x faster than ``np.repeat`` at ratio 2 and
    level to 1.7x at 4 (16x500 to 512x1000 floats). From ratio 5 up
    ``np.repeat`` is faster, 3-10x at ratios 8 and 16. Other upsampling
    repeats each frame by its count, where ``np.take`` is up to 6x slower
    at the 62.5x and 125x video-to-audio ratios."""
    c, l = a.shape
    if 1 < r <= 4:
        y = np.empty((c, target_len), dtype=a.dtype)
        y3 = y.reshape(c, l, r)
        for k in range(r):
            y3[:, :, k] = a
        return y
    if r:
        return np.repeat(a, r, axis=1)
    if target_len < l:
        return np.take(a, idx, axis=1)
    return np.repeat(a, np.bincount(idx, minlength=l), axis=1)


def _resample_adjoint(g: np.ndarray, l: int, r: int, idx: np.ndarray | None) -> np.ndarray:
    """Adjoint of :func:`_resample`: ``g`` [C, T] summed back onto the ``l``
    source frames each output was copied from, in ``np.add.reduceat``'s
    order. Returns ``g`` itself at ratio 1."""
    c = g.shape[0]
    if r == 1:
        return g
    if 2 <= r <= 8:
        # runs of r = 2..8 outputs: reduceat's order for runs shorter
        # than 9, the first plus the sequential sum of the rest
        g3 = g.reshape(c, l, r)
        rest = g3[:, :, 1].copy()
        for k in range(2, r):
            rest += g3[:, :, k]
        return g3[:, :, 0] + rest
    if r:  # runs of r > 8 outputs, starting every r
        return np.add.reduceat(g, np.arange(l) * r, axis=1)
    if g.shape[1] < l:  # idx strictly increases: each source frame is read at most once
        gx = np.zeros((c, l), dtype=g.dtype)
        gx[:, idx] = g
        return gx
    # idx reads every source frame, each over one sorted run of outputs
    return np.add.reduceat(g, np.searchsorted(idx, np.arange(l)), axis=1)


def interp_resample(x: Tensor, target_len: int) -> Tensor:
    """Nearest-neighbor temporal resampling: out[c, t] = x[c, floor(t*L/T)],
    written C-ordered by :func:`_resample`."""
    if target_len < 1:
        raise GeometryError("target length must be positive")
    l = x.shape[1]
    r, idx = _nearest_map(l, target_len)

    def back(g):
        _accum(x, _resample_adjoint(g, l, r, idx))

    return _node(_resample(x.data, target_len, r, idx), (x,), back)


def gate(x: Tensor, m: Tensor, add: bool = False) -> Tensor:
    """The sigmoid gate ``sigmoid(up(m)) * x``, plus ``up(m)`` when ``add``
    is set, where ``up`` resamples ``m`` [C, L_m] to the frame count of
    ``x`` [C, L] as :func:`interp_resample` does, in either direction. It
    records one tape node and equals, bit for bit, ``sigmoid``, ``ew_mul``
    and ``ew_add`` composed over ``interp_resample(m, L)``. The sigmoid,
    which the backward recomputes rather than keeps, runs at the shorter
    of the two lengths: sigmoid and resampling commute."""
    xd, md = x.data, m.data
    if xd.ndim != 2 or md.ndim != 2 or xd.shape[0] != md.shape[0]:
        raise GeometryError(f"gate needs [C, L] inputs with equal C: {xd.shape} vs {md.shape}")
    l_m, l = md.shape[1], xd.shape[1]
    r, idx = _nearest_map(l_m, l)
    up = l_m < l
    ms = _resample(md, l, r, idx) if l_m > l else md  # the modulation at the shorter length
    y = _sigmoid(ms)
    if up:
        y = _resample(y, l, r, idx)
    y *= xd
    if add:
        y += _resample(md, l, r, idx) if up else ms

    def back(g):
        s = _sigmoid(ms)
        if up:
            s = _resample(s, l, r, idx)
        if x.requires_grad:
            _accum(x, g * s)
        if not m.requires_grad:
            return
        gm = g * xd
        gm *= s
        gm *= np.subtract(1.0, s, out=s)  # 1 - s, in s's buffer
        if add:
            gm += g
        _accum(m, _resample_adjoint(gm, l_m, r, idx))

    return _node(y, (x, m), back)


def _gln_forward(x: np.ndarray, p: GlnParams, out: np.ndarray | None = None):
    """Global layer norm of ``x`` [C, L] in ``out`` (``x`` itself may be
    given) or a new buffer, with the mean and inverse scale its backward
    reads."""
    gain, bias = p.gain.data, p.bias.data
    c, l = x.shape
    if gain.shape[0] != c or bias.shape[0] != c:
        raise GeometryError("gln gain/bias length must equal channel count")
    n = c * l
    # np.add.reduce is ndarray.sum without its Python wrapper
    m = np.add.reduce(x, axis=None) / n  # ndarray.mean's sum and division
    d = np.subtract(x, m, out=out)
    inv = 1.0 / np.sqrt(np.vdot(d, d) / n + GLN_EPS)
    d *= (gain * inv)[:, None]
    d += bias[:, None]
    return d, m, inv


def _gln_backward(g: np.ndarray, d: np.ndarray, inv, p: GlnParams) -> np.ndarray:
    """Accumulate gain's and bias's gradients from the upstream ``g`` and
    return the input's, for the :func:`_gln_forward` that gave ``inv`` on
    an input whose centred copy ``d`` (the input minus its mean) is
    overwritten here."""
    gain, n = p.gain, d.size
    # inv * (u - mean(u) - xhat * sum(u * xhat) / n) with u = g * gain,
    # in that order, in d's buffer and two more
    xhat = d
    xhat *= inv
    t = g * xhat
    _accum(gain, np.add.reduce(t, axis=1))
    _accum(p.bias, np.add.reduce(g, axis=1))
    u = np.multiply(g, gain.data[:, None], out=t)
    s = np.add.reduce(u * xhat, axis=None)
    gx = np.subtract(u, np.add.reduce(u, axis=None) / n, out=u)
    xhat *= s
    xhat /= n
    gx -= xhat
    gx *= inv
    return gx


def gln(x: Tensor, p: GlnParams) -> Tensor:
    """Global layer norm: ``y = gain[c] * (x - m) / sqrt(v + GLN_EPS) + bias[c]``
    with ``m`` and ``v`` the mean and variance over all C*T entries. ``v``
    is the mean of ``(x - m)**2``, taken after the mean, so a large mean
    does not cancel away a small spread."""
    y, m, inv = _gln_forward(x.data, p)

    def back(g):
        _accum(x, _gln_backward(g, x.data - m, inv, p))

    return _node(y, (x, p.gain, p.bias), back)


def q_op(x: Tensor, p: QParams, length: int | None = None) -> Tensor:
    """Q(up(x)): global layer norm of the convolution of ``x`` [C, L]
    resampled to ``length`` frames as :func:`interp_resample` does, or of
    ``x`` itself when ``length`` is None or L. It records one tape node,
    equal bit for bit to ``gln(conv1d(interp_resample(x, length)))``,
    that keeps ``x`` and gLN's mean and inverse scale but neither the
    resampled copy nor the conv output: its backward rebuilds both (one
    resample and one im2col matrix product), then runs gLN's and the
    conv's backward. The forward runs the public :func:`conv1d` on a
    stand-in off the tape. Each instance owns its own parameters."""
    xd = x.data
    if xd.ndim != 2:
        raise GeometryError(f"q_op expects [C, L], got {xd.shape}")
    l = xd.shape[1]
    if length is None:
        length = l
    elif length < 1:
        raise GeometryError("target length must be positive")
    r, idx = _nearest_map(l, length)
    conv, norm = p.conv, p.gln

    def up():
        return xd if r == 1 else _resample(xd, length, r, idx)

    z = conv1d(Tensor.unscanned(up()), conv).data
    y, m, inv = _gln_forward(z, norm, out=z)

    def back(g):
        z, cols = _correlate(up(), conv)
        z -= m
        gz = _gln_backward(g, z, inv, norm)
        _conv_param_grads(gz, cols, conv)
        if x.requires_grad:
            _accum(x, _resample_adjoint(_overlap_add(gz, conv, length, xd.dtype), l, r, idx))

    parents = (x, conv.weight, norm.gain, norm.bias)
    return _node(y, parents if conv.bias is None else parents + (conv.bias,), back)


def ffn(x: Tensor, p: FfnParams) -> Tensor:
    """Three chained convolutions (middle one padded to preserve length)
    followed by one global layer norm; the last conv and the norm are one
    :func:`q_op` node."""
    return q_op(conv1d(conv1d(x, p.conv0), p.conv1), QParams(conv=p.conv2, gln=p.gln))


def pad_right(x: Tensor, n: int) -> Tensor:
    """Append n zero frames along time."""
    if n < 0:
        raise GeometryError("pad length must be nonnegative")
    if n == 0:
        return x

    def back(g):
        _accum(x, g[:, : x.shape[1]])

    c, l = x.shape
    y = np.zeros((c, l + n), dtype=x.dtype)  # np.pad's fixed cost exceeds the copy
    y[:, :l] = x.data
    return _node(y, (x,), back)


def crop_time(x: Tensor, length: int) -> Tensor:
    """Keep the first `length` frames along time."""
    if not 1 <= length <= x.shape[1]:
        raise GeometryError(f"cannot crop length {x.shape[1]} to {length}")

    def back(g):
        gx = np.zeros_like(x.data)
        gx[:, :length] = g
        _accum(x, gx)

    return _node(x.data[:, :length].copy(), (x,), back)


def slice_channels(x: Tensor, lo: int, hi: int) -> Tensor:
    """Keep channels ``lo:hi``."""

    def back(g):
        gx = np.zeros_like(x.data)
        gx[lo:hi] = g
        _accum(x, gx)

    return _node(x.data[lo:hi].copy(), (x,), back)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with its keep mask drawn from ``rng``; the identity,
    drawing nothing, when ``rng`` is None (inference) or p=0."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if rng is None or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    inv = 1.0 / (1.0 - p)
    y = x.data * keep * inv

    def back(g):
        _accum(x, g * keep * inv)

    return _node(y, (x,), back)
