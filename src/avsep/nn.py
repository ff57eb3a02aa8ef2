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
from .tensor import Tensor, _accum, _node

__all__ = [
    "Conv1dParams",
    "GlnParams",
    "QParams",
    "FfnParams",
    "conv1d",
    "conv_transpose1d",
    "avg_pool1d",
    "interp_resample",
    "gln",
    "q_op",
    "ffn",
    "dropout",
    "slice_channels",
    "conv1d_out_len",
    "conv_transpose1d_out_len",
]

GLN_EPS = 1e-8


@dataclass
class Conv1dParams:
    """Weights of a 1-D convolution whose channels split into ``groups``
    independent blocks: output block ``j`` sees only input block ``j``.
    ``groups=1`` is the dense conv; ``groups == C_in`` is depthwise."""

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

    convs: list[Conv1dParams]
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
    k, stride, pad = p.kernel, p.stride, p.padding
    if k == 1 and stride == 1 and not pad:
        return x.reshape(p.groups, -1, x.shape[1])
    if pad:  # zero-filled copy; np.pad costs more than the conv at small sizes
        xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad), dtype=x.dtype)
        xp[:, pad:-pad] = x
        x = xp
    c, lp = x.shape
    l_out = (lp - k) // stride + 1
    s0, s1 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(c, k, l_out), strides=(s0, s1, s1 * stride))
    return win.reshape(p.groups, -1, l_out)  # copies when K > 1 and groups < C_in


def _correlate(x: np.ndarray, p: Conv1dParams) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlate ``x`` [C_in, L] with the weight: each channel group is
    one matrix product over its :func:`_columns`, and the groups run as one
    batched matmul. Returns the result [C_out, L_out] and the columns the
    weight gradient reads."""
    cols = _columns(x, p)
    return (p.weight_blocks() @ cols).reshape(p.out_channels, cols.shape[2]), cols


def _overlap_add(y: np.ndarray, p: Conv1dParams, length: int, dtype) -> np.ndarray:
    """Adjoint of :func:`_correlate` on [C_out, L] ``y``: spread each frame
    over its K taps through the transposed weight, overlap-add tap ``k`` of
    frame ``t`` at ``t*stride + k`` into a ``dtype`` buffer, and crop the
    padding to ``length`` samples of [C_in, length]. With K = 1, stride 1
    and no padding nothing overlaps, and the product is the result."""
    k, stride, pad = p.kernel, p.stride, p.padding
    l = y.shape[1]
    tmp = p.weight_blocks().transpose(0, 2, 1) @ y.reshape(p.groups, -1, l)
    if k == 1 and stride == 1 and not pad:
        return tmp.reshape(p.in_channels, l).astype(dtype, copy=False)
    tmp = tmp.reshape(p.in_channels, k, l)
    out = np.zeros((p.in_channels, length + 2 * pad), dtype=dtype)
    for kk in range(k):
        out[:, kk : kk + stride * l : stride] += tmp[:, kk, :]
    return out[:, pad : pad + length]


def _weight_grad(y: np.ndarray, cols: np.ndarray, p: Conv1dParams) -> np.ndarray:
    """Weight gradient from the [C_out, L] side and the [C_in] side's columns."""
    return (y.reshape(p.groups, -1, cols.shape[2]) @ cols.transpose(0, 2, 1)).reshape(
        p.weight.shape)


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Cross-correlation with zero padding over the time axis. The tape
    keeps the input, not its im2col columns: the backward rebuilds the
    columns from ``x`` with the forward's own code, so the weight gradient
    reads the same values in the same layout at the cost of one im2col."""
    if x.data.ndim != 2:
        raise GeometryError(f"conv1d expects [C, L], got {x.shape}")
    c_in, l_in = x.shape
    if c_in != p.in_channels:
        raise GeometryError(f"conv1d channel mismatch: input {c_in}, weight {p.in_channels}")
    k, stride, pad = p.kernel, p.stride, p.padding
    if conv1d_out_len(l_in, k, stride, pad) < 1:
        raise GeometryError(f"conv1d input too short: L={l_in}, K={k}, stride={stride}, pad={pad}")

    y = _correlate(x.data, p)[0]
    if p.bias is not None:
        y = y + p.bias.data[:, None]

    parents = (x, p.weight) + ((p.bias,) if p.bias is not None else ())

    def back(grad):
        _accum(p.weight, _weight_grad(grad, _columns(x.data, p), p))
        if p.bias is not None:
            _accum(p.bias, grad.sum(axis=1))
        if x.on_tape:
            _accum(x, _overlap_add(grad, p, l_in, x.dtype))

    return _node(y, parents, back)


def conv_transpose1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Adjoint of :func:`conv1d` with the same parameters.

    ``x`` must have ``p.out_channels`` channels; the result has
    ``p.in_channels`` channels and length ``(L-1)*stride + K - 2*padding``.
    """
    if x.data.ndim != 2:
        raise GeometryError(f"conv_transpose1d expects [C, L], got {x.shape}")
    c, l_in = x.shape
    if c != p.out_channels:
        raise GeometryError(
            f"conv_transpose1d channel mismatch: input {c}, weight {p.out_channels}"
        )
    l_out = conv_transpose1d_out_len(l_in, p.kernel, p.stride, p.padding)
    if l_out < 1:
        raise GeometryError("conv_transpose1d output would be empty")

    y = _overlap_add(x.data, p, l_out, x.dtype)
    if p.bias is not None:
        # transpose-direction bias lives on the result channels (C_in of p)
        if p.bias.shape[0] != p.in_channels:
            raise GeometryError("conv_transpose1d bias length mismatch")
        y = y + p.bias.data[:, None]

    parents = (x, p.weight) + ((p.bias,) if p.bias is not None else ())

    def back(grad):
        if p.bias is not None:
            _accum(p.bias, grad.sum(axis=1))
        gx, cols = _correlate(grad, p)
        _accum(x, gx)
        _accum(p.weight, _weight_grad(x.data, cols, p))

    return _node(y, parents, back)


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
    which it computes for windows longer than 128, where numpy's pairwise
    sum splits the window."""
    if ratio < 1:
        raise GeometryError("pool ratio must be >= 1")
    c, l = x.shape
    if l % ratio:
        raise GeometryError(f"length {l} not divisible by pool ratio {ratio}")
    x3 = x.data.reshape(c, l // ratio, ratio)
    if ratio == 1:
        y = x.data.copy()
    elif ratio <= 128:
        y = _window_sums(x3)
        y /= ratio
    else:
        y = x3.mean(axis=2)

    def back(g):
        _accum(x, np.repeat(g / ratio, ratio, axis=1) if ratio > 1 else g)

    return _node(y, (x,), back)


def interp_resample(x: Tensor, target_len: int) -> Tensor:
    """Nearest-neighbor temporal resampling: out[c, t] = x[c, floor(t*L/T)].
    Every branch writes a C-ordered result, where ``x[:, idx]`` returns a
    transposed layout that slows every element-wise op on it. Downsampling
    reads each source frame at most once and gathers with ``np.take``;
    upsampling repeats each source frame, by the scalar ratio when T is a
    multiple of L and by its count otherwise. There ``np.take`` is at most
    a quarter faster at ratios 2 and 4 but up to 6x slower at the 62.5x
    and 125x video-to-audio ratios, and 30-40% slower summed over a
    forward's upsamples."""
    if target_len < 1:
        raise GeometryError("target length must be positive")
    c, l = x.shape
    r = target_len // l if target_len % l == 0 else 0  # the integer ratio, if any
    idx = None
    if r == 1:
        y = x.data.copy()
    elif r:
        y = np.repeat(x.data, r, axis=1)
    else:
        idx = (np.arange(target_len) * l) // target_len
        if target_len < l:
            y = np.take(x.data, idx, axis=1)
        else:
            y = np.repeat(x.data, np.bincount(idx, minlength=l), axis=1)

    def back(g):
        if r == 1:
            _accum(x, g)
        elif 2 <= r <= 8:
            # runs of r = 2..8 outputs: reduceat's order for runs shorter
            # than 9, the first plus the sequential sum of the rest
            g3 = g.reshape(c, l, r)
            rest = g3[:, :, 1].copy()
            for k in range(2, r):
                rest += g3[:, :, k]
            _accum(x, g3[:, :, 0] + rest)
        elif r:  # runs of r > 8 outputs, starting every r
            _accum(x, np.add.reduceat(g, np.arange(l) * r, axis=1))
        elif target_len < l:  # idx strictly increases: each source frame is read at most once
            gx = np.zeros((c, l), dtype=g.dtype)
            gx[:, idx] = g
            _accum(x, gx)
        else:  # idx reads every source frame, each over one sorted run of outputs
            _accum(x, np.add.reduceat(g, np.searchsorted(idx, np.arange(l)), axis=1))

    return _node(y, (x,), back)


def gln(x: Tensor, p: GlnParams) -> Tensor:
    """Global layer norm: ``y = gain[c] * (x - m) / sqrt(v + GLN_EPS) + bias[c]``
    with ``m`` and ``v`` the mean and variance over all C*T entries. ``v``
    is the mean of ``(x - m)**2``, taken after the mean, so a large mean
    does not cancel away a small spread."""
    c, l = x.shape
    if p.gain.shape[0] != c or p.bias.shape[0] != c:
        raise GeometryError("gln gain/bias length must equal channel count")
    n = c * l
    m = x.data.sum() / n  # ndarray.mean's sum and division, without its wrapper
    d = x.data - m
    inv = 1.0 / np.sqrt(np.vdot(d, d) / n + GLN_EPS)
    d *= (p.gain.data * inv)[:, None]
    d += p.bias.data[:, None]

    def back(g):
        # inv * (u - mean(u) - xhat * sum(u * xhat) / n) with u = g * gain,
        # in that order, reusing buffers where the order allows
        xhat = x.data - m
        xhat *= inv
        t = g * xhat
        _accum(p.gain, t.sum(axis=1))
        _accum(p.bias, g.sum(axis=1))
        u = np.multiply(g, p.gain.data[:, None], out=t)
        s = (u * xhat).sum()
        gx = u - u.sum() / n
        xhat *= s
        xhat /= n
        gx -= xhat
        gx *= inv
        _accum(x, gx)

    return _node(d, (x, p.gain, p.bias), back)


def q_op(x: Tensor, p: QParams) -> Tensor:
    """Convolution followed by global layer norm; each instance owns its
    own parameters."""
    return gln(conv1d(x, p.conv), p.gln)


def ffn(x: Tensor, p: FfnParams) -> Tensor:
    """Three chained convolutions (middle one padded to preserve length)
    followed by one global layer norm."""
    h = x
    for cp in p.convs:
        h = conv1d(h, cp)
    return gln(h, p.gln)


def pad_right(x: Tensor, n: int) -> Tensor:
    """Append n zero frames along time."""
    if n < 0:
        raise GeometryError("pad length must be nonnegative")
    if n == 0:
        return x

    def back(g):
        _accum(x, g[:, : x.shape[1]])

    return _node(np.pad(x.data, ((0, 0), (0, n))), (x,), back)


def crop_time(x: Tensor, length: int) -> Tensor:
    """Keep the first `length` frames along time."""
    if not 1 <= length <= x.shape[1]:
        raise GeometryError(f"cannot crop length {x.shape[1]} to {length}")
    if length == x.shape[1]:
        return x

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
