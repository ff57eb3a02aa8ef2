"""Layer primitives: 1-D convolutions, pooling, interpolation, global
layer norm, the conv+norm unit, the three-conv feed-forward stack, and
dropout.

All operate on [channels x time] tensors and are differentiable through
the tape in :mod:`avsep.tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    eps: float = GLN_EPS


@dataclass
class QParams:
    """A 1-D convolution followed by a global layer norm."""

    conv: Conv1dParams
    gln: GlnParams


@dataclass
class FfnParams:
    """Three chained convolutions followed by one global layer norm."""

    convs: list[Conv1dParams] = field(default_factory=list)
    gln: GlnParams | None = None


def conv1d_out_len(l_in: int, kernel: int, stride: int, padding: int) -> int:
    return (l_in + 2 * padding - kernel) // stride + 1


def conv_transpose1d_out_len(l_in: int, kernel: int, stride: int, padding: int) -> int:
    return (l_in - 1) * stride + kernel - 2 * padding


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Strided view [C, K, L_out] over a padded [C, L] array."""
    c, lp = x.shape
    l_out = (lp - kernel) // stride + 1
    s0, s1 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(c, kernel, l_out), strides=(s0, s1, s1 * stride)
    )


def _scatter_taps(tmp: np.ndarray, stride: int, length: int, dtype) -> np.ndarray:
    """Overlap-add [C, K, L] per-tap columns into a [C, length] signal:
    tap ``k`` of frame ``t`` lands at ``t*stride + k``."""
    c, k, l = tmp.shape
    out = np.zeros((c, length), dtype=dtype)
    for kk in range(k):
        out[:, kk : kk + stride * l : stride] += tmp[:, kk, :]
    return out


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Cross-correlation with zero padding over the time axis.

    Each channel group is one matrix product over its im2col columns; the
    groups run as one batched matmul, of a single matrix when dense.
    """
    if x.data.ndim != 2:
        raise GeometryError(f"conv1d expects [C, L], got {x.shape}")
    c_in, l_in = x.shape
    if c_in != p.in_channels:
        raise GeometryError(f"conv1d channel mismatch: input {c_in}, weight {p.in_channels}")
    k, stride, pad, g = p.kernel, p.stride, p.padding, p.groups
    l_out = conv1d_out_len(l_in, k, stride, pad)
    if l_out < 1:
        raise GeometryError(f"conv1d input too short: L={l_in}, K={k}, stride={stride}, pad={pad}")

    if pad:  # zero-filled copy; np.pad costs more than the conv at small sizes
        xp = np.zeros((c_in, l_in + 2 * pad), dtype=x.dtype)
        xp[:, pad : pad + l_in] = x.data
    else:
        xp = x.data
    win = _windows(xp, k, stride)  # [C_in, K, L_out]
    wmat = p.weight_blocks()  # [G, C_out/G, C_in/G*K]
    cols = np.ascontiguousarray(win).reshape(g, -1, l_out)  # [G, C_in/G*K, L_out]
    y = (wmat @ cols).reshape(p.out_channels, l_out)
    if p.bias is not None:
        y = y + p.bias.data[:, None]

    parents = (x, p.weight) + ((p.bias,) if p.bias is not None else ())

    def back(grad):
        gg = grad.reshape(g, -1, l_out)
        _accum(p.weight, (gg @ cols.transpose(0, 2, 1)).reshape(p.weight.shape))
        if p.bias is not None:
            _accum(p.bias, grad.sum(axis=1))
        tmp = (wmat.transpose(0, 2, 1) @ gg).reshape(c_in, k, l_out)
        gxp = _scatter_taps(tmp, stride, xp.shape[1], xp.dtype)
        _accum(x, gxp[:, pad : pad + l_in] if pad else gxp)

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
    k, stride, pad, g = p.kernel, p.stride, p.padding, p.groups
    l_out = conv_transpose1d_out_len(l_in, k, stride, pad)
    if l_out < 1:
        raise GeometryError("conv_transpose1d output would be empty")

    c_res = p.in_channels
    wmat = p.weight_blocks()  # [G, C/G, C_res/G*K]
    xg = x.data.reshape(g, -1, l_in)
    tmp = (wmat.transpose(0, 2, 1) @ xg).reshape(c_res, k, l_in)
    full = _scatter_taps(tmp, stride, (l_in - 1) * stride + k, x.dtype)
    y = full[:, pad : pad + l_out] if pad else full
    if p.bias is not None:
        # transpose-direction bias lives on the result channels (C_in of p)
        if p.bias.shape[0] != c_res:
            raise GeometryError("conv_transpose1d bias length mismatch")
        y = y + p.bias.data[:, None]

    parents = (x, p.weight) + ((p.bias,) if p.bias is not None else ())

    def back(grad):
        if p.bias is not None:
            _accum(p.bias, grad.sum(axis=1))
        gf = np.zeros((c_res, (l_in - 1) * stride + k), dtype=grad.dtype)
        gf[:, pad : pad + l_out] = grad
        cols = np.ascontiguousarray(_windows(gf, k, stride)).reshape(g, -1, l_in)
        _accum(x, (wmat @ cols).reshape(c, l_in))
        _accum(p.weight, (xg @ cols.transpose(0, 2, 1)).reshape(p.weight.shape))

    return _node(y, parents, back)


def avg_pool1d(x: Tensor, ratio: int) -> Tensor:
    """Non-overlapping window means along time; L must divide by ratio."""
    if ratio < 1:
        raise GeometryError("pool ratio must be >= 1")
    c, l = x.shape
    if l % ratio:
        raise GeometryError(f"length {l} not divisible by pool ratio {ratio}")
    if ratio == 1:
        y = x.data.copy()
    else:
        y = x.data.reshape(c, l // ratio, ratio).mean(axis=2)

    def back(g):
        _accum(x, np.repeat(g / ratio, ratio, axis=1) if ratio > 1 else g)

    return _node(y, (x,), back)


def interp_resample(x: Tensor, target_len: int) -> Tensor:
    """Nearest-neighbor temporal resampling: out[c, t] = x[c, floor(t*L/T)]."""
    if target_len < 1:
        raise GeometryError("target length must be positive")
    c, l = x.shape
    if target_len == l:
        idx = None
        y = x.data.copy()
    else:
        idx = (np.arange(target_len) * l) // target_len
        y = x.data[:, idx]

    def back(g):
        if idx is None:
            _accum(x, g)
        else:
            gx = np.zeros((c, l), dtype=g.dtype)
            np.add.at(gx, (np.arange(c)[:, None], idx[None, :]), g)
            _accum(x, gx)

    return _node(y, (x,), back)


def gln(x: Tensor, p: GlnParams) -> Tensor:
    """Global layer norm: zero mean / unit variance over all C*T entries,
    then a learnable per-channel affine."""
    c, l = x.shape
    if p.gain.shape[0] != c or p.bias.shape[0] != c:
        raise GeometryError("gln gain/bias length must equal channel count")
    n = c * l
    m = x.data.mean()
    v = x.data.var()
    inv = 1.0 / np.sqrt(v + p.eps)
    xhat = (x.data - m) * inv
    y = p.gain.data[:, None] * xhat + p.bias.data[:, None]

    def back(g):
        _accum(p.gain, (g * xhat).sum(axis=1))
        _accum(p.bias, g.sum(axis=1))
        u = g * p.gain.data[:, None]
        gx = inv * (u - u.mean() - xhat * (u * xhat).sum() / n)
        _accum(x, gx)

    return _node(y, (x, p.gain, p.bias), back)


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


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity at inference or p=0."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    inv = 1.0 / (1.0 - p)
    y = x.data * keep * inv

    def back(g):
        _accum(x, g * keep * inv)

    return _node(y, (x,), back)
