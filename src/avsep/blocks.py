"""The attention blocks of the separation network.

Naming follows the block positions: gate-and-add modulation within one
modality (``intra_a_global`` and its parameter-free ablation variant
``intra_a_prime``), cross-modal fusion at the coarsest scale
(``inter_a_t``), per-scale cross-modal gating (``inter_a_m``), the
top-down reconstruction pass, and residual cross-modal fusion at the
finest scale (``inter_a_b``). Video is optional: without it ``inter_a_t``
and ``top_down_pass`` run their audio half alone (the audio-only cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError
from . import tensor as T
from .nn import (FfnParams, QParams, avg_pool1d, conv1d, dropout, ffn, gate, gln,
                 interp_resample, q_op)
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelParams


@dataclass
class ScalePyramid:
    """Multi-scale features: level i has shape [C x L / 2^i], i = 0..depth."""

    levels: list[Tensor]

    def __post_init__(self):
        if not self.levels:
            raise GeometryError("pyramid needs at least one level")
        c, l0 = self.levels[0].data.shape
        for i, lv in enumerate(self.levels):
            if lv.data.shape != (c, l0 >> i):
                raise GeometryError(
                    f"pyramid level {i} has shape {lv.shape}, expected {(c, l0 >> i)}"
                )

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass
class InterTParams:
    q_av: QParams | None  # video summary -> audio-channel gate
    q_va: QParams | None  # audio summary -> video-channel gate
    ffn_s: FfnParams
    ffn_v: FfnParams | None  # absent in the audio-only variant


@dataclass
class InterBParams:
    gate_s: QParams  # audio -> video-channel gate
    out_s: QParams  # fused video-channel features -> audio channels
    gate_v: QParams  # video -> audio-channel gate
    out_v: QParams


def _q_up(y: Tensor, length: int, q: QParams) -> Tensor:
    """``Q(up(y))`` for a :func:`~avsep.nn.gate` on ``length`` frames,
    which resamples its modulation itself: ``q_op`` on ``y`` resampled to
    ``length`` inside its node, or at ``y``'s own length where Q commutes
    with the upsample.

    A pointwise Q (one tap, stride 1, no padding) acts on each frame
    alone, so on an upsample its conv runs at ``y``'s length, before the
    resample. When ``length`` is a multiple of ``y``'s length every frame
    repeats equally often, which leaves the gLN's mean and variance
    unchanged, so the whole Q runs at ``y``'s length and the result is
    left for the gate to upsample."""
    c, l = q.conv, y.data.shape[1]
    if c.weight.data.shape[2] > 1 or c.stride > 1 or c.padding or l > length:
        return q_op(y, q, length)
    if length % l == 0:
        return q_op(y, q)
    return gln(interp_resample(conv1d(y, c), length), q.gln)


def intra_a_global(x: Tensor, y: Tensor, q: QParams) -> Tensor:
    """sigmoid(Q(up(y))) * x + Q(up(y)); the modulation term is computed
    once and reused for both the gate and the additive path."""
    return gate(x, _q_up(y, x.data.shape[1], q), add=True)


def intra_a_prime(x: Tensor, y: Tensor) -> Tensor:
    """Gate-only variant: sigmoid(up(y)) * x. Parameter-free, so y must
    already have x's channel count; the gate rejects any other."""
    return gate(x, y)


def pooled_sum(levels: list[Tensor]) -> Tensor:
    """sum_i pool(level_i) + coarsest, all at the coarsest temporal length."""
    d = len(levels) - 1
    acc = levels[d]
    for i in range(d):
        acc = T.ew_add(acc, avg_pool1d(levels[i], 2 ** (d - i)))
    return acc


def inter_a_t(
    audio: ScalePyramid,
    video: ScalePyramid | None,
    p: InterTParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Coarsest-scale fusion producing the global features ``(s_g, v_g)``.
    Dropout draws from ``rng`` while training; without one it is off.

    Without the cross-modal Q pair (``p.q_av is None``) the pooled sums
    feed the FFNs directly (the ablation wiring). Without video only the
    audio FFN runs and ``v_g`` is None."""
    f_s = pooled_sum(audio.levels)
    if video is None:
        return dropout(ffn(f_s, p.ffn_s), dropout_p, rng), None
    if audio.depth != video.depth:
        raise GeometryError("pyramids must have the same number of levels")
    f_v = pooled_sum(video.levels)
    if p.q_av is not None:
        ga = dropout(q_op(f_v, p.q_av), dropout_p, rng)
        gv = dropout(q_op(f_s, p.q_va), dropout_p, rng)
        s_in = gate(f_s, ga)
        v_in = gate(f_v, gv)
    else:
        s_in, v_in = f_s, f_v
    return dropout(ffn(s_in, p.ffn_s), dropout_p, rng), dropout(ffn(v_in, p.ffn_v), dropout_p, rng)


def inter_a_m(s_bar: Tensor, v_bar: Tensor, q: QParams) -> Tensor:
    """Video-derived gate applied to same-scale audio features:
    sigmoid(Q(up(v))) * s."""
    return gate(s_bar, _q_up(v_bar, s_bar.data.shape[1], q))


def _global_modulation(levels: list[Tensor], g: Tensor, qs: list[QParams] | None):
    """Modulate every scale by ``g``; gate-only when ``qs`` is None."""
    if qs is None:
        return [intra_a_prime(x, g) for x in levels]
    return [intra_a_global(x, g, qs[i]) for i, x in enumerate(levels)]


def _coarse_to_fine(levels: list[Tensor], qs: list[QParams]) -> Tensor:
    """Fold each scale into the next finer one, coarsest first."""
    d = len(levels) - 1
    chk = intra_a_global(levels[d - 1], levels[d], qs[d - 1])
    for i in range(d - 2, -1, -1):
        chk = intra_a_global(levels[i], chk, qs[i])
    return chk


def top_down_pass(
    audio: ScalePyramid,
    video: ScalePyramid | None,
    s_g: Tensor,
    v_g: Tensor | None,
    p: ModelParams,
) -> tuple[Tensor, Tensor | None]:
    """Global modulation per scale, optional mid-level cross-modal gating,
    then the coarse-to-fine reconstruction; returns the two finest-scale
    outputs. The five per-scale stacks are read off the model's ``p``.
    Without video only the audio half runs, with no mid-level gating, and
    the video output is None."""
    d = audio.depth
    if d < 1:
        raise GeometryError("top-down pass needs depth >= 1")
    s_bar = _global_modulation(audio.levels, s_g, p.global_intra_s)
    if video is None:
        return _coarse_to_fine(s_bar, p.local_intra_s), None
    v_bar = _global_modulation(video.levels, v_g, p.global_intra_v)
    if p.inter_m is not None:
        s_bar = [inter_a_m(s_bar[i], v_bar[i], p.inter_m[i]) for i in range(d + 1)]
    return _coarse_to_fine(s_bar, p.local_intra_s), _coarse_to_fine(v_bar, p.local_intra_v)


def inter_a_b(s0: Tensor, v0: Tensor, p: InterBParams) -> tuple[Tensor, Tensor]:
    """Finest-scale residual fusion.

    Each branch gates the *other* modality (resampled onto this branch's
    time grid) with its own features, maps the product back to its own
    channel count, and adds the result to the original features."""
    t_a, t_v = s0.data.shape[1], v0.data.shape[1]
    fused_s = gate(interp_resample(v0, t_a), q_op(s0, p.gate_s))
    e_s = T.ew_add(s0, q_op(fused_s, p.out_s))
    fused_v = gate(interp_resample(s0, t_v), q_op(v0, p.gate_v))
    e_v = T.ew_add(v0, q_op(fused_v, p.out_v))
    return e_s, e_v
