"""End-to-end model: encoders, cyclic separation network, mask, decoder,
plus configuration, parameter/MAC accounting and checkpoint I/O.

One parameter set is shared across all cycles; within a cycle every block
has its own parameters.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from . import tensor as T
from .blocks import (
    InterBParams,
    InterTParams,
    ScalePyramid,
    inter_a_b,
    inter_a_t,
    top_down_pass,
)
from .errors import ConfigError, FormatError, GeometryError
from .nn import (
    Conv1dParams,
    FfnParams,
    GlnParams,
    QParams,
    conv1d,
    conv1d_out_len,
    conv_transpose1d,
    crop_time,
    pad_right,
    q_op,
    slice_channels,
)
from .tensor import Tensor

CHECKPOINT_MAGIC = b"IIAC"
CHECKPOINT_VERSION = 1
VIDEO_FPS = 25  # lip-frame rate the temporal grids are derived from


def check_fields(obj, least: dict) -> None:
    """Refuse, naming the key, a field of the config ``obj`` that breaks its
    annotation: a bool holds a bool; an int an int, at least its ``least``
    entry or else 1; a float an int or a float; a triple three positive ints."""
    for f in fields(obj):
        value, low = getattr(obj, f.name), least.get(f.name, 1)
        if f.type == "bool" and type(value) is not bool:
            raise ConfigError(f"{f.name} must be true or false, got {value!r}")
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "int" and value < low:
            raise ConfigError(f"{f.name} must be at least {low}, got {value}")
        if f.type == "float" and type(value) not in (int, float):
            raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if f.type == "tuple[int, int, int]" and not (
                type(value) in (tuple, list) and len(value) == 3
                and all(type(n) is int and n >= 1 for n in value)):
            raise ConfigError(f"{f.name} must be three positive integers, got {value!r}")


@dataclass
class ModelConfig:
    sample_rate: int = 8000
    enc_kernel: int = 4
    enc_stride: int = 2
    n_audio_channels: int = 16
    n_video_channels: int = 16
    n_video_in: int = 1  # channels of the raw visual features fed to the conv stub
    depth: int = 3
    n_fusion_cycles: int = 2
    n_audio_cycles: int = 2
    intra_variant: str = "phi"  # "phi" | "phi_prime"
    inter_t_enabled: bool = True
    inter_m_enabled: bool = True
    inter_b_enabled: bool = True
    dropout_p: float = 0.0  # fusion cycles only: no effect on an audio-only model
    ffn_channels: tuple[int, int, int] = (16, 32, 16)
    q_kernel: int = 1
    audio_only: bool = False
    n_speakers: int = 1
    # depthwise down-convs (groups=C) and FFN middle conv (groups=c1)
    depthwise: bool = False

    def __post_init__(self):
        check_fields(self, {"n_audio_cycles": 0, "enc_kernel": -math.inf})  # its rule is below
        self.ffn_channels = tuple(self.ffn_channels)
        if not self.audio_only and self.n_video_in == self.n_video_channels:
            # encode tells raw features from embeddings by channel count alone
            raise ConfigError(f"n_video_in must differ from n_video_channels "
                              f"({self.n_video_channels})")
        if self.q_kernel % 2 == 0:
            raise ConfigError(f"q_kernel must be odd, got {self.q_kernel}")
        if self.enc_kernel != 2 * self.enc_stride:
            raise ConfigError("encoder kernel must be twice the stride")
        if self.intra_variant not in ("phi", "phi_prime"):
            raise ConfigError(f"unknown intra variant {self.intra_variant!r}")
        if self.ffn_channels[2] != self.n_audio_channels:
            raise ConfigError("last ffn channel count must equal the audio embedding size")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be a number in [0, 1), got {self.dropout_p!r}")
        if self.n_speakers > 1 and not self.audio_only:
            raise ConfigError("multi-speaker masks require the audio-only variant")
        if self.depthwise and self.ffn_channels[1] % self.ffn_channels[0]:
            raise ConfigError("depthwise FFN needs ffn_channels[1] divisible by ffn_channels[0]")
        if (self.depthwise and not self.audio_only
                and self.ffn_channels[1] % self.n_video_channels):
            raise ConfigError("depthwise video FFN needs ffn_channels[1] divisible by "
                              "n_video_channels")


def full_scale_config() -> ModelConfig:
    """The dense 512-channel reference configuration: ~25M parameters and
    ~61 GMAC per second of audio with every convolution dense (its 1x1 Q
    convs run before the upsample they feed). Separation and training are
    timed on it."""
    return ModelConfig(
        sample_rate=16000,
        enc_kernel=16,
        enc_stride=8,
        n_audio_channels=512,
        n_video_channels=512,
        depth=4,
        n_fusion_cycles=4,
        n_audio_cycles=12,
        ffn_channels=(512, 1024, 512),
        dropout_p=0.1,
    )


def paper_scale_config() -> ModelConfig:
    """The full-scale model routed to the paper's cost (~3.1M parameters,
    ~18.6 GMAC at 1 s; the paper gives totals, not the per-layer routing).

    Everything but the separator routing is :func:`full_scale_config`:
    sample rate, encoder, depth, 4 fusion + 12 audio cycles and dropout.
    The changes and their sources:

    - 128 channels (audio, video, FFN ends; FFN middle 256): the separator
      width of TDANet (Li, Yang and Hu, arXiv 2209.15200), the model IIANet
      builds on.
    - depthwise down-convs and FFN middle conv (multiplier 2): TDANet's
      depthwise temporal convolutions, after Conv-TasNet (arXiv 1809.07454).
    - 5-tap Q kernels: the kernel the engine's other temporal convs use.

    Cost by :func:`count_params` / :func:`count_macs`: 2,496,256 parameters
    and 12,806,018,048 MACs at 1 s.
    """
    return replace(full_scale_config(), n_audio_channels=128, n_video_channels=128,
                   ffn_channels=(128, 256, 128), q_kernel=5, depthwise=True)


@dataclass
class ModelParams:
    """The shared parameter tree. It is the checkpoint layout: its field
    order is the tensor order and each field path is the tensor's name
    (:func:`named_tensors`). The per-scale stacks between ``inter_t`` and
    ``inter_b`` are the top-down pass's."""

    encoder: Conv1dParams
    decoder: Conv1dParams
    audio_down: list[QParams]
    video_down: list[QParams] | None
    inter_t: InterTParams
    global_intra_s: list[QParams] | None  # per scale 0..D; None in the gate-only variant
    global_intra_v: list[QParams] | None
    inter_m: list[QParams] | None  # per scale 0..D; None when mid-level fusion is off
    local_intra_s: list[QParams]  # per scale 0..D-1
    local_intra_v: list[QParams]
    inter_b: InterBParams | None
    video_stub: list[Conv1dParams] | None
    mask_head: Conv1dParams | None


@dataclass
class SeparationOutput:
    """One mask and one waveform per speaker; ``mask``/``waveform`` are speaker 0's."""

    masks: list[Tensor]
    waveforms: list[Tensor]

    @property
    def mask(self) -> Tensor:
        return self.masks[0]

    @property
    def waveform(self) -> Tensor:
        return self.waveforms[0]


# ---------------------------------------------------------------------------
# parameter construction


class _Init:
    """Parameter factory. Every tensor is allocated with ``np.empty`` and
    wrapped by ``Tensor.unscanned``. With a generator each is filled in
    place, draws consumed in field order; its values are finite by
    construction, so none is scanned. Without one it builds the skeleton
    that the cost accounting reads the shapes of and checkpoint loading
    fills: its values are undefined until a load overwrites them. A tensor
    too large to allocate, or one past the first ``max_tensors``, raises
    ConfigError before it is allocated."""

    def __init__(self, rng: np.random.Generator | None, dtype, depthwise: bool,
                 max_tensors: float = math.inf):
        self.rng = rng
        self.dtype = dtype
        self.depthwise = depthwise  # down-convs and FFN middle conv get groups=C_in
        self.max_tensors, self.built = max_tensors, 0

    def _leaf(self, shape, values) -> Tensor:
        """A leaf of ``shape`` filled with ``values()``, or in a skeleton unfilled."""
        if self.built == self.max_tensors:
            raise ConfigError(f"the config has more tensors than the {self.built} listed")
        self.built += 1
        try:
            data = np.empty(shape, self.dtype)
            if self.rng is not None:
                data[...] = values()
        except (MemoryError, ValueError) as e:  # numpy: out of memory, or "array is too big"
            raise ConfigError(f"model too large to build: {e}") from e
        return Tensor.unscanned(data)

    def _uniform(self, bound: float, shape) -> Tensor:
        return self._leaf(shape, lambda: self.rng.uniform(-bound, bound, shape))

    def conv(self, c_out, c_in, k, stride=1, padding=0, bias=False, groups=1) -> Conv1dParams:
        bound = 1.0 / np.sqrt((c_in // groups) * k)
        w = self._uniform(bound, (c_out, c_in // groups, k))
        b = self._uniform(bound, (c_out,)) if bias else None
        return Conv1dParams(weight=w, bias=b, stride=stride, padding=padding, groups=groups)

    def gln(self, c) -> GlnParams:
        return GlnParams(
            gain=self._leaf(c, lambda: 1.0),
            bias=self._leaf(c, lambda: 0.0),
        )

    def q(self, c_in, c_out, kernel) -> QParams:
        pad = (kernel - 1) // 2
        return QParams(conv=self.conv(c_out, c_in, kernel, padding=pad), gln=self.gln(c_out))

    def down(self, c) -> QParams:
        conv = self.conv(c, c, 5, stride=2, padding=2, groups=c if self.depthwise else 1)
        return QParams(conv=conv, gln=self.gln(c))

    def ffn(self, c_in, triple) -> FfnParams:
        c1, c2, c3 = triple
        return FfnParams(
            conv0=self.conv(c1, c_in, 1, bias=False),
            conv1=self.conv(c2, c1, 5, padding=2, bias=True, groups=c1 if self.depthwise else 1),
            conv2=self.conv(c3, c2, 1, bias=False),
            gln=self.gln(c3),
        )


def build_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """A randomly initialised parameter tree for ``cfg``. The tensors are
    plain data (``requires_grad`` False), so a forward pass records no tape;
    mark the ones you differentiate. A config too large to allocate raises
    ConfigError."""
    return _build(cfg, _Init(np.random.default_rng(seed), dtype, cfg.depthwise))


def _skeleton(cfg: ModelConfig, max_tensors: float = math.inf) -> ModelParams:
    """The parameter tree of ``cfg``, built without a random draw: every
    tensor a ``<f4`` buffer of its own whose values are undefined, neither
    filled nor scanned (see :class:`_Init`). Only shapes may be read until
    a load fills it. A config too large to allocate, or of more than
    ``max_tensors`` tensors, raises ConfigError."""
    return _build(cfg, _Init(None, np.dtype("<f4"), cfg.depthwise, max_tensors))


def _build(cfg: ModelConfig, ini: _Init) -> ModelParams:
    na, nv, d, kq = cfg.n_audio_channels, cfg.n_video_channels, cfg.depth, cfg.q_kernel

    encoder = ini.conv(na, 1, cfg.enc_kernel, stride=cfg.enc_stride)
    decoder = ini.conv(na, 1, cfg.enc_kernel, stride=cfg.enc_stride)  # used transposed
    audio_down = [ini.down(na) for _ in range(d)]

    # draws follow statement order; the audio-only variant has no video side
    fused = not cfg.audio_only
    video_down = [ini.down(nv) for _ in range(d)] if fused else None
    cross = fused and cfg.inter_t_enabled
    inter_t = InterTParams(
        q_av=ini.q(nv, na, kq) if cross else None,
        q_va=ini.q(na, nv, kq) if cross else None,
        ffn_s=ini.ffn(na, cfg.ffn_channels),
        ffn_v=ini.ffn(nv, (nv, cfg.ffn_channels[1], nv)) if fused else None,
    )
    inter_m = ([ini.q(nv, na, kq) for _ in range(d + 1)]
               if fused and cfg.inter_m_enabled else None)
    global_v = ([ini.q(nv, nv, kq) for _ in range(d + 1)]
                if fused and cfg.intra_variant == "phi" else None)
    local_v = [ini.q(nv, nv, kq) for _ in range(d)] if fused else []
    inter_b = (InterBParams(
        gate_s=ini.q(na, nv, kq), out_s=ini.q(nv, na, kq),
        gate_v=ini.q(nv, na, kq), out_v=ini.q(na, nv, kq),
    ) if fused and cfg.inter_b_enabled else None)
    video_stub = [
        ini.conv(nv, cfg.n_video_in, 3, padding=1, bias=True),
        ini.conv(nv, nv, 3, padding=1, bias=True),
    ] if fused else None

    global_s = ([ini.q(na, na, kq) for _ in range(d + 1)]
                if cfg.intra_variant == "phi" else None)
    local_s = [ini.q(na, na, kq) for _ in range(d)]

    mask_head = (ini.conv(cfg.n_speakers * na, na, 1)
                 if cfg.n_speakers > 1 else None)

    return ModelParams(
        encoder=encoder, decoder=decoder,
        audio_down=audio_down, video_down=video_down,
        inter_t=inter_t, global_intra_s=global_s, global_intra_v=global_v,
        inter_m=inter_m, local_intra_s=local_s, local_intra_v=local_v,
        inter_b=inter_b, video_stub=video_stub, mask_head=mask_head,
    )


def named_tensors(node, path: str = ""):
    """Every tensor under ``node`` (any subtree, a whole ``ModelParams``
    included) as (field path, tensor), in field order; for the whole tree
    that is the checkpoint layout. A dataclass walks its fields and a list
    its items by index; ``None``, int and float fields hold no tensor."""
    if isinstance(node, Tensor):
        yield path, node
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from named_tensors(child, f"{path}.{i}".lstrip("."))
    elif is_dataclass(node):
        for f in fields(node):
            yield from named_tensors(getattr(node, f.name), f"{path}.{f.name}".lstrip("."))


# ---------------------------------------------------------------------------
# forward passes


def _ceil_to(n: int, m: int) -> int:
    return -(-n // m) * m


def _frames(cfg: ModelConfig, t_a: int) -> int:
    """Audio embedding frames for a ``t_a``-sample mixture: the fewest from
    which the decoder covers every input sample, rounded up to a multiple
    of 2^depth for the scale pyramid. Fewer than 2^depth frames, less
    than one coarsest-scale frame, are refused before the padding."""
    n, step = -(-(t_a - cfg.enc_kernel) // cfg.enc_stride) + 1, 1 << cfg.depth
    if n < step:
        raise GeometryError(f"a {t_a}-sample mixture gives {max(n, 0)} encoder frames, "
                            f"fewer than one coarsest-scale frame at depth {cfg.depth} "
                            f"(2^{cfg.depth} = {step})")
    return _ceil_to(n, step)


def encode_audio(wave: Tensor, p: ModelParams) -> Tensor:
    return conv1d(wave, p.encoder)


def encode(
    mixture: Tensor, video_feat: Tensor | None, cfg: ModelConfig, p: ModelParams
) -> tuple[Tensor, Tensor | None]:
    """Encode the mixture, zero-padded to :func:`_frames`, and for the fused
    model the video (raw ``n_video_in``-channel features through the stub,
    or features already at embedding width), zero-padded to a multiple of
    2^depth frames. Each bad input is refused once, before any conv runs on
    it: a mixture under one coarsest-scale frame by :func:`_frames`, and
    missing video or video of another channel count here."""
    frames = _frames(cfg, mixture.shape[1])
    e_s = encode_audio(mixture, p)
    e_s = pad_right(e_s, frames - e_s.shape[1])
    if cfg.audio_only:
        return e_s, None
    if video_feat is None:
        raise GeometryError("the fused model needs video features")
    e_v = video_feat
    if e_v.shape[0] == cfg.n_video_in:
        e_v = conv1d(T.sigmoid(conv1d(e_v, p.video_stub[0])), p.video_stub[1])
    elif e_v.shape[0] != cfg.n_video_channels:
        raise GeometryError(f"video features must have {cfg.n_video_in} or "
                            f"{cfg.n_video_channels} channels, got {e_v.shape[0]}")
    return e_s, pad_right(e_v, _ceil_to(e_v.shape[1], 1 << cfg.depth) - e_v.shape[1])


def _bottom_up(x: Tensor, stack: list[QParams]) -> ScalePyramid:
    levels = [x]
    for q in stack:
        levels.append(q_op(levels[-1], q))
    return ScalePyramid(levels=levels)


def refinement_cycle(cur_s: Tensor, cur_v: Tensor | None, cfg: ModelConfig, p: ModelParams,
                     rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor | None]:
    """One cycle of the shared-weight network: bottom-up pyramids, coarsest
    fusion, top-down pass, and finest-scale fusion when the model has it.
    With ``cur_v`` None only the audio half runs and the video output is
    None. Dropout draws from ``rng``; without one it is off."""
    if cur_v is not None and p.video_down is None:
        raise ConfigError("this model has no video pathway")
    s_pyr = _bottom_up(cur_s, p.audio_down)
    v_pyr = None if cur_v is None else _bottom_up(cur_v, p.video_down)
    s_g, v_g = inter_a_t(s_pyr, v_pyr, p.inter_t, cfg.dropout_p, rng)
    s0, v0 = top_down_pass(s_pyr, v_pyr, s_g, v_g, p)
    if v0 is None or p.inter_b is None:
        return s0, v0
    return inter_a_b(s0, v0, p.inter_b)


def audio_only_cycle(e_s: Tensor, cfg: ModelConfig, p: ModelParams) -> Tensor:
    """One refinement cycle through the audio network alone, sharing the
    audio-side parameters of the fused network (no dropout)."""
    return refinement_cycle(e_s, None, cfg, p)[0]


def separation_features(
    e_s: Tensor,
    e_v: Tensor | None,
    cfg: ModelConfig,
    p: ModelParams,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """All cycles of the separation network, without the final
    rectification (exposed so verification can see the pre-mask margin).
    The audio-only variant runs its fusion cycles as audio cycles too.
    Dropout draws from ``rng``; without one it is off."""
    step = 1 << cfg.depth
    if e_s.shape[1] % step:
        raise GeometryError("audio embedding length must divide by 2^depth")
    cur_s, n_audio = e_s, cfg.n_audio_cycles
    if cfg.audio_only:
        n_audio += cfg.n_fusion_cycles
    else:
        if e_v is None:
            raise GeometryError("the fused model needs video features")
        if e_v.shape[1] % step:
            raise GeometryError("video embedding length must divide by 2^depth")
        cur_v = e_v
        for _ in range(cfg.n_fusion_cycles):
            cur_s, cur_v = refinement_cycle(cur_s, cur_v, cfg, p, rng)
    for _ in range(n_audio):
        cur_s = audio_only_cycle(cur_s, cfg, p)
    return cur_s


def separate(
    mixture: Tensor,
    video_feat: Tensor | None,
    cfg: ModelConfig,
    p: ModelParams,
    rng: np.random.Generator | None = None,
) -> SeparationOutput:
    """Full pipeline: encode and pad, separate, mask, decode, trim. A model
    with a mask head (``n_speakers > 1``) gets one mask per speaker from it.
    Training passes ``rng`` for dropout; inference passes none."""
    t_a = mixture.shape[1]
    e_s, e_v = encode(mixture, video_feat, cfg, p)
    feats = separation_features(e_s, e_v, cfg, p, rng)
    if p.mask_head is None:
        masks = [T.relu(feats)]
    else:
        stacked = T.relu(conv1d(feats, p.mask_head))
        na = cfg.n_audio_channels
        masks = [slice_channels(stacked, k * na, (k + 1) * na) for k in range(cfg.n_speakers)]
    waves = [crop_time(conv_transpose1d(T.ew_mul(e_s, mask), p.decoder), t_a)
             for mask in masks]
    return SeparationOutput(masks=masks, waveforms=waves)


# ---------------------------------------------------------------------------
# cost accounting


def count_params(cfg: ModelConfig) -> int:
    """Exact scalar-parameter count of the separation architecture.

    Cycle counts do not enter (one shared weight set). The toy video stub
    and the multi-speaker mask head are auxiliary and excluded.
    """
    return sum(n for _, n in param_breakdown(cfg))


def param_breakdown(cfg: ModelConfig) -> list[tuple[str, int]]:
    """Parameters per top-level checkpoint name, read off the built tree;
    the auxiliary video stub and mask head have no row."""
    rows: dict[str, int] = {}
    for name, t in named_tensors(_skeleton(cfg)):
        group = name.split(".", 1)[0]
        if group not in ("video_stub", "mask_head"):
            rows[group] = rows.get(group, 0) + t.size
    return list(rows.items())


def _grid_lengths(cfg: ModelConfig, audio_seconds: float) -> tuple[list[int], list[int], int]:
    samples = audio_seconds * cfg.sample_rate
    if not (math.isfinite(samples) and round(samples) >= cfg.enc_kernel):  # NaN fails too
        raise GeometryError(f"{audio_seconds:g} s is not a duration of at least one "
                            f"encoder kernel ({cfg.enc_kernel} samples)")
    t_a = int(round(samples))
    l0 = _frames(cfg, t_a)
    lv0 = _ceil_to(max(1, (t_a * VIDEO_FPS) // cfg.sample_rate), 1 << cfg.depth)
    ls = [l0 >> i for i in range(cfg.depth + 1)]
    lv = [lv0 >> i for i in range(cfg.depth + 1)]
    return ls, lv, t_a


def count_macs(cfg: ModelConfig, audio_seconds: float) -> int:
    """Multiply-accumulate count; convolutions only, counted per cycle
    application and at the frames each conv runs on (see
    :func:`mac_breakdown` for the pointwise-Q rule). Element-wise gates,
    pooling and resampling are excluded."""
    return sum(n for _, n in mac_breakdown(cfg, audio_seconds))


def _weights(node) -> int:
    """Weight count of every conv in a parameter subtree, which is also its
    MACs per output frame; an ablated block (``None``) counts 0."""
    return sum(t.size for path, t in named_tensors(node) if path.endswith("weight"))


def _on_grid(stack, lens: list[int]) -> int:
    """MACs of a per-scale stack whose entry ``i`` runs on ``lens[i]`` frames."""
    return sum(_weights(n) * l for n, l in zip(stack or (), lens))


def _q_frames(cfg: ModelConfig, src: list[int], dst: list[int]) -> list[int]:
    """Frames the conv of each ``Q(up(y))`` runs on, for ``y`` of ``src[i]``
    frames resampled to ``dst[i]``: a pointwise Q upsamples after its conv."""
    return [min(s, t) if cfg.q_kernel == 1 else t for s, t in zip(src, dst)]


def mac_breakdown(cfg: ModelConfig, audio_seconds: float) -> list[tuple[str, int]]:
    """Conv MACs by stage: every conv of the built tree at its weight count
    times the frames it runs on, times its applications. The video stub is
    left out; the mask head and one decode per speaker are counted.

    The Q of an intra or mid-level gate, ``Q(up(y))``, runs at the target
    length, except that a pointwise Q (``q_kernel == 1``) runs its conv on
    an upsample at ``y``'s own, shorter, length."""
    ls, lv, t_a = _grid_lengths(cfg, audio_seconds)
    p = _skeleton(cfg)
    d, it = cfg.depth, p.inter_t
    coarsest_s, coarsest_v = [ls[d]] * (d + 1), [lv[d]] * (d + 1)
    audio_cycle = (_on_grid(p.audio_down, ls[1:]) + _weights(it.ffn_s) * ls[d]
                   + _on_grid(p.global_intra_s, _q_frames(cfg, coarsest_s, ls))
                   + _on_grid(p.local_intra_s, _q_frames(cfg, ls[1:], ls)))
    if cfg.audio_only:
        out = [("audio_cycles", (cfg.n_fusion_cycles + cfg.n_audio_cycles) * audio_cycle)]
    else:
        fusion = (audio_cycle + _on_grid(p.video_down, lv[1:]) + _weights(it.ffn_v) * lv[d]
                  + _on_grid(p.global_intra_v, _q_frames(cfg, coarsest_v, lv))
                  + _on_grid(p.local_intra_v, _q_frames(cfg, lv[1:], lv))
                  + _weights(it.q_av) * lv[d] + _weights(it.q_va) * ls[d]
                  + _on_grid(p.inter_m, _q_frames(cfg, lv, ls)))
        if p.inter_b is not None:
            ib = p.inter_b
            fusion += (_weights([ib.gate_s, ib.out_s]) * ls[0]
                       + _weights([ib.gate_v, ib.out_v]) * lv[0])
        out = [
            ("fusion_cycles", cfg.n_fusion_cycles * fusion),
            ("audio_cycles", cfg.n_audio_cycles * audio_cycle),
        ]
    t_raw = conv1d_out_len(t_a, cfg.enc_kernel, cfg.enc_stride, 0)
    out.append(("encoder", _weights(p.encoder) * t_raw))
    out.append(("decoder", cfg.n_speakers * _weights(p.decoder) * ls[0]))
    if p.mask_head is not None:
        out.append(("mask_head", _weights(p.mask_head) * ls[0]))
    return out


# ---------------------------------------------------------------------------
# checkpoint I/O


def _config_to_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    if not cfg.depthwise:
        # dense checkpoints keep the manifest they had before the field
        # existed, and a manifest without the key loads as dense
        del d["depthwise"]
    return d


def save_checkpoint(params: ModelParams, cfg: ModelConfig, path) -> None:
    entries = list(named_tensors(params))
    manifest = {
        "config": _config_to_dict(cfg),
        "tensors": [
            {"name": n, "shape": list(t.shape), "dtype": "f32"} for n, t in entries
        ],
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(mbytes)))
        fh.write(mbytes)
        for _, t in entries:
            fh.write(np.ascontiguousarray(t.data, dtype="<f4"))


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    """Read an ``.iiac`` file into its parameter tree and config. The
    tensors are plain data, as from ``build_params``: the file is read
    straight into each buffer of :func:`_skeleton`'s tree, whose undefined
    values it overwrites, and each tensor is scanned for finiteness once,
    right after its read. The tree is built up to the manifest's tensor
    count, then names, shapes and payload size are checked against it. A
    malformed file or a non-finite value raises ``FormatError``."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic")
        if len(head) < 16:
            raise FormatError("truncated checkpoint header")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (mlen,) = struct.unpack_from("<Q", head, 8)
        size = os.fstat(fh.fileno()).st_size
        if size < 16 + mlen:
            raise FormatError("truncated checkpoint manifest")
        try:
            manifest = json.loads(fh.read(mlen).decode())
            config = manifest["config"]
            listed = [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]]
            other = [e for e in manifest["tensors"] if e.get("dtype") != "f32"]
        except (ValueError, KeyError, TypeError) as e:
            raise FormatError(f"unreadable checkpoint manifest: {e}") from e
        if other:  # version 1 writes f32 only
            raise FormatError(f"checkpoint tensor {other[0]['name']} has dtype "
                              f"{other[0].get('dtype')!r}, expected 'f32'")
        try:
            cfg = ModelConfig(**config)  # TypeError: an unknown key, or not a mapping
        except (TypeError, ConfigError) as e:
            raise FormatError(f"bad config in checkpoint: {e}") from e
        try:
            params = _skeleton(cfg, len(listed))
        except ConfigError as e:
            raise FormatError(f"bad config in checkpoint: {e}") from e
        entries = list(named_tensors(params))
        # compared as text, so a listed 4.0 or true is not the built 4 or 1
        if repr(listed) != repr([(n, t.shape) for n, t in entries]):
            raise FormatError("checkpoint tensor names or shapes do not match its config")
        payload, expected = size - 16 - mlen, sum(t.data.nbytes for _, t in entries)
        if payload != expected:
            raise FormatError(f"corrupt checkpoint payload: {payload} bytes, expected {expected}")
        for name, t in entries:
            if fh.readinto(t.data) != t.data.nbytes:
                raise FormatError(f"truncated checkpoint tensor {name}")
            if not T.all_finite(t.data):
                raise FormatError(f"non-finite values in checkpoint tensor {name}")
    return params, cfg
