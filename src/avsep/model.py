"""End-to-end model: encoders, cyclic separation network, mask, decoder,
plus configuration, parameter/MAC accounting and checkpoint I/O.

One parameter set is shared across all cycles; within a cycle every block
has its own parameters.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .blocks import (
    GlobalFeatures,
    InterBParams,
    InterTParams,
    ScalePyramid,
    TopDownParams,
    inter_a_b,
    inter_a_t,
    pooled_sum,
    top_down_pass,
)
from .errors import ConfigConflictError, ConfigError, FormatError, GeometryError
from .nn import (
    Conv1dParams,
    FfnParams,
    GlnParams,
    QParams,
    conv1d,
    conv1d_out_len,
    conv_transpose1d,
    crop_time,
    ffn,
    gln,
    pad_right,
    slice_channels,
)
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "ModelParams",
    "SeparationOutput",
    "build_params",
    "named_tensors",
    "encode_audio",
    "encode",
    "separation_forward",
    "audio_only_cycle",
    "separate",
    "count_params",
    "count_macs",
    "param_breakdown",
    "mac_breakdown",
    "save_checkpoint",
    "load_checkpoint",
    "full_scale_config",
    "paper_scale_config",
]

CHECKPOINT_MAGIC = b"IIAC"
CHECKPOINT_VERSION = 1
VIDEO_FPS = 25  # lip-frame rate the temporal grids are derived from


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
    dropout_p: float = 0.0
    ffn_channels: tuple[int, int, int] = (16, 32, 16)
    q_kernel: int = 1
    audio_only: bool = False
    n_speakers: int = 1
    # depthwise down-convs (groups=C) and FFN middle conv (groups=c1)
    depthwise: bool = False

    def __post_init__(self):
        self.ffn_channels = tuple(self.ffn_channels)
        if self.depth < 1 or self.n_fusion_cycles < 1 or self.n_audio_cycles < 0:
            raise ConfigError("depth >= 1, fusion cycles >= 1, audio cycles >= 0 required")
        if self.enc_kernel != 2 * self.enc_stride:
            raise ConfigError("encoder kernel must be twice the stride")
        if self.intra_variant not in ("phi", "phi_prime"):
            raise ConfigError(f"unknown intra variant {self.intra_variant!r}")
        if len(self.ffn_channels) != 3:
            raise ConfigError("ffn_channels must be a triple")
        if self.ffn_channels[2] != self.n_audio_channels:
            raise ConfigError("last ffn channel count must equal the audio embedding size")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")
        if self.n_speakers < 1:
            raise ConfigError("n_speakers must be >= 1")
        if self.n_speakers > 1 and not self.audio_only:
            raise ConfigError("multi-speaker masks require the audio-only variant")
        if self.depthwise and self.ffn_channels[1] % self.ffn_channels[0]:
            raise ConfigError("depthwise FFN needs ffn_channels[1] divisible by ffn_channels[0]")
        if (self.depthwise and not self.audio_only
                and self.ffn_channels[1] % self.n_video_channels):
            raise ConfigError("depthwise video FFN needs ffn_channels[1] divisible by "
                              "n_video_channels")

    @property
    def video_ffn_channels(self) -> tuple[int, int, int]:
        return (self.n_video_channels, self.ffn_channels[1], self.n_video_channels)

    def routed_groups(self, c_in: int) -> int:
        """Groups of a depthwise-routed conv (down-conv, FFN middle conv)
        reading ``c_in`` channels: ``c_in`` when depthwise, else 1."""
        return c_in if self.depthwise else 1


def full_scale_config() -> ModelConfig:
    """The dense 512-channel reference configuration: ~25M parameters and
    ~87 GMAC per second of audio with every convolution dense. Separation
    and training are timed on it."""
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
    encoder: Conv1dParams
    decoder: Conv1dParams
    audio_down: list[tuple[Conv1dParams, GlnParams]]
    video_down: list[tuple[Conv1dParams, GlnParams]] | None
    inter_t: InterTParams
    top_down: TopDownParams
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
    """Deterministic parameter factory; draws are consumed in field order."""

    def __init__(self, seed: int, dtype, routed_groups):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype
        self.routed_groups = routed_groups  # ModelConfig.routed_groups

    def conv(self, c_out, c_in, k, stride=1, padding=0, bias=False, groups=1) -> Conv1dParams:
        bound = 1.0 / np.sqrt((c_in // groups) * k)
        w = Tensor(self.rng.uniform(-bound, bound, (c_out, c_in // groups, k))
                   .astype(self.dtype), requires_grad=True)
        b = None
        if bias:
            b = Tensor(self.rng.uniform(-bound, bound, (c_out,)).astype(self.dtype),
                       requires_grad=True)
        return Conv1dParams(weight=w, bias=b, stride=stride, padding=padding, groups=groups)

    def gln(self, c) -> GlnParams:
        return GlnParams(
            gain=Tensor(np.ones(c, dtype=self.dtype), requires_grad=True),
            bias=Tensor(np.zeros(c, dtype=self.dtype), requires_grad=True),
        )

    def q(self, c_in, c_out, kernel) -> QParams:
        pad = (kernel - 1) // 2
        return QParams(conv=self.conv(c_out, c_in, kernel, padding=pad), gln=self.gln(c_out))

    def down(self, c) -> tuple[Conv1dParams, GlnParams]:
        conv = self.conv(c, c, 5, stride=2, padding=2, groups=self.routed_groups(c))
        return conv, self.gln(c)

    def ffn(self, c_in, triple) -> FfnParams:
        c1, c2, c3 = triple
        return FfnParams(
            convs=[
                self.conv(c1, c_in, 1, bias=False),
                self.conv(c2, c1, 5, padding=2, bias=True, groups=self.routed_groups(c1)),
                self.conv(c3, c2, 1, bias=False),
            ],
            gln=self.gln(c3),
        )


def build_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    ini = _Init(seed, dtype, cfg.routed_groups)
    na, nv, d, kq = cfg.n_audio_channels, cfg.n_video_channels, cfg.depth, cfg.q_kernel

    encoder = ini.conv(na, 1, cfg.enc_kernel, stride=cfg.enc_stride)
    decoder = ini.conv(na, 1, cfg.enc_kernel, stride=cfg.enc_stride)  # used transposed
    audio_down = [ini.down(na) for _ in range(d)]

    if cfg.audio_only:
        video_down = None
        inter_t = InterTParams(q_av=None, q_va=None,
                               ffn_s=ini.ffn(na, cfg.ffn_channels), ffn_v=None)
        inter_m = None
        global_v = None
        local_v = []
        inter_b = None
        video_stub = None
    else:
        video_down = [ini.down(nv) for _ in range(d)]
        inter_t = InterTParams(
            q_av=ini.q(nv, na, kq) if cfg.inter_t_enabled else None,
            q_va=ini.q(na, nv, kq) if cfg.inter_t_enabled else None,
            ffn_s=ini.ffn(na, cfg.ffn_channels),
            ffn_v=ini.ffn(nv, cfg.video_ffn_channels),
        )
        inter_m = ([ini.q(nv, na, kq) for _ in range(d + 1)]
                   if cfg.inter_m_enabled else None)
        global_v = ([ini.q(nv, nv, kq) for _ in range(d + 1)]
                    if cfg.intra_variant == "phi" else None)
        local_v = [ini.q(nv, nv, kq) for _ in range(d)]
        inter_b = (InterBParams(
            gate_s=ini.q(na, nv, kq), out_s=ini.q(nv, na, kq),
            gate_v=ini.q(nv, na, kq), out_v=ini.q(na, nv, kq),
        ) if cfg.inter_b_enabled else None)
        video_stub = [
            ini.conv(nv, cfg.n_video_in, 3, padding=1, bias=True),
            ini.conv(nv, nv, 3, padding=1, bias=True),
        ]

    global_s = ([ini.q(na, na, kq) for _ in range(d + 1)]
                if cfg.intra_variant == "phi" else None)
    local_s = [ini.q(na, na, kq) for _ in range(d)]
    top_down = TopDownParams(global_s=global_s, global_v=global_v,
                             inter_m=inter_m, local_s=local_s, local_v=local_v)

    mask_head = (ini.conv(cfg.n_speakers * na, na, 1)
                 if cfg.n_speakers > 1 else None)

    return ModelParams(
        encoder=encoder, decoder=decoder,
        audio_down=audio_down, video_down=video_down,
        inter_t=inter_t, top_down=top_down, inter_b=inter_b,
        video_stub=video_stub, mask_head=mask_head,
    )


def _q_tensors(name: str, q: QParams):
    yield f"{name}.conv.weight", q.conv.weight
    if q.conv.bias is not None:
        yield f"{name}.conv.bias", q.conv.bias
    yield f"{name}.gln.gain", q.gln.gain
    yield f"{name}.gln.bias", q.gln.bias


def _ffn_tensors(name: str, f: FfnParams):
    for i, cp in enumerate(f.convs):
        yield f"{name}.conv{i}.weight", cp.weight
        if cp.bias is not None:
            yield f"{name}.conv{i}.bias", cp.bias
    yield f"{name}.gln.gain", f.gln.gain
    yield f"{name}.gln.bias", f.gln.bias


def named_tensors(p: ModelParams, include_aux: bool = True):
    """Ordered (name, tensor) pairs; order defines the checkpoint layout.

    ``include_aux=False`` drops the toy-training video stub and the
    multi-speaker mask head, which are not part of the separation
    architecture proper.
    """
    yield "encoder.weight", p.encoder.weight
    yield "decoder.weight", p.decoder.weight
    for tag, stack in (("audio_down", p.audio_down), ("video_down", p.video_down)):
        if stack is None:
            continue
        for i, (cp, gp) in enumerate(stack):
            yield f"{tag}.{i}.conv.weight", cp.weight
            yield f"{tag}.{i}.gln.gain", gp.gain
            yield f"{tag}.{i}.gln.bias", gp.bias
    if p.inter_t.q_av is not None:
        yield from _q_tensors("inter_t.q_av", p.inter_t.q_av)
        yield from _q_tensors("inter_t.q_va", p.inter_t.q_va)
    yield from _ffn_tensors("inter_t.ffn_s", p.inter_t.ffn_s)
    if p.inter_t.ffn_v is not None:
        yield from _ffn_tensors("inter_t.ffn_v", p.inter_t.ffn_v)
    td = p.top_down
    for tag, qs in (("global_intra_s", td.global_s), ("global_intra_v", td.global_v),
                    ("inter_m", td.inter_m), ("local_intra_s", td.local_s),
                    ("local_intra_v", td.local_v)):
        if qs is None:
            continue
        for i, q in enumerate(qs):
            yield from _q_tensors(f"{tag}.{i}", q)
    if p.inter_b is not None:
        for tag in ("gate_s", "out_s", "gate_v", "out_v"):
            yield from _q_tensors(f"inter_b.{tag}", getattr(p.inter_b, tag))
    if include_aux:
        if p.video_stub is not None:
            for i, cp in enumerate(p.video_stub):
                yield f"video_stub.{i}.weight", cp.weight
                yield f"video_stub.{i}.bias", cp.bias
        if p.mask_head is not None:
            yield "mask_head.weight", p.mask_head.weight


# ---------------------------------------------------------------------------
# forward passes


def _ceil_to(n: int, m: int) -> int:
    return -(-n // m) * m


def encode_audio(wave: Tensor, p: ModelParams) -> Tensor:
    if wave.shape[1] < p.encoder.kernel:
        raise GeometryError("waveform shorter than the encoder kernel")
    return conv1d(wave, p.encoder)


def apply_video_stub(feat: Tensor, p: ModelParams) -> Tensor:
    if p.video_stub is None:
        raise ConfigError("this model has no video pathway")
    h = T.sigmoid(conv1d(feat, p.video_stub[0]))
    return conv1d(h, p.video_stub[1])


def encode(
    mixture: Tensor, video_feat: Tensor | None, cfg: ModelConfig, p: ModelParams
) -> tuple[Tensor, Tensor | None]:
    """Encode the mixture, and for the fused model the video (raw features
    through the stub, or already at embedding width), each zero-padded to
    a multiple of 2^depth frames."""
    pad = lambda x: pad_right(x, _ceil_to(x.shape[1], 1 << cfg.depth) - x.shape[1])
    e_s = pad(encode_audio(mixture, p))
    if cfg.audio_only:
        return e_s, None
    if video_feat is None:
        raise GeometryError("the fused model needs video features")
    ev_raw = apply_video_stub(video_feat, p) if video_feat.shape[0] == cfg.n_video_in \
        else video_feat
    if ev_raw.shape[0] != cfg.n_video_channels:
        raise GeometryError(
            f"video features must have {cfg.n_video_in} or "
            f"{cfg.n_video_channels} channels, got {video_feat.shape[0]}"
        )
    return e_s, pad(ev_raw)


def _bottom_up(x: Tensor, stack, modality: str) -> ScalePyramid:
    levels = [x]
    for cp, gp in stack:
        levels.append(gln(conv1d(levels[-1], cp), gp))
    return ScalePyramid(levels=levels, modality=modality)


def audio_only_cycle(e_s: Tensor, cfg: ModelConfig, p: ModelParams) -> Tensor:
    """One refinement cycle through the audio network alone, sharing the
    audio-side parameters of the fused network (no dropout)."""
    pyr = _bottom_up(e_s, p.audio_down, "audio")
    s_g = ffn(pooled_sum(pyr.levels), p.inter_t.ffn_s)
    s0, _ = top_down_pass(pyr, None, GlobalFeatures(s_g=s_g, v_g=None), p.top_down)
    return s0


def separation_forward(
    e_s: Tensor,
    e_v: Tensor | None,
    cfg: ModelConfig,
    p: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the cyclic separation network and return the nonnegative mask."""
    return T.relu(separation_features(e_s, e_v, cfg, p, training=training, rng=rng))


def separation_features(
    e_s: Tensor,
    e_v: Tensor | None,
    cfg: ModelConfig,
    p: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """All cycles of the separation network, without the final
    rectification (exposed so verification can see the pre-mask margin).
    The audio-only variant runs its fusion cycles as audio cycles too."""
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
            s_pyr = _bottom_up(cur_s, p.audio_down, "audio")
            v_pyr = _bottom_up(cur_v, p.video_down, "video")
            g = inter_a_t(
                s_pyr, v_pyr, p.inter_t,
                cross_attention=cfg.inter_t_enabled,
                dropout_p=cfg.dropout_p, training=training, rng=rng,
            )
            s0, v0 = top_down_pass(s_pyr, v_pyr, g, p.top_down)
            if p.inter_b is not None:
                cur_s, cur_v = inter_a_b(s0, v0, p.inter_b)
            else:
                cur_s, cur_v = s0, v0
    for _ in range(n_audio):
        cur_s = audio_only_cycle(cur_s, cfg, p)
    return cur_s


def separate(
    mixture: Tensor,
    video_feat: Tensor | None,
    cfg: ModelConfig,
    p: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> SeparationOutput:
    """Full pipeline: encode and pad, separate, mask, decode, trim. A model
    with a mask head (``n_speakers > 1``) gets one mask per speaker from it."""
    t_a = mixture.shape[1]
    e_s, e_v = encode(mixture, video_feat, cfg, p)
    if p.mask_head is None:
        masks = [separation_forward(e_s, e_v, cfg, p, training=training, rng=rng)]
    else:
        feats = separation_features(e_s, e_v, cfg, p, training=training, rng=rng)
        stacked = T.relu(conv1d(feats, p.mask_head))
        na = cfg.n_audio_channels
        masks = [slice_channels(stacked, k * na, (k + 1) * na) for k in range(cfg.n_speakers)]
    waves = []
    for mask in masks:
        wave = conv_transpose1d(T.ew_mul(e_s, mask), p.decoder)
        if wave.shape[1] < t_a:
            raise GeometryError("decoded waveform shorter than the input")
        waves.append(crop_time(wave, t_a))
    return SeparationOutput(masks=masks, waveforms=waves)


# ---------------------------------------------------------------------------
# cost accounting


def count_params(cfg: ModelConfig) -> int:
    """Exact scalar-parameter count of the separation architecture.

    Cycle counts do not enter (one shared weight set). The toy video stub
    and the multi-speaker mask head are auxiliary and excluded.
    """
    return sum(n for _, n in param_breakdown(cfg))


def _conv_weights(c_out: int, c_in: int, k: int, groups: int = 1) -> int:
    """Weight count of a conv, which is also its MACs per output frame."""
    return c_out * (c_in // groups) * k


def _down_weights(cfg: ModelConfig, c: int) -> int:
    return _conv_weights(c, c, 5, cfg.routed_groups(c))


def _ffn_weights(cfg: ModelConfig, c_in: int, triple) -> int:
    c1, c2, c3 = triple
    return (_conv_weights(c1, c_in, 1) + _conv_weights(c2, c1, 5, cfg.routed_groups(c1))
            + _conv_weights(c3, c2, 1))


def param_breakdown(cfg: ModelConfig) -> list[tuple[str, int]]:
    na, nv, d, kq = cfg.n_audio_channels, cfg.n_video_channels, cfg.depth, cfg.q_kernel
    q = lambda ci, co: _conv_weights(co, ci, kq) + 2 * co  # conv (no bias) + gln affine
    down = lambda c: d * (_down_weights(cfg, c) + 2 * c)  # + gln affine

    def ffn_count(c_in, triple):
        # + middle-conv bias + gln affine
        return _ffn_weights(cfg, c_in, triple) + triple[1] + 2 * triple[2]

    out: list[tuple[str, int]] = [
        ("encoder", na * cfg.enc_kernel),
        ("decoder", na * cfg.enc_kernel),
        ("audio_down", down(na)),
        ("ffn_s", ffn_count(na, cfg.ffn_channels)),
        ("local_intra_s", d * q(na, na)),
    ]
    if cfg.intra_variant == "phi":
        out.append(("global_intra_s", (d + 1) * q(na, na)))
    if not cfg.audio_only:
        out.append(("video_down", down(nv)))
        out.append(("ffn_v", ffn_count(nv, cfg.video_ffn_channels)))
        out.append(("local_intra_v", d * q(nv, nv)))
        if cfg.intra_variant == "phi":
            out.append(("global_intra_v", (d + 1) * q(nv, nv)))
        if cfg.inter_t_enabled:
            out.append(("inter_t", q(nv, na) + q(na, nv)))
        if cfg.inter_m_enabled:
            out.append(("inter_m", (d + 1) * q(nv, na)))
        if cfg.inter_b_enabled:
            out.append(("inter_b", 2 * q(na, nv) + 2 * q(nv, na)))
    return out


def _grid_lengths(cfg: ModelConfig, audio_seconds: float) -> tuple[list[int], list[int], int]:
    t_a = int(round(audio_seconds * cfg.sample_rate))
    t_raw = conv1d_out_len(t_a, cfg.enc_kernel, cfg.enc_stride, 0)
    step = 1 << cfg.depth
    l0 = _ceil_to(t_raw, step)
    t_v = max(1, (t_a * VIDEO_FPS) // cfg.sample_rate)
    lv0 = _ceil_to(t_v, step)
    ls = [l0 >> i for i in range(cfg.depth + 1)]
    lv = [lv0 >> i for i in range(cfg.depth + 1)]
    return ls, lv, t_a


def count_macs(cfg: ModelConfig, audio_seconds: float) -> int:
    """Multiply-accumulate count; convolutions only, counted per cycle
    application. Element-wise gates, pooling and resampling are excluded."""
    if audio_seconds <= 0:
        raise ValueError("audio_seconds must be positive")
    return sum(n for _, n in mac_breakdown(cfg, audio_seconds))


def mac_breakdown(cfg: ModelConfig, audio_seconds: float) -> list[tuple[str, int]]:
    na, nv, d, kq = cfg.n_audio_channels, cfg.n_video_channels, cfg.depth, cfg.q_kernel
    ls, lv, _ = _grid_lengths(cfg, audio_seconds)
    qm = lambda ci, co, l: _conv_weights(co, ci, kq) * l
    ffn_macs = lambda c_in, triple, l: _ffn_weights(cfg, c_in, triple) * l
    audio_bottom = sum(_down_weights(cfg, na) * ls[i] for i in range(1, d + 1))
    video_bottom = sum(_down_weights(cfg, nv) * lv[i] for i in range(1, d + 1))

    audio_global = (sum(qm(na, na, ls[i]) for i in range(d + 1))
                    if cfg.intra_variant == "phi" else 0)
    video_global = (sum(qm(nv, nv, lv[i]) for i in range(d + 1))
                    if cfg.intra_variant == "phi" else 0)
    audio_local = sum(qm(na, na, ls[i]) for i in range(d))
    video_local = sum(qm(nv, nv, lv[i]) for i in range(d))

    audio_cycle = audio_bottom + ffn_macs(na, cfg.ffn_channels, ls[d]) \
        + audio_global + audio_local

    if cfg.audio_only:
        total_cycles = cfg.n_fusion_cycles + cfg.n_audio_cycles
        out = [("audio_cycles", total_cycles * audio_cycle)]
    else:
        av = audio_cycle + video_bottom + video_global + video_local \
            + ffn_macs(nv, cfg.video_ffn_channels, lv[d])
        if cfg.inter_t_enabled:
            av += qm(nv, na, lv[d]) + qm(na, nv, ls[d])
        if cfg.inter_m_enabled:
            av += sum(qm(nv, na, ls[i]) for i in range(d + 1))
        if cfg.inter_b_enabled:
            av += qm(na, nv, ls[0]) + qm(nv, na, ls[0]) \
                + qm(nv, na, lv[0]) + qm(na, nv, lv[0])
        out = [
            ("fusion_cycles", cfg.n_fusion_cycles * av),
            ("audio_cycles", cfg.n_audio_cycles * audio_cycle),
        ]
    t_raw = conv1d_out_len(int(round(audio_seconds * cfg.sample_rate)),
                           cfg.enc_kernel, cfg.enc_stride, 0)
    out.append(("encoder", na * cfg.enc_kernel * t_raw))
    out.append(("decoder", na * cfg.enc_kernel * ls[0]))
    return out


# ---------------------------------------------------------------------------
# checkpoint I/O


def _config_to_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["ffn_channels"] = list(cfg.ffn_channels)
    if not cfg.depthwise:
        # dense checkpoints keep the manifest they had before the field
        # existed, and a manifest without the key loads as dense
        del d["depthwise"]
    return d


def _config_from_dict(d: dict) -> ModelConfig:
    try:
        d = dict(d)
        d["ffn_channels"] = tuple(d["ffn_channels"])
        return ModelConfig(**d)
    except (TypeError, KeyError, ConfigError) as e:
        raise FormatError(f"bad config in checkpoint: {e}") from e


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
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    if len(blob) < 16:
        raise FormatError("truncated checkpoint header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    if len(blob) < 16 + mlen:
        raise FormatError("truncated checkpoint manifest")
    try:
        manifest = json.loads(blob[16 : 16 + mlen].decode())
        cfg = _config_from_dict(manifest["config"])
        listed = [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]]
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"unreadable checkpoint manifest: {e}") from e

    params = build_params(cfg, seed=0)
    entries = list(named_tensors(params))
    if listed != [(n, t.shape) for n, t in entries]:
        raise FormatError("checkpoint tensor names or shapes do not match its config")

    payload = blob[16 + mlen :]
    expected = sum(t.size for _, t in entries) * 4
    if len(payload) != expected:
        raise FormatError(
            f"corrupt checkpoint payload: {len(payload)} bytes, expected {expected}"
        )
    off = 0
    for name, t in entries:
        n = t.size * 4
        data = np.frombuffer(payload[off : off + n], dtype="<f4").reshape(t.shape)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"non-finite values in checkpoint tensor {name}")
        t.data = data.copy()
        off += n
    return params, cfg


def check_config_compatible(ckpt_cfg: ModelConfig, cli_cfg: ModelConfig | None) -> None:
    if cli_cfg is not None and ckpt_cfg != cli_cfg:
        raise ConfigConflictError("checkpoint config disagrees with the supplied config")
