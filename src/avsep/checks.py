"""Finite-difference verification of every differentiable unit.

:func:`gradcheck` rebuilds its graph at float64, marks its leaves
``requires_grad``, computes analytic gradients via the tape, unmarks the
leaves so the oracle's forward passes record no tape, and compares
against the central-difference oracle in
:func:`avsep.tensor.finite_difference_grad`. The error reported is
max |analytic - numeric| normalized by the gradient scale.
:func:`directional_check` compares derivatives along random directions
instead, for models too wide to check element by element. Both step by
:data:`avsep.tensor.FD_EPS`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import (
    InterBParams,
    ScalePyramid,
    inter_a_b,
    inter_a_m,
    inter_a_t,
    intra_a_global,
    intra_a_prime,
    top_down_pass,
)
from .metrics import si_snr_loss
from .model import ModelConfig, build_params, encode, named_tensors, separate, separation_features
from .nn import (
    Conv1dParams,
    GlnParams,
    avg_pool1d,
    conv1d,
    conv_transpose1d,
    gate,
    gln,
    interp_resample,
)
from .tensor import Tensor

GRAD_TOL = 1e-6


@dataclass
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRAD_TOL


def _analytic_grads(make_loss, leaves: list[Tensor]) -> list[np.ndarray]:
    """The tape's gradient of every leaf, zeros where none flows. The
    leaves end unmarked, so the oracle's forward passes record no tape."""
    for t in leaves:
        t.requires_grad = True
        t.grad = None
    make_loss().backward()  # the loss and its tape die here, before the oracle runs
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]
    for t in leaves:
        t.requires_grad = False
        t.grad = None
    return analytic


def gradcheck(name: str, make_loss, leaves: list[Tensor]) -> CheckResult:
    """Every leaf's tape gradient against the oracle's, element by element."""
    analytic = _analytic_grads(make_loss, leaves)
    worst = 0.0
    for t, a in zip(leaves, analytic):
        base = t.data

        def f(x, _t=t, _base=base):
            _t.data = x
            try:
                return make_loss().item()
            finally:
                _t.data = _base

        numeric = T.finite_difference_grad(f, base.copy())
        scale = max(float(np.abs(numeric).max()), float(np.abs(a).max()), 1e-8)
        worst = max(worst, float(np.abs(a - numeric).max()) / scale)
    return CheckResult(name=name, max_rel_err=worst)


def directional_check(name: str, make_loss, leaves: list[Tensor], n_dirs: int,
                      seed: int) -> CheckResult:
    """Compare the tape's directional derivative ``grad(L) . v`` with the
    central difference ``(L(theta + eps v) - L(theta - eps v)) / 2 eps``
    along ``n_dirs`` random unit directions ``v`` over all ``leaves`` at
    once, drawn from ``default_rng(seed)``. Two forwards per direction
    reach models too wide for the per-element check. A direction's error
    is the difference over the larger of the two derivatives (at least
    1e-8); the result holds the worst."""
    analytic = _analytic_grads(make_loss, leaves)
    bases = [t.data for t in leaves]
    rng = np.random.default_rng(seed)

    def loss_at(dirs, step):
        for t, base, d in zip(leaves, bases, dirs):
            t.data = base + step * d
        try:
            return make_loss().item()
        finally:
            for t, base in zip(leaves, bases):
                t.data = base

    worst = 0.0
    for _ in range(n_dirs):
        dirs = [rng.standard_normal(base.shape) for base in bases]
        norm = np.sqrt(sum(np.vdot(d, d) for d in dirs))
        dirs = [d / norm for d in dirs]
        along = float(sum(np.vdot(a, d) for a, d in zip(analytic, dirs)))
        numeric = (loss_at(dirs, T.FD_EPS) - loss_at(dirs, -T.FD_EPS)) / (2.0 * T.FD_EPS)
        worst = max(worst, abs(along - numeric) / max(abs(along), abs(numeric), 1e-8))
    return CheckResult(name=name, max_rel_err=worst)


def _t(rng, *shape, lo=-2.0, hi=2.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, shape), dtype=np.float64)


@functools.cache
def _readout(seed: int, shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.random.default_rng(seed).uniform(-1, 1, shape), dtype=np.float64)


def _weighted_sum(x: Tensor, seed: int) -> Tensor:
    # a fixed random linear readout, drawn once per seed and shape, turns
    # any output into a scalar loss
    return T.sum_all(T.ew_mul(x, _readout(seed, x.shape)))


def _check_primitives() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(1)

    x = _t(rng, 3, 8)
    y = _t(rng, 3, 8)
    out.append(gradcheck("ew_mul", lambda: _weighted_sum(T.ew_mul(x, y), 2), [x, y]))
    out.append(gradcheck("sigmoid", lambda: _weighted_sum(T.sigmoid(x), 3), [x]))
    for add in (False, True):
        out.append(gradcheck("gate_add" if add else "gate",
                             lambda add=add: _weighted_sum(gate(x, y, add), 10),
                             [x, y]))

    xr = Tensor(np.where(np.abs(x.data) < 1e-2, 0.5, x.data), dtype=np.float64)  # off the kink
    out.append(gradcheck("relu", lambda: _weighted_sum(T.relu(xr), 4), [xr]))

    w = _t(rng, 4, 3, 5, lo=-1, hi=1)
    b = _t(rng, 4, lo=-1, hi=1)
    cp = Conv1dParams(weight=w, bias=b, stride=2, padding=2)
    out.append(gradcheck("conv1d",
                         lambda: _weighted_sum(conv1d(x, cp), 5), [x, w, b]))

    xt = _t(rng, 4, 6)
    _t(rng, 3)  # drawn, unused, so that every later entry keeps its inputs
    cpt = Conv1dParams(weight=w, bias=None, stride=2, padding=2)
    out.append(gradcheck("conv_transpose1d",
                         lambda: _weighted_sum(conv_transpose1d(xt, cpt), 6), [xt, w]))

    out.append(gradcheck("avg_pool1d",
                         lambda: _weighted_sum(avg_pool1d(x, 2), 7), [x]))
    out.append(gradcheck("interp_resample",
                         lambda: _weighted_sum(interp_resample(x, 13), 8), [x]))

    gp = GlnParams(gain=_t(rng, 3, lo=0.5, hi=1.5), bias=_t(rng, 3, lo=-0.5, hi=0.5))
    out.append(gradcheck("gln",
                         lambda: _weighted_sum(gln(x, gp), 9),
                         [x, gp.gain, gp.bias]))

    # grouped (2 groups) and depthwise (multiplier 2) convs, both directions
    rg = np.random.default_rng(20)
    for tag, c_in, c_out, groups in (("g2", 4, 6, 2), ("dw", 3, 6, 3)):
        xg = _t(rg, c_in, 8)
        wg = _t(rg, c_out, c_in // groups, 5, lo=-1, hi=1)
        bg = _t(rg, c_out, lo=-1, hi=1)
        cpg = Conv1dParams(weight=wg, bias=bg, stride=2, padding=2, groups=groups)
        out.append(gradcheck(f"conv1d_{tag}",
                             lambda: _weighted_sum(conv1d(xg, cpg), 21),
                             [xg, wg, bg]))
        xtg = _t(rg, c_out, 6)
        _t(rg, c_in)  # drawn, unused, so that every later entry keeps its inputs
        cptg = Conv1dParams(weight=wg, bias=None, stride=2, padding=2, groups=groups)
        out.append(gradcheck(f"conv_transpose1d_{tag}",
                             lambda: _weighted_sum(conv_transpose1d(xtg, cptg), 22),
                             [xtg, wg]))
    return out


def _block_fixture():
    cfg = ModelConfig(n_audio_channels=2, n_video_channels=3, depth=2,
                      n_fusion_cycles=1, n_audio_cycles=1, ffn_channels=(2, 4, 2))
    p = build_params(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(100)
    audio = ScalePyramid(levels=[_t(rng, 2, 16 >> i) for i in range(3)])
    video = ScalePyramid(levels=[_t(rng, 3, 8 >> i) for i in range(3)])
    return p, audio, video


def _check_blocks() -> list[CheckResult]:
    out = []
    p, audio, video = _block_fixture()

    x, y = audio.levels[0], audio.levels[2]
    q = p.global_intra_s[0]
    leaves = [x, y, q.conv.weight, q.gln.gain, q.gln.bias]
    out.append(gradcheck(
        "intra_a_global",
        lambda: _weighted_sum(intra_a_global(x, y, q), 11), leaves))
    out.append(gradcheck(
        "intra_a_prime",
        lambda: _weighted_sum(intra_a_prime(x, y), 12), [x, y]))

    sb, vb = audio.levels[1], video.levels[1]
    qm = p.inter_m[1]
    out.append(gradcheck(
        "inter_a_m",
        lambda: _weighted_sum(inter_a_m(sb, vb, qm), 13),
        [sb, vb, qm.conv.weight, qm.gln.gain, qm.gln.bias]))

    f = p.inter_t.ffn_s
    t_leaves = (audio.levels + video.levels
                + [p.inter_t.q_av.conv.weight, p.inter_t.q_va.conv.weight]
                + [f.conv0.weight, f.conv1.weight, f.conv2.weight, f.conv1.bias, f.gln.gain])

    def t_loss():
        s_g, v_g = inter_a_t(audio, video, p.inter_t)
        return T.ew_add(_weighted_sum(s_g, 14), _weighted_sum(v_g, 15))

    out.append(gradcheck("inter_a_t", t_loss, t_leaves))

    td_leaves = (audio.levels + video.levels
                 + [p.global_intra_s[1].conv.weight, p.local_intra_s[0].conv.weight,
                    p.inter_m[0].conv.weight, p.local_intra_v[1].conv.weight])

    def td_loss():
        s0, v0 = top_down_pass(audio, video, *inter_a_t(audio, video, p.inter_t), p)
        return T.ew_add(_weighted_sum(s0, 16), _weighted_sum(v0, 17))

    out.append(gradcheck("top_down_pass", td_loss, td_leaves))

    s0, v0 = audio.levels[0], video.levels[0]
    ib: InterBParams = p.inter_b
    b_leaves = [s0, v0, ib.gate_s.conv.weight, ib.out_s.conv.weight,
                ib.gate_v.conv.weight, ib.out_v.conv.weight,
                ib.out_s.gln.gain, ib.out_v.gln.bias]

    def b_loss():
        es, ev = inter_a_b(s0, v0, ib)
        return T.ew_add(_weighted_sum(es, 18), _weighted_sum(ev, 19))

    out.append(gradcheck("inter_a_b", b_loss, b_leaves))
    return out


def _check_full_model() -> CheckResult:
    cfg = ModelConfig(
        sample_rate=8000, enc_kernel=4, enc_stride=2,
        n_audio_channels=2, n_video_channels=2, depth=1,
        n_fusion_cycles=1, n_audio_cycles=1, ffn_channels=(2, 4, 2),
    )
    for seed in range(8):
        p = build_params(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(200 + seed)
        mix = rng.uniform(-0.5, 0.5, 40)
        ref = rng.uniform(-0.5, 0.5, 40)
        vfeat = rng.uniform(0.0, 0.3, (1, 4))
        wave = Tensor(mix[None, :], dtype=np.float64)
        vt = Tensor(vfeat, dtype=np.float64)

        feats = separation_features(*encode(wave, vt, cfg, p), cfg, p).data
        if float(np.abs(feats).min()) <= 1e-3:
            continue  # pre-mask value too close to the relu kink; reseed

        leaves = [t for _, t in named_tensors(p)]

        def loss():
            out = separate(wave, vt, cfg, p)
            return si_snr_loss(out.waveform, ref[None, :])

        return gradcheck("full_model_si_snr", loss, leaves)
    raise RuntimeError("no seed kept the pre-mask margin away from the relu kink")


def run_all() -> list[CheckResult]:
    results = _check_primitives() + _check_blocks()
    results.append(_check_full_model())
    return results
