import hashlib
import json
import struct
import time
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import rewrite_manifest, tiny_config

from avsep import blocks as B
from avsep import checks
from avsep import model as M
from avsep import nn
from avsep import tensor as T
from avsep.blocks import ScalePyramid, inter_a_b, inter_a_t, top_down_pass
from avsep.errors import ConfigError, FormatError, GeometryError
from avsep.metrics import si_snr_loss
from avsep.model import (
    ModelConfig,
    audio_only_cycle,
    build_params,
    count_macs,
    count_params,
    encode_audio,
    load_checkpoint,
    mac_breakdown,
    named_tensors,
    full_scale_config,
    paper_scale_config,
    refinement_cycle,
    save_checkpoint,
    separate,
    separation_features,
)
from avsep.nn import avg_pool1d, conv1d, ffn, gln, interp_resample
from avsep.tensor import Tensor
from avsep.trainer import AdamState, FlatParams, adam_step


class TestConfigValidation:
    def test_kernel_stride_coupling(self):
        with pytest.raises(ConfigError):
            ModelConfig(enc_kernel=6, enc_stride=2)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(intra_variant="psi")

    def test_ffn_tail_must_match_audio_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(ffn_channels=(16, 32, 8))

    def test_multi_speaker_needs_audio_only(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_speakers=2)
        ModelConfig(n_speakers=2, audio_only=True)  # fine

    def test_depthwise_ffn_needs_integer_multiplier(self):
        with pytest.raises(ConfigError):
            ModelConfig(ffn_channels=(16, 24, 16), depthwise=True)
        ModelConfig(ffn_channels=(16, 24, 16))  # fine when dense

    def test_raw_video_width_must_differ_from_embedding_width(self):
        # encode tells raw features from embeddings by channel count alone
        with pytest.raises(ConfigError, match="n_video_in"):
            ModelConfig(n_video_in=16)
        ModelConfig(n_video_in=16, audio_only=True)  # fine without video


class TestGeometry:
    @pytest.mark.parametrize("t_a", [97, 400, 1001, 4000, 107, 139])
    def test_output_length_matches_input(self, t_a, rng):
        cfg = tiny_config()
        p = build_params(cfg, seed=0)
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, t_a)).astype(np.float32))
        feat = Tensor(rng.uniform(0, 0.3, (1, max(1, t_a * 25 // 8000))).astype(np.float32))
        out = separate(wave, feat, cfg, p)
        assert out.waveform.shape == (1, t_a)

    def test_mask_is_nonnegative(self, rng):
        cfg = tiny_config()
        p = build_params(cfg, seed=0)
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 400)).astype(np.float32))
        feat = Tensor(rng.uniform(0, 0.3, (1, 1)).astype(np.float32))
        out = separate(wave, feat, cfg, p)
        assert out.mask.data.min() >= 0.0

    def test_zero_mixture_gives_zero_output(self):
        # encoder and decoder are bias-free linear maps, and a zero
        # embedding is annihilated by the multiplicative mask
        cfg = tiny_config()
        p = build_params(cfg, seed=0)
        wave = Tensor(np.zeros((1, 400), dtype=np.float32))
        feat = Tensor(np.full((1, 1), 0.2, dtype=np.float32))
        out = separate(wave, feat, cfg, p)
        np.testing.assert_array_equal(out.waveform.data, np.zeros((1, 400)))

    def test_fused_model_requires_video(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=0)
        with pytest.raises(GeometryError):
            separate(Tensor(np.zeros((1, 100))), None, cfg, p)
        # and each embedding's length divides by 2^depth (4 here)
        e = Tensor(np.zeros((4, 8), dtype=np.float32))
        odd = Tensor(np.zeros((4, 6), dtype=np.float32))
        with pytest.raises(GeometryError, match="the fused model needs video features"):
            separation_features(e, None, cfg, p)
        with pytest.raises(GeometryError, match="audio embedding length must divide"):
            separation_features(odd, e, cfg, p)
        with pytest.raises(GeometryError, match="video embedding length must divide"):
            separation_features(e, odd, cfg, p)

    def test_depthwise_routing(self, rng):
        # down-convs depthwise, FFN middle conv depthwise with multiplier 2,
        # everything else dense
        cfg = tiny_config(depthwise=True)
        p = build_params(cfg, seed=0)
        assert [q.conv.groups for q in p.audio_down + p.video_down] == [4] * 4
        f = p.inter_t.ffn_s
        assert [cp.groups for cp in (f.conv0, f.conv1, f.conv2)] == [1, 4, 1]
        assert f.conv1.weight.shape == (8, 1, 5)
        assert p.local_intra_s[0].conv.groups == 1
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 400)).astype(np.float32))
        feat = Tensor(rng.uniform(0, 0.3, (1, 1)).astype(np.float32))
        out = separate(wave, feat, cfg, p)
        assert out.waveform.shape == (1, 400)
        assert np.all(np.isfinite(out.waveform.data)) and out.mask.data.min() >= 0.0

    def test_short_waveform_rejected(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=0)
        with pytest.raises(GeometryError):
            encode_audio(Tensor(np.zeros((1, 2))), p)


def unrolled_reference(e_s, e_v, cfg, p):
    """Equation-by-equation unroll of the cyclic network, written directly
    against the block functions and primitives rather than the driver
    loop. The audio cycles compute each ``Q(up(y))`` here as
    ``gln(conv1d(interp_resample(y, L)))``, sharing no code with
    ``intra_a_global`` or its ``_q_up``, and a depthwise down-conv is
    summed here tap by tap, sharing no code with ``conv1d``."""

    def down(x, cp):
        if cp.groups == 1:
            return conv1d(x, cp)
        # depthwise: y[c, t] = sum_k w[c, 0, k] * x_padded[c, t * stride + k]
        xp = np.pad(x.data, ((0, 0), (cp.padding, cp.padding)))
        n, s = (xp.shape[1] - cp.kernel) // cp.stride + 1, cp.stride
        return Tensor(sum(cp.weight.data[:, :, k] * xp[:, k : k + s * n : s]
                          for k in range(cp.kernel)))

    def bottom_up(x, stack):
        levels = [x]
        for q in stack:
            levels.append(gln(down(levels[-1], q.conv), q.gln))
        return ScalePyramid(levels=levels)

    def q_up(y, length, q):
        return gln(conv1d(interp_resample(y, length), q.conv), q.gln)

    def intra(x, y, q):  # sigmoid(Q(up(y))) * x + Q(up(y))
        m = q_up(y, x.shape[1], q)
        return T.ew_add(T.ew_mul(T.sigmoid(m), x), m)

    def coarse_to_fine(bar, qs):
        chk = bar[-1]
        for i in range(len(bar) - 2, -1, -1):
            chk = intra(bar[i], chk, qs[i])
        return chk

    cur_s, cur_v = e_s, e_v
    for _ in range(cfg.n_fusion_cycles):
        sp = bottom_up(cur_s, p.audio_down)
        vp = bottom_up(cur_v, p.video_down)
        s_g, v_g = inter_a_t(sp, vp, p.inter_t)
        s0, v0 = top_down_pass(sp, vp, s_g, v_g, p)
        cur_s, cur_v = inter_a_b(s0, v0, p.inter_b)
    for _ in range(cfg.n_audio_cycles):
        sp = bottom_up(cur_s, p.audio_down)
        d = cfg.depth
        acc = sp.levels[d]
        for i in range(d):
            acc = T.ew_add(acc, avg_pool1d(sp.levels[i], 2 ** (d - i)))
        s_g = ffn(acc, p.inter_t.ffn_s)
        cur_s = coarse_to_fine([intra(x, s_g, q) for x, q in zip(sp.levels, p.global_intra_s)],
                               p.local_intra_s)
    return T.relu(cur_s)


class TestUnrolledReference:
    def test_forward_matches_unroll(self, rng):
        cfg = tiny_config(depth=2, n_fusion_cycles=2, n_audio_cycles=1)
        p = build_params(cfg, seed=4)
        e_s = Tensor(rng.standard_normal((4, 32)).astype(np.float32))
        e_v = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        got = T.relu(separation_features(e_s, e_v, cfg, p)).data
        want = unrolled_reference(e_s, e_v, cfg, p).data
        assert np.max(np.abs(got - want)) < 1e-6

    def test_forward_matches_unroll_at_the_paper_routing(self, rng):
        # depthwise down-convs and FFN middle conv (biased), 5-tap Q; a
        # 160-sample mixture gives 80 frames and 16 raw video frames go
        # through the stub, so both coarsest levels keep more than one frame
        cfg = tiny_config(depth=2, n_fusion_cycles=2, n_audio_cycles=1, depthwise=True,
                          q_kernel=5)
        p = build_params(cfg, seed=4)
        assert p.inter_t.ffn_s.conv1.groups == 4 and p.inter_t.ffn_s.conv1.bias is not None
        mixture = Tensor(rng.uniform(-0.5, 0.5, (1, 160)).astype(np.float32))
        video = Tensor(rng.uniform(0, 0.3, (1, 16)).astype(np.float32))
        e_s, e_v = M.encode(mixture, video, cfg, p)
        assert (e_s.shape, e_v.shape) == ((4, 80), (4, 16))
        got = T.relu(separation_features(e_s, e_v, cfg, p)).data
        want = unrolled_reference(e_s, e_v, cfg, p).data
        assert np.max(np.abs(got - want)) < 1e-6

    def test_audio_only_cycle_matches_shared_path(self, rng):
        # the audio-only cycle must reuse the fused network's audio params
        cfg = tiny_config(depth=2)
        p = build_params(cfg, seed=5)
        e_s = Tensor(rng.standard_normal((4, 32)).astype(np.float32))
        out = audio_only_cycle(e_s, cfg, p)
        assert out.shape == e_s.shape

    def test_cycle_without_video_is_the_audio_only_cycle(self, rng):
        # a dropout rate with no generator keeps the cycle deterministic
        cfg = tiny_config(depth=2, dropout_p=0.3)
        p = build_params(cfg, seed=5)
        e_s = Tensor(rng.standard_normal((4, 32)).astype(np.float32))
        s, v = refinement_cycle(e_s, None, cfg, p)
        assert v is None
        np.testing.assert_array_equal(s.data, audio_only_cycle(e_s, cfg, p).data)
        ao = tiny_config(depth=2, audio_only=True)
        with pytest.raises(ConfigError, match="no video pathway"):
            refinement_cycle(e_s, e_s, ao, build_params(ao, seed=5))

    def test_fused_cycle_matches_blocks(self, rng):
        cfg = tiny_config(depth=2)
        p = build_params(cfg, seed=5)
        e_s = Tensor(rng.standard_normal((4, 32)).astype(np.float32))
        e_v = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        s, v = refinement_cycle(e_s, e_v, cfg, p)
        sp, vp = (M._bottom_up(x, st) for x, st in ((e_s, p.audio_down), (e_v, p.video_down)))
        want = inter_a_b(*top_down_pass(sp, vp, *inter_a_t(sp, vp, p.inter_t), p),
                         p.inter_b)
        np.testing.assert_array_equal(s.data, want[0].data)
        np.testing.assert_array_equal(v.data, want[1].data)


class TestZeroParameterTrace:
    def test_audio_only_cycle_scales_by_quarter(self, rng):
        # zero Q everywhere: global stage halves, local stage halves again
        cfg = tiny_config(depth=2)
        p = build_params(cfg, seed=0)
        for name, t in named_tensors(p):
            # zero every parameter except the GLN gains, which stay at 1 so
            # the normalizations remain well-defined no-ops on zero input
            t.data = np.ones_like(t.data) if name.endswith(".gain") else np.zeros_like(t.data)
        x32 = rng.standard_normal((4, 16)).astype(np.float32)
        out = audio_only_cycle(Tensor(x32), cfg, p).data
        np.testing.assert_array_equal(out, np.float32(0.5) * (np.float32(0.5) * x32))


class TestParameterAccounting:
    @pytest.mark.parametrize("nf", [1, 4])
    @pytest.mark.parametrize("ns", [0, 6, 12])
    def test_cycle_counts_do_not_change_params(self, nf, ns):
        base = count_params(tiny_config())
        assert count_params(tiny_config(n_fusion_cycles=nf, n_audio_cycles=ns)) == base

    def test_analytic_count_matches_built_tensors(self):
        for cfg in (tiny_config(), ModelConfig(), full_scale_config(),
                    paper_scale_config(), tiny_config(depthwise=True),
                    tiny_config(intra_variant="phi_prime"),
                    tiny_config(audio_only=True),
                    tiny_config(audio_only=True, depthwise=True)):
            p = build_params(cfg, seed=0)
            aux = sum(t.size for _, t in named_tensors([p.video_stub, p.mask_head]))
            built = sum(t.size for _, t in named_tensors(p)) - aux
            assert count_params(cfg) == built, cfg

    def test_two_speaker_rows_are_pinned(self):
        # the mask head is counted as MACs but, like the video stub, has no
        # parameter row
        cfg = tiny_config(audio_only=True, n_speakers=2)
        assert M.param_breakdown(cfg) == [
            ("encoder", 16), ("decoder", 16), ("audio_down", 176), ("inter_t", 224),
            ("global_intra_s", 72), ("local_intra_s", 48)]
        assert mac_breakdown(cfg, 0.5) == [
            ("audio_cycles", 544000), ("encoder", 31984), ("decoder", 64000),
            ("mask_head", 64000)]

    def test_prime_variant_strictly_smaller(self):
        assert count_params(tiny_config(intra_variant="phi_prime")) < count_params(tiny_config())

    def test_disabling_blocks_sheds_params(self):
        full = count_params(tiny_config())
        for flag in ("inter_t_enabled", "inter_m_enabled", "inter_b_enabled"):
            assert count_params(tiny_config(**{flag: False})) < full


class TestMacAccounting:
    def test_linear_in_audio_seconds(self):
        # 0.32 s fills both grids without padding (1,280 audio frames and 8
        # video frames at depth 3), so doubling it doubles every conv's
        # frames but the encoder's, whose unpadded output gains one frame
        cfg = ModelConfig()
        m1 = count_macs(cfg, 0.32)
        m2 = count_macs(cfg, 0.64)
        assert m2 - 2 * m1 == cfg.n_audio_channels * cfg.enc_kernel

    def test_monotone_in_fusion_cycles(self):
        vals = [count_macs(ModelConfig(n_fusion_cycles=nf), 1.0) for nf in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_audio_cycles_share(self):
        from dataclasses import replace

        cfg = full_scale_config()
        full = dict(mac_breakdown(cfg, 1.0))
        half = dict(mac_breakdown(replace(cfg, n_audio_cycles=6), 1.0))
        assert half["audio_cycles"] == full["audio_cycles"] // 2
        assert half["fusion_cycles"] == full["fusion_cycles"]

    @pytest.mark.parametrize("over", [{}, {"depthwise": True}, {"q_kernel": 3},
                                      {"audio_only": True, "n_speakers": 2},
                                      {"samples": 4003}])
    def test_count_matches_convs_run(self, over, monkeypatch, rng):
        # every conv that separate() runs, at weight-count x output frames;
        # video enters at embedding width, so the aux stub does not run.
        # ``samples`` is the mixture length (default 0.5 s), the rest config
        over = dict(over)
        t_a = over.pop("samples", 4000)
        cfg = tiny_config(**over)
        p = build_params(cfg, seed=0)
        ran = []

        def counted(fn, frames):
            def wrapped(x, cp):
                y = fn(x, cp)
                ran.append(cp.weight.size * frames(x, y))
                return y
            return wrapped

        conv = counted(nn.conv1d, lambda x, y: y.shape[1])
        monkeypatch.setattr(nn, "conv1d", conv)
        monkeypatch.setattr(M, "conv1d", conv)
        monkeypatch.setattr(B, "conv1d", conv)
        monkeypatch.setattr(M, "conv_transpose1d",
                            counted(nn.conv_transpose1d, lambda x, y: x.shape[1]))
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, t_a)).astype(np.float32))
        feat = Tensor(rng.uniform(0, 0.3, (4, t_a * 25 // cfg.sample_rate))
                      .astype(np.float32))
        separate(wave, feat, cfg, p)
        assert sum(ran) == count_macs(cfg, t_a / cfg.sample_rate)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(GeometryError):
            count_macs(ModelConfig(), 0.0)


# every accounting row of the two reference configs at 1 s; the README and
# criterion 8 quote their totals
_SCALE_ROWS = {
    "full": (
        [("encoder", 8192), ("decoder", 8192), ("audio_down", 5246976),
         ("video_down", 5246976), ("inter_t", 7346176), ("global_intra_s", 1315840),
         ("global_intra_v", 1315840), ("inter_m", 1315840), ("local_intra_s", 1052672),
         ("local_intra_v", 1052672), ("inter_b", 1052672)],
        [("fusion_cycles", 18841862144), ("audio_cycles", 42467328000),
         ("encoder", 16375808), ("decoder", 16384000)],
        24962048, 61341949952,
    ),
    "paper": (
        [("encoder", 2048), ("decoder", 2048), ("audio_down", 3584), ("video_down", 3584),
         ("inter_t", 266240), ("global_intra_s", 410880), ("global_intra_v", 410880),
         ("inter_m", 410880), ("local_intra_s", 328704), ("local_intra_v", 328704),
         ("inter_b", 328704)],
        [("fusion_cycles", 5212100096), ("audio_cycles", 7585728000),
         ("encoder", 4093952), ("decoder", 4096000)],
        2496256, 12806018048,
    ),
}


@pytest.mark.parametrize("scale", sorted(_SCALE_ROWS))
def test_reference_accounting_rows_are_pinned(scale):
    cfg = full_scale_config() if scale == "full" else paper_scale_config()
    params, macs, n_params, n_macs = _SCALE_ROWS[scale]
    assert M.param_breakdown(cfg) == params
    assert mac_breakdown(cfg, 1.0) == macs
    assert count_params(cfg) == n_params
    assert count_macs(cfg, 1.0) == n_macs


def _q_layout(name, k=1, c_in=4):
    """One Q (conv + gLN) of the tiny 4-channel config, in file order."""
    return [(f"{name}.conv.weight", (4, c_in, k)), (f"{name}.gln.gain", (4,)),
            (f"{name}.gln.bias", (4,))]


def _stack_layout(tag, n, k=1, c_in=4):
    return [e for i in range(n) for e in _q_layout(f"{tag}.{i}", k, c_in)]


def _ffn_layout(name, mid_in=4):
    return [(f"{name}.conv0.weight", (4, 4, 1)), (f"{name}.conv1.weight", (8, mid_in, 5)),
            (f"{name}.conv1.bias", (8,)), (f"{name}.conv2.weight", (4, 8, 1)),
            (f"{name}.gln.gain", (4,)), (f"{name}.gln.bias", (4,))]


def _fused_layout(kq=1, depthwise=False):
    """The tiny fused config's layout; ``depthwise`` makes the down-convs
    and FFN middle convs read one input channel per group."""
    c_in = 1 if depthwise else 4
    return ([("encoder.weight", (4, 1, 4)), ("decoder.weight", (4, 1, 4))]
            + _stack_layout("audio_down", 2, k=5, c_in=c_in)
            + _stack_layout("video_down", 2, k=5, c_in=c_in)
            + _q_layout("inter_t.q_av", kq) + _q_layout("inter_t.q_va", kq)
            + _ffn_layout("inter_t.ffn_s", c_in) + _ffn_layout("inter_t.ffn_v", c_in)
            + _stack_layout("global_intra_s", 3, kq) + _stack_layout("global_intra_v", 3, kq)
            + _stack_layout("inter_m", 3, kq)
            + _stack_layout("local_intra_s", 2, kq) + _stack_layout("local_intra_v", 2, kq)
            + [e for t in ("gate_s", "out_s", "gate_v", "out_v")
               for e in _q_layout(f"inter_b.{t}", kq)]
            + [("video_stub.0.weight", (4, 1, 3)), ("video_stub.0.bias", (4,)),
               ("video_stub.1.weight", (4, 4, 3)), ("video_stub.1.bias", (4,))])


# sha256 of save_checkpoint(build_params(cfg, seed=3), cfg, path): any
# change to a name, the tensor order, the draw order or the manifest bytes
# changes these
_CHECKPOINT_SHA256 = [
    ({}, "5d3588625faf473a1573a591320c96ac20df4a66c205d9317f515a6f9bcb4847"),
    ({"depthwise": True, "q_kernel": 5, "dropout_p": 0.1},
     "600a566ff36fbeeaeee8c19e35f11d0bfe73172c0a7ae526749884f80be52a4a"),
    ({"audio_only": True, "n_speakers": 2},
     "ec67b123931345e14fbe8f5cbc206f0266d8e94888fb2c859ce7cabb091b811b"),
    ({"intra_variant": "phi_prime", "inter_t_enabled": False, "inter_m_enabled": False,
      "inter_b_enabled": False},
     "a15af36425bd569d003364aadf1a6ebbc702372def44b9b86e87a627a2ed3bcc"),
]


class TestCheckpointIO:
    @pytest.mark.parametrize("over, digest", _CHECKPOINT_SHA256,
                             ids=["fused", "depthwise", "two_speaker", "phi_prime_bare"])
    def test_bytes_are_pinned(self, tmp_path, over, digest):
        cfg = tiny_config(**over)
        path, again = tmp_path / "m.iiac", tmp_path / "again.iiac"
        save_checkpoint(build_params(cfg, seed=3), cfg, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        save_checkpoint(*load_checkpoint(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("edit", [lambda e: e.update(dtype="f64"), lambda e: e.pop("dtype")],
                             ids=["f64", "missing"])
    def test_dtype_other_than_f32_rejected(self, tmp_path, edit):
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        rewrite_manifest(path, lambda m: edit(m["tensors"][3]))
        with pytest.raises(FormatError, match=r"^checkpoint tensor audio_down\.0\.gln\.gain "
                                              r"has dtype (None|'f64'), expected 'f32'$"):
            load_checkpoint(path)

    def test_layout_is_pinned(self):
        # the .iiac layout: every name and shape, in file order
        fused = _fused_layout()

        def without(*prefixes):
            return [e for e in fused if not e[0].startswith(prefixes)]

        head = fused[:8]  # encoder, decoder, audio_down
        two_speaker = (head + _ffn_layout("inter_t.ffn_s")
                       + _stack_layout("global_intra_s", 3) + _stack_layout("local_intra_s", 2)
                       + [("mask_head.weight", (8, 4, 1))])
        cases = [
            ({}, fused),
            ({"audio_only": True, "n_speakers": 2}, two_speaker),
            ({"intra_variant": "phi_prime"}, without("global_intra_")),
            ({"inter_t_enabled": False}, without("inter_t.q_")),
            ({"inter_m_enabled": False}, without("inter_m.")),
            ({"inter_b_enabled": False}, without("inter_b.")),
            ({"depthwise": True}, _fused_layout(depthwise=True)),
            ({"q_kernel": 3}, _fused_layout(kq=3)),
        ]
        for over, want in cases:
            got = [(n, t.shape) for n, t in named_tensors(build_params(tiny_config(**over)))]
            assert got == want, over

    def test_round_trip_bit_exact(self, tmp_path, rng):
        for cfg in (tiny_config(), tiny_config(depthwise=True)):
            p = build_params(cfg, seed=7)
            path = tmp_path / "m.iiac"
            save_checkpoint(p, cfg, path)
            p2, cfg2 = load_checkpoint(path)
            assert cfg2 == cfg
            for (n1, t1), (n2, t2) in zip(named_tensors(p), named_tensors(p2)):
                assert n1 == n2
                np.testing.assert_array_equal(t1.data, t2.data)

    def test_manifest_without_depthwise_loads_dense(self, tmp_path):
        # checkpoints written before the depthwise field have no such key
        cfg = tiny_config()
        p = build_params(cfg, seed=3)
        path = tmp_path / "m.iiac"
        save_checkpoint(p, cfg, path)
        blob = path.read_bytes()
        (mlen,) = struct.unpack_from("<Q", blob, 8)
        manifest = json.loads(blob[16 : 16 + mlen])
        assert "depthwise" not in manifest["config"]  # dense bytes unchanged
        p2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg and not cfg2.depthwise
        for (_, t1), (_, t2) in zip(named_tensors(p), named_tensors(p2)):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_nan_payload_rejected(self, tmp_path):
        # the last payload float is video_stub.1.bias
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("nan")))
        with pytest.raises(FormatError,
                           match=r"^non-finite values in checkpoint tensor video_stub\.1\.bias$"):
            load_checkpoint(path)

    def test_non_integer_manifest_shape_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        rewrite_manifest(path, lambda m: m["tensors"][0].update(shape=["x"]))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_load_makes_no_random_draw(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        p = build_params(cfg, seed=7)
        path = tmp_path / "m.iiac"
        save_checkpoint(p, cfg, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        p2, _ = load_checkpoint(path)
        for (_, t1), (_, t2) in zip(named_tensors(p), named_tensors(p2)):
            np.testing.assert_array_equal(t1.data, t2.data)

    @staticmethod
    def _count_scanned(monkeypatch) -> list[int]:
        """Patch ``np.isfinite`` to add the size of every array it scans to
        the returned list's one entry."""
        scanned, isfinite = [0], np.isfinite

        def counting(x, *args, **kwargs):
            scanned[0] += np.size(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        return scanned

    @pytest.mark.parametrize("over", [{}, {"depthwise": True},
                                      {"audio_only": True, "n_speakers": 2}],
                             ids=["fused", "depthwise", "two_speaker"])
    def test_load_scans_each_payload_float_once(self, tmp_path, monkeypatch, over):
        cfg = tiny_config(**over)
        path = tmp_path / "m.iiac"
        p = build_params(cfg, seed=5)
        save_checkpoint(p, cfg, path)
        scanned = self._count_scanned(monkeypatch)
        load_checkpoint(path)
        assert scanned[0] == sum(t.size for _, t in named_tensors(p))

    @pytest.mark.parametrize("cfg", [tiny_config(), paper_scale_config(), full_scale_config()],
                             ids=["tiny", "paper", "full"])
    def test_accounting_scans_no_parameter(self, monkeypatch, cfg):
        scanned = self._count_scanned(monkeypatch)
        assert count_params(cfg) > 0 and count_macs(cfg, 1.0) > 0
        assert M.param_breakdown(cfg) and mac_breakdown(cfg, 1.0)
        assert scanned[0] == 0

    def test_loaded_tree_owns_its_buffers_and_trains_in_place(self, tmp_path, monkeypatch):
        cfg = tiny_config(depthwise=True)
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=5), cfg, path)
        allocated, skeleton = [], M._skeleton

        def recorded(c, max_tensors):
            tree = skeleton(c, max_tensors)
            allocated.extend(t.data for _, t in named_tensors(tree))
            return tree

        monkeypatch.setattr(M, "_skeleton", recorded)
        p, _ = load_checkpoint(path)
        for (name, t), buf in zip(named_tensors(p), allocated, strict=True):
            a = t.data
            assert a is buf, name  # read into the skeleton's buffer, not a second one
            assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata, name
            assert a.base is None and a.dtype == np.dtype("<f4"), name
            assert not t.requires_grad and t.grad is None, name

        named = list(named_tensors(p))
        before = [t.data.copy() for _, t in named]
        flat = FlatParams(named)
        flat.mark(True)
        flat.grad[:] = 1.0
        adam_step(flat, AdamState(lr=0.001))
        for (name, t), old, span in zip(named, before, flat.spans):
            assert t.data.base is flat.data, name
            np.testing.assert_array_equal(t.data.ravel(), flat.data[span])
            assert np.all(t.data < old), name

    def test_oversized_config_rejected(self, tmp_path):
        # a 2**60-channel config over a valid tiny payload: numpy refuses
        # the shape before allocating, and the loader reports a bad file
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)

        def oversize(manifest):
            manifest["config"]["n_audio_channels"] = 2**60
            manifest["config"]["ffn_channels"][2] = 2**60

        rewrite_manifest(path, oversize)
        with pytest.raises(FormatError, match="^bad config in checkpoint: model too large "):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [(f.name, "false" if f.type == "bool" else 2.5)
                                            for f in fields(ModelConfig)
                                            if f.type in ("int", "bool")]
                             + [("dropout_p", "x"), ("ffn_channels", 5)])
    def test_mistyped_config_value_rejected(self, tmp_path, key, value):
        # a float count, a string switch or number, or a triple that is no
        # sequence is refused at load, named, and neither loads nor fails
        # later in the model with a TypeError
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        rewrite_manifest(path, lambda m: m["config"].update({key: value}))
        with pytest.raises(FormatError, match=f"^bad config in checkpoint: {key} must be "):
            load_checkpoint(path)

    def test_config_of_more_tensors_than_listed_is_refused_before_they_are_built(self, tmp_path):
        # a valid depth far past the file's tensor list is refused once the
        # build passes the listed count, not after building the whole tree
        cfg = ModelConfig()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        rewrite_manifest(path, lambda m: m["config"].update(depth=20000))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(FormatError, match="^bad config in checkpoint: the config has "
                                                  "more tensors than the 108 listed$"):
                load_checkpoint(path)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 10e6, (elapsed, peak)

    def test_magic_and_version(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        blob = path.read_bytes()
        assert blob[:4] == b"IIAC"
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.iiac"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.iiac"
        path.write_bytes(b"IIAC" + b"\x01\x00")
        with pytest.raises(FormatError, match="truncated checkpoint header"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        payload = size - 8 - 16 - struct.unpack_from("<Q", path.read_bytes(), 8)[0]
        with pytest.raises(FormatError, match=f"^corrupt checkpoint payload: {payload} bytes, "
                                              f"expected {payload + 8}$"):
            load_checkpoint(path)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was read ends in a short read
        cfg = tiny_config()
        path = tmp_path / "m.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        stat = SimpleNamespace(st_size=size)
        monkeypatch.setattr(M, "os", SimpleNamespace(fstat=lambda fd: stat))
        with pytest.raises(FormatError,
                           match=r"^truncated checkpoint tensor video_stub\.1\.bias$"):
            load_checkpoint(path)


class TestAblations:
    def _run(self, cfg, rng_seed=0):
        p = build_params(cfg, seed=1)
        rng = np.random.default_rng(rng_seed)
        e_s = Tensor(rng.standard_normal((4, 16)).astype(np.float32))
        e_v = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        return T.relu(separation_features(e_s, e_v, cfg, p)).data

    def test_every_block_is_live(self):
        combos = [
            dict(),
            dict(inter_t_enabled=False),
            dict(inter_m_enabled=False),
            dict(inter_b_enabled=False),
            dict(inter_t_enabled=False, inter_m_enabled=False),
            dict(inter_t_enabled=False, inter_b_enabled=False),
            dict(inter_m_enabled=False, inter_b_enabled=False),
            dict(inter_t_enabled=False, inter_m_enabled=False, inter_b_enabled=False),
            dict(intra_variant="phi_prime"),
        ]
        outputs = [self._run(tiny_config(**c)) for c in combos]
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert np.max(np.abs(outputs[i] - outputs[j])) > 1e-6, (i, j)


class TestDropout:
    def _inputs(self, rng):
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 200)).astype(np.float32))
        feat = Tensor(rng.uniform(0, 0.3, (1, 1)).astype(np.float32))
        return wave, feat

    def test_off_without_rng(self, rng):
        cfg = tiny_config(dropout_p=0.5)
        p = build_params(cfg, seed=2)
        wave, feat = self._inputs(rng)
        a, b = (separate(wave, feat, cfg, p).waveform.data for _ in range(2))
        np.testing.assert_array_equal(a, b)
        off = separate(wave, feat, replace(cfg, dropout_p=0.0), p).waveform.data
        np.testing.assert_array_equal(a, off)

    def test_drawn_from_rng(self, rng):
        cfg = tiny_config(dropout_p=0.5)
        p = build_params(cfg, seed=2)
        wave, feat = self._inputs(rng)
        a, b = (separate(wave, feat, cfg, p, np.random.default_rng(s)).waveform.data
                for s in (1, 1))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != separate(wave, feat, cfg, p).waveform.data)


def test_gradient_at_the_papers_routing():
    """The whole model's gradient at the routing paper scale takes
    (depthwise convs, 5-tap Qs, depth 2, dropout on), 2 channels wide.
    Dropout replays from a fresh generator per evaluation, so the oracle
    differentiates one fixed mask. At 160 samples and 16 video frames the
    coarsest video level has 4 frames: at one frame a 2-channel gLN outputs
    +-gain + bias whatever its input, every leaf that feeds it has a true
    gradient of roundoff size, and the error's scale floor turns that
    roundoff into a failure."""
    cfg = ModelConfig(n_audio_channels=2, n_video_channels=2, depth=2, n_fusion_cycles=1,
                      n_audio_cycles=1, ffn_channels=(2, 4, 2), q_kernel=5, depthwise=True,
                      dropout_p=0.1)
    for seed in range(8):
        p = build_params(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(300 + seed)
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 160)), dtype=np.float64)
        vt = Tensor(rng.uniform(0.0, 0.3, (1, 16)), dtype=np.float64)
        ref = rng.uniform(-0.5, 0.5, (1, 160))
        feats = separation_features(*M.encode(wave, vt, cfg, p), cfg, p,
                                    np.random.default_rng(7)).data
        if float(np.abs(feats).min()) <= 1e-3:
            continue  # pre-mask value too close to the relu kink; reseed

        def loss():
            out = separate(wave, vt, cfg, p, np.random.default_rng(7))
            return si_snr_loss(out.waveform, ref)

        res = checks.gradcheck("paper_routing", loss, [t for _, t in named_tensors(p)])
        assert res.passed, res.max_rel_err
        return
    pytest.fail("no seed kept the pre-mask margin away from the relu kink")


def test_directional_gradient_at_paper_width():
    """The whole paper-scale model's gradient, 128 channels wide, along 4
    random unit directions over all 129 leaves (float64, 0.16 s, dropout
    replayed from a fresh generator per evaluation). Inputs whose pre-mask
    margin is under 5e-5 are skipped: at the oracle's step of 1e-5 one
    direction moved a pre-mask value of the first inputs, 2.5e-6 from
    zero, across the relu kink."""
    cfg = paper_scale_config()
    for seed in range(8):
        p = build_params(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(400 + seed)
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 2560)), dtype=np.float64)
        vt = Tensor(rng.uniform(0.0, 0.3, (1, 4)), dtype=np.float64)
        ref = rng.uniform(-0.5, 0.5, (1, 2560))
        feats = separation_features(*M.encode(wave, vt, cfg, p), cfg, p,
                                    np.random.default_rng(7)).data
        if float(np.abs(feats).min()) <= 5e-5:
            continue  # pre-mask value too close to the relu kink; reseed

        def loss():
            out = separate(wave, vt, cfg, p, np.random.default_rng(7))
            return si_snr_loss(out.waveform, ref)

        leaves = [t for _, t in named_tensors(p)]
        assert len(leaves) == 129
        res = checks.directional_check("paper_width", loss, leaves, n_dirs=4, seed=0)
        assert res.passed, res.max_rel_err
        return
    pytest.fail("no seed kept the pre-mask margin away from the relu kink")


# float32 against float64 at the paper's routing, relative in the 2-norm:
# 1.5x the figures measured when this test was added (8.72e-7 and 2.55e-6), rounded up
F32_WAVE_REL_BOUND = 1.4e-6
F32_GRAD_REL_BOUND = 3.9e-6


def test_float32_tracks_float64_at_the_paper_routing():
    """One forward and one SI-SNR backward of the paper-scale model on
    0.16 s, at float64 and on the same values cast to float32, dropout off.
    The gLN gains and biases are moved 0.3 off their initial 1 and 0 (a
    normal draw each), so a rewrite exact only at init still shows. The
    waveform's and the flat gradient's relative differences are bounded:
    a change to float32 rounding moves them, and ``GRAD_TOL`` (float64)
    and the bit pins cannot say by how much."""
    cfg = paper_scale_config()
    rng = np.random.default_rng(0)
    named64 = list(named_tensors(build_params(cfg, seed=0, dtype=np.float64)))
    norms = {n.rsplit(".", 1)[0] for n, _ in named64 if n.endswith(".gain")}
    for n, t in named64:
        if n.rsplit(".", 1)[0] in norms:
            t.data += 0.3 * rng.standard_normal(t.shape)
    wave, video = rng.uniform(-0.5, 0.5, (1, 2560)), rng.uniform(0.0, 0.3, (1, 4))
    ref = rng.uniform(-0.5, 0.5, (1, 2560))
    runs = []
    for dtype in (np.float64, np.float32):
        p = build_params(cfg, seed=0, dtype=dtype)
        for (_, t), (_, t64) in zip(named_tensors(p), named64, strict=True):
            t.data[...] = t64.data
            t.requires_grad = True
        out = separate(Tensor(wave, dtype=dtype), Tensor(video, dtype=dtype), cfg, p).waveform
        si_snr_loss(out, ref).backward()
        grad = np.concatenate([t.grad.ravel() for _, t in named_tensors(p)])
        runs.append((out.data.astype(np.float64), grad.astype(np.float64)))
    (w64, g64), (w32, g32) = runs
    assert np.linalg.norm(w32 - w64) / np.linalg.norm(w64) <= F32_WAVE_REL_BOUND
    assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) <= F32_GRAD_REL_BOUND


class TestMultiSpeaker:
    def test_one_mask_per_speaker(self, rng):
        cfg = tiny_config(audio_only=True, n_speakers=2)
        p = build_params(cfg, seed=0)
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 100)).astype(np.float32))
        out = separate(wave, None, cfg, p)
        assert len(out.masks) == 2 and len(out.waveforms) == 2
        for m, w in zip(out.masks, out.waveforms):
            assert m.shape == (4, 52)
            assert m.data.min() >= 0.0
            assert w.shape == (1, 100)
        assert np.any(out.waveforms[0].data != out.waveforms[1].data)


class TestNoTapeByDefault:
    """Parameters are plain data: separating with built or loaded params
    records no tape, so every output is a bare array."""

    @pytest.mark.parametrize("over", [{}, {"audio_only": True, "n_speakers": 2}])
    def test_outputs_carry_no_tape(self, over, tmp_path, rng):
        cfg = tiny_config(**over)
        built = build_params(cfg, seed=0)
        save_checkpoint(built, cfg, tmp_path / "m.iiac")
        loaded, _ = load_checkpoint(tmp_path / "m.iiac")
        wave = Tensor(rng.uniform(-0.5, 0.5, (1, 100)).astype(np.float32))
        feat = None if cfg.audio_only else Tensor(rng.uniform(0, 0.3, (1, 1)).astype(np.float32))
        for p in (built, loaded):
            out = separate(wave, feat, cfg, p)
            for t in out.masks + out.waveforms:
                assert t._parents == () and t._backward is None


def test_toy_forward_tape_size(rng):
    # each attention gate is one tape node, an upsampled gate included:
    # 289 nodes in a toy forward, where a resample node before each
    # upsampled gate made 343, and sigmoid, multiply and add recorded
    # apart on top of that 442
    cfg = ModelConfig()
    p = build_params(cfg, seed=0)
    for _, t in named_tensors(p):
        t.requires_grad = True
    wave = Tensor(rng.uniform(-0.5, 0.5, (1, cfg.sample_rate)).astype(np.float32))
    feat = Tensor(rng.uniform(0, 0.3, (1, 25)).astype(np.float32))
    assert len(separate(wave, feat, cfg, p).waveform.tape()) <= 289


class TestDeterminism:
    def test_build_params_deterministic(self):
        cfg = tiny_config()
        a = build_params(cfg, seed=11)
        b = build_params(cfg, seed=11)
        for (_, t1), (_, t2) in zip(named_tensors(a), named_tensors(b)):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_seeds_differ(self):
        cfg = tiny_config()
        a = build_params(cfg, seed=1)
        b = build_params(cfg, seed=2)
        assert any(np.any(t1.data != t2.data)
                   for (_, t1), (_, t2) in zip(named_tensors(a), named_tensors(b)))
