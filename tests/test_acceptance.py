"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.

Criterion 8 is split in two: the absolute cost bands are measured on the
paper-scale routing (:func:`paper_scale_config`), and the relative cost
properties (parameter sharing, fast-mode MAC reduction) on the dense
full-scale reference.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
from conftest import tiny_config
from test_model import unrolled_reference

from avsep import checks
from avsep import tensor as T
from avsep.blocks import InterBParams, inter_a_b, inter_a_m, intra_a_global, intra_a_prime
from avsep.cli import main
from avsep.data import (
    energy_envelope,
    load_embedding,
    load_wav,
    mix_at_snr,
    remix,
    save_embedding,
    save_wav,
    synth_sources,
)
from avsep.metrics import pit_best, sdr, sdri, si_snr, si_snri
from avsep.model import (
    ModelConfig,
    build_params,
    count_macs,
    count_params,
    load_checkpoint,
    mac_breakdown,
    named_tensors,
    full_scale_config,
    paper_scale_config,
    save_checkpoint,
    separate,
    separation_features,
)
from avsep.nn import Conv1dParams, GlnParams, QParams
from avsep.tensor import Tensor


def _report(num: int, desc: str, ok: bool) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _zero_q(c_in, c_out):
    return QParams(
        conv=Conv1dParams(weight=Tensor(np.zeros((c_out, c_in, 1))), bias=None),
        gln=GlnParams(gain=Tensor(np.ones(c_out)), bias=Tensor(np.zeros(c_out))),
    )


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = checks.run_all()
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    assert _report(1, f"gradient suite: {len(results)} checks, worst rel err "
                      f"{worst:.2e}, {elapsed:.1f}s", ok)


def test_criterion_2_compositional_oracles():
    rng = np.random.default_rng(0)
    cfg = tiny_config(depth=2, n_fusion_cycles=2, n_audio_cycles=1)
    p = build_params(cfg, seed=4)
    e_s = Tensor(rng.standard_normal((4, 32)).astype(np.float32))
    e_v = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    got = T.relu(separation_features(e_s, e_v, cfg, p)).data
    want = unrolled_reference(e_s, e_v, cfg, p).data
    diff = float(np.max(np.abs(got - want)))
    ok = diff < 1e-6
    assert _report(2, f"unrolled D=2/N_F=2/N_S=1 reference, max abs diff {diff:.2e}", ok)


def test_criterion_3_zero_parameter_traces():
    rng = np.random.default_rng(1)
    x32 = rng.standard_normal((3, 8)).astype(np.float32)
    x = Tensor(x32)
    y = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    half = np.float32(0.5) * x32

    ok = np.array_equal(intra_a_global(x, y, _zero_q(3, 3)).data, half)
    ok &= np.array_equal(
        intra_a_prime(x, Tensor(np.zeros((3, 4), dtype=np.float32))).data, half)
    ok &= np.array_equal(inter_a_m(x, y, _zero_q(3, 3)).data, half)

    v32 = rng.standard_normal((2, 4)).astype(np.float32)
    pb = InterBParams(gate_s=_zero_q(3, 2), out_s=_zero_q(2, 3),
                      gate_v=_zero_q(2, 3), out_v=_zero_q(3, 2))
    es, ev = inter_a_b(Tensor(x32), Tensor(v32), pb)
    ok &= np.array_equal(es.data, x32) and np.array_equal(ev.data, v32)
    assert _report(3, "zero-parameter gates give exact 0.5x / identity traces", bool(ok))


def test_criterion_4_metric_algebra():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(256)
    est = ref + 0.1 * rng.standard_normal(256)
    mix = ref + rng.standard_normal(256)
    ok = abs(si_snr([1.0, 0.0], [1.0, 1.0])) < 1e-9
    ok &= all(abs(si_snr(ref, c * est) - si_snr(ref, est)) < 1e-9
              for c in (0.5, 3.0, 100.0))
    ok &= abs(sdr([1.0, 0.0], [1.0, 1.0])) < 1e-9
    ok &= abs(si_snri(mix, ref, mix)) < 1e-12
    ok &= abs(sdri(mix, ref, mix)) < 1e-12
    assert _report(4, "SI-SNR/SDR identities and scale invariance", bool(ok))


def test_criterion_5_pit_matches_enumeration():
    rng = np.random.default_rng(3)
    ok = True
    for c in (2, 3):
        for _ in range(100):
            refs = [rng.standard_normal(32) for _ in range(c)]
            perm = rng.permutation(c)
            ests = [refs[perm[k]] + 0.3 * rng.standard_normal(32) for k in range(c)]
            got_perm, got_val = pit_best(refs, ests)
            best = max(
                (np.mean([si_snr(refs[i], ests[q[i]]) for i in range(c)]), q)
                for q in itertools.permutations(range(c)))
            ok &= abs(got_val - best[0]) < 1e-9
    assert _report(5, "PIT agrees with full enumeration on 200 instances", bool(ok))


def test_criterion_6_overfit_experiment(toy_run):
    result, elapsed = toy_run
    ok = (result.final_si_snri_db >= 10.0 and result.steps_run <= 500
          and elapsed < 60.0)
    assert _report(6, f"overfit: {result.final_si_snri_db:.2f} dB SI-SNRi in "
                      f"{result.steps_run} steps / {elapsed:.1f}s", ok)


def test_criterion_7_weight_sharing_invariant():
    base = count_params(ModelConfig())
    ok = all(count_params(ModelConfig(n_fusion_cycles=nf, n_audio_cycles=ns)) == base
             for nf in (1, 4) for ns in (0, 6, 12))
    prime = count_params(ModelConfig(intra_variant="phi_prime"))
    ok &= prime < base
    assert _report(7, f"params invariant to cycle counts ({base}); "
                      f"gate-only variant smaller ({prime})", bool(ok))


def test_criterion_8_relative_cost_properties():
    cfg = full_scale_config()
    full = dict(mac_breakdown(cfg, 1.0))
    fast = dict(mac_breakdown(replace(cfg, n_audio_cycles=6), 1.0))
    ok = fast["audio_cycles"] == full["audio_cycles"] // 2
    ok &= fast["fusion_cycles"] == full["fusion_cycles"]
    ok &= count_params(cfg) == count_params(replace(cfg, n_audio_cycles=6))
    vals = [count_macs(replace(cfg, n_fusion_cycles=nf), 1.0) for nf in range(1, 6)]
    ok &= all(a < b for a, b in zip(vals, vals[1:]))
    assert _report(8, "fast mode halves audio-cycle MACs at constant params; "
                      "MACs monotone in fusion cycles", bool(ok))


def test_criterion_8_absolute_cost_bands():
    """The paper's cost (~3.1M params, ~18.6 GMAC at 1 s) within the bands.

    PAPER.md gives only totals, so the routing is a choice with a source
    per part: TDANet's 128-channel separator width and its depthwise
    temporal convs (down-convs, FFN middle conv; arXiv 2209.15200, after
    Conv-TasNet, arXiv 1809.07454), and 5-tap Q kernels as in the engine's
    other temporal convs. Everything else is the full-scale configuration.
    The dense 512-channel reference costs 24.96M / 61.3G, and depthwise
    alone at 512 channels still 9.26M / 16.7G; this routing costs
    2.50M / 12.8G.
    """
    cfg = paper_scale_config()
    params = count_params(cfg)
    macs = count_macs(cfg, 1.0)
    ok = 2.3e6 <= params <= 3.9e6 and 12e9 <= macs <= 26e9
    assert _report(8, f"absolute bands: params {params} in [2.3e6, 3.9e6], "
                      f"MACs {macs} in [12e9, 26e9]", ok)


def test_criterion_9_ablation_matrix():
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
    rng = np.random.default_rng(0)
    e_s = Tensor(rng.standard_normal((4, 16)).astype(np.float32))
    e_v = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    outputs = []
    for c in combos:
        cfg = tiny_config(**c)
        feats = separation_features(e_s, e_v, cfg, build_params(cfg, seed=1))
        outputs.append(T.relu(feats).data)
    ok = all(np.max(np.abs(outputs[i] - outputs[j])) > 1e-6
             for i in range(len(outputs)) for j in range(i + 1, len(outputs)))
    assert _report(9, f"{len(combos)} flag/variant combinations all live and "
                      "pairwise distinct", bool(ok))


def test_criterion_10_data_io_contracts(tmp_path):
    rng = np.random.default_rng(4)
    q = rng.integers(-32768, 32768, 400).astype(np.int16)
    samples = q.astype(np.float32) / 32768.0
    save_wav(tmp_path / "x.wav", samples, 8000)
    back, rate = load_wav(tmp_path / "x.wav")
    ok = rate == 8000 and np.array_equal(back, samples)

    emb = rng.standard_normal((3, 9)).astype(np.float32)
    save_embedding(tmp_path / "e.iiav", emb)
    ok &= np.array_equal(load_embedding(tmp_path / "e.iiav"), emb)

    cfg = tiny_config()
    p = build_params(cfg, seed=6)
    save_checkpoint(p, cfg, tmp_path / "m.iiac")
    p2, cfg2 = load_checkpoint(tmp_path / "m.iiac")
    ok &= cfg2 == cfg and all(
        np.array_equal(t1.data, t2.data)
        for (_, t1), (_, t2) in zip(named_tensors(p), named_tensors(p2)))

    target = rng.standard_normal(2048)
    interf = rng.standard_normal(2048)
    _, scaled = mix_at_snr(target, [interf], 3.7)
    realized = 10.0 * np.log10((target @ target) / (scaled @ scaled))
    ok &= abs(realized - 3.7) < 1e-6

    pool = synth_sources(4, 1000, seed=0)
    draw_rng = np.random.default_rng(5)
    for _ in range(8):
        _, (t, i) = remix(pool, draw_rng)
        ok &= -5.0 <= 10.0 * np.log10((t @ t) / (i @ i)) <= 5.0
    assert _report(10, "WAV/embedding/checkpoint round trips bit-exact; "
                       "SNR contracts hold", bool(ok))


def test_criterion_11_end_to_end_pipeline(toy_run, tmp_path):
    result, _ = toy_run
    ckpt = tmp_path / "toy.iiac"
    save_checkpoint(result.params, result.cfg, ckpt)

    save_wav(tmp_path / "mix.wav", result.mixture, result.cfg.sample_rate)
    save_embedding(tmp_path / "a.iiav", result.video_feat)
    save_embedding(tmp_path / "b.iiav",
                   energy_envelope(result.mixture - result.reference,
                                   result.cfg.sample_rate))
    rc = main(["separate", "--mixture", str(tmp_path / "mix.wav"),
               "--embedding", str(tmp_path / "a.iiav"),
               "--embedding", str(tmp_path / "b.iiav"),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "sep")])
    w0, _ = load_wav(tmp_path / "sep.0.wav")
    w1, _ = load_wav(tmp_path / "sep.1.wav")
    ok = rc == 0 and len(w0) == len(result.mixture) == len(w1)

    # internal mask nonnegativity and the zero-in/zero-out linearity
    mix_t = Tensor(result.mixture[None, :].astype(np.float32))
    feat_t = Tensor(result.video_feat.astype(np.float32))
    out = separate(mix_t, feat_t, result.cfg, result.params)
    ok &= out.mask.data.min() >= 0.0
    zero = separate(Tensor(np.zeros_like(mix_t.data)), feat_t,
                    result.cfg, result.params)
    ok &= not np.any(zero.waveform.data)
    assert _report(11, "CLI separation restores length, one WAV per embedding, "
                       "nonnegative mask, zero in gives zero out", bool(ok))
