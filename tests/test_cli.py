import csv
import math

import numpy as np
import pytest
from conftest import tiny_config

from avsep.cli import main
from avsep.data import (
    energy_envelope,
    load_wav,
    mix_at_snr,
    save_embedding,
    save_wav,
    synth_sources,
)
from avsep.metrics import si_snri
from avsep.model import (
    ModelConfig,
    build_params,
    count_macs,
    count_params,
    load_checkpoint,
    paper_scale_config,
    save_checkpoint,
    separate,
)
from avsep.tensor import Tensor

TINY_CFG = """\
# small model, fast training
enc_kernel = 4
enc_stride = 2
n_audio_channels = 4
n_video_channels = 4
depth = 2
n_fusion_cycles = 1
n_audio_cycles = 1
ffn_channels = 4, 8, 4
max_steps = 30
steps_per_epoch = 10
mixture_seconds = 0.1
target_si_snri_db = 1e9
"""

PAPER_SCALE_CFG = """\
sample_rate = 16000
enc_kernel = 16
enc_stride = 8
n_audio_channels = 128
n_video_channels = 128
depth = 4
n_fusion_cycles = 4
n_audio_cycles = 12
ffn_channels = 128, 256, 128
q_kernel = 5
depthwise = true
dropout_p = 0.1
"""


def _overflowing_checkpoint(path):
    cfg = ModelConfig(n_audio_channels=4, n_video_channels=4, depth=2, n_fusion_cycles=1,
                      n_audio_cycles=1, ffn_channels=(4, 8, 4))
    p = build_params(cfg, seed=0)
    p.encoder.weight.data[:] = 3e38  # finite, but float32 overflows in the forward pass
    save_checkpoint(p, cfg, path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = root / "tiny.iiac"
    assert main(["train-toy", "--config", str(cfg), "--out", str(ckpt)]) == 0

    srcs = synth_sources(2, 800, seed=0)
    mixture, _ = mix_at_snr(srcs[0], [srcs[1]], 0.0)
    save_wav(root / "mix.wav", mixture, 8000)
    save_wav(root / "ref.wav", srcs[0], 8000)
    save_embedding(root / "a.iiav", energy_envelope(srcs[0], 8000))
    save_embedding(root / "b.iiav", energy_envelope(srcs[1], 8000))
    return root


class TestTrainToy:
    def test_writes_checkpoint_and_history(self, workdir):
        assert (workdir / "tiny.iiac").exists()
        hist = workdir / "tiny.iiac.history.csv"
        rows = list(csv.reader(hist.open()))
        assert rows[0] == ["epoch", "train_loss", "val_si_snri", "lr", "grad_norm", "step_s"]
        assert len(rows) == 4  # 30 steps / 10 per epoch
        for row in rows[1:]:
            grad_norm, step_s = float(row[4]), float(row[5])
            assert math.isfinite(grad_norm) and grad_norm > 0
            assert math.isfinite(step_s) and step_s > 0

    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "x.iiac")]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_zero_steps_per_epoch_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY_CFG.replace("steps_per_epoch = 10", "steps_per_epoch = 0"))
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "x.iiac")]) == 2
        assert "steps_per_epoch" in capsys.readouterr().err
        assert not (tmp_path / "x.iiac").exists()

    @pytest.mark.parametrize("key, raw", [
        ("clip_norm", "0"), ("mixture_seconds", "0"), ("mixture_seconds", "-1"),
        ("lr", "nan"), ("lr", "-1"), ("snr_db", "nan"),
        # positive, but shorter than one encoder kernel of the model
        ("mixture_seconds", "0.00001"), ("mixture_seconds", "0.0004"),
    ])
    def test_out_of_range_train_value_exits_2(self, tmp_path, capsys, key, raw):
        lines = [ln for ln in TINY_CFG.splitlines() if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {raw}"]) + "\n")
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "x.iiac")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "x.iiac").exists()

    def test_audio_only_flag(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG.replace("max_steps = 30", "max_steps = 5"))
        assert main(["train-toy", "--config", str(cfg), "--audio-only",
                     "--out", str(tmp_path / "ao.iiac")]) == 0

    def test_depthwise_config_key(self, tmp_path):
        cfg = tmp_path / "dw.cfg"
        cfg.write_text(TINY_CFG.replace("max_steps = 30", "max_steps = 5")
                       + "depthwise = true\n")
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "dw.iiac")]) == 0
        params, model_cfg = load_checkpoint(tmp_path / "dw.iiac")
        assert model_cfg.depthwise and params.audio_down[0].conv.groups == 4


def test_clamp_db_maps_the_sentinels_and_keeps_nan():
    from avsep.cli import _clamp_db
    from avsep.metrics import DISPLAY_CLAMP_DB as C

    assert [_clamp_db(x) for x in (math.inf, -math.inf, 1e9, -2.5)] == [C, -C, C, -2.5]
    assert math.isnan(_clamp_db(math.nan))


class TestSeparate:
    def test_one_wav_per_embedding(self, workdir, tmp_path):
        out = tmp_path / "sep"
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--embedding", str(workdir / "b.iiav"),
                   "--checkpoint", str(workdir / "tiny.iiac"),
                   "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "sep.0.wav").exists()
        assert (tmp_path / "sep.1.wav").exists()

    def test_missing_checkpoint_exits_2(self, workdir, tmp_path):
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--checkpoint", str(tmp_path / "absent.iiac"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_config_conflict_exits_3(self, workdir, tmp_path):
        bad = tmp_path / "conflict.cfg"
        bad.write_text(TINY_CFG.replace("depth = 2", "depth = 3"))
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--checkpoint", str(workdir / "tiny.iiac"),
                   "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_fast_flag_runs(self, workdir, tmp_path):
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--fast",
                   "--out", str(tmp_path / "f")])
        assert rc == 0


    def test_non_finite_waveform_exits_2_and_writes_nothing(self, workdir, tmp_path, capsys):
        _overflowing_checkpoint(tmp_path / "big.iiac")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                       "--embedding", str(workdir / "a.iiav"),
                       "--checkpoint", str(tmp_path / "big.iiac"),
                       "--out", str(tmp_path / "sep")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "sep.0.wav").exists()

    def test_nan_embedding_exits_2(self, workdir, tmp_path, capsys):
        nan = tmp_path / "nan.iiav"
        save_embedding(nan, np.full((1, 2), np.nan, dtype=np.float32))
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(nan),
                   "--checkpoint", str(workdir / "tiny.iiac"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    def test_fused_checkpoint_without_embedding_exits_2(self, workdir, tmp_path, capsys):
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--embedding" in err[0]
        assert not (tmp_path / "x.0.wav").exists()

    def test_audio_only_checkpoint_needs_no_embedding(self, workdir, tmp_path):
        cfg = tiny_config(audio_only=True, n_speakers=2)
        ckpt = tmp_path / "ao.iiac"
        save_checkpoint(build_params(cfg, seed=0), cfg, ckpt)
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "sep")])
        assert rc == 0
        assert [(tmp_path / f"sep.{k}.wav").exists() for k in range(3)] == [True, True, False]

    def test_audio_only_writes_one_wav_per_speaker(self, workdir, tmp_path):
        # the two-speaker audio-only model separates both speakers at once;
        # the embedding is not read, and eval scores the nearer output
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG.replace("max_steps = 30", "max_steps = 10"))
        ckpt = tmp_path / "ao.iiac"
        assert main(["train-toy", "--config", str(cfg), "--audio-only",
                     "--out", str(ckpt)]) == 0
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(tmp_path / "absent.iiav"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "sep")])
        assert rc == 0
        wavs = [(tmp_path / f"sep.{k}.wav").read_bytes() for k in range(2)]
        assert wavs[0] != wavs[1]
        assert not (tmp_path / "sep.2.wav").exists()

        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"{workdir / 'mix.wav'},{workdir / 'ref.wav'},unused\n")
        report = tmp_path / "report.csv"
        assert main(["eval", "--pairs", str(pairs), "--checkpoint", str(ckpt),
                     "--out", str(report)]) == 0
        mixture, _ = load_wav(workdir / "mix.wav")
        reference, _ = load_wav(workdir / "ref.wav")
        params, model_cfg = load_checkpoint(ckpt)
        out = separate(Tensor(mixture[None, :]), None, model_cfg, params)
        best = max(si_snri(mixture, reference, w.data[0]) for w in out.waveforms)
        rows = list(csv.reader(report.open()))
        assert float(rows[1][1]) == pytest.approx(best, abs=1e-4)


class TestEval:
    def _pairs(self, workdir, tmp_path, rows):
        path = tmp_path / "pairs.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def test_report_with_mean_row(self, workdir, tmp_path):
        pairs = self._pairs(workdir, tmp_path, [
            [str(workdir / "mix.wav"), str(workdir / "ref.wav"), str(workdir / "a.iiav")],
        ] * 2)
        out = tmp_path / "report.csv"
        rc = main(["eval", "--pairs", str(pairs),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["path", "si_snri", "sdri"]
        assert rows[-1][0] == "mean"
        body = [(float(r[1]), float(r[2])) for r in rows[1:-1]]
        assert float(rows[-1][1]) == pytest.approx(np.mean([b[0] for b in body]), abs=1e-9)
        assert float(rows[-1][2]) == pytest.approx(np.mean([b[1] for b in body]), abs=1e-9)

    def test_row_error_continues_with_exit_1(self, workdir, tmp_path):
        pairs = self._pairs(workdir, tmp_path, [
            [str(workdir / "mix.wav"), str(workdir / "ref.wav"), str(workdir / "a.iiav")],
            [str(tmp_path / "missing.wav"), str(workdir / "ref.wav"), str(workdir / "a.iiav")],
        ])
        out = tmp_path / "report.csv"
        rc = main(["eval", "--pairs", str(pairs),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(out)])
        assert rc == 1
        rows = list(csv.reader(out.open()))
        assert len(rows) == 3  # header + surviving row + mean

    def test_non_finite_separation_fails_its_row(self, workdir, tmp_path, capsys):
        _overflowing_checkpoint(tmp_path / "big.iiac")
        pairs = self._pairs(workdir, tmp_path, [
            [str(workdir / "mix.wav"), str(workdir / "ref.wav"), str(workdir / "a.iiav")],
        ])
        out = tmp_path / "report.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["eval", "--pairs", str(pairs),
                       "--checkpoint", str(tmp_path / "big.iiac"), "--out", str(out)])
        assert rc == 1
        assert "non-finite signal" in capsys.readouterr().err
        assert list(csv.reader(out.open())) == [["path", "si_snri", "sdri"]]

    def test_empty_manifest_exits_2(self, workdir, tmp_path):
        pairs = tmp_path / "empty.csv"
        pairs.write_text("")
        rc = main(["eval", "--pairs", str(pairs),
                   "--checkpoint", str(workdir / "tiny.iiac")])
        assert rc == 2


class TestBench:
    def test_default_config_report(self, capsys):
        assert main(["bench"]) == 0
        text = capsys.readouterr().out
        assert "parameters:" in text and "macs @" in text
        assert "encoder" in text and "fusion_cycles" in text

    def test_audio_seconds_doubles_macs(self, capsys):
        main(["bench", "--audio-seconds", "1"])
        m1 = int(capsys.readouterr().out.split("macs @ 1s: ")[1].split("\n")[0])
        main(["bench", "--audio-seconds", "2"])
        m2 = int(capsys.readouterr().out.split("macs @ 2s: ")[1].split("\n")[0])
        assert abs(m2 - 2 * m1) / m1 < 0.02

    def test_fast_keeps_params(self, capsys):
        main(["bench", "--full-scale"])
        full = capsys.readouterr().out
        main(["bench", "--full-scale", "--fast"])
        fast = capsys.readouterr().out
        p_full = int(full.split("parameters: ")[1].split("\n")[0])
        p_fast = int(fast.split("parameters: ")[1].split("\n")[0])
        m_full = int(full.split("macs @ 1s: ")[1].split("\n")[0])
        m_fast = int(fast.split("macs @ 1s: ")[1].split("\n")[0])
        assert p_full == p_fast
        assert m_fast < m_full

    def test_config_expresses_paper_scale_routing(self, tmp_path, capsys):
        cfg = tmp_path / "paper.cfg"
        cfg.write_text(PAPER_SCALE_CFG)
        assert main(["bench", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert f"parameters: {count_params(paper_scale_config())}\n" in text
        assert f"macs @ 1s: {count_macs(paper_scale_config(), 1.0)}\n" in text

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depth = zero\n")
        assert main(["bench", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("seconds", ["0", "nan", "inf", "0.0001"])
    def test_duration_under_one_encoder_kernel_exits_2(self, seconds, capsys):
        assert main(["bench", "--audio-seconds", seconds]) == 2
        assert "encoder kernel" in capsys.readouterr().err


class TestGradcheck:
    def test_all_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("pass") >= 10
