import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rewrite_manifest, tiny_config

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


def _cli(*args):
    """``python -m avsep.cli ARGS`` in a new process, where numpy's warnings
    reach stderr as a user sees them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "avsep.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


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
        assert rows[0] == ["epoch", "train_loss", "val_si_snri", "lr", "grad_norm", "step_s",
                           "fwd_s", "bwd_s", "opt_s", "peak_rss_mb"]
        assert len(rows) == 4  # 30 steps / 10 per epoch
        for row in rows[1:]:
            grad_norm, step_s, fwd_s, bwd_s, opt_s, peak_rss_mb = map(float, row[4:])
            for value in (grad_norm, step_s, fwd_s, bwd_s, opt_s, peak_rss_mb):
                assert math.isfinite(value) and value > 0
            assert abs(fwd_s + bwd_s + opt_s - step_s) <= 0.05 * step_s

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
        # each of these ended in a traceback from the data or the generator
        ("seed", "-1"), ("snr_db", "1e308"), ("snr_db", "-1e308"),
        ("mixture_seconds", "1e308"), ("mixture_seconds", "1e12"),
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

    @pytest.mark.parametrize("depth", [9, 12, 40])
    def test_depth_beyond_the_mixture_exits_2(self, tmp_path, capsys, depth):
        # 0.1 s is 399 encoder frames, under 2^depth; at depth 40 padding to
        # one coarsest-scale frame would take 64 TiB
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(TINY_CFG.replace("depth = 2", f"depth = {depth}")
                       .replace("max_steps = 30", "max_steps = 1"))
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "x.iiac")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at depth {depth} (2^{depth} = {1 << depth})" in err
        assert not (tmp_path / "x.iiac").exists()

    @pytest.mark.parametrize("text, named", [
        # numpy refuses each TiB-sized request at once: the encoder weight,
        # and the 0.5 s mixture at this rate
        ("n_audio_channels = 1000000000000\nffn_channels = 16,32,1000000000000\n",
         "model too large to build"),
        ("sample_rate = 1000000000000000\n", "sample_rate = 1000000000000000"),
        # the dynamic-mix pool: 10^9 sources of 4000 samples
        ("dynamic_mix = true\npool_size = 1000000000\n", "1000000000 sources of 4000 samples"),
    ], ids=["channels", "sample_rate", "pool_size"])
    def test_unallocatable_config_exits_2(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text + "max_steps = 1\n")
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "x.iiac")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("x.iiac*"))

    def test_three_speakers_exit_2_without_a_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(TINY_CFG + "audio_only = true\nn_speakers = 3\n")
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "x.iiac")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_speakers" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.iiac").exists()

    @pytest.mark.parametrize("steps_per_epoch, message", [
        (10, "non-finite loss at step 1"),
        (1, "non-finite validation output after step 1"),  # validation runs first
    ])
    def test_non_finite_loss_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                        steps_per_epoch, message):
        # the first Adam step at this rate moves the weights by about 1e30,
        # so the next forward overflows float32
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text(TINY_CFG.replace("steps_per_epoch = 10",
                                        f"steps_per_epoch = {steps_per_epoch}")
                       + "lr = 1e30\n")
        rc = main(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "x.iiac")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err and "Traceback" not in err
        assert not list(tmp_path.glob("x.iiac*"))

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_destination_in_a_missing_directory_exits_2_before_training(self, tmp_path,
                                                                       capsys, flag):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        dest = tmp_path / "absent" / "x"
        assert main(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "x.iiac"),
                     flag, str(dest)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {dest}: directory {dest.parent} does not exist\n")
        assert sorted(tmp_path.iterdir()) == [cfg]  # no epoch ran, nothing was written

    def test_audio_only_from_config_keys(self, tmp_path, capsys):
        # the two run-config keys are the one way to ask for it; no flag is left
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG.replace("max_steps = 30", "max_steps = 5")
                       + "audio_only = true\nn_speakers = 2\n")
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(tmp_path / "ao.iiac")]) == 0
        params, model_cfg = load_checkpoint(tmp_path / "ao.iiac")
        assert model_cfg.audio_only and model_cfg.n_speakers == 2
        assert params.video_down is None and params.mask_head is not None
        with pytest.raises(SystemExit) as exit_info:
            main(["train-toy", "--config", str(cfg), "--audio-only",
                  "--out", str(tmp_path / "flag.iiac")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --audio-only" in capsys.readouterr().err

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
        args = ["separate", "--mixture", str(workdir / "mix.wav"),
                "--embedding", str(workdir / "a.iiav"),
                "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(tmp_path / "x")]
        assert main(args + ["--config", str(bad)]) == 3
        assert not (tmp_path / "x.0.wav").exists()
        assert main(args + ["--config", str(workdir / "tiny.cfg")]) == 0  # an agreeing one

    def test_fast_flag_runs(self, workdir, tmp_path):
        args = ["separate", "--mixture", str(workdir / "mix.wav"),
                "--embedding", str(workdir / "a.iiav"),
                "--checkpoint", str(workdir / "tiny.iiac")]
        assert main(args + ["--fast", "--out", str(tmp_path / "f")]) == 0
        # the tiny model has 1 audio cycle, fewer than --fast's cap, so nothing changes
        assert main(args + ["--out", str(tmp_path / "n")]) == 0
        assert (tmp_path / "f.0.wav").read_bytes() == (tmp_path / "n.0.wav").read_bytes()


    def test_non_finite_waveform_exits_2_and_writes_nothing(self, workdir, tmp_path, capsys):
        _overflowing_checkpoint(tmp_path / "big.iiac")
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--checkpoint", str(tmp_path / "big.iiac"),
                   "--out", str(tmp_path / "sep")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "sep.0.wav").exists()

    def test_out_in_a_missing_directory_prints_one_error_line(self, workdir, tmp_path):
        # in a new process, where an exception ignored in a destructor shows
        dest = tmp_path / "absent" / "o"
        done = _cli("separate", "--mixture", workdir / "mix.wav",
                    "--embedding", workdir / "a.iiav",
                    "--checkpoint", workdir / "tiny.iiac", "--out", dest)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {dest}.0.wav: directory {dest.parent} does not exist\n"

    def test_mixture_at_another_rate_exits_2_and_writes_nothing(self, workdir, tmp_path,
                                                                capsys):
        mixture, _ = load_wav(workdir / "mix.wav")
        save_wav(tmp_path / "mix16k.wav", mixture, 16000)
        rc = main(["separate", "--mixture", str(tmp_path / "mix16k.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "sample rate 16000 != model rate 8000" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*.wav"))

    def test_embedding_of_neither_width_exits_2(self, workdir, tmp_path, capsys):
        # the tiny model reads 1-channel raw features or 4-channel embeddings
        emb = tmp_path / "three.iiav"
        save_embedding(emb, np.ones((3, 50), dtype=np.float32))
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"), "--embedding", str(emb),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "video features must have 1 or 4 channels, got 3" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*.wav"))

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

    def test_mixture_under_one_coarsest_frame_exits_2(self, workdir, tmp_path, capsys):
        # mix.wav is 800 samples, 399 encoder frames; depth 9 needs 512
        ckpt = tmp_path / "deep.iiac"
        cfg = ModelConfig(n_audio_channels=4, n_video_channels=4, depth=9, n_fusion_cycles=1,
                          n_audio_cycles=1, ffn_channels=(4, 8, 4))
        save_checkpoint(build_params(cfg, seed=0), cfg, ckpt)
        rc = main(["separate", "--mixture", str(workdir / "mix.wav"),
                   "--embedding", str(workdir / "a.iiav"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "399 encoder frames" in capsys.readouterr().err
        assert not list(tmp_path.glob("o*.wav"))

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
        cfg.write_text(TINY_CFG.replace("max_steps = 30", "max_steps = 10")
                       + "audio_only = true\nn_speakers = 2\n")
        ckpt = tmp_path / "ao.iiac"
        assert main(["train-toy", "--config", str(cfg), "--out", str(ckpt)]) == 0
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


@pytest.mark.parametrize("command", ["train-toy", "separate"])
def test_non_finite_run_prints_only_its_error_line(workdir, tmp_path, command):
    # in a new process, where numpy's overflow and invalid-value warnings show
    if command == "train-toy":
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text(TINY_CFG.replace("steps_per_epoch = 10", "steps_per_epoch = 1")
                       .replace("max_steps = 30", "max_steps = 3") + "lr = 1e30\n")
        args, rc = ("--config", cfg, "--out", tmp_path / "x.iiac"), 1
        want = "error: non-finite validation output after step 1\n"
    else:
        _overflowing_checkpoint(tmp_path / "big.iiac")
        args, rc = ("--mixture", workdir / "mix.wav", "--embedding", workdir / "a.iiav",
                    "--checkpoint", tmp_path / "big.iiac", "--out", tmp_path / "o"), 2
        want = f"error: {tmp_path / 'o'}.0.wav: non-finite samples; nothing written\n"
    done = _cli(command, *args)
    assert (done.returncode, done.stderr) == (rc, want)


@pytest.mark.parametrize("command", ["separate", "eval"])
def test_mistyped_checkpoint_config_exits_2(workdir, tmp_path, capsys, command):
    # a float cycle count ends as a usage error, not a TypeError traceback
    ckpt, pairs = tmp_path / "mistyped.iiac", tmp_path / "pairs.csv"
    ckpt.write_bytes((workdir / "tiny.iiac").read_bytes())
    rewrite_manifest(ckpt, lambda m: m["config"].update(n_audio_cycles=2.5))
    pairs.write_text(f"{workdir / 'mix.wav'},{workdir / 'ref.wav'},{workdir / 'a.iiav'}\n")
    args = {"separate": ["--mixture", str(workdir / "mix.wav"),
                         "--embedding", str(workdir / "a.iiav"), "--out", str(tmp_path / "x")],
            "eval": ["--pairs", str(pairs)]}[command]
    assert main([command, "--checkpoint", str(ckpt), *args]) == 2
    assert capsys.readouterr() == (
        "", "error: bad config in checkpoint: n_audio_cycles must be an integer, got 2.5\n")
    assert not list(tmp_path.glob("x*"))


def test_checkpoint_ffn_channels_that_are_no_triple_exit_2(workdir, tmp_path, capsys):
    ckpt = tmp_path / "five.iiac"
    ckpt.write_bytes((workdir / "tiny.iiac").read_bytes())
    rewrite_manifest(ckpt, lambda m: m["config"].update(ffn_channels=5))
    assert main(["separate", "--checkpoint", str(ckpt), "--mixture", str(workdir / "mix.wav"),
                 "--embedding", str(workdir / "a.iiav"), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr() == (
        "", "error: bad config in checkpoint: ffn_channels must be three positive integers, "
            "got 5\n")
    assert not list(tmp_path.glob("x*"))


class TestEval:
    def _pairs(self, workdir, tmp_path, rows):
        path = tmp_path / "pairs.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def test_out_in_a_missing_directory_exits_2_before_the_checkpoint_is_read(
            self, tmp_path, capsys):
        # checked first, as separate and train-toy check theirs: neither the
        # missing checkpoint nor the missing manifest is reached
        dest = tmp_path / "absent" / "report.csv"
        assert main(["eval", "--pairs", str(tmp_path / "none.csv"),
                     "--checkpoint", str(tmp_path / "none.iiac"), "--out", str(dest)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {dest}: directory {dest.parent} does not exist\n")
        assert not list(tmp_path.iterdir())

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

    def test_rate_and_length_mismatches_fail_their_rows_and_leave_the_mean(
            self, workdir, tmp_path, capsys):
        reference, _ = load_wav(workdir / "ref.wav")
        save_wav(tmp_path / "ref16k.wav", reference, 16000)
        save_wav(tmp_path / "short.wav", reference[:-8], 8000)
        good = [str(workdir / "mix.wav"), str(workdir / "ref.wav"), str(workdir / "a.iiav")]
        pairs = self._pairs(workdir, tmp_path, [
            good,
            [good[0], str(tmp_path / "ref16k.wav"), good[2]],
            [good[0], str(tmp_path / "short.wav"), good[2]],
        ])
        out = tmp_path / "report.csv"
        rc = main(["eval", "--pairs", str(pairs),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sample rate does not match the model" in err
        assert "mixture/reference length mismatch" in err
        rows = list(csv.reader(out.open()))
        assert [r[0] for r in rows] == ["path", good[0], "mean"]
        assert rows[2][1:] == rows[1][1:]  # the mean of the one scored row

    def test_manifest_with_a_byte_order_mark_reads_its_header(self, workdir, tmp_path):
        # spreadsheet editors start a UTF-8 CSV with a BOM
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"mixture,reference,embedding\n{workdir / 'mix.wav'},"
                         f"{workdir / 'ref.wav'},{workdir / 'a.iiav'}\n", encoding="utf-8-sig")
        assert pairs.read_bytes().startswith(b"\xef\xbb\xbf")
        out = tmp_path / "report.csv"
        rc = main(["eval", "--pairs", str(pairs),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(out)])
        assert rc == 0
        assert [r[0] for r in csv.reader(out.open())] == ["path", str(workdir / "mix.wav"),
                                                         "mean"]

    @pytest.mark.parametrize("header", ["mixture, reference, embedding",
                                        "Mixture,Reference,Embedding",
                                        " MIXTURE ,Reference\t,embedding"])
    def test_header_cells_are_read_stripped_and_case_folded(self, workdir, tmp_path, header):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"{header}\n{workdir / 'mix.wav'},{workdir / 'ref.wav'},"
                         f"{workdir / 'a.iiav'}\n")
        out = tmp_path / "report.csv"
        rc = main(["eval", "--pairs", str(pairs),
                   "--checkpoint", str(workdir / "tiny.iiac"), "--out", str(out)])
        assert rc == 0
        assert [r[0] for r in csv.reader(out.open())] == ["path", str(workdir / "mix.wav"),
                                                         "mean"]

    def test_non_finite_separation_fails_its_row(self, workdir, tmp_path, capsys):
        _overflowing_checkpoint(tmp_path / "big.iiac")
        pairs = self._pairs(workdir, tmp_path, [
            [str(workdir / "mix.wav"), str(workdir / "ref.wav"), str(workdir / "a.iiav")],
        ])
        out = tmp_path / "report.csv"
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

    def test_fast_never_adds_cycles(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)  # 1 audio cycle, fewer than --fast's cap
        macs = []
        for extra in ([], ["--fast"]):
            assert main(["bench", "--config", str(cfg)] + extra) == 0
            macs.append(int(capsys.readouterr().out.split("macs @ 1s: ")[1].split("\n")[0]))
        assert macs[1] == macs[0]

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

    @pytest.mark.parametrize("exists", [False, True])
    def test_full_scale_and_config_are_alternatives(self, tmp_path, capsys, exists):
        cfg = tmp_path / "paper.cfg"
        if exists:
            cfg.write_text(PAPER_SCALE_CFG)
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "--full-scale", "--config", str(cfg)])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert "not allowed with argument" in err and out == ""

    def test_module_entry_point_prints_what_main_prints(self, capsys):
        assert main(["bench", "--full-scale"]) == 0
        want = capsys.readouterr().out
        done = _cli("bench", "--full-scale")
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")

    @pytest.mark.parametrize("seconds", ["0", "nan", "inf", "0.0001"])
    def test_duration_under_one_encoder_kernel_exits_2(self, seconds, capsys):
        assert main(["bench", "--audio-seconds", seconds]) == 2
        assert "encoder kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("depth, seconds", [(12, "1"), (40, "1"), (3, "0.001")])
    def test_duration_under_one_coarsest_frame_exits_2(self, tmp_path, capsys, depth, seconds):
        # the default config's encoder gives 3999 frames at 1 s and 3 at 1 ms
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(f"depth = {depth}\n")
        assert main(["bench", "--config", str(cfg), "--audio-seconds", seconds]) == 2
        out, err = capsys.readouterr()
        assert f"at depth {depth} (2^{depth} = {1 << depth})" in err
        assert out == ""  # no partial report


# checks.run_all()'s entries, in order. Each is one operation of the
# benchmark's gradcheck workload, so changing them changes the benchmark.
RUN_ALL_ENTRIES = [
    "ew_mul", "sigmoid", "gate", "gate_add", "relu", "conv1d", "conv_transpose1d",
    "avg_pool1d", "interp_resample", "gln", "conv1d_g2", "conv_transpose1d_g2",
    "conv1d_dw", "conv_transpose1d_dw", "intra_a_global", "intra_a_prime", "inter_a_m",
    "inter_a_t", "top_down_pass", "inter_a_b", "full_model_si_snr",
]


@pytest.fixture(scope="module")
def gradcheck_run():
    """The exit code and standard output of one ``avsep gradcheck``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["gradcheck"])
    return rc, out.getvalue()


class TestGradcheck:
    def test_all_pass(self, gradcheck_run):
        rc, out = gradcheck_run
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("pass") >= 10

    def test_entries_are_pinned(self, gradcheck_run):
        rows = [line.split() for line in gradcheck_run[1].splitlines()]
        assert [row[1] for row in rows] == RUN_ALL_ENTRIES
