"""Run-config parsing: every field of ModelConfig and TrainSettings is a
key, typed after its annotation, and a bad line names its key."""

from dataclasses import fields

import pytest

from avsep.errors import ConfigError
from avsep.model import ModelConfig
from avsep.runconfig import make_model_config, make_train_settings, parse_file, parse_text
from avsep.trainer import TrainSettings

# field -> (config text, parsed value); every value differs from the default
MODEL_VALUES = {
    "sample_rate": ("16000", 16000),
    "enc_kernel": ("8", 8),
    "enc_stride": ("4", 4),
    "n_audio_channels": ("8", 8),
    "n_video_channels": ("4", 4),
    "n_video_in": ("2", 2),
    "depth": ("2", 2),
    "n_fusion_cycles": ("3", 3),
    "n_audio_cycles": ("0", 0),
    "intra_variant": ("phi_prime", "phi_prime"),
    "inter_t_enabled": ("false", False),
    "inter_m_enabled": ("False", False),
    "inter_b_enabled": ("FALSE", False),
    "dropout_p": ("0.25", 0.25),
    "ffn_channels": ("8, 16,8", (8, 16, 8)),
    "q_kernel": ("3", 3),
    "audio_only": ("true", True),
    "n_speakers": ("2", 2),
    "depthwise": ("True", True),
}

TRAIN_VALUES = {
    "lr": ("0.01", 0.01),
    "max_steps": ("7", 7),
    "steps_per_epoch": ("3", 3),
    "clip_norm": ("2.5", 2.5),
    "plateau_patience": ("4", 4),
    "stop_patience": ("9", 9),
    "seed": ("5", 5),
    "snr_db": ("-3", -3.0),
    "mixture_seconds": ("0.2", 0.2),
    "target_si_snri_db": ("1e9", 1e9),
    "dynamic_mix": ("true", True),
    "pool_size": ("6", 6),
}


@pytest.mark.parametrize("cls, values", [(ModelConfig, MODEL_VALUES),
                                         (TrainSettings, TRAIN_VALUES)])
def test_every_field_parses_into_the_built_config(cls, values):
    assert set(values) == {f.name for f in fields(cls)}
    text = "\n".join(f"{key} = {raw}" for key, (raw, _) in values.items())
    parsed = parse_text(text)
    built = (make_model_config if cls is ModelConfig else make_train_settings)(parsed)
    for key, (_, want) in values.items():
        got = getattr(built, key)
        assert got == want and type(got) is type(want), key
        default = getattr(cls(), key)
        assert got != default, key


@pytest.mark.parametrize("text, key", [
    ("audio_only = yes", "audio_only"),
    ("ffn_channels = 4, 8", "ffn_channels"),
    ("ffn_channels = 4, x, 4", "ffn_channels"),
    ("depth = 2\ndepth = 3", "depth"),
    ("bogus_key = 1", "bogus_key"),
], ids=["bad_bool", "short_triple", "bad_triple", "duplicate", "unknown"])
def test_bad_line_names_its_key(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_text(text)


@pytest.mark.parametrize("key, text", [
    ("sample_rate", "sample_rate = 0"),
    ("enc_stride", "enc_stride = 0\nenc_kernel = 0"),
    ("n_audio_channels", "n_audio_channels = 0\nffn_channels = 16, 32, 0"),
    ("n_video_channels", "n_video_channels = -1"),
    ("n_video_in", "n_video_in = 0"),
    ("n_video_in", "n_video_in = 16"),  # the default n_video_channels
    ("ffn_channels", "ffn_channels = 0, 32, 16"),
    ("q_kernel", "q_kernel = 0"),
    ("q_kernel", "q_kernel = 2"),
    ("dropout_p", "dropout_p = 1.0"),
    ("dropout_p", "dropout_p = -0.5"),
    ("n_video_channels", "depthwise = true\nn_video_channels = 12"),
])
def test_out_of_range_model_value_names_its_key(key, text):
    with pytest.raises(ConfigError, match=key):
        make_model_config(parse_text(text))


@pytest.mark.parametrize("key, raws", [
    ("lr", ["0", "-1", "nan", "inf"]),
    ("clip_norm", ["0", "-2.5", "nan"]),
    ("mixture_seconds", ["0", "-1", "inf"]),
    ("snr_db", ["nan", "inf", "-inf"]),
    ("plateau_patience", ["0", "-1"]),
    ("stop_patience", ["0", "-3"]),
    ("pool_size", ["1", "0", "-2"]),
])
def test_out_of_range_train_value_names_its_key(key, raws):
    for raw in raws:
        with pytest.raises(ConfigError, match=key):
            make_train_settings(parse_text(f"{key} = {raw}"))


def test_small_pool_is_refused_with_or_without_dynamic_mix():
    for dynamic_mix in ("true", "false"):
        with pytest.raises(ConfigError, match="pool_size"):
            make_train_settings(parse_text(f"pool_size = 1\ndynamic_mix = {dynamic_mix}"))
    assert make_train_settings(parse_text("pool_size = 2")).pool_size == 2


def test_file_with_a_byte_order_mark_parses(tmp_path):
    # spreadsheet and Windows editors start a UTF-8 file with a BOM
    path = tmp_path / "run.cfg"
    path.write_text("depth = 3\nlr = 0.01\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_file(path) == {"depth": 3, "lr": 0.01}
