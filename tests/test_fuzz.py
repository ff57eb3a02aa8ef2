"""Byte-level fuzzing of every file the package reads: WAV, ``.iiav``,
``.iiac``, run-config and the pairs CSV, through the readers and through
``cli.main``. Each mutated input either succeeds or raises an
``AvsepError``, and the CLI exits with a documented code.

Only existing bytes are truncated, overwritten or appended to, starting
from small valid files. Checkpoint manifests are never generated: a
generated channel count can allocate gigabytes.
"""

import csv

import numpy as np
import pytest
from conftest import tiny_config
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avsep import runconfig
from avsep.cli import main
from avsep.data import load_embedding, load_wav, save_embedding, save_wav
from avsep.errors import AvsepError
from avsep.model import build_params, load_checkpoint, save_checkpoint

# a fixed, derandomized profile keeps the run deterministic and short
FUZZ = settings(max_examples=50, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

EXIT_CODES = {0, 1, 2, 3}

RUN_CONFIG = """\
sample_rate = 8000
enc_kernel = 4
enc_stride = 2
n_audio_channels = 4
n_video_channels = 4
depth = 2
n_fusion_cycles = 1
n_audio_cycles = 1
ffn_channels = 4, 8, 4
max_steps = 30
"""

mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("overwrite"),
              st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)),
                       min_size=1, max_size=4)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
)


def mutate(seed: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return seed[: arg % len(seed)]
    if kind == "append":
        return seed + arg
    data = bytearray(seed)
    for pos, value in arg:
        data[pos % len(data)] = value
    return bytes(data)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Small valid inputs, one per format, all for the tiny model."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    cfg = tiny_config()
    save_wav(root / "mix.wav", rng.uniform(-0.3, 0.3, 400), cfg.sample_rate)
    save_wav(root / "ref.wav", rng.uniform(-0.3, 0.3, 400), cfg.sample_rate)
    save_embedding(root / "a.iiav", rng.uniform(0, 0.3, (1, 1)).astype(np.float32))
    save_checkpoint(build_params(cfg, seed=0), cfg, root / "m.iiac")
    (root / "run.cfg").write_text(RUN_CONFIG)
    with open(root / "pairs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mixture", "reference", "embedding"])
        w.writerow([root / "mix.wav", root / "ref.wav", root / "a.iiav"])
    return root


def _write(tmp_path, name, seeds, mutation):
    path = tmp_path / name
    path.write_bytes(mutate((seeds / name).read_bytes(), mutation))
    return path


def _run_config(path):
    values = runconfig.parse_file(path)
    runconfig.make_model_config(values)
    runconfig.make_train_settings(values)


READERS = {"mix.wav": load_wav, "a.iiav": load_embedding, "m.iiac": load_checkpoint,
           "run.cfg": _run_config}


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(mutation=mutations)
def test_reader(name, seeds, tmp_path, mutation):
    try:
        READERS[name](_write(tmp_path, name, seeds, mutation))
    except AvsepError:
        pass


@pytest.mark.parametrize("name", ["mix.wav", "a.iiav", "m.iiac"])
@FUZZ
@given(mutation=mutations)
def test_cli_separate(name, seeds, tmp_path, mutation):
    paths = {n: seeds / n for n in ("mix.wav", "a.iiav", "m.iiac")}
    paths[name] = _write(tmp_path, name, seeds, mutation)
    assert main(["separate", "--mixture", str(paths["mix.wav"]),
                 "--embedding", str(paths["a.iiav"]), "--checkpoint", str(paths["m.iiac"]),
                 "--out", str(tmp_path / "out")]) in EXIT_CODES


@FUZZ
@given(mutation=mutations)
def test_cli_bench_config(seeds, tmp_path, mutation):
    path = _write(tmp_path, "run.cfg", seeds, mutation)
    assert main(["bench", "--config", str(path)]) in EXIT_CODES


@FUZZ
@given(mutation=mutations)
def test_cli_eval_pairs(seeds, tmp_path, mutation):
    path = _write(tmp_path, "pairs.csv", seeds, mutation)
    assert main(["eval", "--pairs", str(path), "--checkpoint", str(seeds / "m.iiac"),
                 "--out", str(tmp_path / "report.csv")]) in EXIT_CODES
