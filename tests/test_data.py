import gc
import hashlib
import struct
import sys
import time
import tracemalloc
import wave

import numpy as np
import pytest

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
from avsep.errors import FormatError, GeometryError
from avsep.metrics import si_snr


class TestWavIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        # values already on the PCM16 grid survive exactly
        q = rng.integers(-32768, 32768, 500).astype(np.int16)
        samples = q.astype(np.float32) / 32768.0
        path = tmp_path / "x.wav"
        save_wav(path, samples, 8000)
        back, rate = load_wav(path)
        assert rate == 8000
        np.testing.assert_array_equal(back, samples)

    def test_quantization_rounds_half_away_from_zero(self, tmp_path):
        path = tmp_path / "q.wav"
        save_wav(path, np.array([0.5 / 32768.0, -0.5 / 32768.0]), 8000)
        back, _ = load_wav(path)
        np.testing.assert_array_equal(back * 32768.0, [1.0, -1.0])

    def test_clipping(self, tmp_path):
        path = tmp_path / "c.wav"
        save_wav(path, np.array([2.0, -2.0]), 8000)
        back, _ = load_wav(path)
        np.testing.assert_array_equal(back * 32768.0, [32767.0, -32768.0])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 8)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "b8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 8)
        with pytest.raises(FormatError):
            load_wav(path)

    @pytest.mark.parametrize("keep", [30, 45])
    def test_truncated_file_rejected(self, tmp_path, keep):
        # 30 bytes end inside the header; 45 split the first PCM16 sample
        path = tmp_path / "t.wav"
        save_wav(path, np.zeros(8), 8000)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError):
            load_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_not_written(self, tmp_path, bad):
        path = tmp_path / "n.wav"
        with pytest.raises(FormatError):
            save_wav(path, np.array([0.0, bad, 0.1]), 8000)
        assert not path.exists()

    def test_missing_directory_raises_only_its_os_error(self, tmp_path, monkeypatch):
        # a failed wave.open(path) leaves a half-built writer whose __del__ raises
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(FileNotFoundError):
            save_wav(tmp_path / "absent" / "o.wav", np.zeros(8), 8000)
        gc.collect()
        assert unraisable == []

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav file")
        with pytest.raises(FormatError):
            load_wav(path)

    def test_float_wav_rejected(self, tmp_path):
        # a WAVE_FORMAT_IEEE_FLOAT (format 3) file, which the wave module refuses itself
        data = np.zeros(4, dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 8000 * 4, 4, 32)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path = tmp_path / "float.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(FormatError, match=r"malformed WAV \(unknown format: 3\)"):
            load_wav(path)


class TestEmbeddingIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        emb = rng.standard_normal((3, 17)).astype(np.float32)
        path = tmp_path / "e.iiav"
        save_embedding(path, emb)
        np.testing.assert_array_equal(load_embedding(path), emb)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.iiav"
        save_embedding(path, np.zeros((2, 5), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == b"IIAV"
        assert struct.unpack_from("<II", blob, 4) == (2, 5)
        assert len(blob) == 12 + 4 * 2 * 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.iiav"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_embedding(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "tr.iiav"
        save_embedding(path, np.zeros((2, 5), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_embedding(path)

    def test_1d_rejected(self, tmp_path):
        with pytest.raises(GeometryError):
            save_embedding(tmp_path / "x.iiav", np.zeros(5, dtype=np.float32))

    def test_size_is_checked_before_the_payload_is_read(self, tmp_path):
        # a sparse 64 MB file whose header lists one value: refused from its
        # header and size alone, without reading or allocating the payload
        path = tmp_path / "big.iiav"
        with open(path, "wb") as fh:
            fh.write(b"IIAV" + struct.pack("<II", 1, 1))
            fh.truncate(64 << 20)
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(FormatError, match=f"payload is {(64 << 20) - 12} bytes, header says 4$"):
            load_embedding(path)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 0.05 and peak < 1 << 20


class TestMixing:
    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 2.5, 10.0])
    def test_realized_snr(self, snr_db, rng):
        target = rng.standard_normal(2048)
        interf = rng.standard_normal(2048)
        mixture, scaled = mix_at_snr(target, [interf], snr_db)
        got = 10.0 * np.log10((target @ target) / (scaled @ scaled))
        assert got == pytest.approx(snr_db, abs=1e-6)
        np.testing.assert_allclose(mixture, target + scaled, atol=1e-12)

    def test_multiple_interferers(self, rng):
        target = rng.standard_normal(1024)
        interfs = [rng.standard_normal(1024) for _ in range(3)]
        _, scaled = mix_at_snr(target, interfs, 3.0)
        got = 10.0 * np.log10((target @ target) / (scaled @ scaled))
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(GeometryError):
            mix_at_snr(np.ones(8), [np.ones(9)], 0.0)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            mix_at_snr(np.zeros(8), [np.ones(8)], 0.0)


class TestSynthSources:
    def test_deterministic(self):
        a = synth_sources(3, 1000, seed=5)
        b = synth_sources(3, 1000, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_rms_normalized(self):
        for s in synth_sources(4, 4000, seed=1):
            assert np.sqrt(np.mean(s * s)) == pytest.approx(0.1, rel=1e-9)

    def test_sources_nearly_uncorrelated(self):
        srcs = synth_sources(3, 8000, seed=2)
        for i in range(3):
            for j in range(i + 1, 3):
                r = (srcs[i] @ srcs[j]) / np.sqrt((srcs[i] @ srcs[i]) * (srcs[j] @ srcs[j]))
                assert abs(r) < 0.05

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            synth_sources(0, 100, seed=0)

    def test_sources_separable_by_si_snr(self):
        # each source should score far better against itself than the other
        a, b = synth_sources(2, 4000, seed=3)
        mix = a + b
        assert si_snr(a, mix) < si_snr(a, a + 0.01 * b)


class TestRemix:
    def test_snr_range_and_distinct_sources(self):
        pool = synth_sources(4, 2000, seed=0)
        rng = np.random.default_rng(9)
        for _ in range(20):
            mix, (target, interf) = remix(pool, rng)
            # the target is a pool source; the interferer a multiple of another one
            i = next(k for k, s in enumerate(pool) if s is target)
            (j,) = [k for k, s in enumerate(pool)
                    if np.allclose(interf * (s @ s), s * (interf @ s))]
            assert i != j
            snr = 10.0 * np.log10((target @ target) / (interf @ interf))
            assert -5.0 <= snr <= 5.0
            np.testing.assert_array_equal(mix, target + interf)

    def test_one_source_pool_rejected(self):
        with pytest.raises(ValueError):
            remix([np.ones(8)], np.random.default_rng(0))

    def test_draw_bits_pinned(self):
        # 5 draws' mixtures and references, as <f8 bytes, in one running hash
        pool = synth_sources(4, 2000, seed=0)
        rng = np.random.default_rng(11)
        h = hashlib.sha256()
        for _ in range(5):
            mix, refs = remix(pool, rng)
            for a in (mix, *refs):
                h.update(np.asarray(a, "<f8").tobytes())
        assert h.hexdigest() == (
            "c28cb99364f2b7082c9dbefed794ac21f7f7847ff64f631c6e7e8e19bcd1cf7c")


class TestEnergyEnvelope:
    def test_shape_follows_frame_rate(self, rng):
        env = energy_envelope(rng.standard_normal(8000), 8000)
        assert env.shape == (1, 25)  # 1 s at 25 fps

    def test_tracks_amplitude(self):
        w = np.concatenate([np.ones(4000) * 0.5, np.zeros(4000)])
        env = energy_envelope(w, 8000)[0]
        assert env[:12].min() > 0.4
        assert env[13:].max() < 1e-6

    def test_too_short_rejected(self):
        with pytest.raises(GeometryError):
            energy_envelope(np.ones(10), 8000)
