import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from conftest import tiny_config

from avsep import tensor as T
from avsep import trainer
from avsep.data import energy_envelope, mix_at_snr, synth_sources
from avsep.errors import ConfigError, TrainingError
from avsep.model import build_params, named_tensors, separate
from avsep.tensor import Tensor
from avsep.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    FlatParams,
    ScheduleState,
    TrainSettings,
    adam_step,
    clip_global_norm,
    train_toy,
)


def _flat(values, dtype=np.float64):
    """Marked flat parameters p0, p1, ... holding ``values``, so that each
    tensor's ``grad`` is its writable view of ``flat.grad``."""
    flat = FlatParams([(f"p{i}", Tensor(np.asarray(v, dtype=dtype)))
                       for i, v in enumerate(values)])
    flat.mark(True)
    return flat


def _tensors(flat):
    return [t for _, t in flat.params]


class TestFlatParams:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_data_and_grad_are_views_of_the_buffers_in_order(self, dtype, rng):
        values = [rng.standard_normal(s) for s in ((4, 3, 5), (7,), (2, 9))]
        flat = _flat(values, dtype)
        assert flat.data.dtype == flat.grad.dtype == dtype
        assert flat.data.size == flat.grad.size == sum(v.size for v in values)
        off = 0
        for t, want in zip(_tensors(flat), values):
            span = slice(off, off + want.size)
            assert t.data.dtype == dtype and t.data.shape == want.shape
            np.testing.assert_array_equal(t.data, want.astype(dtype))
            np.testing.assert_array_equal(flat.data[span], want.astype(dtype).ravel())
            for view, buf in ((t.data, flat.data), (t.grad, flat.grad)):
                assert view.base is buf and view.ctypes.data == buf[span].ctypes.data
            off = span.stop
        flat.data[:] = 7.0  # the tensors read what the buffer holds
        flat.grad[:] = 3.0
        assert all((t.data == 7.0).all() and (t.grad == 3.0).all() for t in _tensors(flat))

    def test_two_dtypes_raise_instead_of_converting(self):
        params = [("a", Tensor(np.ones(3, np.float32))), ("b", Tensor(np.ones(2, np.float64)))]
        with pytest.raises(TypeError):
            FlatParams(params)
        assert params[0][1].data.dtype == np.float32 and params[0][1].data.base is None

    def test_a_parameter_with_no_gradient_is_a_zero_slice(self):
        flat = _flat([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]])
        a, unused, c = _tensors(flat)
        T.ew_add(T.sum_all(T.ew_mul(a, a)), T.sum_all(T.scale(c, 2.0))).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])
        np.testing.assert_array_equal(c.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(unused.grad, [0.0])
        np.testing.assert_array_equal(flat.grad, [2.0, 4.0, 0.0, 2.0, 2.0, 2.0])

    def test_a_second_backward_adds_into_the_buffer(self):
        flat = _flat([[1.0, 2.0]])
        (x,) = _tensors(flat)
        T.sum_all(T.scale(x, 3.0)).backward()
        first = x.grad
        T.sum_all(T.scale(x, 3.0)).backward()  # the same graph built again
        assert x.grad is first
        np.testing.assert_array_equal(flat.grad, [6.0, 6.0])

    def test_unmarked_parameters_are_plain_data(self):
        flat = _flat([[1.0], [2.0, 3.0]])
        flat.grad[:] = 1.0
        flat.mark(False)
        assert all(not t.requires_grad and t.grad is None for t in _tensors(flat))
        assert not T.sum_all(_tensors(flat)[1]).requires_grad
        flat.mark(True)  # marked again, each grad is its view once more
        np.testing.assert_array_equal(_tensors(flat)[1].grad, [1.0, 1.0])


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # with bias correction, |step 1| = lr regardless of gradient scale
        flat = _flat([[1.0, -2.0]])
        flat.grad[:] = [0.004, -37.0]
        adam_step(flat, AdamState(lr=0.01))
        np.testing.assert_allclose(_tensors(flat)[0].data, [1.0 - 0.01, -2.0 + 0.01],
                                   atol=1e-6)

    def test_zero_gradient_is_noop(self):
        flat = _flat([[3.0], [4.0]])
        adam_step(flat, AdamState(lr=0.1))
        np.testing.assert_array_equal(flat.data, [3.0, 4.0])

    def test_missing_gradient_treated_as_zero(self):
        # a parameter the loss does not reach keeps a zero slice of the buffer
        flat = _flat([[1.0], [3.0]])
        x, unused = _tensors(flat)
        T.sum_all(T.scale(x, 2.0)).backward()
        adam_step(flat, AdamState(lr=0.1))
        assert x.data[0] != 1.0
        np.testing.assert_array_equal(unused.data, [3.0])

    def test_nan_gradient_names_parameter(self):
        flat = _flat([[1.0]])
        flat.grad[:] = math.nan
        with pytest.raises(TrainingError, match="p0"):
            adam_step(flat, AdamState(lr=0.001))

    def test_nan_in_second_of_three_names_it_and_changes_nothing(self):
        flat = _flat([[1.0], [2.0, 3.0], [4.0]])
        flat.grad[:] = [0.5, 0.1, math.nan, 0.2]
        st = AdamState(lr=0.001)
        with pytest.raises(TrainingError, match="'p1'"):
            adam_step(flat, st)
        assert st.step == 0 and st.m is None and st.v is None
        np.testing.assert_array_equal(flat.data, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_a_per_tensor_update_bit_for_bit(self, dtype, rng):
        shapes = [(4, 3, 5), (7,), (2, 9)]
        flat = _flat([rng.standard_normal(s) for s in shapes], dtype)
        ref = {n: t.data.copy() for n, t in flat.params}
        ref_m = {n: np.zeros_like(d) for n, d in ref.items()}
        ref_v = {n: np.zeros_like(d) for n, d in ref.items()}
        st = AdamState(lr=0.01)
        for step in range(1, 5):
            for i, (n, t) in enumerate(flat.params):
                # the middle parameter has no gradient on every other step
                t.grad[...] = 0.0 if i == 1 and step % 2 else \
                    rng.standard_normal(t.shape).astype(dtype)
            adam_step(flat, st)
            c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
            for n, t in flat.params:
                g, m, v = t.grad, ref_m[n], ref_v[n]
                m += (1.0 - ADAM_BETA1) * (g - m)
                v += (1.0 - ADAM_BETA2) * (g * g - v)
                ref[n] = ref[n] - st.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
                assert t.data.dtype == ref[n].dtype == dtype and t.data.shape == ref[n].shape
                assert np.shares_memory(t.data, flat.data)  # updated in place
                np.testing.assert_array_equal(t.data, ref[n])
        assert st.step == 4 and st.m.dtype == st.v.dtype == dtype

    def test_matches_kingma_and_ba_with_the_constants_written_out(self, rng):
        # Algorithm 1 of Kingma and Ba (arXiv 1412.6980) with its defaults
        # as literals, so a wrong module constant cannot move the reference
        theta = rng.uniform(1.0, 2.0, 6)
        flat = _flat([theta])
        st = AdamState(lr=0.01)
        m = v = np.zeros(6)
        for t in range(1, 4):
            g = rng.standard_normal(6)
            flat.grad[:] = g
            adam_step(flat, st)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            theta = theta - 0.01 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            np.testing.assert_allclose(flat.data, theta, rtol=1e-12, atol=0)

    def test_state_persists_across_steps(self):
        flat = _flat([[0.0]])
        st = AdamState(lr=0.1)
        for _ in range(3):
            flat.grad[:] = 1.0
            adam_step(flat, st)
        assert st.step == 3
        assert flat.data[0] == pytest.approx(-0.3, abs=1e-3)


class TestClipping:
    def test_post_norm_is_min_of_pre_and_cap(self, rng):
        flat = _flat([rng.standard_normal(10), rng.standard_normal(7)])
        flat.grad[:] = 10.0
        pre = clip_global_norm(flat, max_norm=5.0)
        post = math.sqrt(sum(float((t.grad ** 2).sum()) for t in _tensors(flat)))
        assert post == pytest.approx(min(pre, 5.0), abs=1e-6)

    def test_small_gradients_untouched(self):
        flat = _flat([[1.0]])
        flat.grad[:] = 0.1
        pre = clip_global_norm(flat, max_norm=5.0)
        assert pre == pytest.approx(0.1)
        np.testing.assert_array_equal(_tensors(flat)[0].grad, [0.1])

    def test_never_increases_norm(self, rng):
        for scale in (0.01, 1.0, 100.0):
            flat = _flat([rng.standard_normal(20)])
            flat.grad[:] = scale * rng.standard_normal(20)
            pre = clip_global_norm(flat, max_norm=5.0)
            post = math.sqrt(float((flat.grad ** 2).sum()))
            assert post <= pre + 1e-9

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            clip_global_norm(_flat([[1.0]]), max_norm=0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_matches_the_plain_expression_bit_for_bit(self, rng, dtype, scale):
        # the norm squares one float64 copy of the buffer and sums it per
        # parameter; the products, the per-tensor pairwise sums and the
        # clipped gradients stay those of the expression below. The third
        # parameter gets no gradient: a zero slice.
        grads = [scale * rng.standard_normal(s).astype(dtype)
                 for s in ((4, 3, 5), (257,), (3,), (16, 9), (1,))]
        grads[2][...] = 0.0
        flat = _flat([np.zeros_like(g) for g in grads], dtype)
        for t, g in zip(_tensors(flat), grads):
            t.grad[...] = g
        norm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        assert clip_global_norm(flat, max_norm=5.0) == norm
        for t, g in zip(_tensors(flat), grads):
            want = g * (5.0 / norm) if norm > 5.0 else g
            assert t.grad.dtype == want.dtype == dtype
            assert np.shares_memory(t.grad, flat.grad)  # scaled in place
            np.testing.assert_array_equal(t.grad, want)


def _reference_clip(params, max_norm):
    """Per-tensor global-norm clipping, as the trainer did before it kept
    one flat gradient buffer."""
    sq = 0.0
    for _, t in params:
        if t.grad is not None:
            g = t.grad.astype(np.float64)
            g *= g
            sq += float(g.sum())
    norm = math.sqrt(sq)
    if norm > max_norm:
        for _, t in params:
            if t.grad is not None:
                t.grad = t.grad * (max_norm / norm)
    return norm


def _reference_adam(params, st, moments):
    """Per-tensor Adam, as the trainer did before it kept one flat buffer."""
    st.step += 1
    c1, c2 = 1.0 - ADAM_BETA1 ** st.step, 1.0 - ADAM_BETA2 ** st.step
    for n, t in params:
        g = np.zeros_like(t.data) if t.grad is None else t.grad
        m, v = moments.setdefault(n, (np.zeros_like(g), np.zeros_like(g)))
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        t.data = t.data - st.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@pytest.mark.parametrize("audio_only", [False, True])
def test_three_flat_steps_match_the_per_tensor_optimizer_bit_for_bit(audio_only):
    # a tiny model with dropout: the same three steps through FlatParams,
    # clip_global_norm and adam_step, and through the per-tensor reference
    cfg = tiny_config(dropout_p=0.2, audio_only=audio_only, n_speakers=2 if audio_only else 1)
    src = synth_sources(2, 400, seed=3)
    mix, interf = mix_at_snr(src[0], [src[1]], 0.0)
    vfeat = None if audio_only else energy_envelope(src[0], cfg.sample_rate)
    runs = []
    for flat_path in (True, False):
        p = build_params(cfg, seed=5)
        params = list(named_tensors(p))
        rng, st, moments, norms = np.random.default_rng(7), AdamState(lr=0.01), {}, []
        flat = FlatParams(params) if flat_path else None
        for _ in range(3):
            if flat_path:
                flat.mark(True)
            else:
                for _, t in params:
                    t.requires_grad, t.grad = True, None
            trainer._forward_loss_av(mix, vfeat, [src[0], interf], cfg, p, rng).backward()
            if flat_path:
                norms.append(clip_global_norm(flat, max_norm=0.5))
                adam_step(flat, st)
                flat.grad.fill(0)
            else:
                norms.append(_reference_clip(params, max_norm=0.5))
                _reference_adam(params, st, moments)
        runs.append((norms, [t.data.copy() for _, t in params]))
    (flat_norms, flat_data), (ref_norms, ref_data) = runs
    assert flat_norms == ref_norms and flat_norms[0] > 0.5  # clipping took part
    for got, want in zip(flat_data, ref_data):
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)
    assert any(np.any(a != b) for a, b in
               zip(flat_data, (t.data for _, t in named_tensors(build_params(cfg, seed=5)))))


def test_a_step_backward_gives_its_tape_back_while_the_root_is_held():
    # flat parameters own their gradients before the forward, so what the
    # forward allocates is the tape; the backward frees it as it walks
    cfg = tiny_config(dropout_p=0.2)
    src = synth_sources(2, 4000, seed=3)
    mix, interf = mix_at_snr(src[0], [src[1]], 0.0)
    vfeat = energy_envelope(src[0], cfg.sample_rate)
    p = build_params(cfg, seed=5)
    flat = FlatParams(list(named_tensors(p)))
    flat.mark(True)
    rng = np.random.default_rng(7)
    trainer._forward_loss_av(mix, vfeat, [src[0], interf], cfg, p, rng).backward()  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = trainer._forward_loss_av(mix, vfeat, [src[0], interf], cfg, p, rng)
        taped = tracemalloc.get_traced_memory()[0] - before
        loss.backward()
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert taped > 1 << 20  # the tape this step recorded
    assert after < 64 << 10 and not loss.requires_grad and loss.data.shape == ()


class TestSchedule:
    def test_improvement_resets_counters(self):
        s = ScheduleState(plateau_patience=2, stop_patience=4)
        st = AdamState(lr=1.0)
        assert not s.update(10.0, st)
        assert not s.update(11.0, st)
        assert not s.update(9.0, st)  # improvement
        assert s.since_improve_lr == 0 and s.since_improve_stop == 0

    def test_lr_halves_after_plateau(self):
        s = ScheduleState(plateau_patience=2, stop_patience=10)
        st = AdamState(lr=1.0)
        s.update(10.0, st)
        s.update(10.0, st)
        s.update(10.0, st)
        assert st.lr == 0.5
        # the plateau counter restarts after a halving
        s.update(10.0, st)
        assert st.lr == 0.5
        s.update(10.0, st)
        assert st.lr == 0.25

    def test_early_stop_counter_independent(self):
        s = ScheduleState(plateau_patience=2, stop_patience=5)
        st = AdamState(lr=1.0)
        stops = [s.update(10.0, st) for _ in range(7)]
        assert stops[:5] == [False] * 5
        assert stops[5] is True  # 5 epochs without improvement after the best

    def test_tiny_decrease_is_not_improvement(self):
        s = ScheduleState(plateau_patience=1, stop_patience=10)
        st = AdamState(lr=1.0)
        s.update(1.0, st)
        s.update(1.0 - 1e-9, st)
        assert st.lr == 0.5


class TestTrainToy:
    def _settings(self, **over):
        base = dict(max_steps=10, steps_per_epoch=5, seed=0,
                    mixture_seconds=0.1, target_si_snri_db=1e9)
        base.update(over)
        return TrainSettings(**base)

    @pytest.mark.parametrize("field", ["max_steps", "steps_per_epoch"])
    def test_fewer_than_one_step_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            self._settings(**{field: 0})

    @pytest.mark.parametrize("key, value", [
        (f.name, value) for f in fields(TrainSettings)
        for value in {"int": (2.5, True), "bool": ("false",), "float": ("x", True)}[f.type]])
    def test_mistyped_setting_rejected(self, key, value):
        # each field is checked against its annotation, as ModelConfig's are:
        # "false" would otherwise switch dynamic mixing on, 2.5 end in a TypeError
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            TrainSettings(**{key: value})

    def test_more_than_two_speakers_rejected_before_building(self, monkeypatch):
        # the toy mixture has two sources, so a third output has no reference
        def no_build(*args, **kwargs):
            raise AssertionError("train_toy built a model")

        monkeypatch.setattr(trainer, "build_params", no_build)
        with pytest.raises(ConfigError, match="n_speakers"):
            train_toy(tiny_config(audio_only=True, n_speakers=3), self._settings())

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        a = train_toy(cfg, self._settings())
        b = train_toy(cfg, self._settings())
        assert [r["train_loss"] for r in a.history] == [r["train_loss"] for r in b.history]
        for (_, t1), (_, t2) in zip(named_tensors(a.params), named_tensors(b.params)):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_dropout_applies_in_training(self):
        runs = [train_toy(tiny_config(dropout_p=d), self._settings(max_steps=5))
                for d in (0.0, 0.5)]
        assert any(np.any(a.data != b.data) for (_, a), (_, b)
                   in zip(named_tensors(runs[0].params), named_tensors(runs[1].params)))

    def test_history_schema(self):
        lines = []
        res = train_toy(tiny_config(), self._settings(), log=lines.append)
        assert res.steps_run == 10
        assert len(res.history) == 2 and len(lines) == 2
        for row, line in zip(res.history, lines):
            assert set(row) == {"epoch", "train_loss", "val_si_snri", "lr", "grad_norm", "step_s",
                                "fwd_s", "bwd_s", "opt_s", "peak_rss_mb"}
            assert math.isfinite(row["grad_norm"]) and row["grad_norm"] > 0
            for key in ("step_s", "fwd_s", "bwd_s", "opt_s", "peak_rss_mb"):
                assert math.isfinite(row[key]) and row[key] > 0
            stages = row["fwd_s"] + row["bwd_s"] + row["opt_s"]
            assert abs(stages - row["step_s"]) <= 0.05 * row["step_s"]
            assert f"(bwd/fwd {row['bwd_s'] / row['fwd_s']:.2f})" in line
            assert line.endswith(f"  peak-rss {row['peak_rss_mb']:.1f} MB")
        assert res.history[0]["peak_rss_mb"] <= res.history[1]["peak_rss_mb"]  # a peak

    def test_holds_one_tape_at_a_time(self, monkeypatch, refcount_only):
        # Tensor has __slots__ and no __weakref__, so each step's tape and each
        # separated output (training and validation) is watched through its data
        losses, taped, outputs, live = [], [], [], []
        forward, sep = trainer._forward_loss_av, trainer._separate

        def watched_forward(*args):
            live.append([sum(r() is not None for r in refs) for refs in (taped, outputs)])
            loss = forward(*args)
            losses.append(loss)
            # the root comes last on its tape, and `losses` keeps it
            taped.extend(weakref.ref(node.data) for node in loss.tape()[:-1])
            return loss

        def watched_separate(*args):
            out = sep(*args)
            outputs.append(weakref.ref(out.waveforms[0].data))
            return out

        monkeypatch.setattr(trainer, "_forward_loss_av", watched_forward)
        monkeypatch.setattr(trainer, "_separate", watched_separate)
        train_toy(tiny_config(), self._settings(max_steps=3, steps_per_epoch=2))
        assert live == [[0, 0]] * 3  # [live tape arrays, live outputs] as each forward starts
        assert len(losses) == 3 and len(outputs) == 5  # 3 steps, 2 validations
        assert len(taped) > 3 * 90  # every node of each step's tape below its root
        assert all(r() is None for r in taped + outputs)
        # each loss the trainer still held as the next forward started is plain data
        assert all(not loss.requires_grad and loss.data.shape == () for loss in losses)

    def test_returns_plain_parameters_off_the_tape(self):
        res = train_toy(tiny_config(), self._settings(max_steps=2, steps_per_epoch=1))
        params = list(named_tensors(res.params))
        assert params and all(not t.requires_grad and t.grad is None for _, t in params)
        out = separate(Tensor(res.mixture[None, :].astype(np.float32)),
                       Tensor(res.video_feat.astype(np.float32)), res.cfg, res.params)
        assert all(not w.requires_grad and w._backward is None for w in out.masks + out.waveforms)

    def test_loss_decreases(self):
        res = train_toy(tiny_config(), self._settings(max_steps=50, steps_per_epoch=10))
        assert res.history[-1]["train_loss"] < res.history[0]["train_loss"]

    def test_audio_only_mode_runs(self):
        cfg = tiny_config(audio_only=True, n_speakers=2)
        res = train_toy(cfg, self._settings())
        assert res.video_feat is None
        assert math.isfinite(res.final_si_snri_db)

    def test_dynamic_mix_mode_runs(self):
        res = train_toy(tiny_config(), self._settings(dynamic_mix=True, pool_size=3))
        assert res.steps_run == 10

    def test_all_zero_output_is_a_non_finite_loss_error(self, monkeypatch):
        # a zero decoder makes every waveform zero and every PIT loss NaN
        def zero_decoder(*args, **kw):
            p = build_params(*args, **kw)
            p.decoder.weight.data[...] = 0.0
            return p

        monkeypatch.setattr(trainer, "build_params", zero_decoder)
        with pytest.raises(TrainingError, match="non-finite loss at step 0"), \
                np.errstate(divide="ignore", invalid="ignore"):
            train_toy(tiny_config(), self._settings())
