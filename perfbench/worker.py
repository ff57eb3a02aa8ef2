"""Runs one workload in a fresh process and writes what it measured as JSON.

run.py starts one worker per workload run, so peak RSS and
the first call never carry over from an earlier workload. The worker calls
the library's public functions as the CLI subcommands do: ``avsep
separate`` (load_checkpoint, load_wav, load_embedding, separate,
save_wav), ``avsep train-toy`` (train_toy) and ``avsep gradcheck``
(checks.run_all).

Closed loop with one caller: each call starts when the previous one has
returned. With ``--plan timed`` calls go on until ``--seconds`` have
passed and every call kind has its minimum count; with ``--plan fixed``
the worker makes exactly the minimum counts, so two runs do the same work.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from statistics import fmean

import common
from common import MIN_CALLS, SETUP_TRIALS, input_seed, median

sys.path.insert(0, str(common.SRC))

import numpy as np  # noqa: E402

import avsep  # noqa: E402
from avsep import checks, cli, data, model, trainer  # noqa: E402
from avsep.tensor import Tensor  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

# Bound before any tracing, so the MAC cross-check never traces itself.
_count_macs = model.count_macs
_separate_signature = inspect.signature(model.separate)


def _since(t0: float) -> float:
    return time.perf_counter() - t0


def _describe(e: Exception) -> str:
    where = traceback.extract_tb(e.__traceback__)[-1]
    return f"{type(e).__name__}: {e} ({Path(where.filename).name}:{where.lineno})"


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing what the ``avsep`` CLI
    imports: the import part of set-up."""
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import avsep.cli"], check=True)
    return _since(t0)


class Run:
    """Timed calls, checked operations and set-up times of one worker."""

    def __init__(self, plan: str, seconds: float):
        self.plan = plan
        self.seconds = seconds
        self.calls: list[dict] = []
        self.setup: list[float] = []
        self.imports: list[float] = []
        self.setup_trial = None  # a set-up step repeated between calls
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.t_calls = 0.0

    def start_calls(self) -> None:
        self.t_calls = time.perf_counter()

    def more(self, kind: str, phase_end_s: float) -> bool:
        """Another ``kind`` call is due below its minimum count or, on the
        timed plan, while the phase that ends ``phase_end_s`` after the first
        call began still has time."""
        if sum(c["kind"] == kind for c in self.calls) < MIN_CALLS[kind]:
            return True
        return self.plan == "timed" and _since(self.t_calls) < phase_end_s

    def call(self, kind: str, seconds: float) -> None:
        self.calls.append({"kind": kind, "s": seconds})
        if self.plan == "timed":
            self.imports.append(import_seconds())
            if self.setup_trial is not None:
                t0 = time.perf_counter()
                self.setup_trial()
                self.setup.append(_since(t0))

    def check(self, what: str, problems: list[str]) -> None:
        """Count one operation, failed when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(problems))

    def times(self, kind: str) -> list[float]:
        return [c["s"] for c in self.calls if c["kind"] == kind]


# ---------------------------------------------------------------------------
# workloads


def run_separate_full(run: Run, seed: int, work: Path, refs: dict) -> dict:
    ckpt, wav, emb = work / inputs.CHECKPOINT, work / inputs.MIXTURE, work / inputs.EMBEDDING
    out_wav = work / "out.0.wav"
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        params, cfg = model.load_checkpoint(ckpt)
        run.setup.append(_since(t0))
    fast_cfg = replace(cfg, n_audio_cycles=cli.FAST_AUDIO_CYCLES)
    ref = refs["separate-full"][str(input_seed(seed))]
    tol = refs["tolerances"]["separate_rel"]
    errors = []

    def call(kind: str, c) -> None:
        what = f"{kind} separate call {len(run.calls) + 1}"
        t0 = time.perf_counter()
        try:
            mixture, rate = data.load_wav(wav)
            feat = Tensor(data.load_embedding(emb))
            out = model.separate(Tensor(mixture[None, :]), feat, c, params)
            wave = out.waveform.data[0]
            data.save_wav(out_wav, wave, c.sample_rate)
        except Exception as e:  # a failed call is a failed operation; the run goes on
            run.call(kind, _since(t0))
            run.check(what, [_describe(e)])
            return
        dt = _since(t0)
        del out  # drops the tape before the next call, as the CLI's loop does
        problems = []
        if rate != c.sample_rate:
            problems.append(f"sample rate {rate}")
        if not np.all(np.isfinite(wave)):
            problems.append("non-finite output")
        if wave.shape != mixture.shape:
            problems.append(f"output length {wave.shape} != input {mixture.shape}")
        if not problems:
            err = inputs.sketch_error(wave, ref["fast" if kind == "fast" else "full"])
            errors.append(err)
            if not err <= tol:
                problems.append(f"sketch error {err:.3g} > {tol:g}")
        run.call(kind, dt)
        run.check(what, problems)

    run.start_calls()
    call("first", cfg)
    t_first = run.calls[0]["s"]
    while run.more("full", t_first + common.FULL_SHARE * (run.seconds - t_first)):
        call("full", cfg)
    while run.more("fast", run.seconds):
        call("fast", fast_cfg)
    return {
        "separate_first_s": t_first,
        "separate_s": median(run.times("full")),
        "separate_fast_s": median(run.times("fast")),
        "call_s": fmean(run.times("full")),
        "max_sketch_err": max(errors, default=math.nan),
        "macs_per_call": _count_macs(cfg, 1.0),
    }


def train_settings(seed: int) -> trainer.TrainSettings:
    steps = common.TRAIN_STEPS
    return trainer.TrainSettings(
        seed=seed, max_steps=steps, steps_per_epoch=common.TRAIN_STEPS_PER_EPOCH,
        target_si_snri_db=math.inf, plateau_patience=steps + 1, stop_patience=steps + 1,
    )


def run_train_toy(run: Run, seed: int, work: Path, refs: dict) -> dict:
    cfg = model.ModelConfig()
    iseed = input_seed(seed)
    run.setup_trial = lambda: model.build_params(cfg, seed=iseed)
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        run.setup_trial()
        run.setup.append(_since(t0))
    settings = train_settings(iseed)
    ref = refs["train-toy"][str(iseed)]
    tol = refs["tolerances"]["train_snri_db"]
    snris = []

    def call(kind: str) -> None:
        what = f"{kind} train_toy call {len(run.calls) + 1}"
        t0 = time.perf_counter()
        try:
            result = trainer.train_toy(cfg, settings)
        except Exception as e:  # TrainingError: a non-finite step loss or gradient
            run.call(kind, _since(t0) / common.TRAIN_STEPS)
            run.check(what, [_describe(e)])
            return
        run.call(kind, _since(t0) / result.steps_run)
        problems = []
        if result.steps_run != common.TRAIN_STEPS:
            problems.append(f"ran {result.steps_run} steps")
        if not all(math.isfinite(h["train_loss"]) for h in result.history):
            problems.append("non-finite training loss")
        snri = result.final_si_snri_db
        snris.append(snri)
        if not abs(snri - ref) <= tol:
            problems.append(f"final SI-SNRi {snri:.4f} dB, reference {ref:.4f} dB")
        run.check(what, problems)

    run.start_calls()
    call("first")
    while run.more("steady", run.seconds):
        call("steady")
    step_s = fmean(run.times("steady"))  # every call runs TRAIN_STEPS steps
    return {
        "train_step_s": step_s,
        "train_si_snri_db": median(snris) if snris else math.nan,
        "call_s": step_s,
        "macs_per_call": _count_macs(cfg, settings.mixture_seconds),
    }


def run_gradcheck(run: Run, seed: int, work: Path, refs: dict) -> dict:
    worst = []

    def call(kind: str) -> None:
        t0 = time.perf_counter()
        try:
            results = checks.run_all()
        except Exception as e:
            run.call(kind, _since(t0))
            run.check(f"{kind} run_all call {len(run.calls)}", [_describe(e)])
            return
        run.call(kind, _since(t0))
        for r in results:  # each finite-difference check is one operation
            run.check(f"{kind} run_all call {len(run.calls)}: {r.name}",
                      [] if r.passed else
                      [f"max rel err {r.max_rel_err:.3g} >= {checks.GRAD_TOL:g}"])
        worst.append(max(r.max_rel_err for r in results))

    run.start_calls()
    call("first")
    while run.more("steady", run.seconds):
        call("steady")
    call_s = fmean(run.times("steady"))
    return {
        "gradcheck_s": call_s,
        "call_s": call_s,
        "max_rel_err": max(worst, default=math.nan),
        "grad_tol": checks.GRAD_TOL,
        "macs_per_call": 0,  # the harness builds several tiny models, not one
    }


WORKLOADS = {"separate-full": run_separate_full, "train-toy": run_train_toy,
             "gradcheck": run_gradcheck}


# ---------------------------------------------------------------------------
# tracing


def sgemm_gmac_per_s() -> float:
    """Achieved float32 matmul rate at the im2col shape of the largest conv:
    the ceiling ``nn.conv1d_gmac_per_s`` is read against."""
    m, k, n = common.SGEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ b
        times.append(_since(t0))
    return m * k * n / median(times) / 1e9


def separate_macs_hook(tr: Tracer, checks_out: list):
    """Hook for ``model.separate``: the conv MACs traced inside each call
    must equal ``count_macs`` plus the video-stub convs it leaves out."""

    def pre(args, kwargs):
        bound = _separate_signature.bind(*args, **kwargs)
        mixture, feat = bound.arguments["mixture"], bound.arguments["video_feat"]
        cfg, p = bound.arguments["cfg"], bound.arguments["p"]
        expected = _count_macs(cfg, mixture.shape[1] / cfg.sample_rate)
        stub = 0
        if feat is not None and not cfg.audio_only and feat.shape[0] == cfg.n_video_in:
            stub = sum(cp.out_channels * cp.in_channels * cp.kernel * feat.shape[1]
                       for cp in p.video_stub)
        return tr.conv_macs, expected, stub

    def post(state, out):
        before, expected, stub = state
        checks_out.append({"traced": tr.conv_macs - before, "count_macs": expected,
                           "video_stub": stub})

    return pre, post


def layer_metrics(tr: Tracer, results: dict, sgemm: float) -> dict:
    elementwise = ("tensor.ew_add", "tensor.ew_sub", "tensor.ew_mul", "tensor.ew_div",
                   "tensor.scale", "tensor.relu", "tensor.log", "tensor.sum_all")
    sep_macs = results["mac_check"]["traced_macs"]
    conv_s = tr.self_of("nn.conv1d")
    sep_s = tr.incl_of("model.separate")
    nn_ops = [n for n in tr.names if n.startswith("nn.") and not n.endswith("_bwd")]
    return {
        "tensor.sigmoid_s": tr.self_of("tensor.sigmoid"),
        "tensor.elementwise_s": tr.self_of(*elementwise),
        "tensor.backward_s": tr.self_of("tensor.backward"),
        "tensor.op_calls": tr.calls_of("tensor.sigmoid", *elementwise),
        "tensor.fd_grad_s": tr.self_of("tensor.finite_difference_grad"),
        "nn.conv1d_s": conv_s,
        "nn.conv1d_calls": tr.calls_of("nn.conv1d"),
        "nn.conv1d_gmac_per_s": tr.macs_of("nn.conv1d") / conv_s / 1e9 if conv_s else 0.0,
        "nn.conv1d_bwd_s": tr.self_of("nn.conv1d_bwd"),
        "nn.conv_transpose1d_s": tr.self_of("nn.conv_transpose1d"),
        "nn.conv_transpose1d_bwd_s": tr.self_of("nn.conv_transpose1d_bwd"),
        "nn.gln_s": tr.self_of("nn.gln"),
        "nn.gln_bwd_s": tr.self_of("nn.gln_bwd"),
        "nn.interp_resample_s": tr.self_of("nn.interp_resample"),
        "nn.interp_resample_bwd_s": tr.self_of("nn.interp_resample_bwd"),
        "nn.avg_pool1d_s": tr.self_of("nn.avg_pool1d"),
        "nn.out_bytes": tr.out_bytes_of(*nn_ops),
        "blocks.inter_a_t_s": tr.incl_of("blocks.inter_a_t"),
        "blocks.top_down_pass_s": tr.incl_of("blocks.top_down_pass"),
        "blocks.inter_a_m_s": tr.incl_of("blocks.inter_a_m"),
        "blocks.intra_a_global_s": tr.incl_of("blocks.intra_a_global"),
        "blocks.inter_a_b_s": tr.incl_of("blocks.inter_a_b"),
        "model.load_checkpoint_s": tr.incl_of("model.load_checkpoint"),
        "model.build_params_s": tr.incl_of("model.build_params"),
        "model.encode_audio_s": tr.incl_of("model.encode_audio"),
        "model.audio_only_cycle_s": tr.incl_of("model.audio_only_cycle"),
        "model.separation_features_s": tr.incl_of("model.separation_features"),
        "model.macs": results["macs_per_call"],
        "model.gmac_per_s": sep_macs / sep_s / 1e9 if sep_s else 0.0,
        "metrics.si_snr_loss_s": tr.incl_of("metrics.si_snr_loss"),
        "metrics.si_snri_s": tr.incl_of("metrics.si_snri"),
        "data.load_wav_s": tr.self_of("data.load_wav"),
        "data.load_embedding_s": tr.self_of("data.load_embedding"),
        "data.save_wav_s": tr.self_of("data.save_wav"),
        "data.energy_envelope_s": tr.self_of("data.energy_envelope"),
        "trainer.forward_s": tr.incl_of("trainer.forward"),
        "trainer.backward_s": tr.incl_under("tensor.backward", "trainer.train_toy"),
        "trainer.clip_s": tr.incl_of("trainer.clip_global_norm"),
        "trainer.adam_s": tr.incl_of("trainer.adam_step"),
        "checks.fd_evals": tr.fd_evals,
        "checks.max_rel_err": results.get("max_rel_err", 0.0),
        "blas.sgemm_gmac_per_s": sgemm,
        **{f"{layer}.self_s": s for layer, s in results["balance"]["layer_self_s"].items()},
        "unattributed_s": results["balance"]["unattributed_s"],
        "traced_wall_s": results["plan_wall_s"],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--plan", choices=("timed", "fixed"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    pkg = Path(avsep.__file__).resolve()
    if common.SRC.resolve() not in pkg.parents:
        print(f"error: imported avsep from {pkg}, not from {common.SRC}", file=sys.stderr)
        return 2

    run = Run(args.plan, args.seconds)
    refs = json.loads(common.REFERENCES.read_text())
    sgemm = sgemm_gmac_per_s() if args.trace else None

    mac_checks: list[dict] = []
    tr = None
    if args.trace:
        tr = Tracer()
        if args.workload in common.MAC_CROSS_CHECK:
            tr.hooks["model.separate"] = separate_macs_hook(tr, mac_checks)
        tr.install()
    t0 = time.perf_counter()
    try:
        results = WORKLOADS[args.workload](run, args.seed, args.work, refs)
    finally:
        t1 = time.perf_counter()
        if tr is not None:
            tr.uninstall()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    results.update(
        numpy=np.__version__,
        blas=blas.get("name"),
        blas_version=blas.get("version"),
        blas_config=blas.get("openblas configuration"),
        plan_wall_s=t1 - t0,
        setup_trials_s=run.setup,
        import_trials_s=run.imports,
        setup_s=(median(run.imports) or 0.0) + (median(run.setup) or 0.0),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        calls=run.calls,
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
    )
    if tr is not None:
        mismatched = [c for c in mac_checks
                      if c["traced"] != c["count_macs"] + c["video_stub"]]
        results["mac_check"] = {"separate_calls": len(mac_checks),
                                "traced_macs": sum(c["traced"] for c in mac_checks),
                                "mismatched": len(mismatched), "examples": mismatched[:3]}
        results["balance"] = tr.balance(t0, t1)
        results["layers"] = layer_metrics(tr, results, sgemm)
        if args.spans:
            tr.save(args.spans, t0)
    args.out.write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
