"""Self-test of the benchmark's output.

    python3 perfbench/selftest.py

It checks BENCHMARK.json against the benchmark's own metric tables, runs
every workload once untraced and once traced at a short run length, and
checks each output: the last line is the result object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, every gated
metric is there with its unit, and every metric the benchmark is specified
to report is in the record with its unit and direction, for each workload
it applies to. Last, it runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without printing a
result. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common

# The specified metrics, written out here rather than taken
# from common.py so the test can catch a table that drifted.
SPEC_END_TO_END = {
    "setup_s": ("s", "lower", ("separate-full", "train-toy", "gradcheck")),
    "separate_first_s": ("s", "lower", ("separate-full",)),
    "separate_s": ("s", "lower", ("separate-full",)),
    "separate_fast_s": ("s", "lower", ("separate-full",)),
    "train_step_s": ("s", "lower", ("train-toy",)),
    "train_si_snri_db": ("dB", "higher", ("train-toy",)),
    "gradcheck_s": ("s", "lower", ("gradcheck",)),
    "peak_rss_mb": ("MB", "lower", ("separate-full", "train-toy", "gradcheck")),
    "fail_ratio": ("ratio", "lower", ("separate-full", "train-toy", "gradcheck")),
}
SPEC_PER_LAYER = (
    "tensor.sigmoid_s", "tensor.elementwise_s", "tensor.backward_s", "tensor.op_calls",
    "tensor.fd_grad_s", "nn.conv1d_s", "nn.conv1d_calls", "nn.conv1d_gmac_per_s",
    "nn.conv1d_bwd_s", "nn.conv_transpose1d_s", "nn.conv_transpose1d_bwd_s", "nn.gln_s",
    "nn.gln_bwd_s", "nn.interp_resample_s", "nn.interp_resample_bwd_s", "nn.avg_pool1d_s",
    "nn.out_bytes", "blocks.inter_a_t_s", "blocks.top_down_pass_s", "blocks.inter_a_m_s",
    "blocks.intra_a_global_s", "blocks.inter_a_b_s", "model.load_checkpoint_s",
    "model.build_params_s", "model.encode_audio_s", "model.audio_only_cycle_s",
    "model.separation_features_s", "model.macs", "model.gmac_per_s",
    "metrics.si_snr_loss_s", "metrics.si_snri_s", "data.load_wav_s",
    "data.load_embedding_s", "data.save_wav_s", "data.energy_envelope_s",
    "trainer.forward_s", "trainer.backward_s", "trainer.clip_s", "trainer.adam_s",
    "checks.fd_evals", "checks.max_rel_err", "blas.sgemm_gmac_per_s",
    "trace_overhead_ratio", "tensor.self_s", "nn.self_s", "blocks.self_s", "model.self_s",
    "metrics.self_s", "data.self_s", "trainer.self_s", "checks.self_s", "unattributed_s",
    "traced_wall_s",
)
LAYER_SELF = [n for n in SPEC_PER_LAYER if n.endswith(".self_s")]
# Layer metrics that must be non-zero on a workload that exercises them.
NONZERO = {
    "separate-full": ("nn.conv1d_s", "nn.gln_s", "tensor.sigmoid_s", "blocks.inter_a_t_s",
                      "model.load_checkpoint_s", "model.audio_only_cycle_s", "model.macs",
                      "data.load_wav_s", "data.save_wav_s", "nn.out_bytes"),
    "train-toy": ("tensor.backward_s", "nn.conv1d_bwd_s", "nn.interp_resample_bwd_s",
                  "trainer.forward_s", "trainer.backward_s", "trainer.adam_s",
                  "metrics.si_snr_loss_s", "data.energy_envelope_s", "model.macs"),
    "gradcheck": ("tensor.fd_grad_s", "tensor.op_calls", "checks.fd_evals",
                  "checks.max_rel_err"),
}
SECONDS = 1


class Failure(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failure(what)


def check_benchmark_json() -> None:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, f"BENCHMARK.json keys: {sorted(spec)}")
    expect([w["name"] for w in spec["workloads"]] == list(common.WORKLOADS),
           "workload names")
    expect(all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"]), "workload entries")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == list(common.END_TO_END), "end_to_end table differs from common.END_TO_END")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == list(common.PER_LAYER), "per_layer table differs from common.PER_LAYER")
    expect([m["name"] for m in spec["per_layer"]] == list(SPEC_PER_LAYER),
           "per_layer names differ from the specified list")
    for workload, table in common.WORKLOAD_METRICS.items():
        for name, unit, better in table:
            u, b, where = SPEC_END_TO_END[name]
            expect((unit, better) == (u, b) and workload in where,
                   f"{name} on {workload}: {unit}/{better}")
    for name, (_, _, where) in SPEC_END_TO_END.items():
        for workload in where:
            expect(name in {n for n, _, _ in common.WORKLOAD_METRICS[workload]},
                   f"{name} missing from {workload}")


def run_bench(cwd, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=200)
    return proc.returncode, proc.stdout.splitlines()


def check_output(workload: str, trace: int) -> None:
    code, lines = run_bench(common.ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    expect(code == 0 and lines, f"{where}: exit code {code}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{where}: attempted")
    table = common.PER_LAYER if trace else common.END_TO_END
    expect(list(result["metrics"]) == [n for n, _, _ in table], f"{where}: metric names")
    for name, unit, _ in table:
        m = result["metrics"][name]
        expect(m["unit"] == unit and isinstance(m["value"], (int, float)),
               f"{where}: {name} = {m}")
        if not trace:
            expect(m["value"] > 0, f"{where}: {name} must never be 0")
    record = json.loads((common.OUT_DIR / f"{workload}-seed0-trace{trace}.json").read_text())
    env = record["environment"]
    for key in ("commit", "python", "numpy", "blas", "blas_threads", "nproc"):
        expect(key in env, f"{where}: environment lacks {key}")
    expect(record["seed"] == 0, f"{where}: seed not recorded")
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        for name in NONZERO[workload]:
            expect(values[name] > 0, f"{where}: {name} is 0 on a workload that runs it")
        total = sum(values[n] for n in LAYER_SELF) + values["unattributed_s"]
        expect(abs(total - values["traced_wall_s"]) <= 1e-6 * values["traced_wall_s"] + 1e-6,
               f"{where}: layer self times + unattributed_s = {total}, "
               f"traced_wall_s = {values['traced_wall_s']}")
        return
    for name, (unit, better, applies) in SPEC_END_TO_END.items():
        if workload in applies:
            m = record["workload_metrics"].get(name)
            expect(m is not None and m["unit"] == unit and m["better"] == better,
                   f"{where}: metric {name} = {m}")
            expect(any(name in line and unit in line for line in lines),
                   f"{where}: {name} not printed with its unit")


def check_without_program() -> None:
    bare = common.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(bare, "train-toy", 0)
        expect(code != 0, "a checkout without src/ must make the benchmark fail")
        expect(not any(line.startswith("{") for line in lines),
               "a failed run must print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    steps = [("BENCHMARK.json", check_benchmark_json),
             ("no program", check_without_program)]
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            steps.append((f"{workload} --trace {trace}",
                          lambda w=workload, t=trace: check_output(w, t)))
    for name, step in steps:
        try:
            step()
        except Failure as e:
            print(f"FAIL {name}: {e}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
